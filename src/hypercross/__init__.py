"""Numerical laboratory for linearized maximal hyperbolic-cross multipliers."""

import ctypes

__version__ = "0.1.0"

# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Keep freed heap memory mapped, through glibc's ``mallopt``: blocks up
    to 32 MiB come from the heap rather than their own mmap, and the top of
    the heap goes back to the OS only once more than 64 MiB of it is free.
    These are the thresholds glibc's own dynamic rule reaches after it frees
    a 32 MiB block.

    Without them, the numpy temporaries of 64 KiB to 1 MiB that the kernels
    make (the 128 KiB stacks of grids, the temporaries of a profile
    evaluation, the grids themselves from N = 128) are mapped and unmapped
    call by call, and each new stack faults its pages back in.  Measured
    on glibc 2.36, x86-64, in warm processes: 500 minor faults per
    apply-cold benchmark case, 1,440 per structural case and 210,000 to
    270,000 (0.25 to 0.41 s of system time) per apply at N = 256,
    beta = -1, against 2, 2.5 and at most 40 with them.  The cost is that
    up to 64 MiB of freed memory stays mapped to the process.  Where the C
    library has no ``mallopt`` this does nothing."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_freed_heap()
