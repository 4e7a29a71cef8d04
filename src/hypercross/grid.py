"""Periodic grid substrate: sampled fields, discrete Fourier analysis, Lp norms.

Functions on the plane are modelled by band-limited periodic fields sampled on
an N x N grid over [0,1)^2 with N = 2**n_log2.  The forward transform uses the
e^{-2pi i (x xi + y eta)} sign convention and numpy's ``norm="forward"``
scaling, which divides by N^2, so a constant field maps to a unit delta at
frequency (0,0) and ``lp_norm`` is a mean.

Every 2-D transform of the package, on one grid or on a stack of grids, goes
through one private pair, :func:`_fft2` and :func:`_ifft2`.  Each runs the two
1-D passes that numpy's ``fft2``/``ifft2`` make (the last axis first, each
pass with the caller's ``norm``), so its results are numpy's bit for bit,
without the n-D wrapper's argument handling: the operator kernels call a
transform per stack of groups, and at N = 8 to 32 a call's fixed cost rivals
its arithmetic.  An 8 x 8 ``ifft2`` takes 8.8 us and the same two passes
5.8 us (numpy 2.4, 2-core x86-64 host).

Every N x N array of the package (samples, coefficients, symbol values, scale
fields, HXF1 payloads) passes one check, :func:`_grid_array`: n_log2 >= 3,
shape (N, N) and every entry finite; the object keeps a read-only copy.

Each field file is read once and decoded by its format: an HXF1 payload is
one row-major little-endian complex128 array, checked against the n_log2 of
its header, and a CSV sample is complex(re, im).  Both round trips are
bit-exact, signed zeros included.
"""

from __future__ import annotations

import cmath
import csv
import struct
from dataclasses import dataclass

import numpy as np

HXF1_MAGIC = b"HXF1"


class GridMismatchError(ValueError):
    """Raised when two grid objects of different resolution are combined."""


def _check_n_log2(n_log2: int) -> None:
    """The grid contract's size bound: ValueError unless n_log2 >= 3."""
    if n_log2 < 3:
        raise ValueError(f"grid must be at least 8x8 (n_log2 >= 3), got n_log2={n_log2}")


def _grid_array(n_log2: int, values, dtype) -> np.ndarray:
    """The grid contract, checked once for every N x N array of the package:
    n_log2 >= 3, shape (N, N) and every entry finite.  Returns a read-only
    copy in the given dtype; anything else raises ValueError."""
    _check_n_log2(n_log2)
    n = 1 << n_log2
    arr = np.array(values, dtype=dtype)
    if arr.shape != (n, n):
        raise ValueError(f"array shape {arr.shape} does not match N={n}")
    _finite(arr)
    arr.setflags(write=False)
    return arr


def _finite(arr: np.ndarray) -> np.ndarray:
    """arr, a grid or a stack of grids, once every entry is finite (the grid
    contract); ValueError otherwise."""
    if not np.isfinite(arr).all():
        raise ValueError("grid array holds non-finite values")
    return arr


@dataclass(frozen=True)
class SampledField:
    """Complex samples of a function at the points (i/N, j/N).

    ``samples[i, j]`` is the value at ``x = i/N``, ``y = j/N``; the first index
    is the x coordinate throughout the package.
    """

    n_log2: int
    samples: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", _grid_array(self.n_log2, self.samples, np.complex128))

    @property
    def n(self) -> int:
        return 1 << self.n_log2


@dataclass(frozen=True)
class SpectralField:
    """DFT coefficients indexed by integer frequencies in {-N/2 .. N/2-1}^2.

    Coefficients are stored in standard FFT order, scaled as numpy's
    ``norm="forward"`` scales them (divided by N^2); ``frequencies`` gives
    the integer frequency along one axis for each array index.
    """

    n_log2: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _grid_array(self.n_log2, self.coeffs, np.complex128))


def frequencies(n_log2: int) -> np.ndarray:
    """Integer frequencies along one axis, in FFT storage order."""
    n = 1 << n_log2
    return np.fft.fftfreq(n, 1.0 / n).astype(np.int64)  # sample spacing 1/N: exact integers


def _fft2(a: np.ndarray, norm: str | None = None) -> np.ndarray:
    """np.fft.fft2 of a over its last two axes, as the two 1-D passes numpy
    makes: the last axis first, each with norm."""
    return np.fft.fft(np.fft.fft(a, axis=-1, norm=norm), axis=-2, norm=norm)


def _ifft2(a: np.ndarray, norm: str | None = None) -> np.ndarray:
    """np.fft.ifft2 of a over its last two axes, as :func:`_fft2` makes fft2."""
    return np.fft.ifft(np.fft.ifft(a, axis=-1, norm=norm), axis=-2, norm=norm)


def forward_transform(f: SampledField) -> SpectralField:
    """DFT with the e^{-2pi i(x xi + y eta)} convention, normalized by 1/N^2."""
    return SpectralField(f.n_log2, _fft2(f.samples, norm="forward"))


def inverse_transform(F: SpectralField) -> SampledField:
    """Inverse of :func:`forward_transform`."""
    return SampledField(F.n_log2, _ifft2(F.coeffs, norm="forward"))


def lp_norm(f: SampledField, p: float) -> float:
    """Normalized lp mean (N^{-2} sum |f|^p)^{1/p} for p in (1, inf)."""
    if not np.isfinite(p) or p <= 1.0:
        raise ValueError(f"p must be finite and > 1, got {p}")
    mags = np.abs(f.samples)
    return float(np.mean(mags**p) ** (1.0 / p))


def apply_fixed_multiplier(f: SampledField, symbol) -> SampledField:
    """Apply an x-independent multiplier: output spectrum = symbol * spectrum.

    ``symbol`` must expose ``n_log2`` and real ``values`` aligned with the FFT
    frequency order (any SymbolGrid-shaped object works).
    """
    if symbol.n_log2 != f.n_log2:
        raise GridMismatchError(
            f"symbol grid n_log2={symbol.n_log2} does not match field n_log2={f.n_log2}"
        )
    spec = forward_transform(f)
    return inverse_transform(SpectralField(f.n_log2, spec.coeffs * symbol.values))


# ---------------------------------------------------------------------------
# Serialization: HXF1 flat binary and CSV interchange.
# ---------------------------------------------------------------------------

def write_hxf1(path, n_log2: int, values: np.ndarray) -> None:
    """Write a complex N x N array: magic 'HXF1', u32-LE n_log2, then the
    row-major payload as little-endian complex128, the bytes of (re, im)
    float64 pairs."""
    n = 1 << n_log2
    arr = np.asarray(values, dtype="<c16")
    if arr.shape != (n, n):
        raise ValueError(f"array shape {arr.shape} does not match n_log2={n_log2}")
    with open(path, "wb") as fh:
        fh.write(HXF1_MAGIC + struct.pack("<I", n_log2) + arr.tobytes())


def read_hxf1(path) -> tuple[int, np.ndarray]:
    """Read an HXF1 file; returns (n_log2, read-only complex array), the
    array checked by :func:`_grid_array`.  A header with n_log2 above 31
    (no file holds 16 * 4**32 bytes) or one that disagrees with the payload
    length raises ValueError."""
    with open(path, "rb") as fh:
        header, payload = fh.read(8), fh.read()
    if len(header) != 8:
        raise ValueError(f"truncated HXF1 header: {len(header)} of 8 bytes")
    if header[:4] != HXF1_MAGIC:
        raise ValueError(f"bad magic {header[:4]!r} in the HXF1 header, expected {HXF1_MAGIC!r}")
    (n_log2,) = struct.unpack("<I", header[4:])
    if n_log2 > 31:
        raise ValueError(f"HXF1 header claims n_log2={n_log2}, above 31")
    size = 16 << (2 * n_log2)
    if len(payload) != size:
        raise ValueError(f"payload has {len(payload) // 8} doubles, expected {size // 8} ({len(payload)} of {size} bytes)")
    n = 1 << n_log2
    return n_log2, _grid_array(n_log2, np.frombuffer(payload, "<c16").reshape(n, n), np.complex128)


def write_field_csv(path, field: SampledField) -> None:
    """CSV interchange with columns i, j, re, im."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "re", "im"])
        for i in range(field.n):
            row = field.samples[i]
            for j in range(field.n):
                writer.writerow([i, j, repr(float(row[j].real)), repr(float(row[j].imag))])


def read_field_csv(path, n_log2: int) -> SampledField:
    """Read the CSV interchange format; every (i, j) of the grid must appear
    exactly once, with finite re and im.  A malformed row raises ValueError
    naming its line."""
    n = 1 << n_log2
    samples = np.zeros((n, n), dtype=np.complex128)
    seen = np.zeros((n, n), dtype=bool)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["i", "j", "re", "im"]:
            raise ValueError(f"unexpected CSV header {header}")
        for row in reader:
            try:
                if len(row) != 4:
                    raise ValueError(f"{len(row)} fields, expected i, j, re, im")
                i_s, j_s, re_s, im_s = row
                i, j = int(i_s), int(j_s)
                if not (0 <= i < n and 0 <= j < n) or seen[i, j]:
                    raise ValueError(f"sample ({i}, {j}) out of range or repeated on the {n}x{n} grid")
                value = complex(float(re_s), float(im_s))
                if not cmath.isfinite(value):
                    raise ValueError(f"non-finite sample ({i}, {j})")
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from exc
            seen[i, j] = True
            samples[i, j] = value
    if not seen.all():
        raise ValueError(f"CSV holds {int(seen.sum())} of {n * n} samples")
    return SampledField(n_log2, samples)


def random_field(n_log2: int, seed: int) -> SampledField:
    """Deterministic pseudo-random complex field: independent standard normal
    real and imaginary parts at every sample, all frequencies present."""
    rng = np.random.default_rng(seed)
    n = 1 << n_log2
    return SampledField(n_log2, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
