"""The heap setting made when the package is imported."""

import platform
import resource
import types

import pytest

import hypercross
from hypercross import decomposition as de
from hypercross import grid as g
from hypercross import linearized as lin
from hypercross import multiplier as mu


def _c_library(monkeypatch, **names):
    monkeypatch.setattr(hypercross.ctypes, "CDLL", lambda name: types.SimpleNamespace(**names))


def test_import_raises_both_malloc_thresholds(monkeypatch):
    calls = []
    _c_library(monkeypatch, mallopt=lambda param, value: calls.append((param, value)))
    hypercross._keep_freed_heap()
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD


def test_a_c_library_without_mallopt_is_left_alone(monkeypatch):
    _c_library(monkeypatch)
    hypercross._keep_freed_heap()


@pytest.mark.skipif(platform.system() != "Linux" or platform.libc_ver()[0] != "glibc", reason="glibc only")
def test_repeated_kernel_calls_fault_no_pages_back_in():
    # without the setting the five rounds take about 20,000 minor faults:
    # each kernel stack's pages are returned to the OS and faulted back
    V = lin.generate_linearizer("lip_x", {"lip_constant": 1.0, "v_min": 0.05, "amplitude": 1.0}, 3, 5)
    m = mu.make_bump_profile(1.0)
    family = de.make_lp_family(-1.0, 5)
    f = g.random_field(5, 1)

    def one_round():
        for _ in range(6):
            lin.apply_linearized_bucketed(f, V, m, -1.0)
            de.error_term(f, V, family, m)

    one_round()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        one_round()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100
