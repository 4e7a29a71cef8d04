"""Property tests over the file codecs and the kernel oracles.

Hypothesis draws the inputs; every run is derandomized and keeps no example
database, so tier-1 stays reproducible, and each property is bounded by
``max_examples``.
"""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hypercross import grid as g
from hypercross import linearized as lin
from hypercross import multiplier as mu

_CODEC = settings(derandomize=True, database=None, deadline=None, max_examples=40)
_KERNEL = settings(derandomize=True, database=None, deadline=None, max_examples=30)

_FINITE_GRIDS = hnp.arrays(np.complex128, (8, 8), elements=st.complex_numbers(allow_nan=False, allow_infinity=False))
_SIGNED_ZERO = np.full((8, 8), complex(1.5, -0.0))


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """A path in a new directory per call: each example writes a new file
    (rewriting one file in place can cost a flush per close on ext4)."""
    return lambda name: tmp_path_factory.mktemp("codec") / name


@pytest.fixture(scope="module")
def valid_hxf1(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("valid") / "field.hxf1"
    g.write_hxf1(path, 3, g.random_field(3, 11).samples)
    return path.read_bytes()


@_CODEC
@given(values=_FINITE_GRIDS)
@example(values=_SIGNED_ZERO)
def test_hxf1_roundtrip_is_bit_exact(fresh, values):
    path = fresh("field.hxf1")
    g.write_hxf1(path, 3, values)
    n_log2, back = g.read_hxf1(path)
    assert n_log2 == 3
    assert back.tobytes() == values.tobytes()


@_CODEC
@given(values=_FINITE_GRIDS)
@example(values=_SIGNED_ZERO)
def test_csv_roundtrip_is_bit_exact(fresh, values):
    path = fresh("field.csv")
    g.write_field_csv(path, g.SampledField(3, values))
    assert g.read_field_csv(path, 3).samples.tobytes() == values.tobytes()


@_CODEC
@given(cut=st.integers(0, 8 + 16 * 64 - 1))
def test_truncated_hxf1_names_the_header_or_the_payload(fresh, valid_hxf1, cut):
    path = fresh("cut.hxf1")
    path.write_bytes(valid_hxf1[:cut])
    with pytest.raises(ValueError, match="header|payload"):
        g.read_hxf1(path)


@_CODEC
@given(n_log2=st.integers(0, 2**16).filter(lambda k: k != 3))
def test_hxf1_header_that_disagrees_with_the_payload_raises(fresh, valid_hxf1, n_log2):
    path = fresh("relabelled.hxf1")
    path.write_bytes(valid_hxf1[:4] + struct.pack("<I", n_log2) + valid_hxf1[8:])
    with pytest.raises(ValueError, match="header|payload"):
        g.read_hxf1(path)


@pytest.mark.parametrize("n_log2", [32, 2**16])
def test_hxf1_header_above_31_is_rejected(tmp_path, n_log2):
    path = tmp_path / "huge.hxf1"
    path.write_bytes(g.HXF1_MAGIC + struct.pack("<I", n_log2) + bytes(128))
    with pytest.raises(ValueError, match=f"HXF1 header claims n_log2={n_log2}"):
        g.read_hxf1(path)


def test_hxf1_header_at_the_u32_maximum_is_rejected(tmp_path):
    # the largest header value: a reader that sized the payload as
    # 2 * (1 << n_log2)**2 would build a 512 MiB integer and square it
    path = tmp_path / "max.hxf1"
    path.write_bytes(g.HXF1_MAGIC + struct.pack("<I", 2**32 - 1) + bytes(128))
    with pytest.raises(ValueError, match=f"HXF1 header claims n_log2={2**32 - 1}"):
        g.read_hxf1(path)


def test_hxf1_payload_one_byte_short_names_the_payload(tmp_path, valid_hxf1):
    path = tmp_path / "short.hxf1"
    path.write_bytes(valid_hxf1[:-1])
    with pytest.raises(ValueError, match=r"payload has 127 doubles, expected 128 \(1023 of 1024 bytes\)"):
        g.read_hxf1(path)


@_CODEC
@given(line=st.integers(2, 65), fields=st.sampled_from([3, 5]))
def test_csv_row_without_four_fields_names_its_line(fresh, line, fields):
    path = fresh("field.csv")
    g.write_field_csv(path, g.random_field(3, 13))
    lines = path.read_text().splitlines()
    lines[line - 1] = ",".join((lines[line - 1].split(",") + ["0.0"])[:fields])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^line {line}: {fields} fields"):
        g.read_field_csv(path, 3)


_N_LOG2S = st.sampled_from([3, 4])
_BETAS = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 1.5])
_PROFILES = st.integers(0, 3).map(lambda i: mu.make_bump_profile(2.0**-i))
_KINDS = st.sampled_from(sorted(lin._LINEARIZER_KEYS))
_SEEDS = st.integers(0, 2**16)


@_KERNEL
@given(n_log2=_N_LOG2S, beta=_BETAS, m=_PROFILES, kind=_KINDS, seed=_SEEDS)
def test_linearized_operator_matches_the_bruteforce_and_its_adjoint(n_log2, beta, m, kind, seed):
    V = lin.generate_linearizer(kind, {}, seed, n_log2)
    op = lin.linearized_operator(V, m, beta)
    f, b = g.random_field(n_log2, seed + 1), g.random_field(n_log2, seed + 2)
    brute = lin.apply_linearized_bruteforce(f, V, m, beta).samples
    tf = op.apply(f).samples
    assert np.linalg.norm(tf - brute) <= 1e-10 * np.linalg.norm(brute)
    gap = abs(np.vdot(b.samples, tf) - np.vdot(op.adjoint(b).samples, f.samples))
    assert gap <= 1e-10 * np.linalg.norm(tf) * np.linalg.norm(b.samples)


# keys from a small pool repeat and include 0; the floats fill the rest
_KEYS = hnp.arrays(np.float64, (8, 8), elements=st.sampled_from([0.0, 0.125, 0.3, 1.0, 2.5]) | st.floats(0.0, 8.0))


@settings(_KERNEL, max_examples=60)
@given(keys=_KEYS, beta=_BETAS, m=_PROFILES, seed=_SEEDS)
def test_kernel_sides_agree_on_any_keys(keys, beta, m, seed):
    buckets = lin.BucketDecomposition(keys)
    scaled = lin.ScaledSymbol(m, mu.hyperbolic_argument(3, beta), mu.pi_beta_mask(beta, 3).values)
    by_key = lin._plan(buckets, lambda key: scaled(key))
    by_h = lin._Plan(lin._h_bands(buckets.groups.values, scaled), lambda hs: m(buckets.keys * hs[:, None, None]), scaled.weight)
    spec = g.forward_transform(g.random_field(3, seed)).coeffs
    samples = g.random_field(3, seed + 1).samples
    for kernel, arr in ((lin._gather, spec), (lin._scatter, samples)):
        want = kernel(arr, buckets, by_key)
        assert np.linalg.norm(kernel(arr, buckets, by_h) - want) <= 1e-12 * np.linalg.norm(want)
