import csv
import struct

import numpy as np
import pytest

from hypercross import grid as g
from hypercross import linearized as lin
from hypercross import multiplier as mu
from hypercross import normest as ne


def test_constant_field_transforms_to_unit_delta():
    f = g.SampledField(4, np.ones((16, 16)))
    F = g.forward_transform(f)
    expected = np.zeros((16, 16), dtype=complex)
    expected[0, 0] = 1.0
    assert np.abs(F.coeffs - expected).max() < 1e-14


def test_single_mode_transform():
    n = 16
    x = np.arange(n) / n
    f = g.SampledField(4, np.exp(2j * np.pi * (3 * x[:, None] + 5 * x[None, :])))
    F = g.forward_transform(f)
    assert abs(F.coeffs[3, 5] - 1.0) < 1e-12
    others = F.coeffs.copy()
    others[3, 5] = 0.0
    assert np.abs(others).max() < 1e-12


def test_roundtrip_identity_random():
    for seed in range(5):
        f = g.random_field(5, seed)
        back = g.inverse_transform(g.forward_transform(f))
        rel = np.abs(back.samples - f.samples).max() / np.abs(f.samples).max()
        assert rel < 1e-12


@pytest.mark.parametrize("norm", [None, "forward"])
@pytest.mark.parametrize("n_log2", [3, 4, 5, 6])
@pytest.mark.parametrize("lead", [(), (3,)])
def test_transform_pair_is_numpys_fft2_bit_for_bit(lead, n_log2, norm):
    # the pair runs numpy's two 1-D passes itself; a numpy release that
    # reorders them fails here rather than moving every output's bits
    rng = np.random.default_rng(n_log2)
    shape = lead + (1 << n_log2, 1 << n_log2)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert g._fft2(a, norm=norm).tobytes() == np.fft.fft2(a, norm=norm).tobytes()
    assert g._ifft2(a, norm=norm).tobytes() == np.fft.ifft2(a, norm=norm).tobytes()


def test_inverse_of_delta_is_constant():
    coeffs = np.zeros((16, 16), dtype=complex)
    coeffs[0, 0] = 1.0
    f = g.inverse_transform(g.SpectralField(4, coeffs))
    assert np.abs(f.samples - 1.0).max() < 1e-13


def test_inverse_linearity():
    rng = np.random.default_rng(0)
    F = g.SpectralField(4, rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    G = g.SpectralField(4, rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    a, b = 2.3 - 0.5j, -1.1 + 0.25j
    combo = g.inverse_transform(g.SpectralField(4, a * F.coeffs + b * G.coeffs))
    parts = a * g.inverse_transform(F).samples + b * g.inverse_transform(G).samples
    assert np.abs(combo.samples - parts).max() < 1e-12


def test_conjugate_symmetric_spectrum_gives_real_field():
    # build the spectrum of a real field, then invert it
    rng = np.random.default_rng(3)
    real_field = g.SampledField(4, rng.standard_normal((16, 16)))
    F = g.forward_transform(real_field)
    back = g.inverse_transform(F)
    assert np.abs(back.samples.imag).max() < 1e-12


def test_parseval():
    f = g.random_field(4, 9)
    F = g.forward_transform(f)
    lhs = np.sum(np.abs(F.coeffs) ** 2)
    rhs = np.sum(np.abs(f.samples) ** 2) / 16**2
    assert abs(lhs - rhs) < 1e-12 * rhs


def test_lp_norm_constant_and_scaling():
    f = g.SampledField(4, np.ones((16, 16)))
    for p in (1.5, 2.0, 3.0, 7.0):
        assert abs(g.lp_norm(f, p) - 1.0) < 1e-14
    h = g.random_field(4, 2)
    for p in (1.5, 2.0, 3.0):
        scaled = g.SampledField(4, 3.5 * h.samples)
        assert abs(g.lp_norm(scaled, p) - 3.5 * g.lp_norm(h, p)) < 1e-12


def test_lp_norm_half_grid_indicator():
    # field = 2 * indicator of half the grid: mean(|f|^2) = 4/2 = 2
    samples = np.zeros((16, 16))
    samples[:8, :] = 2.0
    f = g.SampledField(4, samples)
    assert abs(g.lp_norm(f, 2.0) - np.sqrt(2.0)) < 1e-14


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("n_log2", [3, 4, 5, 6, 7, 8])
def test_lp_mean_is_the_np_mean_formula_bit_for_bit(n_log2, p):
    # the one mean is np.add.reduce / size; the 1/p power stays the scalar power
    n = 1 << n_log2
    rng = np.random.default_rng(n_log2)
    real = rng.standard_normal((n, n))
    for values in (real, real + 1j * rng.standard_normal((n, n)), 1e-3 * real**3):
        assert g._lp_mean(values, p) == float(np.mean(np.abs(values) ** p) ** (1 / p))
        assert g._mean(np.abs(values) ** p) == np.mean(np.abs(values) ** p)


def test_lp_norm_rejects_bad_p():
    f = g.SampledField(4, np.ones((16, 16)))
    for p in (1.0, 0.5, -2.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            g.lp_norm(f, p)


class _Sym:
    def __init__(self, n_log2, values):
        self.n_log2 = n_log2
        self.values = values


def _multiply(f, symbol):
    return ne.fixed_multiplier_operator(symbol).apply(f)


def test_apply_fixed_multiplier_identity_and_eigenfunction():
    f = g.random_field(4, 4)
    ones = _Sym(4, np.ones((16, 16)))
    out = _multiply(f, ones)
    assert np.abs(out.samples - f.samples).max() < 1e-12

    n = 16
    x = np.arange(n) / n
    mode = g.SampledField(4, np.exp(2j * np.pi * (2 * x[:, None] + 7 * x[None, :])))
    rng = np.random.default_rng(1)
    values = rng.standard_normal((n, n))
    out = _multiply(mode, _Sym(4, values))
    expected = values[2, 7] * mode.samples
    assert np.abs(out.samples - expected).max() < 1e-11


def test_plancherel_contraction_random_symbols():
    rng = np.random.default_rng(5)
    values = rng.standard_normal((16, 16))
    sym = _Sym(4, values)
    bound = np.abs(values).max()
    for seed in range(100):
        f = g.random_field(4, seed)
        out = _multiply(f, sym)
        assert g.lp_norm(out, 2.0) <= bound * g.lp_norm(f, 2.0) + 1e-12


def test_apply_fixed_multiplier_grid_mismatch():
    f = g.random_field(4, 0)
    with pytest.raises(g.GridMismatchError):
        _multiply(f, _Sym(5, np.ones((32, 32))))


def test_grid_size_validation():
    with pytest.raises(ValueError):
        g.SampledField(2, np.ones((4, 4)))
    with pytest.raises(ValueError):
        g.SampledField(4, np.ones((8, 8)))


def _with_entry(value):
    arr = np.ones((8, 8))
    arr[2, 5] = value
    return arr


@pytest.mark.parametrize(
    "make", [g.SampledField, g.SpectralField, mu.SymbolGrid, lin.LinearizerField], ids=lambda c: c.__name__
)
@pytest.mark.parametrize(
    "n_log2, values",
    [(2, np.ones((4, 4))), (3, np.ones((8, 4))), (3, _with_entry(np.nan)), (3, _with_entry(np.inf))],
    ids=["n_log2_2", "wrong_shape", "nan", "inf"],
)
def test_grid_objects_reject_what_breaks_the_grid_contract(make, n_log2, values):
    with pytest.raises(ValueError):
        make(n_log2, values)


def test_hxf1_roundtrip(tmp_path):
    f = g.random_field(4, 11)
    path = tmp_path / "field.hxf1"
    g.write_hxf1(path, 4, f.samples)
    n_log2, arr = g.read_hxf1(path)
    assert n_log2 == 4
    assert np.array_equal(arr, f.samples)
    raw = path.read_bytes()
    assert raw[:4] == b"HXF1"
    assert int.from_bytes(raw[4:8], "little") == 4
    assert len(raw) == 8 + 16 * 16 * 16


def test_hxf1_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.hxf1"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        g.read_hxf1(path)


def test_hxf1_rejects_short_header(tmp_path):
    path = tmp_path / "short.hxf1"
    path.write_bytes(b"HXF1\x04\x00")
    with pytest.raises(ValueError, match="truncated HXF1 header"):
        g.read_hxf1(path)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda lines: lines[:101],  # header plus a 100-row prefix
        lambda lines: lines[:1] + ["-1,0,1.0,0.0"] + lines[2:],  # negative index
        lambda lines: lines[:1] + ["0,16,1.0,0.0"] + lines[2:],  # index past the grid
        lambda lines: lines + [lines[5]],  # a sample repeated
        lambda lines: ["x,y,re,im"] + lines[1:],  # a header of other columns
    ],
    ids=["truncated", "negative_index", "index_out_of_range", "duplicate", "bad_header"],
)
def test_csv_rejects_malformed_file(tmp_path, corrupt):
    path = tmp_path / "field.csv"
    g.write_field_csv(path, g.random_field(4, 13))
    path.write_text("\n".join(corrupt(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError):
        g.read_field_csv(path, 4)


def test_hxf1_rejects_truncated_payload(tmp_path):
    path = tmp_path / "short.hxf1"
    g.write_hxf1(path, 3, g.random_field(3, 11).samples)
    path.write_bytes(path.read_bytes()[:-16])  # one complex sample short
    with pytest.raises(ValueError, match="payload has 126 doubles, expected 128"):
        g.read_hxf1(path)


def test_hxf1_write_rejects_the_wrong_shape(tmp_path):
    with pytest.raises(ValueError, match=r"array shape \(8, 8\) does not match N=16"):
        g.write_hxf1(tmp_path / "f.hxf1", 4, np.ones((8, 8)))
    assert not (tmp_path / "f.hxf1").exists()


def _nan_at_3_5(n_log2):
    samples = g.random_field(n_log2, 11).samples.copy()
    samples[3, 5] = np.nan
    return samples


@pytest.mark.parametrize(
    "n_log2, values, message",
    [(2, np.zeros((4, 4)), "grid must be at least 8x8"), (3, _nan_at_3_5(3), "grid array holds non-finite values")],
)
def test_hxf1_write_refuses_what_the_reader_refuses(tmp_path, n_log2, values, message):
    # both files were written, and read_hxf1 raised these errors on them
    with pytest.raises(ValueError, match=message):
        g.write_hxf1(tmp_path / "f.hxf1", n_log2, values)
    assert not (tmp_path / "f.hxf1").exists()


def test_hxf1_rejects_non_finite_payload(tmp_path):
    path = tmp_path / "nan.hxf1"
    path.write_bytes(g.HXF1_MAGIC + struct.pack("<I", 4) + _nan_at_3_5(4).astype("<c16").tobytes())
    with pytest.raises(ValueError, match="non-finite"):
        g.read_hxf1(path)


def test_csv_rejects_non_finite_sample(tmp_path):
    path = tmp_path / "field.csv"
    g.write_field_csv(path, g.random_field(4, 13))
    lines = path.read_text().splitlines()
    lines[7] = "0,6,nan,0.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="non-finite"):
        g.read_field_csv(path, 4)


def test_sampled_field_rejects_inf():
    samples = np.ones((8, 8), dtype=np.complex128)
    samples[2, 2] = complex(0.0, np.inf)
    with pytest.raises(ValueError, match="non-finite"):
        g.SampledField(3, samples)


def test_csv_roundtrip(tmp_path):
    f = g.random_field(4, 13)
    path = tmp_path / "field.csv"
    g.write_field_csv(path, f)
    back = g.read_field_csv(path, 4)
    assert np.array_equal(back.samples, f.samples)


def test_csv_bytes_are_those_of_csv_writer(tmp_path):
    # the one-pass writer must make what csv.writer made of each row, on
    # signed zeros, subnormals and large exponents too
    samples = g.random_field(3, 17).samples.copy()
    samples[0, :4] = [-0.0, complex(0.0, -0.0), complex(-0.0, 5e-324), complex(1e300, -2.5e-308)]
    samples[5, 7] = complex(-1.7976931348623157e308, 1e-310)
    field = g.SampledField(3, samples)
    want = tmp_path / "want.csv"
    with open(want, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "re", "im"])
        for i in range(8):
            for j in range(8):
                writer.writerow([i, j, repr(float(samples[i, j].real)), repr(float(samples[i, j].imag))])
    path = tmp_path / "field.csv"
    g.write_field_csv(path, field)
    assert path.read_bytes() == want.read_bytes()
    assert b"-0.0" in path.read_bytes() and b"5e-324" in path.read_bytes()
    assert np.array_equal(g.read_field_csv(path, 3).samples.view(np.int64), samples.view(np.int64))


def test_a_made_field_keeps_its_array_and_checks_it():
    # the wrap for arrays the package has just made: no copy, the same checks
    samples = np.ones((8, 8), dtype=np.complex128)
    field = g._made_field(3, samples)
    assert field.samples is samples and not samples.flags.writeable and field.n_log2 == 3
    real = np.ones((8, 8))
    assert g._made_field(3, real).samples.dtype == np.complex128 and real.flags.writeable
    for n_log2, bad, match in ((3, np.full((8, 8), np.inf + 0j), "non-finite"), (3, np.ones((8, 4), complex), "does not match"), (2, np.ones((4, 4), complex), "at least 8x8")):
        with pytest.raises(ValueError, match=match):
            g._made_field(n_log2, bad)
