import math

import numpy as np
import pytest

from hypercross import multiplier as mu

# A of the bump transition shape, from exact derivatives on the 2**16 + 1
# point scan
BUMP_SMOOTHNESS_BASELINE = 409.65238641647505
# the degree-11 smoothstep expanded on all of [0, 1], as Polynomial coefficients
SMOOTHSTEP = np.polynomial.Polynomial([0.0] * 6 + [462.0, -1980.0, 3465.0, -3080.0, 1386.0, -252.0])


def test_bump_values_eps_1():
    m = mu.make_bump_profile(1.0)
    assert m(0.5) == 1.0
    assert m(2.5) == 0.0


def test_bump_values_eps_eighth():
    m = mu.make_bump_profile(2.0**-3)
    t = np.linspace(-0.125, 0.125, 101)
    assert np.all(m(t) == 1.0)
    t = np.array([0.25, 0.3, -0.25, 5.0])
    assert np.all(m(t) == 0.0)


@pytest.mark.parametrize("i", range(7))
def test_bump_sandwich_scan(i):
    eps = 2.0**-i
    m = mu.make_bump_profile(eps)
    t = np.linspace(-4 * eps, 4 * eps, 100_001)
    vals = m(t)
    lower = (np.abs(t) < eps).astype(float)
    upper = (np.abs(t) < 2 * eps).astype(float)
    assert np.all(vals >= lower)
    assert np.all(vals <= upper)
    assert np.abs(vals - m(-t)).max() == 0.0  # even


def test_profile_rejects_radii_out_of_order():
    for flat, support in ((0.75, float("inf")), (1.0, 1.0), (0.0, 2.0)):
        with pytest.raises(ValueError, match="need 0 < epsilon < support_radius < inf"):
            mu.MultiplierProfile(flat, support)


def test_bump_rejects_non_dyadic_eps():
    for eps in (0.3, 1.5, -0.5, 0.0, float("nan")):
        with pytest.raises(ValueError):
            mu.make_bump_profile(eps)


def test_smoothness_constant_order_zero_term_is_one():
    m = mu.make_bump_profile(0.25)
    scan = np.linspace(-1.0, 1.0, 100_001)
    assert np.abs(m(scan)).max() == 1.0
    assert mu.smoothness_constant(m) >= 1.0


def test_smoothness_constant_regression_and_dilation_invariance():
    a_half = mu.smoothness_constant(mu.make_bump_profile(0.5))
    assert a_half == pytest.approx(BUMP_SMOOTHNESS_BASELINE, rel=1e-9)
    a_eighth = mu.smoothness_constant(mu.make_bump_profile(0.125))
    assert a_eighth == pytest.approx(a_half, rel=1e-12)


def test_hyperbolic_symbol_compact_support_far_out():
    m = mu.make_bump_profile(1.0)
    sym = mu.hyperbolic_symbol(16.0, 1.0, m, 4)  # 16 |xi eta| > 2 off the axes
    from hypercross.grid import frequencies

    freqs = frequencies(4)
    off_axes = (freqs[:, None] != 0) & (freqs[None, :] != 0)
    assert np.abs(sym.values[off_axes]).max() == 0.0


def test_hyperbolic_symbol_beta_zero_depends_on_xi_only():
    m = mu.make_bump_profile(0.5)
    sym = mu.hyperbolic_symbol(0.3, 0.0, m, 4)
    assert np.abs(np.diff(sym.values, axis=1)).max() == 0.0
    from hypercross.grid import frequencies

    xi = frequencies(4)
    assert np.abs(sym.values[:, 0] - m(0.3 * np.abs(xi))).max() == 0.0


def test_hyperbolic_symbol_direct_values():
    m = mu.make_bump_profile(1.0)
    sym = mu.hyperbolic_symbol(1.0, 1.0, m, 4)
    n = 16
    assert sym.values[1, 1] == m(1.0)
    assert sym.values[2, 3] == m(6.0) == 0.0
    assert np.abs(sym.values).max() <= 1.0


def test_hyperbolic_symbol_negative_beta_zero_row():
    m = mu.make_bump_profile(1.0)
    for beta in (-1.0, -0.75):
        sym = mu.hyperbolic_symbol(1.0, beta, m, 4)
        assert np.abs(sym.values[:, 0]).max() == 0.0  # eta = 0 convention


def test_hyperbolic_symbol_rejects_bad_lambda():
    m = mu.make_bump_profile(1.0)
    for lam in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            mu.hyperbolic_symbol(lam, 1.0, m, 4)


_GRID_BETAS = [-math.inf, -2.0, -1.0, -0.75, -0.5, 0.0, 1.0 / 3.0, 0.5, 1.0, 1.5, 2.0, math.inf]


def test_pi_beta_masks():
    from hypercross.grid import frequencies

    eta = frequencies(4)
    pos = mu.pi_beta_mask(1.0, 4)
    assert np.array_equal(pos.values[0, :], (np.abs(eta) <= 1).astype(float))
    neg = mu.pi_beta_mask(-1.0, 4)
    assert np.array_equal(neg.values[0, :], (np.abs(eta) >= 1).astype(float))
    assert neg.values[0, 0] == 0.0
    all_ones = mu.pi_beta_mask(0.0, 4)
    assert np.all(all_ones.values == 1.0)
    # every entry against the definition, in Python floats: keep eta iff
    # |eta|**beta is defined (eta != 0 or beta >= 0) and at most 1
    for n_log2 in (3, 4, 6):
        eta = frequencies(n_log2).tolist()
        for beta in _GRID_BETAS:
            keep = [float((k != 0 or beta >= 0) and float(abs(k)) ** beta <= 1.0) for k in eta]
            assert mu.pi_beta_mask(beta, n_log2).values.tolist() == [keep] * len(eta)


def test_abs_power_matches_its_definition():
    # |k|**beta where it is defined (k != 0 or beta >= 0), 0 elsewhere; numpy's
    # vectorized power may round a non-integer power one unit in the last
    # place away from the C library's, so the match is to 2**-51 relative
    from hypercross.grid import frequencies

    for n_log2 in (3, 4, 6):
        freqs = frequencies(n_log2)
        for beta in _GRID_BETAS:
            expected = [float(abs(k)) ** beta if k != 0 or beta >= 0 else 0.0 for k in freqs.tolist()]
            assert mu._abs_power(freqs, beta).tolist() == pytest.approx(expected, rel=2.0**-51, abs=0.0)


def test_flat_radius():
    for m, flat in ((mu.make_bump_profile(0.25), 0.25), (mu.MultiplierProfile(0.3, 1.1), 0.3)):
        assert m.epsilon == flat
        assert np.all(m(np.linspace(-flat, flat, 1001)) == 1.0)
        assert m(flat + 0.1 * (m.support_radius - flat)) < 1.0


@pytest.mark.parametrize(
    "m",
    [mu.make_bump_profile(1.0), mu.make_bump_profile(0.5), mu.make_bump_profile(2.0**-6), mu.MultiplierProfile(0.3, 1.1)],
    ids=["bump1", "bump0.5", "bump2**-6", "plateau0.3-1.1"],
)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_profile_derivative_matches_expanded_polynomial(m, k):
    flat, radius = m.epsilon, m.support_radius
    width = radius - flat
    knots = np.array([flat, radius])
    scan = np.linspace(-3 * radius, 3 * radius, 40_001)
    scan = np.concatenate([scan, knots, np.nextafter(knots, np.inf), np.nextafter(knots, -np.inf)])
    scan = np.concatenate([scan, -scan])
    band = (np.abs(scan) > flat) & (np.abs(scan) < radius)
    u = (np.abs(scan[band]) - flat) / width
    ref = np.zeros_like(scan)
    ref[band] = -np.sign(scan[band]) ** k * SMOOTHSTEP.deriv(k)(u) / width**k
    out = m.derivative(scan, k)
    assert np.abs(out - ref).max() <= 1e-9 * np.abs(ref).max()
    assert np.all(out[~band] == 0.0)
    assert np.array_equal(out, (-1) ** k * m.derivative(-scan, k))


def _closed_form(t, flat, width):
    """The profile as a whole-array formula, with smoothstep's two evaluations
    of the lower polynomial: the reference the band evaluation must match."""
    a = np.abs(np.asarray(t, dtype=np.float64))
    x = np.clip((a - flat) / width, 0.0, 1.0)
    low = mu._smoothstep_lower(np.minimum(x, 0.5))
    high = 1.0 - mu._smoothstep_lower(np.minimum(1.0 - x, 0.5))
    return np.where(a <= flat, 1.0, 1.0 - np.where(x <= 0.5, low, high))


@pytest.mark.parametrize(
    "make, flat, width",
    [
        (lambda: mu.make_bump_profile(1.0), 1.0, 1.0),
        (lambda: mu.make_bump_profile(0.5), 0.5, 0.5),
        (lambda: mu.make_bump_profile(2.0**-6), 2.0**-6, 2.0**-6),
        (lambda: mu.MultiplierProfile(0.3, 1.1), 0.3, 1.1 - 0.3),
    ],
)
def test_profile_matches_closed_form_bit_for_bit(make, flat, width):
    m = make()
    knots = np.array([flat, flat + width, 0.5 * (2 * flat + width)])
    edges = np.concatenate([knots, np.nextafter(knots, np.inf), np.nextafter(knots, -np.inf)])
    special = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0])
    scan = np.concatenate([np.linspace(-3 * (flat + width), 3 * (flat + width), 40_001), edges, -edges, special])
    scan = np.concatenate([scan, np.zeros(-scan.size % 8)])
    for t in (scan, scan.reshape(8, -1).T, np.asarray(flat + 0.25 * width)):
        out = m(t)
        ref = _closed_form(t, flat, width)
        assert out.shape == np.shape(t)
        assert out.tobytes() == ref.tobytes()
    assert np.isnan(m(np.nan)) and np.isnan(m(np.array([np.nan]))).all()
    for scalar in (flat + 0.5 * width, 0.0, float(np.nextafter(flat, np.inf))):
        out = m(scalar)
        assert isinstance(out, np.ndarray) and out.shape == ()
        assert out.tobytes() == _closed_form(scalar, flat, width).tobytes()


def test_profile_derivative_rejects_order_outside_1_to_6():
    m = mu.make_bump_profile(0.5)
    for k in (0, 7, -1):
        with pytest.raises(ValueError, match="derivative order"):
            m.derivative(0.75, k)
