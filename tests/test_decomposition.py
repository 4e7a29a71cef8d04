import math

import numpy as np
import pytest

from hypercross import decomposition as de
from hypercross import grid as g
from hypercross import linearized as lin
from hypercross import multiplier as mu


def mean_zero_band_limited(n_log2, seed):
    """Random field with the second half of each row, then of each column,
    replaced by the negated first half: the fast transform gives a spectrum
    exactly zero on the lines xi = 0 and eta = 0 (and on every even
    frequency), while the low odd frequencies keep their full weight."""
    samples = g.random_field(n_log2, seed).samples.copy()
    half = samples.shape[0] // 2
    samples[:, half:] = -samples[:, :half]
    samples[half:] = -samples[:half]
    spec = g.forward_transform(g.SampledField(n_log2, samples)).coeffs
    assert not spec[0].any() and not spec[:, 0].any()
    return g.SampledField(n_log2, samples)


@pytest.fixture(scope="module")
def fam():
    return de.make_lp_family(1.0, 6)


def test_partition_of_unity_on_nonzero_frequencies(fam):
    w1, g2 = de._axis_sums(fam)
    freqs = g.frequencies(6)
    nz = freqs != 0
    assert np.abs(w1[nz] - 1.0).max() == 0.0
    assert np.abs(g2[nz] - 1.0).max() < 1e-12
    assert w1[~nz] == 0.0 and abs(g2[~nz]) == 0.0


def test_phi1_annulus_support(fam):
    # phi1 at scale s vanishes for |xi|/s outside [1/2, 2] (beta = 1)
    freqs = np.abs(g.frequencies(6)).astype(float)
    for k, phi1 in zip(fam.ks, fam.phi1):
        ratio = freqs / 2.0**k
        outside = (ratio < 0.5) | (ratio > 2.0)
        assert np.abs(phi1[outside]).max() == 0.0


def test_phi1_pointwise_example_values():
    def w(u):
        return de._phi1_window(u, 1.0)

    assert w(math.log2(3.0)) == 0.0  # 3 outside [1/2, 2]
    assert w(math.log2(0.7)) > 0.0
    assert w(math.log2(0.7)) * w(math.log2(3.0)) == 0.0


def test_phi2_psi2_annulus_and_mean_zero(fam):
    # each octave row is the product phi2_hat * psi2_hat at one scale
    freqs = np.abs(g.frequencies(6)).astype(float)
    for el, octave in zip(fam.ls, fam.octave):
        ratio = freqs / 2.0**el
        outside = (ratio < 1.0) | (ratio > 2.0)
        assert np.abs(octave[outside]).max() == 0.0
        assert octave[0] == 0.0


@pytest.mark.parametrize("beta", [1.0, -1.0, 0.5])
def test_octave_partition_of_unity_is_exact(beta):
    for n_log2 in range(3, 10):  # N = 8 to 512
        total = de.make_lp_family(beta, n_log2).octave.sum(axis=0)
        nz = g.frequencies(n_log2) != 0
        assert np.all(total[nz] == 1.0), n_log2
        assert total[~nz] == 0.0


def test_psi2_space_support_on_grid():
    n = 256
    y = np.arange(n) / n
    y = np.where(y > 0.5, y - 1.0, y)
    vals = de.psi2_space(y)
    assert np.abs(vals[np.abs(y) >= de.PSI2_SUPPORT_RADIUS]).max() == 0.0
    assert de.PSI2_SUPPORT_RADIUS < 2.0**-5
    assert np.abs(vals).max() > 0.0


def _psi2_cosine_transform(omega, n_points):
    # Riemann sum of the analytic space samples over the support of psi2
    r = de.PSI2_SUPPORT_RADIUS
    y = np.linspace(-r, r, n_points)
    dy_step = y[1] - y[0]
    return np.cos(2 * np.pi * np.multiply.outer(omega, y)) @ de.psi2_space(y) * dy_step


def test_psi2_hat_positive_on_octave():
    # the octave window is phi2_hat * psi2_hat: psi2 has mean zero, and its
    # cosine transform has no zero on [1/2, 4], so phi2_hat = octave / psi2_hat exists
    r = de.PSI2_SUPPORT_RADIUS
    y = np.linspace(-r, r, 20_001)
    scale = np.sum(np.abs(de.psi2_space(y))) * (y[1] - y[0])
    assert abs(_psi2_cosine_transform(0.0, 20_001)) <= 1e-12 * scale
    omega = np.linspace(0.5, 4.0, 200)
    assert np.all(_psi2_cosine_transform(omega, 20_001) > 0.0)


def test_psi2_hat_matches_direct_quadrature_of_space_kernel():
    # psi2 = -b'' for the bump b(y) = 1 - smoothstep(2|y|/R - 1), so
    # psi2_hat(omega) = (2 pi omega)**2 b_hat(omega): independent of psi2_space
    r = de.PSI2_SUPPORT_RADIUS
    y = np.linspace(-r, r, 200_001)
    bump = 1.0 - mu.smoothstep(2.0 * np.abs(y) / r - 1.0)
    for omega in (0.7, 1.0, 1.6, 2.0, 3.5):
        bump_hat = np.sum(bump * np.cos(2 * np.pi * omega * y)) * (y[1] - y[0])
        closed = (2 * np.pi * omega) ** 2 * bump_hat
        assert closed == pytest.approx(_psi2_cosine_transform(omega, 200_001), rel=1e-6)


def test_beta_zero_family_takes_the_unit_annulus():
    fam0, fam1 = de.make_lp_family(0.0, 5), de.make_lp_family(1.0, 5)
    assert np.array_equal(fam0.ks, fam1.ks)
    assert np.array_equal(fam0.phi1, fam1.phi1)


def test_narrow_annulus_rejected():
    with pytest.raises(de.LadderError):
        de.make_lp_family(4.0, 6)  # log-radius 1/4 leaves ladder gaps
    with pytest.raises(de.LadderError, match="grid too small to host the annuli"):
        de.make_lp_family(1.0, 2)
    # log-radius just above 1/2: the phi1 windows leave frequencies uncovered
    with pytest.raises(de.LadderError, match="leaves gaps on the dyadic ladder"):
        de.make_lp_family(1.99, 8)
    for beta in (2.0, -2.0):  # log-radius 1/2: the phi1 window vanishes
        with pytest.raises(de.LadderError, match=r"\(\|beta\| >= 2\)"):
            de.make_lp_family(beta, 6)


@pytest.mark.parametrize("beta", [1e-3, 1e-4])
def test_small_beta_ladder_is_bounded(beta):
    # phi1 would need n_log2 + 2 ceil(1/|beta|) + 2 rows: 2008 and 20008 at N = 64
    rows = 6 + 2 * math.ceil(1 / beta) + 2
    with pytest.raises(de.LadderError, match=f"beta = {beta} needs {rows} phi1 rows, above 4N = 256"):
        de.make_lp_family(beta, 6)


@pytest.mark.parametrize("beta", [1.5, -0.75, 0.3, 0.5, -0.5])
def test_renormalized_phi1_family(beta):
    # phi1 is divided by its per-frequency total, for integer 2/|beta| too
    family = de.make_lp_family(beta, 6)
    w1, _ = de._axis_sums(family)
    nz = g.frequencies(6) != 0
    assert np.abs(w1[nz] - 1.0).max() <= 1e-15
    f = mean_zero_band_limited(6, 9)
    assert de.calderon_residual(f, family) <= 1e-10

    m = mu.make_bump_profile(0.5)
    V = lin.generate_linearizer("lip_x", {"lip_constant": 1.0, "v_min": 2.0**-7, "amplitude": 0.1}, 12, 6)
    T = de.lemma_operator(f, V, m, beta)
    S = de.principal_term(f, V, family, m)
    E = de.error_term(f, V, family, m)
    fnorm = np.sqrt(np.mean(np.abs(f.samples) ** 2))
    assert np.sqrt(np.mean(np.abs(T.samples - S.samples - E.samples) ** 2)) <= 1e-8 * fnorm
    assert np.sqrt(np.mean(np.abs(S.samples) ** 2)) > 1e-3 * fnorm  # nontrivial
    assert np.sqrt(np.mean(np.abs(E.samples) ** 2)) > 1e-3 * fnorm


@pytest.mark.parametrize("n_log2", [3, 4, 5])
def test_lemma_at_negative_beta_matches_fixed_multiplier(n_log2):
    # constant V: the lemma is the fixed multiplier m(0.7 |xi|**-1 |eta|),
    # which is 0 on the line xi = 0 (its limit as xi -> 0)
    m = mu.make_bump_profile(0.5)
    V = lin.generate_linearizer("constant", {"value": 0.7}, 0, n_log2)
    f = g.random_field(n_log2, 3)
    symbol = mu.hyperbolic_symbol(0.7, -1.0, m, n_log2).values.T
    expected = g.inverse_transform(g.SpectralField(n_log2, g.forward_transform(f).coeffs * symbol)).samples
    lemma = de.lemma_operator(f, V, m, -1.0).samples
    assert np.abs(lemma - expected).max() <= 1e-12 * np.abs(expected).max()


def test_projection_eigenfunction(fam):
    # the phi1 projection at scale 2 multiplies the mode at frequency 3 by w(log2(3/2))
    assert g.frequencies(6)[3] == 3
    assert abs(fam.phi1[fam.ks == 1][0, 3] - float(de._phi1_window(math.log2(3.0 / 2.0), 1.0))) < 1e-12


def test_ladder_reconstruction_of_mean_zero_field(fam):
    # the octave windows sum to 1 off eta = 0, so the ladder reconstructs mean-zero fields
    total = fam.octave.sum(axis=0)
    nz = g.frequencies(6) != 0
    assert np.abs(total[nz] - 1.0).max() < 1e-10


@pytest.mark.parametrize("beta", [1.0, -1.0, 0.0, 0.5, 1.5, -0.75])
def test_pair_sum_matches_double_loop_over_ladder_pairs(beta):
    # oracle: phi1_k (x) octave_l added pair by pair over the kept (k, l)
    family = de.make_lp_family(beta, 5)
    keeps = (lambda ts: ts < 1.0, lambda ts: (0.25 <= ts) & (ts <= 4.0))
    for keep in keeps:
        expected = np.zeros((32, 32))
        for k, phi1 in zip(family.ks, family.phi1):
            for el, octave in zip(family.ls, family.octave):
                if keep(2.0**el * (2.0**k) ** beta):
                    expected += np.outer(phi1, octave)
        assert np.abs(expected).max() > 0.0
        assert np.abs(de._pair_sum(family, keep) - expected).max() <= 1e-14


def test_calderon_residual_cases(fam):
    f = mean_zero_band_limited(6, 9)
    assert de.calderon_residual(f, fam) <= 1e-10

    zero = g.SampledField(6, np.zeros((64, 64)))
    assert de.calderon_residual(zero, fam) == 0.0

    # field with known energy share on the axes: residual = sqrt(share)
    n = 64
    x = np.arange(n) / n
    on_axis = np.exp(2j * np.pi * 5 * x)[:, None] * np.ones((1, n))  # eta = 0
    off_axis = np.exp(2j * np.pi * (3 * x[:, None] + 2 * x[None, :]))
    f2 = g.SampledField(6, 2.0 * on_axis + 1.0 * off_axis)
    expected = math.sqrt(4.0 / 5.0)
    assert de.calderon_residual(f2, fam) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("beta", [1.0, -1.0])
def test_vanishing_regime_exact(beta):
    fam_b = de.make_lp_family(beta, 5)
    m = mu.make_bump_profile(1.0)
    hyper = de._hyper_args(fam_b)
    lam = 1.7
    weight = m(lam * hyper)
    checked = 0
    for k, phi1 in zip(fam_b.ks, fam_b.phi1):
        s_beta = (2.0**k) ** beta
        for el, octave in zip(fam_b.ls, fam_b.octave):
            if 2.0**el > 4.0 / (lam * s_beta):
                sym = phi1[:, None] * octave[None, :]
                assert np.abs(sym * weight).max() == 0.0
                checked += 1
    assert checked > 0


def test_profile_is_one_regime(fam):
    # pairs with 4 s**beta t <= 1/lam carry weight identically 1 on their support
    m = mu.make_bump_profile(1.0)
    hyper = de._hyper_args(fam)
    lam = 1.7
    weight = m(lam * hyper)
    checked = 0
    for k, phi1 in zip(fam.ks, fam.phi1):
        s_beta = 2.0**k
        for el, octave in zip(fam.ls, fam.octave):
            if 4.0 * s_beta * 2.0**el <= 1.0 / lam:
                sym = phi1[:, None] * octave[None, :]
                assert np.abs(sym * (weight - 1.0)).max() == 0.0
                checked += 1
    assert checked > 0


@pytest.mark.parametrize("eps", [0.5, 0.125])
def test_decomposition_identity_constant_and_lipschitz(fam, eps):
    m = mu.make_bump_profile(eps)
    f = mean_zero_band_limited(6, 10)
    fnorm = np.sqrt(np.mean(np.abs(f.samples) ** 2))
    specs = [
        ("constant", {"value": 0.013}),
        # levels capped so the walk stays below the profile support everywhere
        ("staircase_x", {"lip_constant": 1.0, "v_min": 2.0**-7, "levels": 8}),
        # 4096 distinct values over 4 dyadic roundings: error_term runs one
        # gather per rounding
        ("lip_x", {"lip_constant": 1.0, "v_min": 2.0**-7, "amplitude": 0.1}),
    ]
    classes = 0
    for kind, params in specs:
        V = lin.generate_linearizer(kind, params, 12, 6)
        classes = max(classes, np.unique(lin.dyadic_round_up(V.values)).size)
        T = de.lemma_operator(f, V, m, 1.0)
        S = de.principal_term(f, V, fam, m)
        E = de.error_term(f, V, fam, m)
        resid = np.sqrt(np.mean(np.abs(T.samples - S.samples - E.samples) ** 2)) / fnorm
        assert resid <= 1e-8
        assert np.sqrt(np.mean(np.abs(T.samples) ** 2)) > 1e-3 * fnorm  # nontrivial
    assert classes >= 3


def _field_side(f, V, symbol_at):
    """N^2 ifft2(spec * symbol_at(V(x)))[x] at each point x: one transform of
    the whole symbol per point, with no grouping and no bands."""
    n = f.n
    spec = g.forward_transform(f).coeffs
    out = np.empty((n, n), dtype=np.complex128)
    for i, j in np.ndindex(n, n):
        out[i, j] = np.fft.ifft2(spec * symbol_at(V.values[i, j]))[i, j] * (n * n)
    return out


@pytest.mark.parametrize("beta", [1.0, 0.0, 0.5, -1.0])
def test_lemma_and_error_match_a_field_side_oracle(beta):
    # the kernel drops the h where V_min h >= R and merges those where
    # V_max h <= eps; a wrong cut made alike in the lemma and the error term
    # cancels in T - S - E, so both are checked against this oracle.  The
    # field has both bands and two dyadic roundings (error_term classes).
    m = mu.make_bump_profile(0.5)
    V = lin.generate_linearizer("lip_x", {"lip_constant": 1.0, "v_min": 0.2, "amplitude": 1.0}, 1, 4)
    family = de.make_lp_family(beta, 4)
    hyper = de._hyper_args(family)
    weight = np.broadcast_to(np.where(g.frequencies(4) == 0, 0.0, 1.0)[:, None] if beta < 0 else 1.0, hyper.shape)
    hs = np.unique(hyper[weight != 0])
    assert np.count_nonzero(V.values.max() * hs <= m.epsilon) >= 2
    assert np.count_nonzero(V.values.min() * hs >= m.support_radius) >= 1
    assert np.unique(V.values).size > hs.size  # the frequency side
    assert np.unique(lin.dyadic_round_up(V.values)).size == 2
    full = de._full_symbol(family)
    f = g.random_field(4, 21)
    lemma = _field_side(f, V, lambda v: weight * m(v * hyper))
    error = _field_side(
        f, V, lambda v: (full - de._below_symbol(family, m.epsilon / lin.dyadic_round_up(v))) * m(v * hyper)
    )
    for ref, out in ((lemma, de.lemma_operator(f, V, m, beta)), (error, de.error_term(f, V, family, m))):
        assert np.abs(ref).max() > 0.0
        assert np.abs(out.samples - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("beta", [1.0, 0.0, 0.5, -1.0])
def test_principal_matches_a_field_side_oracle(beta):
    # T - S - E on mean-zero fields cannot see a principal cutoff that errs
    # alike in S and E, so S is checked against the ladder pairs below
    # eps / vtilde(V) directly, on criterion 4's lip_x field, which spans
    # 4 rounded scales at N = 16
    m = mu.make_bump_profile(0.5)
    V = lin.generate_linearizer("lip_x", {"lip_constant": 1.0, "v_min": 2.0**-7, "amplitude": 0.1}, 12, 4)
    assert np.unique(lin.dyadic_round_up(V.values)).size == 4
    family = de.make_lp_family(beta, 4)
    f = g.random_field(4, 21)
    ref = _field_side(f, V, lambda v: de._below_symbol(family, m.epsilon / lin.dyadic_round_up(v)))
    out = de.principal_term(f, V, family, m).samples
    assert np.abs(ref).max() > 0.0
    assert np.abs(out - ref).max() <= 1e-10 * np.abs(ref).max()


def test_all_terms_vanish_on_zero_field(fam):
    m = mu.make_bump_profile(0.5)
    zero = g.SampledField(6, np.zeros((64, 64)))
    V = lin.generate_linearizer("constant", {"value": 0.1}, 0, 6)
    assert np.abs(de.principal_term(zero, V, fam, m).samples).max() == 0.0
    assert np.abs(de.error_term(zero, V, fam, m).samples).max() == 0.0
    assert np.abs(de.small_variation_error(zero, V, fam, m).samples).max() == 0.0


@pytest.mark.parametrize(
    "term",
    [
        de.principal_term,
        de.error_term,
        de.small_variation_error,
        lambda f, V, family, m: de.calderon_residual(f, family),  # numpy's broadcast error before
    ],
    ids=["principal_term", "error_term", "small_variation_error", "calderon_residual"],
)
def test_terms_reject_a_family_on_another_grid(term):
    family = de.make_lp_family(1.0, 4)
    f = g.random_field(5, 0)
    V = lin.generate_linearizer("constant", {"value": 0.3}, 0, 5)
    with pytest.raises(g.GridMismatchError, match="field and family grids differ"):
        term(f, V, family, mu.make_bump_profile(0.5))


# the terms that round V up to a power of two, then the lemma, which needs V > 0 too
_ROUNDING_TERMS = {
    "principal_term": de.principal_term,
    "error_term": de.error_term,
    "small_variation_error": de.small_variation_error,
    "lipschitz_ratio_check": lambda f, V, family, m: de.lipschitz_ratio_check(V, family, 1.0, 1.0),
}
_V_TERMS = {**_ROUNDING_TERMS, "lemma_operator": lambda f, V, family, m: de.lemma_operator(f, V, m, 1.0)}


def _half_at(value):
    vals = np.full((16, 16), 0.5)
    vals[:8] = value
    return lin.LinearizerField(4, vals)


@pytest.mark.parametrize("term", sorted(_V_TERMS))
def test_terms_reject_a_zero_in_V(term):
    with pytest.raises(ValueError, match="requires V > 0"):
        _V_TERMS[term](g.random_field(4, 0), _half_at(0.0), de.make_lp_family(1.0, 4), mu.make_bump_profile(0.5))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("term", sorted(_ROUNDING_TERMS))
def test_terms_reject_V_whose_rounding_overflows(term):
    # 8 * 2**1022 is past the float range: the rounded class would be inf
    with pytest.raises(ValueError, match=r"0 < input < 2\*\*1021"):
        _ROUNDING_TERMS[term](g.random_field(4, 0), _half_at(2.0**1022), de.make_lp_family(1.0, 4), mu.make_bump_profile(0.5))


def test_error_symbol_support_band(fam):
    m = mu.make_bump_profile(1.0)
    hyper = de._hyper_args(fam)
    for j in de.representable_j_range(fam, m):
        sym = de.large_variation_symbol(j, fam, m).values
        outside = (hyper < 2.0 ** (-j - 5)) | (hyper > 2.0 ** (-j + 4))
        assert np.abs(sym[outside]).max() == 0.0


def test_error_symbol_support_band_small_eps(fam):
    m = mu.make_bump_profile(0.125)
    hyper = de._hyper_args(fam)
    for j in de.representable_j_range(fam, m):
        sym = de.large_variation_symbol(j, fam, m).values
        outside = (hyper < 2.0 ** (-j - 5)) | (hyper > 2.0 ** (-j + 4))
        assert np.abs(sym[outside]).max() == 0.0


def test_overlap_count_bounds(fam):
    m = mu.make_bump_profile(1.0)
    j_range = de.representable_j_range(fam, m)
    count = de.overlap_count(fam, m, j_range)
    assert count <= 10

    single = de.overlap_count(fam, m, [0])
    assert single <= 1

    wide = mu.MultiplierProfile(1.0, 4.0)  # 2x wider support
    count_wide = de.overlap_count(fam, wide, j_range)
    assert count_wide - count <= 2


def test_small_variation_lacunary_exactly_zero(fam):
    m = mu.make_bump_profile(0.5)
    f = mean_zero_band_limited(6, 13)
    V = lin.generate_linearizer("dyadic_of_lipschitz", {"lip_constant": 1.0, "v_min": 0.03}, 14, 6)
    sv = de.small_variation_error(f, V, fam, m)
    assert np.abs(sv.samples).max() == 0.0


def test_small_variation_nonzero_for_varying_field(fam):
    m = mu.make_bump_profile(0.5)
    f = mean_zero_band_limited(6, 13)
    V = lin.generate_linearizer("staircase_x", {"lip_constant": 1.0, "v_min": 2.0**-6, "levels": 48}, 15, 6)
    sv = de.small_variation_error(f, V, fam, m)
    assert np.abs(sv.samples).max() > 0.0


def _small_variation_field_side(f, V, family, m, nodes_per_octave=8):
    """Reference for small_variation_error with the tau derivative taken on
    the fields: one inverse FFT of E_tau f per tau +- h, central differences
    and one Richardson step on the fields, then a trapezoid integral over
    each dyadic octave and linear interpolation at V with np.interp."""
    n = f.n
    spec = g.forward_transform(f).coeffs
    hyper = de._hyper_args(family)
    full = de._full_symbol(family)
    flat = m.epsilon
    v = V.values
    base_of = lin.dyadic_floor(v)
    out = np.zeros((n, n))
    for base in np.unique(base_of):
        above = full - de._below_symbol(family, flat / lin.dyadic_round_up(float(base)))

        def e_tau(tau):
            return np.fft.ifft2(spec * above * m(tau * hyper)) * n * n

        def derivative(tau):
            h = tau * 1e-3
            d1 = (e_tau(tau + h) - e_tau(tau - h)) / (2 * h)
            d2 = (e_tau(tau + h / 2) - e_tau(tau - h / 2)) / h
            return np.abs((4.0 * d2 - d1) / 3.0)

        taus = base * 2.0 ** (np.arange(nodes_per_octave + 1) / nodes_per_octave)
        integrand = [derivative(t) for t in taus]
        cumulative = [np.zeros((n, n))]
        for r in range(nodes_per_octave):
            cumulative.append(cumulative[-1] + 0.5 * (taus[r + 1] - taus[r]) * (integrand[r] + integrand[r + 1]))
        for i, j in zip(*np.nonzero(base_of == base)):
            out[i, j] = np.interp(v[i, j], taus, [c[i, j] for c in cumulative])
    return out


@pytest.mark.parametrize(
    "beta, kind, params",
    [
        (1.0, "staircase_x", {"lip_constant": 1.0, "v_min": 2.0**-6, "levels": 48}),
        (-1.0, "staircase_x", {"lip_constant": 1.0, "v_min": 2.0**-6, "levels": 48}),
        # at beta = -1 this constant V gives exactly 0, so only beta = 1 tests it
        (1.0, "constant", {"value": 0.013}),
    ],
    ids=["staircase_beta1", "staircase_beta-1", "constant_beta1"],
)
def test_small_variation_matches_field_side_reference(beta, kind, params):
    family = de.make_lp_family(beta, 6)
    m = mu.make_bump_profile(0.5)
    f = mean_zero_band_limited(6, 13)
    V = lin.generate_linearizer(kind, params, 15, 6)
    ref = _small_variation_field_side(f, V, family, m)
    sv = de.small_variation_error(f, V, family, m).samples
    assert np.abs(ref).max() > 0.0
    assert np.abs(sv.imag).max() == 0.0
    assert np.abs(sv.real - ref).max() <= 1e-10 * np.abs(ref).max()


def test_ratio_check_constant_field(fam):
    V = lin.generate_linearizer("constant", {"value": 0.1}, 0, 6)
    rep = de.lipschitz_ratio_check(V, fam, 1.0, 1.0, "lip", 10_000, 1)
    assert rep.violations == 0
    assert rep.worst_ratio == 1.0


def test_ratio_check_rejects_an_unknown_variant(fam):
    V = lin.generate_linearizer("constant", {"value": 0.1}, 0, 6)
    with pytest.raises(ValueError, match="variant must be 'lip' or 'floor', got 'cone'"):
        de.lipschitz_ratio_check(V, fam, 1.0, 1.0, "cone")


def test_ratio_check_generated_hypotheses(fam):
    total_checked = 0
    for seed in range(3):
        V = lin.generate_linearizer(
            "lip_y", {"lip_constant": 1.0, "v_min": 2.0**-5, "amplitude": 0.3}, seed, 6
        )
        rep = de.lipschitz_ratio_check(V, fam, 1.0, 1.0, "lip", 10_000, seed)
        assert rep.violations == 0
        total_checked += rep.samples_checked
    assert total_checked > 0

    L = 0.35
    checked_floor = 0
    for seed in range(3):
        V = lin.generate_linearizer("lip_2d", {"lip_constant": L, "band": 1}, seed, 6)
        rep = de.lipschitz_ratio_check(V, fam, 1.0, L, "floor", 10_000, seed)
        assert rep.violations == 0
        checked_floor += rep.samples_checked
    assert checked_floor > 0


def test_ratio_check_detects_violation(fam):
    vals = np.full((64, 64), 0.07)
    vals[:, 32:] = 0.24
    V = lin.LinearizerField(6, vals, lin.Regularity("none"))
    rep = de.lipschitz_ratio_check(V, fam, 1.0, 1.0, "lip", 20_000, 4)
    assert rep.violations > 0
    assert rep.worst_ratio > 1.5
    assert rep.witnesses


def test_hl_maximal_dominates_and_fixes_constants():
    f = g.random_field(5, 16)
    mags = np.abs(f.samples)
    m1 = de.hl_maximal_m1(g.SampledField(5, mags))
    assert np.all(m1.samples.real >= mags - 1e-14)
    const = g.SampledField(5, np.full((32, 32), 1.5))
    assert np.abs(de.hl_maximal_m1(const).samples - 1.5).max() == 0.0
