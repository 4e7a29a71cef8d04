import dataclasses
import math

import numpy as np
import pytest

from hypercross import dyadic as dy
from hypercross import grid as g
from hypercross import linearized as lin


def _cells_mid(n):
    return (np.arange(n) + 0.5) / n


def test_haar_eval_unit_interval():
    unit = dy.DyadicInterval(0, 0)
    assert dy.haar_eval(unit, 0.25) == 1.0
    assert dy.haar_eval(unit, 0.75) == -1.0
    assert dy.haar_eval(unit, 1.5) == 0.0
    with pytest.raises(ValueError, match="position n must be >= 0"):
        dy.DyadicInterval(0, -1)


def test_haar_mean_zero_grid_quadrature():
    n = 64
    mid = _cells_mid(n)
    for k, pos in ((0, 0), (-1, 1), (-2, 3), (-3, 5)):
        I = dy.DyadicInterval(k, pos)
        assert abs(dy.haar_eval(I, mid).sum() / n) < 1e-14


def test_haar_orthonormality_exhaustive_depth5():
    n = 128
    mid = _cells_mid(n)
    intervals = [
        dy.DyadicInterval(-a, p) for a in range(6) for p in range(1 << a)
    ]
    table = np.stack([dy.haar_eval(I, mid) for I in intervals])
    gram = table @ table.T / n
    assert np.abs(gram - np.eye(len(intervals))).max() < 1e-12


def test_haar_transform_constant_vanishes():
    f = g.SampledField(4, np.full((16, 16), 3.3))
    h = dy.haar_transform(f, 3)
    assert all(np.abs(c).max() < 1e-14 for c in h.coeffs.values())
    assert all(np.abs(v).max() < 1e-14 for v in h.row_block.values())
    assert h.mean == pytest.approx(3.3)


def test_haar_transform_detects_single_tensor():
    n = 32
    mid = _cells_mid(n)
    I = dy.DyadicInterval(-2, 1)
    J = dy.DyadicInterval(-1, 0)
    f = g.SampledField(5, np.outer(dy.haar_eval(I, mid), dy.haar_eval(J, mid)))
    h = dy.haar_transform(f, 4)
    assert h.coeffs[(2, 1)][1, 0] == pytest.approx(1.0, abs=1e-12)
    assert sum(np.sum(np.abs(c) ** 2) for c in h.coeffs.values()) == pytest.approx(1.0, abs=1e-10)


def test_haar_roundtrip_random():
    f = g.random_field(5, 21)
    back = dy.haar_inverse(dy.haar_transform(f, 4))
    assert np.abs(back.samples - f.samples).max() < 1e-12


def test_haar_parseval_within_span():
    f = g.random_field(5, 22)
    depth = 3
    h = dy.haar_transform(f, depth)
    # synthesize the pure tensor part and compare energies
    zeroed = dy.HaarCoefficients(
        h.n_log2, h.depth, h.coeffs,
        {a: np.zeros_like(v) for a, v in h.row_block.items()},
        {b: np.zeros_like(v) for b, v in h.col_block.items()},
        0.0,
    )
    tensor_part = dy.haar_inverse(zeroed)
    span_energy = float(np.mean(np.abs(tensor_part.samples) ** 2))
    tensor_energy = sum(np.sum(np.abs(c) ** 2) for c in h.coeffs.values())
    assert tensor_energy == pytest.approx(span_energy, rel=1e-10)


def test_haar_transform_depth_limit():
    f = g.random_field(4, 1)
    with pytest.raises(ValueError):
        dy.haar_transform(f, 4)  # finest half-intervals would be sub-cell
    too_deep = dataclasses.replace(dy.haar_transform(f, 3), depth=4)
    with pytest.raises(ValueError, match="scale 2\\*\\*-4 unresolved on an N=16 grid"):
        dy.haar_inverse(too_deep)


def test_model_operator_full_sum_is_projection():
    # V so large that every resolved pair is admissible
    f = g.random_field(5, 31)
    n = 32
    V = lin.LinearizerField(5, np.full((n, n), 2.0**6), lin.Regularity("dyadic_metric_x", lip=1.0))
    out = dy.dyadic_model_operator(f, V, 1.0, 2.0**-4, "thm_4_2")
    h = dy.haar_transform(f, 4)
    zeroed = dy.HaarCoefficients(
        h.n_log2, h.depth, h.coeffs,
        {a: np.zeros_like(v) for a, v in h.row_block.items()},
        {b: np.zeros_like(v) for b, v in h.col_block.items()},
        0.0,
    )
    proj = dy.haar_inverse(zeroed)
    assert np.abs(out.samples - proj.samples).max() < 1e-10


def test_model_operator_single_tensor_masking():
    n = 32
    mid = _cells_mid(n)
    I = dy.DyadicInterval(-1, 0)
    J = dy.DyadicInterval(-1, 1)
    f = g.SampledField(5, np.outer(dy.haar_eval(I, mid), dy.haar_eval(J, mid)))
    vals = np.full((n, n), 2.0**-8)
    vals[: n // 2, :] = 1.0  # admissible only where x lies in I = (0, 1/2]
    V = lin.LinearizerField(5, vals, lin.Regularity("none"))
    out = dy.dyadic_model_operator(f, V, 1.0, 2.0**-9, "thm_4_2")
    admissible = vals >= 0.25  # |I||J| = 1/4
    expected = np.where(admissible, f.samples, 0.0)
    assert np.abs(out.samples - expected).max() < 1e-12


def _model_operator_per_coefficient(f, V, beta, L, variant, depth):
    """Reference for dyadic_model_operator: each tensor Haar coefficient of f
    times the outer product of haar_eval on the cell midpoints, kept at the
    points where its scale pair (|I|, |J|) = (2**-a, 2**-b) is admissible."""
    mid = _cells_mid(f.n)
    out = np.zeros((f.n, f.n), dtype=complex)
    for (a, b), c in dy.haar_transform(f, depth).coeffs.items():
        if variant == "thm_4_2" and not 2.0 ** (-b * beta) >= L:
            continue
        size = 2.0**-a * (2.0**-b if variant == "thm_4_1" else 2.0 ** (-b * beta))
        for p in range(1 << a):
            hx = dy.haar_eval(dy.DyadicInterval(-a, p), mid)
            for q in range(1 << b):
                hy = dy.haar_eval(dy.DyadicInterval(-b, q), mid)
                out += np.where(size <= V.values, c[p, q] * np.outer(hx, hy), 0.0)
    return out


def test_model_operator_fast_matches_direct():
    f = g.random_field(5, 33)
    V = dy.generate_dyadic_metric_x(2.0**-2, 5, 6)
    fast = dy.dyadic_model_operator(f, V, 1.0, 2.0**-2, "thm_4_2")
    direct = _model_operator_per_coefficient(f, V, 1.0, 2.0**-2, "thm_4_2", 4)
    rel = np.abs(fast.samples - direct).max() / np.abs(direct).max()
    assert rel < 1e-10

    V2 = dy.generate_dyadic_metric_2d(2.0**-3, 5, 7)
    fast2 = dy.dyadic_model_operator(f, V2, 1.0, 2.0**-3, "thm_4_1")
    direct2 = _model_operator_per_coefficient(f, V2, 1.0, 2.0**-3, "thm_4_1", 4)
    rel2 = np.abs(fast2.samples - direct2).max() / np.abs(direct2).max()
    assert rel2 < 1e-10


def test_model_operator_without_admissible_pairs_raises():
    # at L > 1 no scale pair passes |J|**beta >= L: the sum would be vacuously 0
    cases = [(g.random_field(5, 33), dy.generate_dyadic_metric_x(2.0**-2, 5, 6), 1e9)]
    cases.append((g.random_field(5, 0), dy.generate_dyadic_metric_x(0.25, 5, 1), 2.0))
    for f, V, L in cases:
        with pytest.raises(ValueError, match="no scale pair"):
            dy.dyadic_model_operator(f, V, 1.0, L, "thm_4_2")


@pytest.mark.parametrize(
    "beta, variant, message",
    [
        (-math.inf, "thm_4_2", "beta must be finite"),
        (math.inf, "thm_4_2", "beta must be finite"),
        (math.nan, "thm_4_2", "beta must be finite"),
        (-math.inf, "thm_4_1", "beta must be finite"),
        (1.0, "thm_4_3", "unknown variant 'thm_4_3'"),
    ],
    ids=["beta_minus_inf", "beta_inf", "beta_nan", "thm_4_1_beta_minus_inf", "unknown_variant"],
)
def test_scale_pair_rule_rejects_what_would_check_nothing(beta, variant, message):
    # at beta = -inf every pair with |J| < 1 met |J|**beta >= L with an
    # infinite size product: the check found 0 violations and the model
    # operator summed to zeros
    V = dy.generate_dyadic_metric_x(1 / 8, 5, 1)
    with pytest.raises(ValueError, match=message):
        dy.check_selection_stability(V, 1 / 8, beta, variant)
    with pytest.raises(ValueError, match=message):
        dy.dyadic_model_operator(g.random_field(5, 0), V, beta, 1 / 8, variant)


def test_model_operator_hypothesis_errors():
    f = g.random_field(4, 0)
    not_dyadic = lin.LinearizerField(4, np.full((16, 16), 0.3), lin.Regularity("none"))
    with pytest.raises(dy.HypothesisViolationError):
        dy.dyadic_model_operator(f, not_dyadic, 1.0, 0.5, "thm_4_1")
    small = lin.LinearizerField(4, np.full((16, 16), 2.0**-6), lin.Regularity("none"))
    with pytest.raises(dy.HypothesisViolationError):
        dy.dyadic_model_operator(f, small, 1.0, 1.0, "thm_4_1")  # sqrt(V) <= L


def test_selection_stability_rejects_negative_depth():
    V = lin.LinearizerField(5, np.full((32, 32), 0.25), lin.Regularity("none"))
    assert dy.check_selection_stability(V, 2.0**-3, 1.0, "thm_4_1", depth=0).violations == 0
    with pytest.raises(ValueError, match="depth"):
        dy.check_selection_stability(V, 2.0**-3, 1.0, "thm_4_1", depth=-1)


def test_dyadic_metric_generators_reject_a_bound_no_field_meets():
    with pytest.raises(ValueError, match="L must be positive and finite, got inf"):
        dy.generate_dyadic_metric_2d(math.inf, 4, 0)
    # L = 1: no power of two lies in (L**2, L * side] for the whole square
    with pytest.raises(ValueError, match="no admissible value for leaf of side 1.0 at L=1.0"):
        dy.generate_dyadic_metric_2d(1.0, 4, 0)
    # L / N underflows to 0, so every leaf bound L * cells / N would too
    with pytest.raises(ValueError, match="L / N > 0"):
        dy.generate_dyadic_metric_x(5e-324, 5, 0)


def test_selection_stability_constant_field():
    V = lin.LinearizerField(6, np.full((64, 64), 0.25), lin.Regularity("none"))
    for variant in ("thm_4_1", "thm_4_2"):
        rep = dy.check_selection_stability(V, 2.0**-3, 1.0, variant, depth=6)
        assert rep.violations == 0


def test_selection_stability_generated_hypotheses():
    for seed in range(5):
        V1 = dy.generate_dyadic_metric_2d(2.0**-3, 6, seed)
        assert dy.verify_dyadic_metric_2d(V1, 2.0**-3) == 0
        assert dy.check_selection_stability(V1, 2.0**-3, 1.0, "thm_4_1", depth=6).violations == 0
        V2 = dy.generate_dyadic_metric_x(2.0**-2, 6, 100 + seed)
        assert dy.verify_dyadic_metric_x(V2, 2.0**-2) == 0
        assert dy.check_selection_stability(V2, 2.0**-2, 1.0, "thm_4_2", depth=6).violations == 0


def test_dyadic_metric_x_split_blocks_hold_half_the_bound_just_below_a_power_of_two():
    # an x-block of c cells on which V varies was split, so every value on it
    # is at most L * (c/2) / N; at L just below 1/4 a rounded log2 overshoots
    L = float(np.nextafter(0.25, 0.0))
    n_log2 = 6
    n = 1 << n_log2
    for seed in range(20):
        V = dy.generate_dyadic_metric_x(L, n_log2, seed)
        for q in range(1, n_log2 + 1):
            cells = 1 << q
            blocks = V.values.reshape(n // cells, cells, n)
            bmax, bmin = blocks.max(axis=1), blocks.min(axis=1)
            varies = bmax > bmin
            assert np.all(bmax[varies] / (L * cells / n) <= 0.5), (seed, cells)


@pytest.mark.parametrize("L", [0.03, 0.1, float(np.nextafter(0.125, 0.0)), 0.2, 0.07, 0.125, 0.3, 0.5])
def test_dyadic_metric_2d_holds_its_hypotheses_at_every_L(L):
    # a square splits only where its children can hold a power of two in
    # (L**2, L * side]; splitting anyway left leaves with no admissible value
    for seed in range(20):
        V = dy.generate_dyadic_metric_2d(L, 6, seed)
        assert dy.verify_dyadic_metric_2d(V, L) == 0, seed
        assert np.all(np.sqrt(V.values) > L), seed
        assert dy.check_selection_stability(V, L, 1.0, "thm_4_1", depth=6).violations == 0, seed


def test_selection_stability_catches_constructed_violation():
    V = dy.generate_dyadic_metric_2d(2.0**-3, 6, 1)
    vals = V.values.copy()
    vals[0, :] = 1.0  # one x-row jumps far above its neighbours
    bad = lin.LinearizerField(6, vals, lin.Regularity("none"))
    rep = dy.check_selection_stability(bad, 2.0**-3, 1.0, "thm_4_1", depth=6)
    assert rep.violations >= 1
    x_true, x_false, y, k_i, k_j = rep.witnesses[0]
    assert x_true != x_false


def test_martingale_and_maximal_constant_field():
    f = g.SampledField(4, np.full((16, 16), 2.0))
    m2 = dy.dyadic_maximal_m2(f)
    assert np.abs(m2.samples - 2.0).max() == 0.0
    avg = dy.martingale_average(f, 0.25, axis=1)
    assert np.abs(avg.samples - 2.0).max() == 0.0
    sq = dy.dyadic_square_function(f, axis=1)
    assert np.abs(sq.samples).max() == 0.0


@pytest.mark.parametrize("scale", [0.3, 0.2])
def test_martingale_average_rejects_non_dyadic_scale(scale):
    # scale * N rounds to 2 cells at N = 8, which is not the scale asked for
    with pytest.raises(ValueError, match="not a resolvable dyadic length"):
        dy.martingale_average(g.random_field(3, 0), scale, axis=0)


@pytest.mark.parametrize("axis", [-2, 2])
def test_block_averages_reject_an_axis_other_than_x_or_y(axis):
    f = g.random_field(3, 0)
    message = rf"axis must be 0 \(x\) or 1 \(y\), got {axis}$"
    with pytest.raises(ValueError, match=message):
        dy.martingale_average(f, 1.0, axis)
    with pytest.raises(ValueError, match=message):
        dy.dyadic_square_function(f, axis)


def test_martingale_differences_telescope():
    f = g.random_field(4, 40)
    total = np.zeros((16, 16), dtype=complex)
    finer = f.samples
    for q in range(1, 5):
        coarser = dy._axis_block_average(f.samples, 1 << q, axis=1)
        total += finer - coarser
        finer = coarser
    line_mean = f.samples.mean(axis=1, keepdims=True)
    assert np.abs(total - (f.samples - line_mean)).max() < 1e-12


def test_square_function_l2_identity():
    f = g.random_field(5, 41)
    for axis in (0, 1):
        sq = dy.dyadic_square_function(f, axis)
        mean = f.samples.mean(axis=axis, keepdims=True)
        lhs = np.mean(np.abs(sq.samples) ** 2)
        rhs = np.mean(np.abs(f.samples - mean) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_maximal_dominates_pointwise():
    f = g.random_field(4, 42)
    m2 = dy.dyadic_maximal_m2(f)
    assert np.all(m2.samples.real >= np.abs(f.samples) - 1e-14)


def test_structural_verifiers_catch_perturbation():
    V = dy.generate_dyadic_metric_2d(2.0**-3, 5, 9)
    vals = V.values.copy()
    vals[3, 3] = 2.0**4
    assert dy.verify_dyadic_metric_2d(lin.LinearizerField(5, vals, lin.Regularity("none")), 2.0**-3) > 0
    Vx = dy.generate_dyadic_metric_x(2.0**-2, 5, 10)
    vals = Vx.values.copy()
    vals[5, :] = 2.0**4
    assert dy.verify_dyadic_metric_x(lin.LinearizerField(5, vals, lin.Regularity("none")), 2.0**-2) > 0
