import dataclasses
import json
import math

import numpy as np
import pytest

from hypercross import decomposition as de
from hypercross import dyadic as dy
from hypercross import grid as g
from hypercross import linearized as lin
from hypercross import multiplier as mu
from hypercross import normest as ne
from hypercross.decomposition import hl_maximal_m1


def _rel_l2(a, b):
    return np.sqrt(np.mean(np.abs(a - b) ** 2)) / np.sqrt(np.mean(np.abs(a) ** 2))


def test_constant_field_satisfies_every_mode():
    V = lin.generate_linearizer("constant", {"value": 5.0}, 0, 4)
    for mode in (
        lin.Regularity("lip_x", lip=1.0),
        lin.Regularity("lip_y", lip=1.0),
        lin.Regularity("lip_2d", lip=1.0),
    ):
        rep = lin.verify_lipschitz(V, mode)
        assert rep.passed
        assert rep.worst_ratio == 0.0


def test_generated_lip_x_passes_checker():
    V = lin.generate_linearizer("lip_x", {"lip_constant": 1.0, "v_min": 0.25}, 7, 5)
    rep = lin.verify_lipschitz(V, V.regularity)
    assert rep.passed
    assert rep.worst_ratio <= 0.96  # 5% margin by construction


@pytest.mark.parametrize("kind, axes", [("lip_x", (0,)), ("lip_y", (1,)), ("lip_2d", (0, 1))])
@pytest.mark.parametrize("n_log2", [3, 4, 5, 6])
def test_noise_kinds_meet_their_step_bound_with_five_percent_margin(kind, axes, n_log2):
    # the largest step along the bounded axes, the wrap-around step
    # included, is 0.95 lip / (N sqrt(k)) for k bounded axes
    lip = 0.7
    for seed in range(10):
        values = lin.generate_linearizer(kind, {"lip_constant": lip}, seed, n_log2).values
        step = max(np.abs(np.roll(values, -1, axis=axis) - values).max() for axis in axes)
        assert step * (1 << n_log2) == pytest.approx(0.95 * lip / math.sqrt(len(axes)), rel=1e-12)


@pytest.mark.parametrize("n_log2", [3, 4, 5, 6])
def test_amplitude_caps_the_spread_of_lip_x(n_log2):
    for seed in range(10):
        V = lin.generate_linearizer("lip_x", {"amplitude": 0.1}, seed, n_log2)
        assert np.ptp(V.values) == pytest.approx(0.1, rel=1e-12)


def test_exact_linear_field_ratio_one():
    n = 32
    x = np.arange(n) / n
    V = lin.LinearizerField(5, np.repeat(x[:, None], n, axis=1), lin.Regularity("none"))
    rep = lin.verify_lipschitz(V, lin.Regularity("lip_x", lip=1.0))
    assert rep.passed
    assert rep.worst_ratio == pytest.approx(1.0, abs=1e-12)


def test_steep_linear_field_fails_with_adjacent_witness():
    n = 32
    x = np.arange(n) / n
    V = lin.LinearizerField(5, np.repeat(3.0 * x[:, None], n, axis=1), lin.Regularity("none"))
    rep = lin.verify_lipschitz(V, lin.Regularity("lip_x", lip=1.0))
    assert not rep.passed
    assert rep.worst_ratio == pytest.approx(3.0, rel=1e-12)
    (i, j), (i2, j2) = rep.witness
    assert abs(i2 - i) == 1 and j2 == j


def _steep_lip_y_ramp():
    n = 32
    y = np.arange(n) / n
    return lin.LinearizerField(5, np.repeat(3.0 * y[None, :], n, axis=0)), lin.Regularity("lip_y", lip=1.0), 0


def _lip_2d_with_spike():
    V = lin.generate_linearizer("lip_2d", {"lip_constant": 0.5}, 3, 5)
    vals = V.values.copy()
    vals[5, 7] += 0.3
    return lin.LinearizerField(5, vals), V.regularity, 1


def _dyadic_with_raised_half():
    V = lin.generate_linearizer("dyadic_of_lipschitz", {"lip_constant": 1.0, "v_min": 0.3}, 5, 5)
    vals = V.values.copy()
    vals[:16] *= 8
    return lin.LinearizerField(5, vals), V.regularity, 2


@pytest.mark.parametrize(
    "plant, ratio, on_witness",
    [
        (_steep_lip_y_ramp, 3.0, lambda a, b: a[0] == b[0] and abs(a[1] - b[1]) == 1),
        (_lip_2d_with_spike, 1.2861417831321653, lambda a, b: (5, 7) in (a, b)),
        (_dyadic_with_raised_half, 3.764705882352941, lambda a, b: (a[0] < 16) != (b[0] < 16)),
    ],
    ids=["lip_y", "lip_2d", "dyadic_of_lipschitz"],
)
def test_planted_violation_has_its_worst_pair_as_witness(plant, ratio, on_witness):
    V, mode, seed = plant()
    rep = lin.verify_lipschitz(V, mode, seed)
    assert not rep.passed
    assert rep.worst_ratio == pytest.approx(ratio, rel=1e-12)
    a, b = rep.witness
    assert len(a) == len(b) == 2 and all(type(t) is int for t in (*a, *b))
    assert on_witness(a, b)


def test_generated_staircase_x_passes_checker():
    # every x-step of the walk is exactly 0, or 0.9 * lip / N
    V = lin.generate_linearizer("staircase_x", {"lip_constant": 1.0, "v_min": 0.125, "levels": 8}, 3, 5)
    rep = lin.verify_lipschitz(V, V.regularity)
    assert rep.passed
    assert rep.worst_ratio <= 0.9 + 1e-12


@pytest.mark.parametrize("n_log2", [3, 4, 5, 6])
def test_staircase_x_closes_on_the_torus(n_log2):
    # every torus step on both axes, the seam included, is at most 0.9 lip / N
    n = 1 << n_log2
    params = {"lip_constant": 1.0, "v_min": 0.125, "levels": 48}
    for seed in range(5):
        v = lin.generate_linearizer("staircase_x", params, seed, n_log2).values
        for axis in (0, 1):
            steps = np.abs(v - np.roll(v, 1, axis=axis))
            assert steps.max() * n <= 0.9 * (1 + 1e-12), (seed, axis)
        assert v.min() >= 0.125 and v.max() <= 0.125 + 2 * 47 * 0.9 / n * (1 + 1e-12)


def test_lip_2d_generator_and_floor():
    L = 0.5
    V = lin.generate_linearizer("lip_2d", {"lip_constant": L}, 3, 5)
    assert V.values.min() >= L * L
    rep = lin.verify_lipschitz(V, V.regularity, seed=1)
    assert rep.passed


def test_dyadic_of_lipschitz_values_are_powers_of_two():
    V = lin.generate_linearizer("dyadic_of_lipschitz", {"lip_constant": 1.0, "v_min": 0.3}, 5, 5)
    mant, _ = np.frexp(V.values)
    assert np.all(mant == 0.5)
    rep = lin.verify_lipschitz(V, V.regularity, seed=2)
    assert rep.passed


def test_generator_rejects_bad_params():
    with pytest.raises(ValueError):
        lin.generate_linearizer("lip_x", {"lip_constant": -1.0}, 0, 4)
    with pytest.raises(ValueError):
        lin.generate_linearizer("lip_2d", {"lip_constant": 1.0, "floor": 0.5}, 0, 4)
    with pytest.raises(ValueError):
        lin.generate_linearizer("nope", {}, 0, 4)
    with pytest.raises(ValueError, match="linearizer kind 'constant' needs a finite value >= 0, got -0.5"):
        lin.generate_linearizer("constant", {"value": -0.5}, 0, 4)
    with pytest.raises(ValueError, match="needs a finite v_min >= 0, got -0.1"):
        lin.generate_linearizer("lip_x", {"v_min": -0.1}, 0, 4)
    with pytest.raises(ValueError, match="dyadic_of_lipschitz needs v_min > 0"):
        lin.generate_linearizer("dyadic_of_lipschitz", {"v_min": 0.0}, 0, 4)


@pytest.mark.parametrize(
    "value, regularity, message",
    [
        (-1.0, lin.Regularity("none"), "must be >= 0"),
        (0.25, lin.Regularity("lip_x", lip=1.0, floor=0.5), "below declared floor 0.5"),
        (0.75, lin.Regularity("dyadic_of_lipschitz", lip=1.0), "non powers of two"),
    ],
    ids=["negative", "below_floor", "not_dyadic"],
)
def test_linearizer_field_rejects_values_outside_its_class(value, regularity, message):
    values = np.ones((8, 8))
    values[3, 4] = value
    with pytest.raises(ValueError, match=message):
        lin.LinearizerField(3, values, regularity)


@pytest.mark.parametrize("lip", [0.0, -1.0, -0.0, math.inf, -math.inf, math.nan])
def test_regularity_rejects_a_lip_that_is_not_finite_and_positive(lip):
    # a lip <= 0 made every ratio of the lip_x, lip_y and staircase_x rule
    # <= 0, so every field passed; inf passed every field too
    for kind in ("lip_x", "lip_y", "lip_2d", "staircase_x", "dyadic_of_lipschitz"):
        with pytest.raises(ValueError, match="Regularity needs a finite lip > 0"):
            lin.Regularity(kind, lip=lip)


@pytest.mark.parametrize("floor", [-1e-300, -1.0, math.inf, -math.inf, math.nan])
def test_regularity_rejects_a_floor_that_is_not_finite_and_nonnegative(floor):
    # a NaN floor switched off LinearizerField's floor check
    with pytest.raises(ValueError, match="Regularity needs a finite floor >= 0"):
        lin.Regularity("lip_x", lip=1.0, floor=floor)


def test_regularity_keeps_none_and_the_edges_of_its_ranges():
    assert lin.Regularity("lip_x").lip is None and lin.Regularity("lip_x").floor is None
    assert lin.Regularity("lip_x", lip=5e-324, floor=0.0).floor == 0.0
    # an 8 x 8 uniform(0, 50) field fails the lip_x rule at lip 1
    V = lin.LinearizerField(3, np.random.default_rng(0).uniform(0, 50, (8, 8)))
    assert not lin.verify_lipschitz(V, lin.Regularity("lip_x", lip=1.0)).passed


def test_verify_lipschitz_has_no_pair_rule_for_the_dyadic_metric_classes():
    # dyadic.verify_dyadic_metric_2d checks that class block by block
    V = lin.generate_linearizer("constant", {"value": 0.5}, 0, 3)
    with pytest.raises(ValueError, match="unsupported regularity kind 'dyadic_metric_2d'"):
        lin.verify_lipschitz(V, lin.Regularity("dyadic_metric_2d"))


def test_constant_generator_defaults_to_value_one():
    # the CLI's [linearizer] default; an empty spec raised KeyError: 'value'
    V = lin.generate_linearizer("constant", {}, 0, 3)
    assert np.array_equal(V.values, np.ones((8, 8)))


@pytest.mark.parametrize("kind", ["lip_2d", "staircase_x", "dyadic_of_lipschitz"])
@pytest.mark.parametrize("lip", [0.0, -1.0, math.inf, math.nan])
def test_generator_rejects_lip_constant_out_of_range(kind, lip):
    # at lip_constant = 0, lip_2d and staircase_x built fields that failed
    # their own verify_lipschitz with worst ratio nan
    with pytest.raises(ValueError, match=f"kind '{kind}' needs a finite lip_constant > 0"):
        lin.generate_linearizer(kind, {"lip_constant": lip}, 0, 4)


@pytest.mark.parametrize(
    "kind, key, value",
    [(kind, "band", band) for kind in ("lip_x", "lip_y", "lip_2d", "dyadic_of_lipschitz") for band in (0, -2)]
    + [("staircase_x", "levels", levels) for levels in (0, -3)],
)
def test_generator_rejects_band_and_levels_below_one(kind, key, value):
    # band <= 0 drew no mode, so every seed fell back to the same cos(2 pi x)
    # field; levels <= 0 failed inside numpy's integers with 'high <= 0'
    with pytest.raises(ValueError, match=f"^linearizer kind '{kind}' needs {key} >= 1, got {value}$"):
        lin.generate_linearizer(kind, {key: value}, 1, 4)


@pytest.mark.parametrize("kind", ["lip_x", "lip_y"])
@pytest.mark.parametrize("amplitude", [math.nan, math.inf, -0.1])
def test_generator_rejects_an_amplitude_that_is_not_finite_and_at_least_zero(kind, amplitude):
    # nan and inf left the field uncapped, and -0.1 failed later as a negative V
    with pytest.raises(ValueError, match=f"^linearizer kind '{kind}' needs a finite amplitude >= 0, got {amplitude}$"):
        lin.generate_linearizer(kind, {"v_min": 0.05, "amplitude": amplitude}, 3, 5)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("kind, key", [("constant", "value"), ("lip_2d", "floor")])
def test_generator_names_a_non_finite_value_or_floor(kind, key, bad):
    with pytest.raises(ValueError, match=rf"linearizer kind '{kind}' needs a finite {key} >= .*, got {bad}"):
        lin.generate_linearizer(kind, {key: bad}, 0, 4)


def test_lip_y_draw_without_variation_along_its_axis():
    # this draw's noise is constant along y, so only the amplitude bounds
    # the scale; without an amplitude nothing does
    params = {"lip_constant": 1.0, "v_min": 2**-5, "amplitude": 0.3}
    V = lin.generate_linearizer("lip_y", params, 2096991651, 6)
    assert lin.verify_lipschitz(V, V.regularity).passed
    assert np.ptp(V.values) == pytest.approx(0.3, rel=1e-12)
    del params["amplitude"]
    with pytest.raises(ValueError, match="lip_y.*2096991651"):
        lin.generate_linearizer("lip_y", params, 2096991651, 6)


def test_generator_deterministic_per_seed():
    a = lin.generate_linearizer("lip_x", {"lip_constant": 1.0}, 11, 4)
    b = lin.generate_linearizer("lip_x", {"lip_constant": 1.0}, 11, 4)
    assert np.array_equal(a.values, b.values)


def test_dyadic_round_up_examples():
    assert lin.dyadic_round_up(1.0) == 8.0
    assert lin.dyadic_round_up(0.9) == 4.0
    assert lin.dyadic_round_up(3.0) == 16.0


def test_dyadic_round_up_bracketing_bulk():
    rng = np.random.default_rng(0)
    lam = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), size=100_000))
    # the ends of the float range: subnormals up to the largest input whose rounding is finite
    lam = np.concatenate([lam, [5e-324, 3e-320, 2.0**-1022, np.nextafter(0.25, 0.0), np.nextafter(2.0**1021, 0.0)]])
    vt = lin.dyadic_round_up(lam)
    assert np.all(np.frexp(vt)[0] == 0.5)
    assert np.all(vt / 8.0 <= lam)
    assert np.all(lam < vt / 4.0)
    for past_the_range in (2.0**1021, np.inf):
        with pytest.raises(ValueError, match=r"0 < input < 2\*\*1021"):
            lin.dyadic_round_up([1.0, past_the_range])


def test_dyadic_floor_examples_and_bracketing():
    assert list(lin.dyadic_floor([0.0, 0.9, 1.0, 3.0, 4.0])) == [0.0, 0.5, 1.0, 2.0, 4.0]
    rng = np.random.default_rng(1)
    v = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), size=100_000))
    low = lin.dyadic_floor(v)
    assert np.all(low <= v) and np.all(v < 2.0 * low)
    assert np.all(np.frexp(low)[0] == 0.5)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            lin.dyadic_floor([bad])


def test_dyadic_round_up_rejects_nonpositive():
    for lam in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            lin.dyadic_round_up(lam)


def test_bucket_groups_of_a_constant_key():
    groups = lin._plan(np.full((16, 16), 5.0), lambda k: k).groups
    assert list(groups.values) == [5.0]
    assert np.array_equal(groups.positions, np.arange(16 * 16))
    assert np.array_equal(groups.flat, groups.positions)


def test_bucket_groups_partition_the_grid():
    # sorted keys; every point in exactly one group, with its own key; the
    # groups in key order and the positions increasing within a group, so
    # the flat index group * N^2 + position increases
    vals = np.full((16, 16), 8.0)
    vals[3:7, 2:9] = 2.0
    vals[10:12, :] = 0.5
    groups = lin._plan(vals, lambda k: k).groups
    labels, positions = np.divmod(groups.flat, 16 * 16)
    assert list(groups.values) == [0.5, 2.0, 8.0]
    assert list(np.bincount(labels)) == [2 * 16, 4 * 7, 16 * 16 - 2 * 16 - 4 * 7]
    assert np.array_equal(positions, groups.positions)
    assert np.array_equal(np.sort(groups.positions), np.arange(16 * 16))
    assert np.array_equal(groups.values[labels], vals.ravel()[groups.positions])
    assert np.all(np.diff(groups.flat) > 0)


def test_bucket_groups_put_key_zero_in_its_own_first_group():
    vals = np.full((16, 16), 1.0)
    vals[0, 5] = 0.0
    groups = lin._plan(vals, lambda k: k).groups
    assert list(groups.values) == [0.0, 1.0]
    assert list(groups.positions[groups.flat < 16 * 16]) == [5]


def _grouped_by_two_sorts(values, positions, size):
    """The grouping as np.unique with its inverse and a stable argsort of
    those labels form it."""
    distinct, labels = np.unique(values, return_inverse=True)
    order = np.argsort(labels, kind="stable")
    return distinct, positions[order], labels[order] * size + positions[order]


def _grouping_inputs(case):
    """(values, positions) at N = 32: the keys of a V, or the h of the
    Pi_beta support."""
    if case.startswith("h"):
        beta = float(case.split("=")[1])
        support = np.flatnonzero(mu.pi_beta_mask(beta, 5).values)
        return mu.hyperbolic_argument(5, beta).ravel()[support], support
    keys = {
        "lip_x": lambda: lin.generate_linearizer("lip_x", _LIP_X, 0, 5).values,
        "staircase_x": lambda: lin.generate_linearizer("staircase_x", {}, 4, 5).values,
        "zero band": lambda: _three_valued(5, low=0.0),
    }[case]()
    return keys.ravel(), np.arange(keys.size)


@pytest.mark.parametrize("case", ["lip_x", "staircase_x", "zero band", "h beta=1", "h beta=-1"])
def test_one_sort_grouping_matches_the_two_sort_form(case):
    values, positions = _grouping_inputs(case)
    got = lin._grouped(values, positions, 32 * 32)
    for mine, theirs in zip(got, _grouped_by_two_sorts(values, positions, 32 * 32)):
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
        assert mine.tobytes() == theirs.tobytes()


def test_kernel_inputs_reject_negative_scales():
    # the frequency-side bands take key * h monotone in key and h
    for bad in (-0.5, math.nan):
        keys = np.full((8, 8), 0.5)
        keys[2, 3] = bad
        with pytest.raises(ValueError, match="bucket keys must be >= 0"):
            lin._plan(keys, lambda k: k)
    with pytest.raises(ValueError, match="symbol arguments must be >= 0"):
        lin.ScaledSymbol(mu.make_bump_profile(0.5), -mu.hyperbolic_argument(3, 1.0), 1.0)


def test_constant_v_collapses_to_fixed_multiplier():
    m = mu.make_bump_profile(0.5)
    f = g.random_field(4, 3)
    V = lin.generate_linearizer("constant", {"value": 0.7}, 0, 4)
    out = lin.apply_linearized_bruteforce(f, V, m, 1.0)
    sym = mu.hyperbolic_symbol(0.7, 1.0, m, 4)
    mask = mu.pi_beta_mask(1.0, 4)
    fixed = ne.fixed_multiplier_operator(mask).apply(ne.fixed_multiplier_operator(sym).apply(f))
    assert np.abs(out.samples - fixed.samples).max() < 1e-11


def test_identity_when_profile_flat_on_attained_arguments():
    # beta = 0 with V so small that every attained argument sits in the flat
    # region of the profile: the operator is the identity
    m = mu.make_bump_profile(1.0)
    f = g.random_field(4, 6)
    V = lin.generate_linearizer("constant", {"value": 2.0**-8}, 0, 4)
    out = lin.apply_linearized_bucketed(f, V, m, 0.0)
    assert np.abs(out.samples - f.samples).max() < 1e-12


def test_oracle_equivalence_random_cases():
    m = mu.make_bump_profile(0.5)
    for beta in (-1.0, 0.0, 1.0):
        for seed in range(3):
            V = lin.generate_linearizer(
                "lip_x", {"lip_constant": 1.0, "v_min": 0.05, "amplitude": 1.0}, seed, 4
            )
            f = g.random_field(4, 50 + seed)
            brute = lin.apply_linearized_bruteforce(f, V, m, beta)
            fast = lin.apply_linearized_bucketed(f, V, m, beta)
            assert _rel_l2(brute.samples, fast.samples) <= 1e-10


def test_grid_mismatch_raises():
    m = mu.make_bump_profile(0.5)
    V = lin.generate_linearizer("constant", {"value": 1.0}, 0, 5)
    f = g.random_field(4, 0)
    with pytest.raises(g.GridMismatchError):
        lin.apply_linearized_bucketed(f, V, m, 1.0)
    with pytest.raises(g.GridMismatchError):
        lin.apply_linearized_bruteforce(f, V, m, 1.0)


_GATHER_ENTRY_POINTS = {
    "apply_linearized_bucketed": lambda f, V, fam, m: lin.apply_linearized_bucketed(f, V, m, 1.0),
    "lemma_operator": lambda f, V, fam, m: de.lemma_operator(f, V, m, 1.0),
    "principal_term": lambda f, V, fam, m: de.principal_term(f, V, fam, m),
    "error_term": lambda f, V, fam, m: de.error_term(f, V, fam, m),
    "linearized_operator.apply": lambda f, V, fam, m: ne.linearized_operator(V, m, 1.0).apply(f),
    "linearized_operator.adjoint": lambda f, V, fam, m: ne.linearized_operator(V, m, 1.0).adjoint(f),
    "small_variation_error": lambda f, V, fam, m: de.small_variation_error(f, V, fam, m),
    "dyadic_model_operator": lambda f, V, fam, m: dy.dyadic_model_operator(f, V, 1.0, 2.0**-3, "thm_4_1"),
}


@pytest.mark.parametrize("entry", sorted(_GATHER_ENTRY_POINTS))
def test_gather_entry_points_reject_mismatched_grids(entry):
    m = mu.make_bump_profile(0.5)
    V = lin.generate_linearizer("lip_x", {"lip_constant": 1.0, "v_min": 0.05, "amplitude": 1.0}, 0, 5)
    f = g.random_field(4, 0)  # N = 16 against V on N = 32
    fam = de.make_lp_family(1.0, 4)
    with pytest.raises(g.GridMismatchError):
        _GATHER_ENTRY_POINTS[entry](f, V, fam, m)


_LIP_X = {"lip_constant": 1.0, "v_min": 0.05, "amplitude": 1.0}


def _mean_zero(f):
    """f with each odd row, then each odd column, replaced by the negated even
    one before it: the fast transform gives a spectrum exactly zero on the
    lines xi = 0 and eta = 0 (zeroing them and transforming back leaves
    rounding there, not zeros)."""
    samples = f.samples.copy()
    samples[1::2] = -samples[0::2]
    samples[:, 1::2] = -samples[:, 0::2]
    spec = g.forward_transform(g.SampledField(f.n_log2, samples)).coeffs
    assert not spec[0].any() and not spec[:, 0].any() and spec[1:, 1:].all()
    return g.SampledField(f.n_log2, samples)


@pytest.mark.parametrize("beta", [-1.0, 0.0, 0.5, 1.0])
def test_gather_and_scatter_groupings_agree(beta):
    # a continuous V has more distinct values than the masked spectrum has
    # distinct h, hence than their bands have groups, so the ScaledSymbol
    # takes the frequency side and the plain
    # callable the V side; the weight is the Pi_beta mask times a random factor
    m = mu.make_bump_profile(0.5)
    V = lin.generate_linearizer("lip_x", _LIP_X, 2, 5)
    hyper = mu.hyperbolic_argument(5, beta)
    weight = mu.pi_beta_mask(beta, 5).values * np.random.default_rng(5).uniform(0.5, 1.5, (32, 32))
    assert np.unique(hyper[weight != 0]).size < np.unique(V.values).size
    scaled = lin.ScaledSymbol(m, hyper, weight)
    plain = lambda key: weight * m(key * hyper)
    spec = g.forward_transform(g.random_field(5, 3)).coeffs
    samples = g.random_field(5, 4).samples
    for kernel, arr in ((lin._gather, spec), (lin._scatter, samples)):
        by_v = kernel(arr, lin._plan(V.values, plain))
        by_h = kernel(arr, lin._plan(V.values, scaled))
        assert np.linalg.norm(by_h - by_v) <= 1e-12 * np.linalg.norm(by_v)


def _three_valued(n_log2, low=0.1):
    n = 1 << n_log2
    return np.repeat([low, 0.4, 0.9], [n // 4, n // 2, n - 3 * n // 4])[:, None] * np.ones((1, n))


def _zero_block(n_log2):
    vals = lin.generate_linearizer("lip_2d", {"lip_constant": 0.5, "floor": 0.25}, 5, n_log2).values.copy()
    vals[2:6, 3:9] = 0.0  # the reserved m(0) bucket
    return vals


_V_KINDS = {
    "constant": lambda n_log2: lin.generate_linearizer("constant", {"value": 0.3}, 0, n_log2).values,
    "three_valued": _three_valued,
    "continuous": lambda n_log2: lin.generate_linearizer("lip_x", _LIP_X, 1, n_log2).values,
    "zero_block": _zero_block,
    "zero_band": lambda n_log2: _three_valued(n_log2, low=0.0),
}


@pytest.mark.parametrize("kind", sorted(_V_KINDS))
@pytest.mark.parametrize("beta", [-1.0, 0.0, 0.5, 1.0])
def test_bucketed_apply_and_adjoint_on_both_sides(beta, kind):
    # constant and 3-valued V (with or without a zero band) take the V side,
    # continuous V (with or without a zero block) the frequency side; a zero
    # band or block is the group of key 0, whose symbol is m(0)
    m = mu.make_bump_profile(0.5)
    V = lin.LinearizerField(4, _V_KINDS[kind](4), lin.Regularity("none"))
    op = lin.linearized_operator(V, m, beta)
    rng = np.random.default_rng(9)
    b = g.SampledField(4, rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    for f in (g.random_field(4, 8), _mean_zero(g.random_field(4, 8))):
        brute = lin.apply_linearized_bruteforce(f, V, m, beta).samples
        tf = op.apply(f).samples
        assert _rel_l2(brute, tf) <= 1e-10
        tb = op.adjoint(b).samples
        gap = abs(np.vdot(b.samples, tf) - np.vdot(tb, f.samples))
        assert gap <= 1e-10 * np.linalg.norm(tf) * np.linalg.norm(b.samples)


# (V, the run, the symbol's argument grid and weight) per case: the handle's
# apply at N = 32 on the digest's lip_x field, and the lemma at N = 64 on a
# lip_2d field with floor 1/4, where both bands bite
_BANDED_RUNS = {
    "apply": (
        lambda n_log2: lin.generate_linearizer("lip_x", _LIP_X, 0, n_log2),
        lin.apply_linearized_bucketed,
        lambda n_log2, beta: (mu.hyperbolic_argument(n_log2, beta), mu.pi_beta_mask(beta, n_log2).values),
    ),
    "lemma": (
        lambda n_log2: lin.generate_linearizer("lip_2d", {"lip_constant": 0.5, "floor": 0.25}, 5, n_log2),
        de.lemma_operator,
        lambda n_log2, beta: (
            mu.hyperbolic_argument(n_log2, beta).T,
            np.where(g.frequencies(n_log2) == 0, 0.0, 1.0)[:, None] if beta < 0 else 1.0,
        ),
    ),
}


@pytest.mark.parametrize("beta", [1.0, -1.0])
@pytest.mark.parametrize("run, n_log2", [("apply", 5), ("lemma", 6)])
def test_banded_gather_transforms_only_the_live_h(monkeypatch, run, n_log2, beta):
    # the frequency side transforms the flat h (V_max h <= eps) as one group
    # and each transition h once; the dead h (V_min h >= R) take no
    # transform and no profile call.  The transforms go in stacks of
    # 2**13 // N^2, and neither a transform nor a profile call sees more
    # than max(N^2, _STACK) entries.
    m = mu.make_bump_profile(0.5)
    make_v, apply, symbol_args = _BANDED_RUNS[run]
    V = make_v(n_log2)
    n = 1 << n_log2
    hyper, weight = symbol_args(n_log2, beta)
    hs = np.unique(hyper[np.broadcast_to(weight, hyper.shape) != 0])
    assert np.unique(V.values).size > hs.size  # the frequency side
    flat = V.values.max() * hs <= m.epsilon
    dead = V.values.min() * hs >= m.support_radius
    expected = int(flat.any()) + int(np.count_nonzero(~flat & ~dead))
    assert expected < hs.size
    f = g.random_field(n_log2, 1)
    stacks, profile_sizes = [], []
    ifft2, profile = lin._ifft2, mu.MultiplierProfile.__call__

    def counted_ifft2(a, *args, **kwargs):
        stacks.append(np.shape(a))
        return ifft2(a, *args, **kwargs)

    def sized_profile(self, t):
        profile_sizes.append(np.size(t))
        return profile(self, t)

    monkeypatch.setattr(lin, "_ifft2", counted_ifft2)
    monkeypatch.setattr(mu.MultiplierProfile, "__call__", sized_profile)
    apply(f, V, m, beta)
    assert all(shape[-2:] == (n, n) for shape in stacks)
    assert sum(shape[0] for shape in stacks) == expected
    assert len(stacks) == -(-expected // max(1, lin._STACK // n**2))
    assert sum(profile_sizes) == expected * n**2
    bound = max(n**2, lin._STACK)
    assert max(np.prod(shape) for shape in stacks) <= bound
    assert 0 < max(profile_sizes) <= bound


def test_side_rule_counts_the_banded_groups(monkeypatch):
    # a lip_x V at N = 32 rounded to multiples of 1/400 has 62 keys; at
    # beta = -1 the mask keeps 161 distinct h, but their bands leave 33
    # groups, so the frequency side runs 33 transforms where the V side
    # would run 62
    m = mu.make_bump_profile(0.5)
    values = np.round(lin.generate_linearizer("lip_x", _LIP_X, 1, 5).values * 400.0) / 400.0
    V = lin.LinearizerField(5, values)
    assert np.unique(values).size == 62
    assert np.unique(mu.hyperbolic_argument(5, -1.0)[mu.pi_beta_mask(-1.0, 5).values != 0]).size == 161
    op = lin.linearized_operator(V, m, -1.0)
    f = g.random_field(5, 1)
    rng = np.random.default_rng(3)
    b = g.SampledField(5, rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32)))
    stacks = []
    ifft2 = lin._ifft2

    def counted_ifft2(a, *args, **kwargs):
        stacks.append(np.shape(a))
        return ifft2(a, *args, **kwargs)

    monkeypatch.setattr(lin, "_ifft2", counted_ifft2)
    tf = op.apply(f).samples
    assert sum(shape[0] for shape in stacks) == 33
    monkeypatch.undo()
    assert _rel_l2(lin.apply_linearized_bruteforce(f, V, m, -1.0).samples, tf) <= 1e-10
    tb = op.adjoint(b).samples
    gap = abs(np.vdot(b.samples, tf) - np.vdot(tb, f.samples))
    assert gap <= 1e-10 * np.linalg.norm(tf) * np.linalg.norm(b.samples)


@pytest.mark.parametrize("levels, by_key", [((0.5, 0.6, 0.7), False), ((0.5, 0.7), True)])
def test_side_rule_takes_the_bands_only_when_they_are_fewer(levels, by_key):
    # h takes two values, each in the transition band of every key, so two
    # banded groups: fewer than three distinct keys, and not fewer than two
    keys = np.resize(np.array(levels), (8, 8))
    hyper = np.ones((8, 8))
    hyper[0, :4] = 1.2
    plan = lin._plan(keys, lin.ScaledSymbol(mu.make_bump_profile(0.5), hyper, 1.0))
    assert (plan.weight is None) == by_key
    assert plan.groups.values.size == (len(levels) if by_key else 2)


# (N log2, beta, groups) of the lip_x handle: at N = 16 its 8 groups fit in
# one stack of 2**13 entries, at N = 32 its 51 do not
_HANDLE_CASES = {"N=16 beta=1": (4, 1.0, 8), "N=32 beta=-1": (5, -1.0, 51)}


@pytest.mark.parametrize("stack", [1, lin._STACK, 1 << 20])
@pytest.mark.parametrize("case", sorted(_HANDLE_CASES))
def test_handle_groups_frequencies_once(monkeypatch, case, stack):
    # a lip_x V takes the frequency side; the handle grouped and banded its h
    # and cut the grouping into stacks when it was built, so no apply or
    # adjoint sorts, searches, regroups or walks the stacks again.  The walk
    # searches by the method ndarray.searchsorted, which the np.searchsorted
    # patch does not see, so _stacks is counted on its own.
    # When its g groups fit in one stack, g N^2 <= max(N^2, _STACK), it
    # evaluated m on them then too, so no apply or adjoint calls m;
    # otherwise each stack of groups makes one call of at most max(N^2,
    # _STACK) entries.
    default = lin._STACK
    monkeypatch.setattr(lin, "_STACK", stack)
    n_log2, beta, groups = _HANDLE_CASES[case]
    n = 1 << n_log2
    V = lin.generate_linearizer("lip_x", _LIP_X, 0, n_log2)
    assert np.unique(V.values).size > groups
    m = mu.make_bump_profile(0.5)
    op = lin.linearized_operator(V, m, beta)
    plan = lin._plan(V.values, lin.ScaledSymbol(m, mu.hyperbolic_argument(n_log2, beta), mu.pi_beta_mask(beta, n_log2).values))
    assert plan.weight is not None and plan.groups.values.size == groups
    calls, profile_sizes = [], []
    profile = mu.MultiplierProfile.__call__

    def counted(name):
        original = getattr(np, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    def sized_profile(self, t):
        profile_sizes.append(np.size(t))
        return profile(self, t)

    for name in ("unique", "argsort", "sort", "searchsorted"):
        monkeypatch.setattr(np, name, counted(name))
    stacks = lin._stacks
    monkeypatch.setattr(lin, "_stacks", lambda *args: calls.append("_stacks") or stacks(*args))
    monkeypatch.setattr(mu.MultiplierProfile, "__call__", sized_profile)
    f, b = g.random_field(n_log2, 1), g.random_field(n_log2, 2)
    for _ in range(3):
        op.apply(f)
        op.adjoint(b)
    assert calls == []
    if groups * n**2 <= max(n**2, stack):
        assert profile_sizes == []
    else:
        assert len(profile_sizes) == 6 * -(-groups // max(1, stack // n**2))
        assert max(profile_sizes) <= max(n**2, stack)
    # the default stack holds the N = 16 grouping and not the N = 32 one
    assert (case == "N=16 beta=1") == (groups * n**2 <= max(n**2, default))


@pytest.mark.parametrize("stack", [1, 3 * 64, lin._STACK, 1 << 20])
@pytest.mark.parametrize("transform", ["identity", "synthesis", "fft2"])
def test_spread_sums_signed_zeros_as_the_term_by_term_loop(monkeypatch, transform, stack):
    # five key groups on an 8 x 8 grid, with -0.0 in the array and in the
    # factors; the reference adds each group's term in turn to a zero start.
    # One group per stack, three, and all five in one stack, where the
    # hand-built plan keeps them as its read-only table as _plan's would.
    monkeypatch.setattr(lin, "_STACK", stack)
    run = {"identity": lambda a: a, "synthesis": lin._synthesis, "fft2": g._fft2}[transform]
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 5, (8, 8)).astype(np.float64)
    arr = np.abs(rng.standard_normal((8, 8))) + 1j * np.abs(rng.standard_normal((8, 8)))
    arr[1::3] = complex(-0.0, -0.0)
    factors = np.where(rng.random((5, 8, 8)) < 0.4, -0.0, rng.standard_normal((5, 8, 8)))
    factors[:, 0] = -0.0
    plan = lin._Plan(keys, lin._grouped(keys.ravel(), np.arange(64), 64), lambda values: factors[values.astype(int)], None)
    assert len(plan.stacks) == -(-5 // max(1, stack // 64))
    assert (plan.table is None) == (len(plan.stacks) > 1)
    assert plan.table is None or not plan.table.flags.writeable
    terms = [run(np.where(keys == value, arr, 0.0)) * factors[int(value)] for value in plan.groups.values]
    want = np.zeros((8, 8), dtype=np.complex128)
    for term in terms:
        want += term
    assert lin._spread(run, arr, plan).tobytes() == want.tobytes()
    # every term is a signed zero on row 0, and some of them are -0.0
    assert not np.array(terms)[:, 0].any() and np.signbit(np.array(terms).real[:, 0]).any()


_STACK_INVARIANT_OUTPUTS = {
    "apply": lambda f, V, fam, m, beta: ne.linearized_operator(V, m, beta).apply(f),
    "adjoint": lambda f, V, fam, m, beta: ne.linearized_operator(V, m, beta).adjoint(f),
    "lemma": lambda f, V, fam, m, beta: de.lemma_operator(f, V, m, beta),
    "principal": lambda f, V, fam, m, beta: de.principal_term(f, V, fam, m),
    "error": lambda f, V, fam, m, beta: de.error_term(f, V, fam, m),
    "small_variation": lambda f, V, fam, m, beta: de.small_variation_error(f, V, fam, m),
}


@pytest.mark.parametrize("kind", ["lip_x", "dyadic_of_lipschitz"])
@pytest.mark.parametrize("beta", [-1.0, 0.0, 0.5, 1.0])
def test_outputs_do_not_depend_on_the_stack_size(monkeypatch, beta, kind):
    # one group per stack is the unstacked loop; 2**20 puts every group of an
    # N = 16 grid in one stack.  Groups are summed in the same order either
    # way, so the outputs agree byte for byte.
    m = mu.make_bump_profile(0.5)
    params = _LIP_X if kind == "lip_x" else {"lip_constant": 1.0, "v_min": 0.3}
    V = lin.generate_linearizer(kind, params, 3, 4)
    fam = de.make_lp_family(beta, 4)
    f = g.random_field(4, 12)
    outputs = []
    for stack in (1, lin._STACK, 1 << 20):
        monkeypatch.setattr(lin, "_STACK", stack)
        outputs.append({name: run(f, V, fam, m, beta).samples.tobytes() for name, run in _STACK_INVARIANT_OUTPUTS.items()})
    assert outputs[0] == outputs[1] == outputs[2]


# (V, beta, whether the plan takes the V side) at N = 8: the zero band and a
# staircase take the V side, a lip_x field the frequency side
_PLAN_CASES = {
    "zero_band beta=1": (lambda: _three_valued(3, low=0.0), 1.0, True),
    "staircase_x beta=-1": (lambda: lin.generate_linearizer("staircase_x", {}, 4, 3).values, -1.0, True),
    "lip_x beta=1": (lambda: lin.generate_linearizer("lip_x", _LIP_X, 0, 3).values, 1.0, False),
    "lip_x beta=-1": (lambda: lin.generate_linearizer("lip_x", _LIP_X, 0, 3).values, -1.0, False),
}


def _case_plan(case):
    make_keys, beta, by_key = _PLAN_CASES[case]
    keys = make_keys()
    symbol = lin.ScaledSymbol(mu.make_bump_profile(0.5), mu.hyperbolic_argument(3, beta), mu.pi_beta_mask(beta, 3).values)
    plan = lin._plan(keys, symbol)
    assert (plan.weight is None) == by_key
    return plan, keys, symbol


def _counted_groupings(monkeypatch):
    """The number of values in each _grouped call from now on."""
    grouped, sizes = lin._grouped, []

    def counted(values, positions, size):
        sizes.append(values.size)
        return grouped(values, positions, size)

    monkeypatch.setattr(lin, "_grouped", counted)
    return sizes


@pytest.mark.parametrize("beta", [1.0, -1.0])
def test_a_frequency_side_plan_groups_no_keys(monkeypatch, beta):
    # a continuous V at N = 32 takes the frequency side: the plan sorts its
    # keys to count them, and groups only the live h of the bands
    V = lin.generate_linearizer("lip_x", _LIP_X, 0, 5)
    symbol = lin.ScaledSymbol(mu.make_bump_profile(0.5), mu.hyperbolic_argument(5, beta), mu.pi_beta_mask(beta, 5).values)
    sizes = _counted_groupings(monkeypatch)
    plan = lin._plan(V.values, symbol)
    assert plan.weight is not None
    assert sizes == [plan.groups.positions.size]
    assert plan.groups.values.size < np.unique(V.values).size


@pytest.mark.parametrize("case", ["zero_band beta=1", "staircase_x beta=-1"])
def test_a_key_side_plan_groups_its_keys(monkeypatch, case):
    # the bands are grouped to choose the side, then the keys, once
    sizes = _counted_groupings(monkeypatch)
    plan, keys, _ = _case_plan(case)
    assert len(sizes) == 2 and sizes[1] == keys.size
    for mine, theirs in zip(plan.groups, _grouped_by_two_sorts(keys.ravel(), np.arange(keys.size), keys.size)):
        assert mine.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("case", sorted(_PLAN_CASES))
def test_a_reused_handle_keeps_its_bits(monkeypatch, case):
    # a handle applied and adjointed three times returns the bits of a fresh
    # handle each time, whether its plan keeps the factors as a table or
    # evaluates them per stack: one group per stack (_STACK = 1) keeps no
    # table for these groupings, and the default and 2**20 keep one.  The
    # table is read-only, so a kernel that wrote to it would fail loudly.
    make_keys, beta, _ = _PLAN_CASES[case]
    V = lin.LinearizerField(3, make_keys())
    m = mu.make_bump_profile(0.5)
    f, b = g.random_field(3, 1), g.random_field(3, 2)
    runs = []
    for stack in (1, lin._STACK, 1 << 20):
        monkeypatch.setattr(lin, "_STACK", stack)
        plan = _case_plan(case)[0]
        assert plan.groups.values.size > 1
        assert (plan.table is None) == (stack == 1)
        assert plan.table is None or not plan.table.flags.writeable
        op = lin.linearized_operator(V, m, beta)
        fresh = lin.linearized_operator(V, m, beta)
        want = (fresh.apply(f).samples.tobytes(), fresh.adjoint(b).samples.tobytes())
        for _ in range(3):
            runs.append((op.apply(f).samples.tobytes(), op.adjoint(b).samples.tobytes()))
            assert runs[-1] == want
    assert len(set(runs)) == 1


def _handles():
    """Handles at N = 8 from each constructor in the package: the linearized
    operator of a lip_x field and a fixed multiplier."""
    m = mu.make_bump_profile(0.5)
    return {
        "linearized": lin.linearized_operator(lin.generate_linearizer("lip_x", _LIP_X, 0, 3), m, 1.0),
        "fixed": ne.fixed_multiplier_operator(mu.hyperbolic_symbol(1.0, 1.0, m, 3)),
    }


_HANDLES = ["linearized", "fixed"]


@pytest.mark.parametrize("shape", [(1, 8, 8), (2, 8, 16), (2, 16, 8), (3, 16, 16), (8,)])
def test_the_kernel_rejects_an_array_on_another_grid(shape):
    # the kernel takes one (N, N) grid; a stack of them is on another grid
    plan = _case_plan("lip_x beta=1")[0]
    for run in (lambda a: lin._gather(a, plan), lambda a: lin._scatter(a, plan)):
        with pytest.raises(g.GridMismatchError):
            run(np.zeros(shape, dtype=np.complex128))


@pytest.mark.parametrize("handle", _HANDLES)
def test_apply_and_adjoint_reject_a_field_on_another_grid(handle):
    op = _handles()[handle]
    for run in (op.apply, op.adjoint):
        with pytest.raises(g.GridMismatchError):
            run(g.random_field(4, 0))


@pytest.mark.parametrize("handle", _HANDLES)
def test_apply_rejects_a_non_finite_image(handle):
    # every entry finite, but the transform overflows; the image's
    # SampledField rejects it
    op = _handles()[handle]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="grid array holds non-finite values"):
        op.apply(g.SampledField(3, np.full((8, 8), 1e308, dtype=np.complex128)))


@pytest.mark.parametrize("handle", _HANDLES)
def test_adjoint_rejects_a_non_finite_image(handle):
    op = _handles()[handle]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="grid array holds non-finite values"):
        op.adjoint(g.SampledField(3, np.full((8, 8), 1e308, dtype=np.complex128)))


@pytest.mark.parametrize("stack", [lin._STACK, 1])
@pytest.mark.parametrize("kind, beta", [("lip_x", 1.0), ("staircase_x", -1.0)])
def test_dense_matrix_takes_one_stacked_pass(monkeypatch, kind, beta, stack):
    # the dense oracle evaluates the symbol once, on the g distinct keys as a
    # (g, 1, 1) array, and takes one ifft2 of the (g, N, N) symbols, at N = 8
    # and 16 and whatever the kernel's stack size; a column is the apply of
    # its basis field to rounding
    monkeypatch.setattr(lin, "_STACK", stack)
    m = mu.make_bump_profile(0.5)
    ifft2_shapes = []
    ifft2 = ne._ifft2

    def recorded_ifft2(a, *args, **kwargs):
        ifft2_shapes.append(np.shape(a))
        return ifft2(a, *args, **kwargs)

    monkeypatch.setattr(ne, "_ifft2", recorded_ifft2)
    for n_log2 in (3, 4):
        n = 1 << n_log2
        V = lin.generate_linearizer(kind, _LIP_X if kind == "lip_x" else {}, 0, n_log2)
        op = lin.linearized_operator(V, m, beta)
        keys = np.unique(V.values)
        symbol_shapes = []

        def recorded_symbol(key, symbol_of=op.symbol_of):
            symbol_shapes.append(np.shape(key))
            return symbol_of(key)

        ifft2_shapes.clear()
        dense = ne.dense_matrix(dataclasses.replace(op, symbol_of=recorded_symbol))
        assert symbol_shapes == [(keys.size, 1, 1)]
        assert ifft2_shapes == [(keys.size, n, n)]
        k = 37  # a column against the apply of its basis field
        e = np.zeros(n * n, dtype=np.complex128)
        e[k] = 1.0
        column = op.apply(g.SampledField(n_log2, e.reshape(n, n))).samples.ravel()
        assert np.linalg.norm(dense[:, k] - column) <= 1e-13 * np.linalg.norm(column)


def test_beta_zero_domination_by_first_variable_maximal():
    m = mu.make_bump_profile(0.5)
    for seed in range(5):
        V = lin.generate_linearizer(
            "lip_x", {"lip_constant": 1.0, "v_min": 0.05, "amplitude": 2.0}, seed, 5
        )
        f = g.random_field(5, 70 + seed)
        T = lin.apply_linearized_bucketed(f, V, m, 0.0)
        C = lin.domination_constant(m, V)
        M1 = hl_maximal_m1(f)
        assert np.all(np.abs(T.samples) <= C * M1.samples.real + 1e-12)


def _domination_reference(m, V):
    """domination_constant one distinct V at a time: the kernel row, its radially
    non-increasing majorant Phi(d) = max |kernel| over torus distances >= d,
    and sum_q (Phi outside window q-1 - Phi outside window q) * min(2 h_q + 1, N) / N
    over the windows of half-width h_q = 2**q, q < log2 N."""
    n = V.n
    abs_freq = np.abs(g.frequencies(V.n_log2)).astype(np.float64)
    dist = np.minimum(np.arange(n), n - np.arange(n))
    half_widths = [1 << q for q in range(V.n_log2)]
    outside = [0] + [h + 1 for h in half_widths]  # first distance outside window q-1
    best = 0.0
    for lam in np.unique(V.values):
        kernel = np.abs(np.fft.ifft(m(max(lam, 1e-300) * abs_freq)) * n)
        radial = np.array([kernel[dist == d].max() for d in range(n // 2 + 1)])
        phi = np.append(np.maximum.accumulate(radial[::-1])[::-1], 0.0)
        c = sum((phi[outside[q]] - phi[outside[q + 1]]) * min(2 * h + 1, n) / n for q, h in enumerate(half_widths))
        best = max(best, c)
    return best


@pytest.mark.parametrize("n_log2", [4, 5])
@pytest.mark.parametrize("eps", [0.5, 1.0])
def test_domination_constant_matches_a_loop_per_value_reference(n_log2, eps):
    # criterion 9's lip_x fields
    m = mu.make_bump_profile(eps)
    for seed in range(3):
        V = lin.generate_linearizer("lip_x", {"lip_constant": 1.0, "v_min": 0.05, "amplitude": 2.0}, seed, n_log2)
        assert lin.domination_constant(m, V) == pytest.approx(_domination_reference(m, V), rel=1e-12, abs=0.0)


def test_linearizer_serialization_sidecar(tmp_path):
    V = lin.generate_linearizer("lip_x", {"lip_constant": 1.0, "v_min": 0.5}, 9, 4)
    prefix = tmp_path / "lin"
    lin.write_linearizer(str(prefix), V, {"lip_constant": 1.0})
    n_log2, arr = g.read_hxf1(str(prefix) + ".hxf1")
    assert n_log2 == 4
    assert np.array_equal(arr.real, V.values)
    meta = json.loads((tmp_path / "lin.json").read_text())
    assert meta["kind"] == "lip_x"
    assert meta["seed"] == 9
    assert meta["measured_constants"]["adjacent_x"] <= 1.0
