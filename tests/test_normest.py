import dataclasses

import numpy as np
import pytest

from hypercross import grid as g
from hypercross import linearized as lin
from hypercross import multiplier as mu
from hypercross import normest as ne


def _constant_multiplier(n_log2, value):
    """The fixed multiplier of the constant symbol value: the identity for 1,
    the zero operator for 0."""
    n = 1 << n_log2
    return ne.fixed_multiplier_operator(mu.SymbolGrid(n_log2, np.full((n, n), value)))


def test_identity_operator_norms():
    op = _constant_multiplier(4, 1.0)
    est = ne.l2_norm_power_iteration(op, seed=1)
    assert est.value == pytest.approx(1.0, abs=1e-10)
    assert est.converged
    assert est.iterations == 1
    for p in (1.5, 3.0):
        est_p = ne.lp_norm_ascent(op, p, restarts=3, seed=1)
        assert est_p.value == pytest.approx(1.0, abs=1e-10)


def test_fixed_multiplier_matches_max_symbol():
    m = mu.make_bump_profile(1.0)
    for lam in (0.5, 1.0, 2.0):
        sym = mu.hyperbolic_symbol(lam, 1.0, m, 3)
        op = ne.fixed_multiplier_operator(sym)
        est = ne.l2_norm_power_iteration(op, max_iter=300, seed=2)
        assert est.value == pytest.approx(np.abs(sym.values).max(), abs=1e-10)
        assert est.iterations <= 64  # the basis spans the whole 8 x 8 grid by then


def _criterion_7_operator(seed):
    V = lin.generate_linearizer("lip_x", {"lip_constant": 1.0, "v_min": 0.05, "amplitude": 1.0}, seed, 3)
    return ne.linearized_operator(V, mu.make_bump_profile(1.0), 1.0)


def _rederived(op, est):
    return g.lp_norm(op.apply(est.witness), est.p) / g.lp_norm(est.witness, est.p)


@pytest.mark.parametrize("seed", range(10))
def test_l2_estimate_matches_dense_svd_on_criterion_7_fields(seed):
    # catches a tridiagonal with the betas on the side eigh does not read,
    # which reads up to 0.22 low
    op = _criterion_7_operator(seed)
    est = ne.l2_norm_power_iteration(op, seed=seed)
    assert est.value == pytest.approx(ne.dense_operator_norm(op), abs=1e-10)
    assert est.converged
    assert est.value == pytest.approx(_rederived(op, est), abs=1e-12)


@pytest.mark.parametrize("seed", [0, 2, 5, 6, 8, 9])
def test_l2_estimate_matches_dense_svd_where_a_transition_h_is_live(seed):
    # these criterion-7 fields reach the bump's transition band, so the norm
    # is not the 1 of the bare Pi_beta projection: the gap to 1 is 7e-5 to 2e-2
    op = _criterion_7_operator(seed)
    exact = ne.dense_operator_norm(op)
    assert exact > 1.0 + 1e-5
    assert ne.l2_norm_power_iteration(op, seed=seed).value == pytest.approx(exact, abs=1e-12)


def _transition_count(op):
    """The transition h of a linearized handle: the h where m(V h) depends
    on V."""
    return np.count_nonzero(lin._h_bands(np.sort(op.keys, axis=None), op.symbol_of).values)


@pytest.mark.parametrize("beta", [1.0, -1.0])
@pytest.mark.parametrize("seed", [0, 1])
def test_l2_estimate_matches_dense_svd_at_n_32(seed, beta):
    # criterion 7's field at N = 32, where seed 1 too has transition h (none
    # at N = 8) and every dense norm is 1.065 to 1.114
    V = lin.generate_linearizer("lip_x", {"lip_constant": 1.0, "v_min": 0.05, "amplitude": 1.0}, seed, 5)
    op = ne.linearized_operator(V, mu.make_bump_profile(1.0), beta)
    assert _transition_count(op) > 0
    exact = ne.dense_operator_norm(op)
    assert exact > 1.0 + 1e-3
    est = ne.l2_norm_power_iteration(op, seed=seed)
    assert est.converged
    assert est.value == pytest.approx(exact, abs=1e-12)


def test_l2_sweep_with_a_transition_h_in_every_row_matches_dense_svd():
    # criterion 8's field at beta = -1 and N = 16: every width keeps 4 to 20
    # transition h, so no row is the bare Pi_beta projection's 1
    spec = {"kind": "staircase_x", "lip_constant": 1.0, "v_min": 0.125, "levels": 48}
    widths = [0.5, 0.25, 0.125, 0.0625]
    rows = ne.epsilon_sweep(2.0, -1.0, spec, widths, 4, 42).rows
    V = lin.generate_linearizer("staircase_x", {k: v for k, v in spec.items() if k != "kind"}, 42, 4)
    assert [r.epsilon for r in rows] == widths
    for row in rows:
        op = ne.linearized_operator(V, mu.make_bump_profile(row.epsilon), -1.0)
        assert _transition_count(op) >= 1, row.epsilon
        assert row.estimate > 1.0 + 1e-3, row.epsilon
        assert row.estimate == pytest.approx(ne.dense_operator_norm(op), abs=1e-12), row.epsilon


def test_l2_estimate_cut_short_is_not_converged():
    # seed 6 needs 9 steps
    op = _criterion_7_operator(6)
    est = ne.l2_norm_power_iteration(op, max_iter=2, seed=6)
    assert not est.converged
    assert est.iterations == 2
    assert est.value <= ne.dense_operator_norm(op) + 1e-8
    assert est.value == pytest.approx(_rederived(op, est), abs=1e-12)


# the criterion-7 fields with a live transition h: each needs more than two
# steps, so max_iter = 2 cuts its run short
_LIVE_SEEDS = [0, 2, 5, 6, 8, 9]


@pytest.mark.parametrize("max_iter", [2, 200])
@pytest.mark.parametrize("seed", _LIVE_SEEDS)
def test_l2_residual_passes_the_test_exactly_when_converged(seed, max_iter):
    est = ne.l2_norm_power_iteration(_criterion_7_operator(seed), max_iter=max_iter, seed=seed)
    assert type(est.residual) is float and est.residual >= 0.0
    assert (est.residual <= 1e-12) == est.converged
    assert est.converged == (max_iter == 200)


@pytest.mark.parametrize("seed", _LIVE_SEEDS)
def test_l2_residual_is_the_ritz_residual_of_the_witness(seed):
    # the witness w is the unit Ritz vector with Rayleigh quotient theta =
    # value**2, and T*T w - theta w = beta_k y_k v_{k+1}: its norm over
    # theta is the residual, here recomputed from the operator
    op = _criterion_7_operator(seed)
    est = ne.l2_norm_power_iteration(op, max_iter=2, seed=seed)
    w = est.witness.samples
    theta = est.value**2
    gap = op.adjoint(op.apply(est.witness)).samples - theta * w
    assert est.residual > 1e-6
    assert np.linalg.norm(gap) / (theta * np.linalg.norm(w)) == pytest.approx(est.residual, rel=1e-6)


def test_l2_estimate_of_zero_operator():
    est = ne.l2_norm_power_iteration(_constant_multiplier(3, 0.0), seed=1)
    assert est.value == 0.0
    assert est.converged
    assert est.residual == 0.0
    assert np.all(np.isfinite(est.witness.samples))


def test_lp_ascent_of_zero_operator():
    # the image has no lp norm to ascend on, so each restart stops at once
    est = ne.lp_norm_ascent(_constant_multiplier(3, 0.0), 3.0, restarts=2, seed=1)
    assert (est.value, est.iterations, est.residual) == (0.0, 2, None)
    assert np.all(np.isfinite(est.witness.samples))


def test_l2_estimate_rejects_zero_max_iter():
    with pytest.raises(ValueError, match="max_iter must be >= 1, got 0"):
        ne.l2_norm_power_iteration(_constant_multiplier(3, 1.0), max_iter=0)


def test_power_iteration_vs_ascent_cross_method():
    m = mu.make_bump_profile(0.5)
    sym = mu.hyperbolic_symbol(0.5, 1.0, m, 3)
    op = ne.fixed_multiplier_operator(sym)
    pi = ne.l2_norm_power_iteration(op, seed=3)
    asc = ne.lp_norm_ascent(op, 2.0, restarts=10, iters=80, seed=3)
    assert abs(pi.value - asc.value) < 1e-6


def test_linearized_constant_v_matches_fixed_multiplier():
    m = mu.make_bump_profile(1.0)
    V = lin.generate_linearizer("constant", {"value": 0.5}, 0, 3)
    op = ne.linearized_operator(V, m, 1.0)
    est = ne.l2_norm_power_iteration(op, max_iter=300, seed=4)
    sym = mu.hyperbolic_symbol(0.5, 1.0, m, 3)
    masked = sym.values * mu.pi_beta_mask(1.0, 3).values
    assert est.value == pytest.approx(np.abs(masked).max(), abs=1e-8)


def test_witness_consistency():
    m = mu.make_bump_profile(0.5)
    V = lin.generate_linearizer("lip_x", {"lip_constant": 1.0, "v_min": 0.05, "amplitude": 1.0}, 5, 3)
    op = ne.linearized_operator(V, m, 1.0)
    for est in (
        ne.l2_norm_power_iteration(op, seed=5),
        ne.lp_norm_ascent(op, 2.5, restarts=4, iters=30, seed=5),
    ):
        rederived = g.lp_norm(op.apply(est.witness), est.p) / g.lp_norm(est.witness, est.p)
        assert est.value == pytest.approx(rederived, abs=1e-10)


@pytest.mark.parametrize("beta", [-1.0, 0.0, 1.0])
def test_adjoint_pairing(beta):
    m = mu.make_bump_profile(0.5)
    V = lin.generate_linearizer("lip_x", {"lip_constant": 1.0, "v_min": 0.05, "amplitude": 1.0}, 6, 3)
    vals = V.values.copy()
    vals[2:5, :] = 0.0  # routes these points through the reserved m(0) bucket
    V_zero = lin.LinearizerField(3, vals, lin.Regularity("none"))
    rng = np.random.default_rng(0)
    a = g.SampledField(3, rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    b = g.SampledField(3, rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    for field in (V, V_zero):
        op = ne.linearized_operator(field, m, beta)
        lhs = np.mean(op.apply(a).samples * np.conj(b.samples))
        rhs = np.mean(a.samples * np.conj(op.adjoint(b).samples))
        assert abs(lhs - rhs) < 1e-13
    brute = lin.apply_linearized_bruteforce(a, V_zero, m, beta).samples
    fast = lin.apply_linearized_bucketed(a, V_zero, m, beta).samples
    assert np.sqrt(np.mean(np.abs(brute - fast) ** 2) / np.mean(np.abs(brute) ** 2)) <= 1e-10


def test_lower_bound_soundness_against_dense_oracle():
    for seed in range(3):
        op = _criterion_7_operator(seed)
        exact = ne.dense_operator_norm(op)
        pi = ne.l2_norm_power_iteration(op, seed=seed)
        asc = ne.lp_norm_ascent(op, 2.0, restarts=4, iters=30, seed=seed)
        assert pi.value <= exact + 1e-8
        assert asc.value <= exact + 1e-8


def _columns(op):
    """The images under op.apply of the N^2 basis fields, as columns."""
    n = 1 << op.n_log2
    return np.array([op.apply(g.SampledField(op.n_log2, e.reshape(n, n))).samples.ravel() for e in np.eye(n * n)]).T


# (keys at N = 8, whether the plan takes the key side): a lip_x field takes
# the frequency side, a three-valued field the key side, and its zero band
# is the group of key 0
_DENSE_KEYS = {
    "lip_x": (lambda: lin.generate_linearizer("lip_x", {"lip_constant": 1.0, "v_min": 0.05, "amplitude": 1.0}, 2, 3).values, False),
    "three_valued": (lambda: np.repeat([0.1, 0.4, 0.9], [2, 4, 2])[:, None] * np.ones((1, 8)), True),
    "zero_band": (lambda: np.repeat([0.0, 0.4, 0.9], [2, 4, 2])[:, None] * np.ones((1, 8)), True),
}


@pytest.mark.parametrize("beta", [1.0, 0.0, -1.0, 0.5])
@pytest.mark.parametrize("case", sorted(_DENSE_KEYS))
def test_dense_matrix_is_the_columns_of_apply(case, beta):
    make_keys, by_key = _DENSE_KEYS[case]
    op = ne.linearized_operator(lin.LinearizerField(3, make_keys()), mu.make_bump_profile(0.5), beta)
    assert (lin._plan(op.keys, op.symbol_of).weight is None) == by_key
    columns = _columns(op)
    assert np.linalg.norm(ne.dense_matrix(op) - columns) <= 1e-13 * np.linalg.norm(columns)


@pytest.mark.parametrize("beta", [1.0, 0.0, -1.0, 0.5])
@pytest.mark.parametrize("case", sorted(_DENSE_KEYS))
def test_the_adjoint_is_the_conjugate_transpose_of_the_dense_matrix(case, beta):
    # the adjoint runs _scatter, which the oracle shares no code with
    op = ne.linearized_operator(lin.LinearizerField(3, _DENSE_KEYS[case][0]()), mu.make_bump_profile(0.5), beta)
    columns = _columns(dataclasses.replace(op, apply=op.adjoint))
    assert np.linalg.norm(ne.dense_matrix(op).conj().T - columns) <= 1e-13 * np.linalg.norm(columns)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_dense_matrix_of_a_fixed_multiplier_is_the_columns_of_apply(lam):
    op = ne.fixed_multiplier_operator(mu.hyperbolic_symbol(lam, 1.0, mu.make_bump_profile(1.0), 3))
    columns = _columns(op)
    assert np.linalg.norm(ne.dense_matrix(op) - columns) <= 1e-13 * np.linalg.norm(columns)


def test_dense_matrix_runs_no_kernel_and_no_apply(monkeypatch):
    # the oracle is built from the handle's keys and symbol alone
    def refuse(*args):
        raise AssertionError("the dense oracle ran the fast path")

    ops = [_criterion_7_operator(0), ne.fixed_multiplier_operator(mu.hyperbolic_symbol(1.0, 1.0, mu.make_bump_profile(1.0), 3))]
    want = [ne.dense_matrix(op) for op in ops]
    monkeypatch.setattr(lin, "_gather", refuse)
    monkeypatch.setattr(lin, "_scatter", refuse)
    for op, dense in zip(ops, want):
        op = dataclasses.replace(op, apply=refuse, adjoint=refuse)
        assert ne.dense_matrix(op).tobytes() == dense.tobytes()


@pytest.mark.parametrize("fault", ["apply", "kernel"])
def test_the_dense_oracle_sees_a_fault_in_the_fast_path(monkeypatch, fault):
    # an apply scaled by 1.001, by the handle or in the gather kernel, lifts
    # the L2 estimate above the oracle's norm
    op = _criterion_7_operator(0)
    exact = ne.dense_operator_norm(op)
    if fault == "apply":
        inner = op.apply
        op = dataclasses.replace(op, apply=lambda f: g.SampledField(3, 1.001 * inner(f).samples))
    else:
        gather = lin._gather
        monkeypatch.setattr(lin, "_gather", lambda spec, plan: 1.001 * gather(spec, plan))
        assert ne.dense_operator_norm(op) == exact
    assert ne.l2_norm_power_iteration(op, seed=0).value > exact + 1e-8


def test_ascent_best_never_decreases_with_restarts():
    m = mu.make_bump_profile(0.5)
    V = lin.generate_linearizer("lip_x", {"lip_constant": 1.0, "v_min": 0.05, "amplitude": 1.0}, 9, 3)
    op = ne.linearized_operator(V, m, 1.0)
    few = ne.lp_norm_ascent(op, 3.0, restarts=2, iters=25, seed=7)
    more = ne.lp_norm_ascent(op, 3.0, restarts=6, iters=25, seed=7)
    assert more.value >= few.value - 1e-14


def test_lp_ascent_applies_each_field_once():
    m = mu.make_bump_profile(0.5)
    V = lin.generate_linearizer("lip_x", {"lip_constant": 1.0, "v_min": 0.05, "amplitude": 1.0}, 9, 3)
    inner = ne.linearized_operator(V, m, 1.0)
    applied = []
    adjoints = []

    def apply(f):
        applied.append(f.samples.tobytes())
        return inner.apply(f)

    def adjoint(f):
        adjoints.append(f)
        return inner.adjoint(f)

    op = dataclasses.replace(inner, apply=apply, adjoint=adjoint)
    for p in (1.5, 3.0):
        applied.clear()
        adjoints.clear()
        est = ne.lp_norm_ascent(op, p, restarts=2, iters=10, seed=4)
        assert est.iterations > 2
        assert len(applied) == len(set(applied)), p
        # per step one adjoint and one apply of the direction, and per
        # restart one apply of its start and one of its last iterate; an
        # apply per trial step size takes 40 applies here
        assert len(applied) <= 2 * (10 + 2) and len(adjoints) <= 2 * 10, p
        rederived = g.lp_norm(inner.apply(est.witness), p) / g.lp_norm(est.witness, p)
        assert rederived == est.value
        applied.clear()
        adjoints.clear()
        ne.lp_norm_ascent(op, p, restarts=3, iters=0, seed=4)
        assert (len(applied), len(adjoints)) == (3, 0), p


def _apply_per_trial_ascent(op, p, restarts, iters, seed):
    """The Lp ascent as it was when it applied T to every trial step size,
    kept as the reference for the line search that combines two images.  Its
    gradient is that of lp(|T f|), with the complex sign of T f."""
    n = 1 << op.n_log2
    best_val, best_w, total_iters, any_converged = -np.inf, None, 0, False
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        f = rng.standard_normal((n, n))
        f /= np.sqrt(np.mean(f**2))
        field = g.SampledField(op.n_log2, f)
        image = op.apply(field)
        val = g.lp_norm(image, p) / g.lp_norm(field, p)
        step = 1.0
        converged = False
        for _ in range(iters):
            total_iters += 1
            gr = image.samples
            norm_g = float(np.mean(np.abs(gr) ** p) ** (1 / p))
            norm_f = float(np.mean(np.abs(f) ** p) ** (1 / p))
            if norm_g == 0.0:
                break
            top = op.adjoint(g.SampledField(op.n_log2, ne._dual_direction(gr, p, norm_g))).samples.real
            grad = (top - (norm_g / norm_f) * ne._dual_direction(f, p, norm_f)) / norm_f
            gnorm = float(np.sqrt(np.mean(grad**2)))
            if gnorm < 1e-14:
                converged = True
                break
            while step > 1e-8:
                cand = f + step * grad / gnorm
                cand /= np.sqrt(np.mean(cand**2))
                cand_field = g.SampledField(op.n_log2, cand)
                cand_image = op.apply(cand_field)
                cand_val = g.lp_norm(cand_image, p) / g.lp_norm(cand_field, p)
                if cand_val > val + 1e-14:
                    f, field, image, val = cand, cand_field, cand_image, cand_val
                    step *= 1.5
                    break
                step *= 0.5
            else:
                converged = True
                break
        if val > best_val:
            best_val, best_w = val, field
        any_converged = any_converged or converged
    return ne.NormEstimate(p, best_val, total_iters, best_w, any_converged)


def _odd_real_multiplier():
    """A fixed multiplier whose real symbol is not even, so that it maps a
    real field to a complex one."""
    return ne.fixed_multiplier_operator(mu.SymbolGrid(3, np.random.default_rng(0).standard_normal((8, 8))))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("case", [*range(10), "odd"])
def test_lp_ascent_follows_the_apply_per_trial_reference(case, p):
    if case == "odd":
        op, seed = _odd_real_multiplier(), 10
        real = g.SampledField(3, np.random.default_rng(1).standard_normal((8, 8)))
        assert np.abs(op.apply(real).samples.imag).max() > 0.1
    else:
        op, seed = _criterion_7_operator(case), case
    ref = _apply_per_trial_ascent(op, p, restarts=3, iters=20, seed=seed)
    est = ne.lp_norm_ascent(op, p, restarts=3, iters=20, seed=seed)
    assert est.value == pytest.approx(ref.value, rel=1e-12)
    assert (est.iterations, est.converged) == (ref.iterations, ref.converged)
    assert est.value == _rederived(op, est)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_lp_ascent_climbs_a_purely_imaginary_image(p):
    # sign(xi), Nyquist line 0, maps a real field to an imaginary one: the
    # real part of the image is 0, and a gradient taken from it stops every
    # restart at its start (0.919 at p = 1.5, 0.896 at p = 3), below the 1.0
    # of cos(2 pi x)
    xi = g.frequencies(3).astype(float)
    symbol = np.sign(xi)[:, None] * np.ones((1, 8))
    symbol[4] = 0.0
    op = ne.fixed_multiplier_operator(mu.SymbolGrid(3, symbol))
    est = ne.lp_norm_ascent(op, p, restarts=4, iters=30, seed=0)
    assert est.value >= 1.0
    assert est.value == _rederived(op, est)


def test_dual_direction_takes_the_sign_of_real_and_complex_arrays():
    rng = np.random.default_rng(3)
    real = rng.standard_normal(64)
    real[:3] = [0.0, -0.0, 5e-324]
    want = np.sign(real) * (np.abs(real) / 0.7) ** 0.5
    assert ne._dual_direction(real, 1.5, 0.7).tobytes() == want.tobytes()
    cplx = real + 1j * rng.standard_normal(64)
    cplx[:2] = 0.0
    out = ne._dual_direction(cplx, 3.0, 0.7)
    assert np.array_equal(out[:2], [0.0, 0.0])
    assert np.allclose(out[2:], cplx[2:] / np.abs(cplx[2:]) * (np.abs(cplx[2:]) / 0.7) ** 2.0, rtol=1e-15, atol=0)


def test_lp_ascent_rejects_bad_p():
    op = _constant_multiplier(3, 1.0)
    for p in (1.0, 0.3, float("inf")):
        with pytest.raises(ValueError):
            ne.lp_norm_ascent(op, p)
    with pytest.raises(ValueError, match="restarts"):
        ne.lp_norm_ascent(op, 2.0, restarts=0)
    with pytest.raises(ValueError, match="iters must be >= 0, got -4"):
        ne.lp_norm_ascent(op, 2.0, iters=-4)


def test_sweep_reproducible_and_shape(tmp_path):
    spec = {"kind": "staircase_x", "lip_constant": 1.0, "v_min": 0.125, "levels": 16}
    eps = [1.0, 0.5, 0.25]
    a = ne.epsilon_sweep(2.0, 1.0, spec, eps, 4, 42)
    b = ne.epsilon_sweep(2.0, 1.0, spec, eps, 4, 42)
    assert a.rows == b.rows
    # wide-support profile with bounded V: identity attained on low modes
    assert a.rows[0].epsilon == 1.0
    assert a.rows[0].estimate >= 1.0 - 1e-9

    path = tmp_path / "sweep.csv"
    ne.write_sweep_csv(path, a)
    header = path.read_text().splitlines()[0]
    assert header == "p,beta,epsilon,N,seed,A,estimate,iterations,converged"


def test_sweep_away_from_p_2_runs_the_lp_ascent(monkeypatch):
    estimates = []
    ascent = ne.lp_norm_ascent

    def recorded(op, p, **kwargs):
        estimates.append(ascent(op, p, **kwargs))
        return estimates[-1]

    monkeypatch.setattr(ne, "lp_norm_ascent", recorded)
    spec = {"kind": "staircase_x", "lip_constant": 1.0, "v_min": 0.125, "levels": 16}
    (row,) = ne.epsilon_sweep(3.0, 1.0, spec, [1.0], 3, 42).rows
    (est,) = estimates
    assert (row.p, row.estimate, row.iterations, row.converged) == (3.0, est.value, est.iterations, est.converged)


def test_sweep_needs_a_linearizer_kind():
    with pytest.raises(ValueError, match="names no linearizer kind"):
        ne.epsilon_sweep(2.0, 1.0, {"lip_constant": 1.0, "v_min": 0.125}, [1.0], 3, 0)


def test_sweep_needs_a_bump_width():
    # an empty sweep returned no rows, and its log_shape_ratio failed in max()
    with pytest.raises(ValueError, match="^eps_list holds no bump width$"):
        ne.epsilon_sweep(2.0, 1.0, {"kind": "constant"}, [], 3, 0)


@pytest.mark.parametrize("n_log2, rows", [(3, 10), (3, 60), (4, 37), (4, 100)])
def test_orthogonalize_leaves_no_component_on_a_nearly_spanned_vector(n_log2, rows):
    # x lies within 1e-10 of the span of the rows, so one projection pass
    # leaves rounding of about 1e-16 |x| on the basis, 1e-6 of what remains;
    # the second pass takes it to rounding of the remainder
    size = 1 << 2 * n_log2
    rng = np.random.default_rng(rows)
    q, _ = np.linalg.qr(rng.standard_normal((size, rows)) + 1j * rng.standard_normal((size, rows)))
    basis = q.T
    x = (rng.standard_normal(rows) + 1j * rng.standard_normal(rows)) @ basis
    x = x + 1e-10 * (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2 * size)
    out = ne._orthogonalize(x, basis)
    assert np.abs(basis.conj() @ out).max() <= 1e-12 * np.linalg.norm(out)
