import numpy as np
import pytest

from hypercross import grid as g
from hypercross import linearized as lin
from hypercross import multiplier as mu
from hypercross import normest as ne


def test_identity_operator_norms():
    op = lin.LinearOperatorHandle(4, lambda f: f, lambda f: f)
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
        assert est.iterations <= 64  # the bases span the whole 8 x 8 grid by then


def _criterion_7_operator(seed):
    V = lin.generate_linearizer("lip_x", {"lip_constant": 1.0, "v_min": 0.05, "amplitude": 1.0}, seed, 3)
    return ne.linearized_operator(V, mu.make_bump_profile(1.0), 1.0)


def _rederived(op, est):
    return g.lp_norm(op.apply(est.witness), est.p) / g.lp_norm(est.witness, est.p)


@pytest.mark.parametrize("seed", range(10))
def test_l2_estimate_matches_dense_svd_on_criterion_7_fields(seed):
    # catches a bidiagonal with the betas on the wrong side, which reads up to 0.19 low
    op = _criterion_7_operator(seed)
    est = ne.l2_norm_power_iteration(op, seed=seed)
    assert est.value == pytest.approx(ne.dense_operator_norm(op), abs=1e-10)
    assert est.converged
    assert est.value == pytest.approx(_rederived(op, est), abs=1e-12)


def test_l2_estimate_cut_short_is_not_converged():
    # seed 6 needs 9 steps
    op = _criterion_7_operator(6)
    est = ne.l2_norm_power_iteration(op, max_iter=2, seed=6)
    assert not est.converged
    assert est.iterations == 2
    assert est.value <= ne.dense_operator_norm(op) + 1e-8
    assert est.value == pytest.approx(_rederived(op, est), abs=1e-12)


def _zero(f):
    return g.SampledField(f.n_log2, 0 * f.samples)


def test_l2_estimate_of_zero_operator():
    est = ne.l2_norm_power_iteration(lin.LinearOperatorHandle(3, _zero, _zero), seed=1)
    assert est.value == 0.0
    assert est.converged
    assert np.all(np.isfinite(est.witness.samples))


def test_lp_ascent_of_zero_operator():
    # the image has no lp norm to ascend on, so each restart stops at once
    est = ne.lp_norm_ascent(lin.LinearOperatorHandle(3, _zero, _zero), 3.0, restarts=2, seed=1)
    assert (est.value, est.iterations) == (0.0, 2)
    assert np.all(np.isfinite(est.witness.samples))


def test_l2_estimate_rejects_zero_max_iter():
    with pytest.raises(ValueError, match="max_iter must be >= 1, got 0"):
        ne.l2_norm_power_iteration(lin.LinearOperatorHandle(3, lambda f: f, lambda f: f), max_iter=0)


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

    def apply(f):
        applied.append(f.samples.tobytes())
        return inner.apply(f)

    op = lin.LinearOperatorHandle(3, apply, inner.adjoint)
    for p in (1.5, 3.0):
        applied.clear()
        est = ne.lp_norm_ascent(op, p, restarts=2, iters=10, seed=4)
        assert est.iterations > 2
        assert len(applied) == len(set(applied)), p
        rederived = g.lp_norm(inner.apply(est.witness), p) / g.lp_norm(est.witness, p)
        assert rederived == est.value


def test_lp_ascent_rejects_bad_p():
    op = lin.LinearOperatorHandle(3, lambda f: f, lambda f: f)
    for p in (1.0, 0.3, float("inf")):
        with pytest.raises(ValueError):
            ne.lp_norm_ascent(op, p)
    with pytest.raises(ValueError, match="restarts"):
        ne.lp_norm_ascent(op, 2.0, restarts=0)


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
