"""Operator-norm estimation: L2 power iteration, Lp ascent, the bump-width
sweep, and a dense SVD oracle for small grids.

Estimates are certified lower bounds: every reported value is re-derivable as
lp_norm(T w, p) / lp_norm(w, p) from its stored witness w.  Convergence flags
are heuristic and never upgrade a bound to an exact norm.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .grid import SampledField, apply_fixed_multiplier, lp_norm
from .linearized import LinearOperatorHandle, generate_linearizer, linearized_operator
from .multiplier import SymbolGrid, make_bump_profile, smoothness_constant


def identity_operator(n_log2: int) -> LinearOperatorHandle:
    return LinearOperatorHandle(n_log2, lambda f: f, lambda f: f)


def fixed_multiplier_operator(symbol: SymbolGrid) -> LinearOperatorHandle:
    def apply(f: SampledField) -> SampledField:
        return apply_fixed_multiplier(f, symbol)

    # real symbols are self-adjoint in the weighted inner product
    return LinearOperatorHandle(symbol.n_log2, apply, apply)


def dense_matrix(op: LinearOperatorHandle) -> np.ndarray:
    """Column-by-column materialization (basis fields); small grids only."""
    n = 1 << op.n_log2
    cols = np.empty((n * n, n * n), dtype=np.complex128)
    for idx in range(n * n):
        e = np.zeros((n, n), dtype=np.complex128)
        e[idx // n, idx % n] = 1.0
        cols[:, idx] = op.apply(SampledField(op.n_log2, e)).samples.ravel()
    return cols


def dense_operator_norm(op: LinearOperatorHandle) -> float:
    """Largest singular value of the materialized matrix (independent oracle)."""
    return float(np.linalg.svd(dense_matrix(op), compute_uv=False)[0])


@dataclass(frozen=True)
class NormEstimate:
    p: float
    value: float
    iterations: int
    witness: SampledField
    converged: bool


def _ratio(op: LinearOperatorHandle, w: SampledField, p: float) -> float:
    denom = lp_norm(w, p)
    if denom == 0.0:
        return 0.0
    return lp_norm(op.apply(w), p) / denom


def l2_norm_power_iteration(op: LinearOperatorHandle, max_iter: int = 200, seed: int = 0) -> NormEstimate:
    """Power iteration on T* T from a random start, stopped once successive
    estimates agree to 1e-12 relative; the reported value is the ratio at the
    final witness, hence a lower bound on the operator norm."""
    rng = np.random.default_rng(seed)
    n = 1 << op.n_log2
    v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w = SampledField(op.n_log2, v)
    prev = 0.0
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        tw = op.apply(w)
        est = lp_norm(tw, 2.0) / lp_norm(w, 2.0)
        nxt = op.adjoint(tw)
        scale = lp_norm(nxt, 2.0)
        if scale == 0.0:
            return NormEstimate(2.0, 0.0, iterations, w, True)
        w = SampledField(op.n_log2, nxt.samples / scale)
        if abs(est - prev) <= 1e-12 * max(est, 1e-300):
            converged = True
            break
        prev = est
    value = _ratio(op, w, 2.0)
    return NormEstimate(2.0, value, iterations, w, converged)


def _dual_direction(h: np.ndarray, p: float, norm: float) -> np.ndarray:
    """Gradient of the weighted lp norm at h: sgn(h) (|h|/norm)**(p-1)."""
    if norm == 0.0:
        return np.zeros_like(h)
    return np.sign(h) * (np.abs(h) / norm) ** (p - 1.0)


def lp_norm_ascent(
    op: LinearOperatorHandle,
    p: float,
    restarts: int = 25,
    iters: int = 60,
    seed: int = 0,
) -> NormEstimate:
    """Maximize lp_norm(T f, p) / lp_norm(f, p) by normalized gradient ascent
    with backtracking line search, over real witness fields, keeping the best
    value across restarts (independent streams per restart)."""
    if not (np.isfinite(p) and p > 1.0):
        raise ValueError(f"p must be finite and > 1, got {p}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    n = 1 << op.n_log2
    best_val = -math.inf
    best_w = None
    total_iters = 0
    any_converged = False
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        f = rng.standard_normal((n, n))
        f /= np.sqrt(np.mean(f**2))
        val = _ratio(op, SampledField(op.n_log2, f), p)
        step = 1.0
        converged = False
        for _ in range(iters):
            total_iters += 1
            g = op.apply(SampledField(op.n_log2, f)).samples.real
            norm_g = float(np.mean(np.abs(g) ** p) ** (1 / p))
            norm_f = float(np.mean(np.abs(f) ** p) ** (1 / p))
            if norm_g == 0.0 or norm_f == 0.0:
                break
            top = op.adjoint(SampledField(op.n_log2, _dual_direction(g, p, norm_g))).samples.real
            grad = (top - (norm_g / norm_f) * _dual_direction(f, p, norm_f)) / norm_f
            gnorm = float(np.sqrt(np.mean(grad**2)))
            if gnorm < 1e-14:
                converged = True
                break
            improved = False
            while step > 1e-8:
                cand = f + step * grad / gnorm
                cand /= np.sqrt(np.mean(cand**2))
                cand_val = _ratio(op, SampledField(op.n_log2, cand), p)
                if cand_val > val + 1e-14:
                    f, val = cand, cand_val
                    improved = True
                    step *= 1.5
                    break
                step *= 0.5
            if not improved:
                converged = True
                break
        if val > best_val:
            best_val = val
            best_w = SampledField(op.n_log2, f)
        any_converged = any_converged or converged
    value = _ratio(op, best_w, p)
    return NormEstimate(p, value, total_iters, best_w, any_converged)


@dataclass(frozen=True)
class SweepRow:
    p: float
    beta: float
    epsilon: float
    n: int
    seed: int
    smoothness: float
    estimate: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    fitted_c: float

    def log_shape_ratio(self) -> float:
        """max over rows of estimate/(log2(1/eps)+1) divided by the min."""
        q = [r.estimate / (math.log2(1.0 / r.epsilon) + 1.0) for r in self.rows]
        return max(q) / min(q)


def epsilon_sweep(
    p: float,
    beta: float,
    v_spec: dict,
    eps_list,
    n_log2: int,
    seed: int,
) -> SweepResult:
    """Norm estimates across bump widths, with the least constant c such that
    estimate <= c * A * (log2(1/eps) + 1) across the sweep."""
    rows = []
    fitted = 0.0
    v_kind = v_spec.get("kind", "staircase_x")
    v_params = {k: v for k, v in v_spec.items() if k != "kind"}
    V = generate_linearizer(v_kind, v_params, seed, n_log2)
    for eps in eps_list:
        m = make_bump_profile(eps)
        a_const = smoothness_constant(m)
        op = linearized_operator(V, m, beta)
        if p == 2.0:
            est = l2_norm_power_iteration(op, seed=seed)
        else:
            est = lp_norm_ascent(op, p, seed=seed)
        rows.append(
            SweepRow(p, beta, float(eps), 1 << n_log2, seed, a_const, est.value, est.iterations, est.converged)
        )
        bound = a_const * (math.log2(1.0 / eps) + 1.0)
        fitted = max(fitted, est.value / bound)
    return SweepResult(tuple(rows), fitted)


SWEEP_CSV_COLUMNS = ["p", "beta", "epsilon", "N", "seed", "A", "estimate", "iterations", "converged"]


def write_sweep_csv(path, result: SweepResult) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_CSV_COLUMNS)
        for r in result.rows:
            writer.writerow(
                [repr(r.p), repr(r.beta), repr(r.epsilon), r.n, r.seed, repr(r.smoothness), repr(r.estimate), r.iterations, r.converged]
            )
