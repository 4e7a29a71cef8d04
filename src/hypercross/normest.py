"""Operator-norm estimation: the L2 norm by Golub-Kahan-Lanczos
bidiagonalization, the Lp ascent, the bump-width sweep, and a dense SVD oracle
for small grids.  The oracle's matrix is the image of the N^2 basis fields,
taken through the handle's ``apply_stack`` in chunks of max(1, 2**13 // N^2)
fields: one stacked kernel pass per chunk for the linearized operator.

Estimates are certified lower bounds: every reported value is re-derivable as
lp_norm(T w, p) / lp_norm(w, p) from its stored witness w.  The L2 estimator
keeps the name ``l2_norm_power_iteration`` of the power iteration it
replaced, since criterion 7, the CLI, the sweep and the benchmark call it by
that name.  Its ``converged`` flag is a Ritz-residual test; the ascent's is a
heuristic.  Neither upgrades a bound to an exact norm: a random start can
miss the top singular vector.

The L2 estimator holds at most min(max_iter, N^2) basis fields on each side:
with the default max_iter = 200, at most 25 MiB at N = 64 and 100 MiB at
N = 128.  Measured runs stop far earlier.  ``hypercross normest`` with p = 2,
lip_x V (v_min = 1/2), bump eps = 1 and seed 4 takes 17 steps, and its
tracemalloc peak is 7.2 MiB at N = 64 and 15.8 MiB at N = 128 (7.2 and
8.0 MiB with power iteration).  ``hypercross sweep`` on a staircase_x V (8 levels, eps 1, 1/2 and
1/4, seed 5) takes 17 to 49 steps per width at those sizes.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linearized
from .grid import SampledField, apply_fixed_multiplier, lp_norm
from .linearized import LinearOperatorHandle, generate_linearizer, linearized_operator
from .multiplier import SymbolGrid, make_bump_profile, smoothness_constant


def fixed_multiplier_operator(symbol: SymbolGrid) -> LinearOperatorHandle:
    apply = functools.partial(apply_fixed_multiplier, symbol=symbol)
    # real symbols are self-adjoint in the weighted inner product
    return LinearOperatorHandle(symbol.n_log2, apply, apply)


def dense_matrix(op: LinearOperatorHandle) -> np.ndarray:
    """The N^2 x N^2 matrix of op, column k the image of the k-th basis field
    (1 at flat index k, 0 elsewhere); small grids only.  The basis goes
    through op.apply_stack in chunks of max(1, S // N^2) fields, with S the
    kernel's stack bound (2**13) read at call time, so beyond the matrix no
    array holds more than one chunk of fields."""
    n = 1 << op.n_log2
    size = n * n
    step = max(1, linearized._STACK // size)
    cols = np.empty((size, size), dtype=np.complex128)
    for first in range(0, size, step):
        basis = np.eye(min(step, size - first), size, first, dtype=np.complex128)
        cols[:, first : first + step] = op.apply_stack(basis.reshape(-1, n, n)).reshape(-1, size).T
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


def _image_ratio(image: SampledField, w: SampledField, p: float) -> float:
    """lp_norm(image, p) / lp_norm(w, p) for image = T w.  Every witness
    passed here is nonzero: the L2 witness is a unit combination of
    orthonormal fields, and each ascent iterate has unit mean square."""
    return lp_norm(image, p) / lp_norm(w, p)


def _orthogonalize(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """x minus its projection on the orthonormal rows of basis, taken twice
    (classical Gram-Schmidt is exact to rounding after two passes)."""
    for _ in range(2):
        # conj(basis) @ x, formed without a conjugated copy of the basis
        x = x - basis.T @ (basis @ x.conj()).conj()
    return x


def _with_room(rows: np.ndarray, filled: int, limit: int) -> np.ndarray:
    """rows, or once its first filled rows take all of it, a buffer of
    min(2 * len(rows), limit) rows that starts with them."""
    if filled < len(rows):
        return rows
    grown = np.empty((min(2 * len(rows), limit), rows.shape[1]), dtype=rows.dtype)
    grown[:filled] = rows
    return grown


def _bidiagonal(alphas: list, betas: list) -> np.ndarray:
    """B_k: alphas on the diagonal, the first k - 1 betas above it."""
    return np.diag(alphas) + np.diag(betas[: len(alphas) - 1], 1)


def l2_norm_power_iteration(op: LinearOperatorHandle, max_iter: int = 200, seed: int = 0) -> NormEstimate:
    """Golub-Kahan-Lanczos bidiagonalization (Golub & Kahan, SIAM J. Numer.
    Anal. 1965) from a random complex start, with full reorthogonalization of
    both bases.  Step k costs one apply and one adjoint and extends

        T V_k = U_k B_k,   T* U_k = V_k B_k* + beta_k v_{k+1} e_k*,

    with B_k upper bidiagonal: alpha_1..alpha_k on the diagonal, beta_1..
    beta_{k-1} above it.  If (sigma, z, y) is the top singular triple of B_k,
    the Ritz vector V_k y is mapped by T onto sigma U_k z exactly, and T* U_k z
    misses sigma V_k y by beta_k |z_k|.  The run stops once that residual is at
    most 1e-12 sigma (``converged``), when alpha_k vanishes (an invariant
    subspace: also ``converged``), or after min(max_iter, N^2) steps.
    Kuczynski & Wozniakowski (SIAM J. Matrix Anal. Appl. 1992) bound how far
    below the norm a random start can leave the value.

    It keeps at most min(max_iter, N^2) basis fields per side, as the rows
    of a buffer that doubles when full, up to that bound.  The witness is
    the Ritz vector and the value is re-derived from it, hence a lower bound
    on the operator norm.  The name is kept from the power iteration this
    replaced: criterion 7, the CLI and the sweep call it by that name."""
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    rng = np.random.default_rng(seed)
    n = 1 << op.n_log2
    v = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))).ravel()
    v /= np.linalg.norm(v)
    steps = min(max_iter, n * n)
    right = np.empty((1, n * n), dtype=np.complex128)
    left = np.empty((1, n * n), dtype=np.complex128)
    alphas: list[float] = []
    betas: list[float] = []
    converged = False
    for k in range(steps):
        right = _with_room(right, k, steps)
        right[k] = v
        u = _orthogonalize(op.apply(SampledField(op.n_log2, v.reshape(n, n))).samples.ravel(), left[:k])
        alphas.append(float(np.linalg.norm(u)))
        if alphas[-1] <= 1e-12 * max(alphas):
            converged = True
            break
        left = _with_room(left, k, steps)
        left[k] = u / alphas[-1]
        w = _orthogonalize(op.adjoint(SampledField(op.n_log2, left[k].reshape(n, n))).samples.ravel(), right[: k + 1])
        betas.append(float(np.linalg.norm(w)))
        z, s, _ = np.linalg.svd(_bidiagonal(alphas, betas))
        if betas[-1] * abs(z[-1, 0]) <= 1e-12 * s[0]:
            converged = True
            break
        v = w / betas[-1]
    _, _, yh = np.linalg.svd(_bidiagonal(alphas, betas))
    witness = SampledField(op.n_log2, (yh[0] @ right[: len(alphas)]).reshape(n, n))
    return NormEstimate(2.0, _image_ratio(op.apply(witness), witness, 2.0), len(alphas), witness, converged)


def _dual_direction(h: np.ndarray, p: float, norm: float) -> np.ndarray:
    """Gradient of the weighted lp norm at h: sgn(h) (|h|/norm)**(p-1), for
    norm > 0."""
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
    value across restarts (independent streams per restart).

    Each iterate is applied once: an accepted candidate's image T f gives the
    next gradient, and the best value is returned as computed from it."""
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
        field = SampledField(op.n_log2, f)
        image = op.apply(field)
        val = _image_ratio(image, field, p)
        step = 1.0
        converged = False
        for _ in range(iters):
            total_iters += 1
            g = image.samples.real
            norm_g = float(np.mean(np.abs(g) ** p) ** (1 / p))
            norm_f = float(np.mean(np.abs(f) ** p) ** (1 / p))
            if norm_g == 0.0:
                break
            top = op.adjoint(SampledField(op.n_log2, _dual_direction(g, p, norm_g))).samples.real
            grad = (top - (norm_g / norm_f) * _dual_direction(f, p, norm_f)) / norm_f
            gnorm = float(np.sqrt(np.mean(grad**2)))
            if gnorm < 1e-14:
                converged = True
                break
            while step > 1e-8:
                cand = f + step * grad / gnorm
                cand /= np.sqrt(np.mean(cand**2))
                cand_field = SampledField(op.n_log2, cand)
                cand_image = op.apply(cand_field)
                cand_val = _image_ratio(cand_image, cand_field, p)
                if cand_val > val + 1e-14:
                    f, field, image, val = cand, cand_field, cand_image, cand_val
                    step *= 1.5
                    break
                step *= 0.5
            else:  # no step improved the value
                converged = True
                break
        if val > best_val:
            best_val = val
            best_w = field
        any_converged = any_converged or converged
    return NormEstimate(p, best_val, total_iters, best_w, any_converged)


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
    """Norm estimates of the operator of one generated V across bump widths,
    one row per eps with the smoothness constant A of the bump.  v_spec is
    the generator's kind and parameters; a spec without a kind raises
    ValueError."""
    if "kind" not in v_spec:
        raise ValueError("v_spec names no linearizer kind")
    v_params = {k: v for k, v in v_spec.items() if k != "kind"}
    V = generate_linearizer(v_spec["kind"], v_params, seed, n_log2)
    profiles = [make_bump_profile(eps) for eps in eps_list]  # every width is checked before the first estimate
    rows = []
    for m in profiles:
        a_const = smoothness_constant(m)
        op = linearized_operator(V, m, beta)
        if p == 2.0:
            est = l2_norm_power_iteration(op, seed=seed)
        else:
            est = lp_norm_ascent(op, p, seed=seed)
        rows.append(
            SweepRow(p, beta, float(m.epsilon), 1 << n_log2, seed, a_const, est.value, est.iterations, est.converged)
        )
    return SweepResult(tuple(rows))


SWEEP_CSV_COLUMNS = ["p", "beta", "epsilon", "N", "seed", "A", "estimate", "iterations", "converged"]


def write_sweep_csv(path, result: SweepResult) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_CSV_COLUMNS)
        for r in result.rows:
            writer.writerow(
                [repr(r.p), repr(r.beta), repr(r.epsilon), r.n, r.seed, repr(r.smoothness), repr(r.estimate), r.iterations, r.converged]
            )
