"""Operator-norm estimation: the L2 norm by Lanczos on T*T, the Lp ascent,
the bump-width sweep, and a dense SVD oracle for small grids.

Estimates are certified lower bounds: every reported value is re-derivable as
lp_norm(T w, p) / lp_norm(w, p) from its stored witness w.  A step of the
L2 estimator costs one apply and one adjoint; so does a step of the Lp
ascent, whose line search scores every trial step size from two images it
holds, and a restart of the ascent whose iterate moved costs one more apply
at the end, which gives its value.  The L2 estimator's ``converged`` flag is
a Ritz-residual test; the ascent's is a heuristic.  Neither upgrades a bound
to an exact norm: a random start can miss the top singular vector.

The dense oracle is built from what a handle stands for, its key array and
symbol, and not from its apply: it shares no code with the kernel that the
estimators run, so a fault in that kernel shows as a gap between them.

The L2 estimator allocates its one basis once, min(max_iter, N^2) complex
fields, and writes only the rows its steps fill: with the default
max_iter = 200, at most 12.5 MiB at N = 64 and 50 MiB at N = 128 if every
row is filled.  Measured runs stop far earlier.  ``hypercross normest``
with p = 2, lip_x V (v_min = 1/2), bump eps = 1 and seed 4 takes 18 steps;
on a 2-core x86-64 Linux host its peak resident set, the interpreter
included, is 44 MiB at N = 64 and 49 to 50 MiB at N = 128.  (tracemalloc
counts the unwritten rows too, and reports 23 and 63 MiB.)  At beta = -1
and N = 128 the same run fills all 200 rows and peaks at 95 MiB.
``hypercross sweep`` on a staircase_x V (8 levels, eps 1, 1/2 and 1/4,
seed 5) takes 15 to 49 steps per width at those sizes, and peaks at 107 MiB
at N = 256.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .grid import SampledField, _ifft2, _lp_mean, _mean, lp_norm
from .linearized import LinearizerField, LinearOperatorHandle, generate_linearizer, linearized_operator
from .multiplier import SymbolGrid, make_bump_profile, smoothness_constant


def fixed_multiplier_operator(symbol: SymbolGrid) -> LinearOperatorHandle:
    """The x-independent multiplier: each image's spectrum is the input's
    times symbol.values (real, in the FFT frequency order).  It is the
    handle of the zero field with the constant symbol, one key group."""
    zero = LinearizerField(symbol.n_log2, np.zeros(symbol.values.shape))
    return LinearOperatorHandle.of(zero, lambda key: np.broadcast_to(symbol.values, key.shape[:-2] + symbol.values.shape))


def dense_matrix(op: LinearOperatorHandle) -> np.ndarray:
    """The N^2 x N^2 matrix of op from its key array and symbol, not from
    its apply: row x is the kernel ifft2(symbol_of(v)) of the row's key
    v = keys[x] at x - y, the sum over k of symbol_of(v)[k] e((x - y).k)
    / N^2 that apply takes at x.  It calls symbol_of once on the distinct
    keys and ifft2 once on their (g, N, N) symbols, and runs no apply,
    adjoint or kernel of :mod:`linearized`, so it checks them.  Its memory
    is the matrix's own N^4 entries: small grids only."""
    n = 1 << op.n_log2
    values, rows = np.unique(op.keys, return_inverse=True)
    kernels = _ifft2(op.symbol_of(values[:, None, None]))
    shift = (np.arange(n)[:, None] - np.arange(n)) % n  # (x - y) mod N on one axis
    return kernels[rows.reshape(n, n, 1, 1), shift[:, None, :, None], shift[None, :, None, :]].reshape(n * n, n * n)


def dense_operator_norm(op: LinearOperatorHandle) -> float:
    """Largest singular value of the materialized matrix (independent oracle)."""
    return float(np.linalg.svd(dense_matrix(op), compute_uv=False)[0])


@dataclass(frozen=True)
class NormEstimate:
    """An estimate of the p -> p norm: its value, the steps taken, the
    witness it is re-derived from, whether the stopping test passed, and
    for the L2 estimator the last step's relative Ritz residual (None for
    the ascent)."""

    p: float
    value: float
    iterations: int
    witness: SampledField
    converged: bool
    residual: float | None = None


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


def l2_norm_power_iteration(op: LinearOperatorHandle, max_iter: int = 200, seed: int = 0) -> NormEstimate:
    """Lanczos on T*T (Lanczos, J. Res. Nat. Bur. Standards 1950) from a
    random complex start, with full reorthogonalization of its one basis.
    Step k costs one apply and one adjoint: w = T*(T v_k), alpha_k =
    Re <v_k, w>, and w orthogonalized against v_1..v_k has norm beta_k and
    direction v_{k+1}.  So

        T*T V_k = V_k A_k + beta_k v_{k+1} e_k*,

    with A_k real symmetric tridiagonal: alpha_1..alpha_k on the diagonal,
    beta_1..beta_{k-1} beside it.  In exact arithmetic this is
    Golub-Kahan-Lanczos (GKL) bidiagonalization (Golub & Kahan, SIAM J.
    Numer. Anal. 1965) from the same start, with A_k = B_k* B_k, but it
    keeps one basis in place of two and orthogonalizes once per step.  It
    is also the setting of the Kuczynski-Wozniakowski bound (SIAM J. Matrix
    Anal. Appl. 1992) on how far below the norm a random start can leave
    the value.

    If (theta, y) is the top eigenpair of A_k, the Ritz vector V_k y misses
    being an eigenvector of T*T by beta_k |y_k|.  The run stops once that
    residual relative to theta, beta_k |y_k| / theta (``residual``), is at
    most 1e-12 (``converged``): GKL's Ritz-residual test times sigma =
    sqrt(theta), so the same rule.  A zero beta_k, an invariant subspace,
    passes it with residual 0.  Otherwise the run stops after
    min(max_iter, N^2) steps, and the residual says how far it stopped from
    the test.  It can take one step more than GKL: near a cluster of
    singular values, eigh gives y_k to absolute accuracy where the bidiagonal
    SVD gives it to relative accuracy, so the residual can read high once.

    The basis fields are the rows of one array of min(max_iter, N^2) rows,
    and A_k the leading k x k block of one min(max_iter, N^2) square array,
    both allocated once; a row no step reaches is never written.  The
    witness is the last step's Ritz vector and the value is re-derived from
    it, hence a lower bound on the operator norm.  The name is kept from the
    power iteration this replaced, since criterion 7, the CLI, the sweep and
    the benchmark call it by that name.

    The value is that of the N x N grid's operator, and small grids are
    pre-asymptotic for the generated fields: a field of one seed converges
    as N grows, and so does its norm.  On criterion 7's lip_x fields
    (v_min 0.05, amplitude 1, bump eps 1, seeds 0 and 1, beta 1 and -1)
    N = 8 misses the N = 128 value by 5 to 10% and N = 16 by up to 5%, so
    both are pre-asymptotic; N = 32 misses it by at most 1.1%, and N = 64 is
    within 2e-4 of it."""
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    rng = np.random.default_rng(seed)
    n = 1 << op.n_log2
    v = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))).ravel()
    v /= np.linalg.norm(v)
    steps = min(max_iter, n * n)
    basis = np.empty((steps, n * n), dtype=np.complex128)
    # A_k is the leading k x k block; eigh reads its lower triangle, so the
    # upper one stays 0
    tridiagonal = np.zeros((steps, steps))
    for k in range(steps):
        basis[k] = v
        w = op.adjoint(op.apply(SampledField(op.n_log2, v.reshape(n, n)))).samples.ravel()
        tridiagonal[k, k] = np.vdot(v, w).real
        w = _orthogonalize(w, basis[: k + 1])
        beta = float(np.linalg.norm(w))
        theta, y = np.linalg.eigh(tridiagonal[: k + 1, : k + 1])
        residual = beta * abs(y[-1, -1]) / theta[-1] if beta else 0.0
        if residual <= 1e-12 or k + 1 == steps:
            break
        tridiagonal[k + 1, k] = beta
        v = w / beta
    witness = SampledField(op.n_log2, (y[:, -1] @ basis[: k + 1]).reshape(n, n))
    value = _image_ratio(op.apply(witness), witness, 2.0)
    return NormEstimate(2.0, value, k + 1, witness, bool(residual <= 1e-12), float(residual))


def _dual_direction(h: np.ndarray, p: float, norm: float) -> np.ndarray:
    """Gradient of the weighted lp norm at h: sgn(h) (|h|/norm)**(p-1), for
    norm > 0, with the sign h/|h| (0 where h = 0) of a real or a complex h.
    On a real h it is np.sign(h) bit for bit; numpy < 2 gives np.sign of a
    complex number the sign of its real part, so it is not called."""
    a = np.abs(h)
    return np.divide(h, a, out=np.zeros_like(h), where=a > 0) * (a / norm) ** (p - 1.0)


def lp_norm_ascent(
    op: LinearOperatorHandle,
    p: float,
    restarts: int = 25,
    iters: int = 60,
    seed: int = 0,
) -> NormEstimate:
    """Maximize lp_norm(T f, p) / lp_norm(f, p) by normalized gradient ascent
    with backtracking line search, over real witness fields, keeping the best
    value across restarts (independent streams per restart): the p-norm power
    method of Higham (Numer. Math. 1992) with a backtracking step.

    Each step applies the adjoint once, for the gradient, and T once, to the
    unit direction d.  T is linear, so no trial step size s is applied: the
    image of (f + s d)/c is (T f + s T d)/c.  The images stay complex: the
    value takes |T f|, and the gradient of lp(|T f|) over real f is
    Re T*(sgn(T f) |T f|**(p-1)) with the complex sign, so where T maps real
    fields to complex ones the ascent climbs the value it reports.  A
    restart whose iterate moved applies its last iterate once more and takes
    its value from that image; one that never moved keeps its first apply.
    Every value is thus lp_norm(T w, p) / lp_norm(w, p) of its witness w
    bit for bit, and a restart costs at most iters + 2 applies and iters
    adjoints."""
    if not (np.isfinite(p) and p > 1.0):
        raise ValueError(f"p must be finite and > 1, got {p}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")
    n = 1 << op.n_log2
    best_val = -math.inf
    best_w = None
    total_iters = 0
    any_converged = False
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        f = rng.standard_normal((n, n))
        f /= np.sqrt(_mean(f**2))
        field = SampledField(op.n_log2, f)
        image = op.apply(field).samples
        norm_f = _lp_mean(f, p)
        val = _lp_mean(image, p) / norm_f
        step = 1.0
        converged = moved = False
        for _ in range(iters):
            total_iters += 1
            if val == 0.0:
                break
            # the image's lp norm is val * norm_f
            top = op.adjoint(SampledField(op.n_log2, _dual_direction(image, p, val * norm_f))).samples.real
            grad = (top - val * _dual_direction(f, p, norm_f)) / norm_f
            gnorm = float(np.sqrt(_mean(grad**2)))
            if gnorm < 1e-14:
                converged = True
                break
            d = grad / gnorm
            image_d = op.apply(SampledField(op.n_log2, d)).samples
            while step > 1e-8:
                cand = f + step * d
                scale = np.sqrt(_mean(cand**2))
                cand /= scale
                cand_image = (image + step * image_d) / scale
                cand_norm = _lp_mean(cand, p)
                cand_val = _lp_mean(cand_image, p) / cand_norm
                if cand_val > val + 1e-14:
                    f, image, norm_f, val = cand, cand_image, cand_norm, cand_val
                    moved = True
                    step *= 1.5
                    break
                step *= 0.5
            else:  # no step improved the value
                converged = True
                break
        if moved:
            field = SampledField(op.n_log2, f)
            val = _image_ratio(op.apply(field), field, p)
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
        """max over rows of estimate/(log2(1/eps)+1) divided by the min.

        The lab models the bound's shape as A (log2(1/eps) + 1); a bump's A is
        the same at every width, so it cancels here.  The ratio tells little
        apart: on criterion 8's widths 2**-1..2**-6 a constant estimate and
        one growing as (log2(1/eps) + 1)**2 both read 3.5, under the limit
        of 4."""
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
    ValueError, as does an empty eps_list.  The rows' shape statistic,
    :meth:`SweepResult.log_shape_ratio`, cannot tell a constant estimate
    from log-squared growth on criterion 8's widths: both read 3.5."""
    if len(eps_list) == 0:
        raise ValueError("eps_list holds no bump width")
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
