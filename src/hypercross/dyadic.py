"""Dyadic models: Haar tensor expansions and the scale-selected model
operator with its stability checks.

Dyadic intervals are 2**k ((0,1] + n), left-open right-closed; grid cell i is
identified with ((i)/N, (i+1)/N].  Haar functions are L2-normalized with the
left half positive.  Transforms resolve scales |I| >= 2**-depth and require
depth <= n_log2 - 1 so every Haar half-interval contains at least one cell.

The hypothesis-class generators take a Lipschitz constant 0 < L < inf.  Their
two structural verifiers share one counter of steep dyadic blocks (squares,
or x-intervals at one y).  The selection-stability check and the model
operator take their scale pairs from one rule, and raise ValueError when beta
is not finite or the side condition leaves no pair, instead of passing or
summing vacuously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridMismatchError, SampledField
from .linearized import LinearizerField, Regularity, _all_dyadic


class HypothesisViolationError(ValueError):
    """A model-operator hypothesis fails on the supplied inputs."""


@dataclass(frozen=True)
class DyadicInterval:
    """The interval 2**k ((0,1] + n) = (n 2**k, (n+1) 2**k]."""

    k: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("position n must be >= 0")

    @property
    def length(self) -> float:
        return math.ldexp(1.0, self.k)

    @property
    def left(self) -> float:
        return self.n * self.length

    @property
    def right(self) -> float:
        return (self.n + 1) * self.length


def haar_eval(I: DyadicInterval, x) -> np.ndarray:
    """L2-normalized Haar function: +|I|**-1/2 on the left half of I,
    -|I|**-1/2 on the right half, 0 outside."""
    x = np.asarray(x, dtype=np.float64)
    height = I.length ** -0.5
    mid = I.left + I.length / 2.0
    inside = (x > I.left) & (x <= I.right)
    return np.where(inside, np.where(x <= mid, height, -height), 0.0)


def _analysis_matrix(scale_exp: int, n_log2: int) -> np.ndarray:
    """Rows are h_I(cell)/N for all I with |I| = 2**-scale_exp."""
    n = 1 << n_log2
    count = 1 << scale_exp
    block = n >> scale_exp  # cells per interval
    if block < 2:
        raise ValueError(f"scale 2**-{scale_exp} unresolved on an N={n} grid")
    height = math.sqrt(float(count))  # |I|**-1/2
    mat = np.zeros((count, n))
    for p in range(count):
        mat[p, p * block : p * block + block // 2] = height / n
        mat[p, p * block + block // 2 : (p + 1) * block] = -height / n
    return mat


@dataclass(frozen=True)
class HaarCoefficients:
    """Tensor Haar coefficients plus the complementary mean data.

    ``coeffs[(a, b)]`` holds <h_I (x) h_J, f> for |I| = 2**-a, |J| = 2**-b;
    ``row_block``/``col_block``/``mean`` carry the h_I (x) 1, 1 (x) h_J and
    1 (x) 1 components needed to reconstruct f outside the pure Haar span.
    """

    n_log2: int
    depth: int
    coeffs: dict
    row_block: dict
    col_block: dict
    mean: complex


def haar_transform(f: SampledField, depth: int) -> HaarCoefficients:
    """Coefficients by exact summation over cells for |I|, |J| >= 2**-depth."""
    if depth < 0 or depth > f.n_log2 - 1:
        raise ValueError(f"depth {depth} exceeds grid resolution (max {f.n_log2 - 1})")
    mats = [_analysis_matrix(a, f.n_log2) for a in range(depth + 1)]
    samples = f.samples
    n = f.n
    coeffs = {}
    for a in range(depth + 1):
        left = mats[a] @ samples
        for b in range(depth + 1):
            coeffs[(a, b)] = left @ mats[b].T
    col_mean = samples.mean(axis=1)  # average over y
    row_mean = samples.mean(axis=0)
    row_block = {a: mats[a] @ col_mean for a in range(depth + 1)}
    col_block = {b: mats[b] @ row_mean for b in range(depth + 1)}
    return HaarCoefficients(f.n_log2, depth, coeffs, row_block, col_block, complex(samples.mean()))


def haar_inverse(h: HaarCoefficients) -> SampledField:
    """Synthesize the field resolved by the coefficients (round-trip identity
    when depth = n_log2 - 1)."""
    n = 1 << h.n_log2
    mats = {a: _analysis_matrix(a, h.n_log2) for a in range(h.depth + 1)}
    out = np.full((n, n), h.mean, dtype=np.complex128)
    for a, vec in h.row_block.items():
        out += ((n * mats[a]).T @ vec)[:, None]  # h_I(x) * 1(y)
    for b, vec in h.col_block.items():
        out += ((n * mats[b]).T @ vec)[None, :]  # 1(x) * h_J(y)
    for (a, b), c in h.coeffs.items():
        out += (n * mats[a]).T @ c @ (n * mats[b])
    return SampledField(h.n_log2, out)


def _scale_pairs(depth: int, beta: float, L: float, variant: str) -> list[tuple[int, int]]:
    """(a, b) for the scale pairs |I| = 2**-a, |J| = 2**-b with a, b <= depth
    that meet the variant's side condition: every pair for thm_4_1,
    |J|**beta >= L for thm_4_2, compared as exponents (-b beta >= log2 L) so
    no power overflows.  Raises ValueError for a beta that is not finite (at
    -inf every pair with |J| < 1 meets it and none is admissible), and when
    no pair meets the condition (thm_4_2 with L > 1 or L nan): a check or a
    sum over no pair is vacuous."""
    if variant not in ("thm_4_1", "thm_4_2"):
        raise ValueError(f"unknown variant {variant!r}")
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    scales = range(depth + 1)
    if variant == "thm_4_1":
        pairs = [(a, b) for a in scales for b in scales]
    else:
        log_l = -math.inf if L <= 0 else math.log2(L)  # nan for L nan, so no pair
        pairs = [(a, b) for a in scales for b in scales if -b * beta >= log_l]
    if not pairs:
        raise ValueError(f"no scale pair up to depth {depth} meets the {variant} side condition (L = {L}, beta = {beta})")
    return pairs


def _size_product(a: int, b: int, beta: float, variant: str) -> float:
    """|I| |J|**beta for thm_4_2, plain |I| |J| for thm_4_1; inf where
    |J|**beta exceeds the float range."""
    if variant == "thm_4_1":
        return math.ldexp(1.0, -a - b)
    return math.ldexp(1.0, -a) * 2.0 ** (-b * beta) if -b * beta < 1024 else math.inf


def dyadic_model_operator(
    f: SampledField,
    V: LinearizerField,
    beta: float,
    L: float,
    variant: str,
) -> SampledField:
    """Scale-selected Haar sum over every resolved scale (depth n_log2 - 1):
    at each point, the tensor details whose scale pair is admissible for
    V(x, y) are kept.

    thm_4_1 keeps |I||J| <= V(x,y) and requires sqrt(V) > L everywhere;
    thm_4_2 keeps |I||J|**beta <= V(x,y) subject to |J|**beta >= L.  Raises
    ValueError for a beta that is not finite, and when no scale pair meets
    the side condition.
    """
    depth = f.n_log2 - 1
    pairs = _scale_pairs(depth, beta, L, variant)
    if f.n_log2 != V.n_log2:
        raise GridMismatchError("field and linearizer grids differ")
    if not _all_dyadic(V.values) or np.any(V.values <= 0):
        raise HypothesisViolationError("V must take values in {2**k}")
    if variant == "thm_4_1" and not np.all(np.sqrt(V.values) > L):
        bad = int(np.sum(np.sqrt(V.values) <= L))
        raise HypothesisViolationError(f"sqrt(V) > L fails at {bad} grid points")
    h = haar_transform(f, depth)
    n = f.n
    v = V.values
    out = np.zeros((n, n), dtype=np.complex128)
    mats = {a: _analysis_matrix(a, f.n_log2) for a in range(depth + 1)}
    for a, b in pairs:
        admissible = _size_product(a, b, beta, variant) <= v
        if not admissible.any():
            continue
        detail = (n * mats[a]).T @ h.coeffs[(a, b)] @ (n * mats[b])
        out += np.where(admissible, detail, 0.0)
    return SampledField(f.n_log2, out)


@dataclass(frozen=True)
class StabilityReport:
    variant: str
    depth: int
    violations: int
    witnesses: tuple = ()

    def record(self) -> dict:
        return {
            "variant": self.variant,
            "depth": self.depth,
            "violations": self.violations,
            "witnesses": [list(w) for w in self.witnesses[:8]],
        }


def check_selection_stability(
    V: LinearizerField,
    L: float,
    beta: float,
    variant: str,
    depth: int = 6,
) -> StabilityReport:
    """Exhaustively test that admissibility of a scale pair at (x, y) is
    inherited by every x' in the same I.

    For each scale pair (|I|, |J|) passing the variant's side condition and
    each (I, y), the admissibility mask must be constant in x over I; every
    non-constant block counts as one violation, and the first 8 are kept as
    witnesses.  A negative depth, a beta that is not finite, or a side
    condition that no scale pair meets (thm_4_2 with L > 1) would check
    nothing and raises ValueError.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    depth = min(depth, V.n_log2)
    n = V.n
    v = V.values
    # thm_4_1 checks the pairs with |I| <= |J|
    pairs = [(a, b) for a, b in _scale_pairs(depth, beta, L, variant) if variant == "thm_4_2" or a >= b]
    violations = 0
    witnesses: list[tuple] = []
    for a, b in pairs:
        admissible = _size_product(a, b, beta, variant) <= v
        block = n >> a  # cells per I
        grouped = admissible.reshape(1 << a, block, n)
        bad = grouped.any(axis=1) & ~grouped.all(axis=1)
        violations += int(bad.sum())
        for blk, y in zip(*np.nonzero(bad)):
            if len(witnesses) >= 8:
                break
            col = grouped[blk, :, y]
            x_true = int(blk) * block + int(np.argmax(col))
            x_false = int(blk) * block + int(np.argmin(col))
            witnesses.append((x_true, x_false, int(y), -a, -b))
    return StabilityReport(variant, depth, violations, tuple(witnesses))


def _axis_block_average(values: np.ndarray, cells: int, axis: int) -> np.ndarray:
    n = values.shape[axis]
    if axis == 0:
        grouped = values.reshape(n // cells, cells, -1).mean(axis=1)
        return np.repeat(grouped, cells, axis=0)
    grouped = values.reshape(values.shape[0], n // cells, cells).mean(axis=2)
    return np.repeat(grouped, cells, axis=1)


def martingale_average(f: SampledField, scale: float, axis: int) -> SampledField:
    """Conditional expectation on dyadic intervals of the given length along
    one axis (axis 0 = x, axis 1 = y)."""
    cells = scale * f.n
    if not (1 <= cells <= f.n and math.frexp(cells)[0] == 0.5):  # a power of two cells, exactly
        raise ValueError(f"scale {scale} is not a resolvable dyadic length")
    return SampledField(f.n_log2, _axis_block_average(f.samples, int(cells), axis))


def dyadic_maximal_m2(f: SampledField) -> SampledField:
    """Dyadic maximal function in the second variable: max over dyadic
    intervals containing y (the cell itself included) of the average of |f|."""
    mags = np.abs(f.samples)
    out = mags.copy()
    for q in range(1, f.n_log2 + 1):
        out = np.maximum(out, _axis_block_average(mags, 1 << q, axis=1))
    return SampledField(f.n_log2, out)


def dyadic_square_function(f: SampledField, axis: int) -> SampledField:
    """(sum over scales of |martingale difference|**2)**1/2 along one axis."""
    diffs_sq = np.zeros(f.samples.shape, dtype=np.float64)
    finer = f.samples
    for q in range(1, f.n_log2 + 1):
        coarser = _axis_block_average(f.samples, 1 << q, axis)
        diffs_sq += np.abs(finer - coarser) ** 2
        finer = coarser
    return SampledField(f.n_log2, np.sqrt(diffs_sq))


# ---------------------------------------------------------------------------
# Hypothesis-class generators and their structural verifiers.
# ---------------------------------------------------------------------------

def generate_dyadic_metric_2d(L: float, n_log2: int, seed: int) -> LinearizerField:
    """Dyadic-valued V that is L-Lipschitz for the 2D dyadic metric with
    sqrt(V) > L: a random quadtree whose leaf values are powers of two in
    (L**2, 2 L * leaf_side].  A square splits with probability 0.7 when its
    children can hold such a value, that is when a power of two lies in
    (L**2, L * side]."""
    if not 0.0 < L < math.inf:
        raise ValueError(f"L must be positive and finite, got {L}")
    rng = np.random.default_rng(seed)
    n = 1 << n_log2
    v = np.empty((n, n))
    # exponents come from math.frexp: x = m 2**e with m in [1/2, 1) has the
    # dyadic floor 2**(e - 1) exactly, where math.log2 rounds, and
    # math.log2(nextafter(0.25, 0)) == -2.0
    r_min = math.frexp(L * L)[1]  # smallest power strictly above L**2

    def fill(x0: int, y0: int, cells: int, constrained: bool) -> None:
        side = cells / n
        # children hold powers of two in (L**2, L * side]: L * side = m 2**e
        # with m in [1/2, 1) reaches 2**r_min iff e > r_min
        can_split = cells >= 2 and math.frexp(L * side)[1] > r_min
        if can_split and rng.random() < 0.7:
            half = cells // 2
            for dx in (0, half):
                for dy in (0, half):
                    fill(x0 + dx, y0 + dy, half, True)
            return
        r_max = math.frexp(2.0 * L * side)[1] - 1 if constrained else 0
        if r_min > r_max:
            raise ValueError(f"no admissible value for leaf of side {side} at L={L}")
        r = int(rng.integers(r_min, r_max + 1))
        v[x0 : x0 + cells, y0 : y0 + cells] = math.ldexp(1.0, r)

    fill(0, 0, n, False)
    return LinearizerField(n_log2, v, Regularity("dyadic_metric_2d", lip=L), seed)


def generate_dyadic_metric_x(L: float, n_log2: int, seed: int) -> LinearizerField:
    """Dyadic-valued V that is L-Lipschitz in the first variable for the
    dyadic metric, with a factor-2 margin: a random binary tree in x (each
    interval of two or more cells splits with probability 0.7); each (x-leaf,
    y-band), with 4 equal y-bands, takes a power of two at most
    L * leaf_length.

    The margin matters: a field saturating the Lipschitz bound exactly can
    defeat selection stability at scale pairs with |J|**beta = L, where the
    contradiction argument degenerates to equality.
    """
    n = 1 << n_log2
    if not 0.0 < L / n < math.inf:  # so no leaf bound L * cells / N underflows to 0
        raise ValueError(f"L must be positive and finite with L / N > 0, got L = {L} at N = {n}")
    rng = np.random.default_rng(seed)
    bands = 4
    band_cells = n // bands
    v = np.empty((n, n))

    def fill(x0: int, cells: int, constrained: bool) -> None:
        if cells >= 2 and rng.random() < 0.7:
            fill(x0, cells // 2, True)
            fill(x0 + cells // 2, cells // 2, True)
            return
        r_hi = math.frexp(L * cells / n)[1] - 1 if constrained else 0
        for band in range(bands):
            r = int(rng.integers(r_hi - 3, r_hi + 1))
            v[x0 : x0 + cells, band * band_cells : (band + 1) * band_cells] = math.ldexp(1.0, r)

    fill(0, n, False)
    return LinearizerField(n_log2, v, Regularity("dyadic_metric_x", lip=L), seed)


def _steep_blocks(V: LinearizerField, L: float, square: bool) -> int:
    """Count dyadic blocks of cells x cells (square) or of cells x 1 cells,
    for cells = 2 .. N, on which V is non-constant yet sup V > L * cells / N."""
    n = V.n
    violations = 0
    for q in range(1, V.n_log2 + 1):
        cells = 1 << q
        rows = cells if square else 1
        blocks = V.values.reshape(n // cells, cells, n // rows, rows)
        bmax = blocks.max(axis=(1, 3))
        bmin = blocks.min(axis=(1, 3))
        violations += int(np.sum((bmax > bmin) & (bmax > L * (cells / n) * (1 + 1e-12))))
    return violations


def verify_dyadic_metric_2d(V: LinearizerField, L: float) -> int:
    """Count dyadic squares on which V is non-constant yet sup V > L * side
    (zero iff V is L-Lipschitz for the 2D dyadic metric)."""
    return _steep_blocks(V, L, square=True)


def verify_dyadic_metric_x(V: LinearizerField, L: float) -> int:
    """Count (dyadic x-interval, y) pairs with V non-constant in x yet
    sup V > L * length."""
    return _steep_blocks(V, L, square=False)
