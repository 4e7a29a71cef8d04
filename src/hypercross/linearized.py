"""Linearizing scale fields V and the variable-scale multiplier operator.

A LinearizerField holds the nonnegative scale choice V(x, y) on the grid,
together with the regularity class it was generated for; its values pass the
grid contract of :mod:`grid`.  :func:`verify_lipschitz` checks a declared
class by one pair rule: the class names its point pairs and a ratio, and the
worst pair is the witness.  The linearized operator gathers, at each output
point, the fixed-multiplier result for the local scale V(x, y).  Every
variable-scale operator in the package is one call of the kernel
:func:`gather` on a key array (V, or a rounding of V); it reproduces the
O(N^4) brute-force oracle exactly up to floating-point reassociation.  Every
operator handle of the package is built by one constructor,
:meth:`LinearOperatorHandle.of`, from a key array and a symbol under the
contract of :func:`gather`: it keeps one plan of the kernel for its apply,
:func:`_gather`, and its adjoint, :func:`_scatter`, and keeps the keys and
the symbol, from which the dense oracle of :mod:`normest` is built apart
from the kernel.

The kernel sums out(x) = sum_k symbol(V(x))[k] f^[k] e(x.k) in one of two
orders.  On the V side it takes one transform per distinct key, each
evaluated at that key's points.  A :class:`ScaledSymbol` weight * m(V h),
with h the argument grid (|xi| |eta|**beta), may instead be summed on the
frequency side: one transform per distinct value of h where the weight is
nonzero, each multiplied by m(V(x) h) at every point.  A continuous V has a
distinct value at nearly every point, while h takes 17 values on the
Pi_beta support at N = 32 and beta = 1.

Only the transition band eps < V(x) h < R of the profile depends on the
point, so the frequency side sorts each frequency into one of three bands by
the smallest and the largest key, once per plan, and the kernel takes the
frequency side when the banded groups are fewer than the key groups; either
side runs one transform per group it sums:

- dead, key_min * h >= R: m(V(x) h) is exactly 0 at every point, so these
  groups take no transform and no profile call;
- flat, key_max * h <= eps: m(V(x) h) is exactly 1 at every point, so these
  groups are one merged group with one transform and factor 1;
- transition, in between: one group each.

The bands are exact.  m is exactly 0 from R on (at R, 1 - smoothstep(1) is
0) and exactly 1 on |t| <= eps, keys and h are >= 0, and rounded
multiplication is monotone, so key * h is on the same side of R or eps as
key_min * h or key_max * h.  A key 0 leaves no dead group.  Merging the flat
groups reassociates a sum of transforms in the synthesis and changes no bit
in the analysis, where each of them was the transform of g * 1.

Both sides group flat positions in one private format, :class:`_Groups`,
built by one stable argsort of the values.  A plan, :class:`_Plan`, is made
once per key array and symbol: it sorts the keys once, bands the live
frequencies of the symbol's support by h (every flat h as the value 0),
counts the distinct keys, and keeps the keys with the groups of the side it
takes; it groups the keys only when it takes the key side, which a
continuous V rarely does.  Every 2-D transform is the pair
:func:`grid._fft2` and :func:`grid._ifft2`, numpy's fft2 and ifft2 bit for
bit.

The kernel takes one (N, N) grid per call.  Either side takes its groups
in stacks of max(1, 2**13 // N^2), each a contiguous slice of the grouping,
with one FFT call over the last two axes per stack, because at the grid
sizes of the battery a call costs more than its arithmetic.  The plan keeps
its stacks, each as its slice of the group indices, its positions and their
flat indices in the stack's grids, so an apply or adjoint searches nothing
and subtracts no offset.  The factors
(m(key * h) on the frequency side, the symbols on the V side) come from one
call for all g groups when they fit in one stack, g N^2 <= max(N^2,
2**13): the plan keeps them as a read-only (g, N, N) table, so an operator
handle applied many times evaluates m once.  Otherwise each stack makes one
factor call on its groups.  Each group's factors are computed on their own,
each group is picked on its own, and a stack's terms are summed by one
reduction that adds them in group order, so the result does not depend on
the stack size or on the table.  A stack of
groups and the table hold at most max(N^2, 2**13) entries, so memory stays
O(N^2).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .grid import (
    GridMismatchError,
    SampledField,
    _fft2,
    _grid_array,
    _ifft2,
    forward_transform,
    frequencies,
    write_hxf1,
)
from .multiplier import MultiplierProfile, hyperbolic_argument, pi_beta_mask


@dataclass(frozen=True)
class Regularity:
    """Declared regularity class of a linearizer field.

    kind is one of 'constant', 'lip_x', 'lip_y', 'lip_2d',
    'dyadic_of_lipschitz', 'dyadic_metric_2d', 'dyadic_metric_x',
    'staircase_x', or 'none'.
    """

    kind: str
    lip: float | None = None
    floor: float | None = None


@dataclass(frozen=True)
class LinearizerField:
    n_log2: int
    values: np.ndarray
    regularity: Regularity = field(default_factory=lambda: Regularity("none"))
    seed: int | None = None

    def __post_init__(self) -> None:
        arr = _grid_array(self.n_log2, self.values, np.float64)
        if np.any(arr < 0):
            raise ValueError("linearizer values must be >= 0")
        floor = self.regularity.floor
        if floor is not None and arr.min() < floor - 1e-12:
            raise ValueError(f"values fall below declared floor {floor}")
        if self.regularity.kind.startswith("dyadic") and not _all_dyadic(arr):
            raise ValueError("declared dyadic-valued field contains non powers of two")
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return 1 << self.n_log2


def _all_dyadic(arr: np.ndarray) -> bool:
    return bool(np.array_equal(dyadic_floor(arr), arr))


def _band_limited_noise(n_log2: int, rng: np.random.Generator, band: int = 3) -> np.ndarray:
    """Real trigonometric polynomial with unit-scale oscillation (periodic)."""
    n = 1 << n_log2
    x = np.arange(n) / n
    w = np.zeros((n, n))
    for _ in range(2 * band):
        kx = int(rng.integers(-band, band + 1))
        ky = int(rng.integers(-band, band + 1))
        if kx == 0 and ky == 0:
            continue
        amp = rng.standard_normal()
        phase = rng.uniform(0, 2 * np.pi)
        w += amp * np.cos(2 * np.pi * (kx * x[:, None] + ky * x[None, :]) + phase)
    if np.ptp(w) == 0.0:
        w = np.cos(2 * np.pi * x)[:, None] * np.ones((1, n))
    return w


def _adjacent_max_diff(values: np.ndarray, axis: int) -> float:
    """Largest |difference| of neighbours along the axis, the wrap-around pair
    included."""
    return float(np.abs(np.roll(values, -1, axis=axis) - values).max())


# the axis a one-variable class bounds: its noise is scaled along it, and its
# pair rule takes the neighbours along it
_AXIS = {"lip_x": 0, "lip_y": 1, "staircase_x": 0}


# the parameters each linearizer kind reads, with their types; a key has one
# type across the kinds
_LINEARIZER_KEYS = {
    "constant": {"value": float},
    "lip_x": {"lip_constant": float, "v_min": float, "band": int, "amplitude": float},
    "lip_y": {"lip_constant": float, "v_min": float, "band": int, "amplitude": float},
    "lip_2d": {"lip_constant": float, "floor": float, "band": int},
    "dyadic_of_lipschitz": {"lip_constant": float, "v_min": float, "band": int},
    "staircase_x": {"lip_constant": float, "v_min": float, "levels": int},
}


def generate_linearizer(kind: str, params: dict, seed: int, n_log2: int) -> LinearizerField:
    """Deterministic pseudo-random field satisfying the declared regularity.

    'lip_x', 'lip_y', 'lip_2d' and 'dyadic_of_lipschitz' follow one noise
    rule: a band-limited trigonometric polynomial (hence periodic), shifted
    to start at the floor (v_min, or the floor of 'lip_2d') and scaled so
    each step along a bounded axis, the wrap-around step included, is at
    most 0.95 lip / (N sqrt(k)).  'lip_x' and 'lip_y' bound their one axis
    (k = 1); the other two bound both (k = 2, since axis-step control
    implies euclidean control up to sqrt(2) via l1 paths), and
    'dyadic_of_lipschitz' then takes the dyadic floor.  The amplitude,
    finite and >= 0, caps the spread of 'lip_x' and 'lip_y', and scales alone
    a draw that does not vary along its axis.
    'constant' takes value (default 1), finite and >= 0.  Every other kind
    takes lip_constant (default 1), finite and > 0; the kinds with a v_min
    take it finite and >= 0 (default 1/2), 'lip_2d' takes a floor (default
    lip_constant**2), finite and >= lip_constant**2, and the kinds with a
    band or levels take it >= 1 (default 3, and max(8, N/2)).  An unknown
    kind, a parameter the kind does not read, or a value out of range
    raises ValueError naming the kind and the parameter.
    """
    keys = _LINEARIZER_KEYS.get(kind)
    if keys is None:
        raise ValueError(f"unknown linearizer kind {kind!r}")
    unread = sorted(set(params) - set(keys))
    if unread:
        raise ValueError(f"linearizer kind {kind!r} does not read {unread}")
    params = {key: keys[key](value) for key, value in params.items()}
    rng = np.random.default_rng(seed)
    n = 1 << n_log2

    if kind == "constant":
        c = params.get("value", 1.0)
        if not 0.0 <= c < math.inf:
            raise ValueError(f"linearizer kind {kind!r} needs a finite value >= 0, got {c}")
        return LinearizerField(n_log2, np.full((n, n), c), Regularity("constant"), seed)

    lip = params.get("lip_constant", 1.0)
    if not 0.0 < lip < math.inf:
        raise ValueError(f"linearizer kind {kind!r} needs a finite lip_constant > 0, got {lip}")
    v_min = params.get("v_min", 0.5)  # lip_2d takes none, so it keeps the default there
    if not 0.0 <= v_min < math.inf:
        raise ValueError(f"linearizer kind {kind!r} needs a finite v_min >= 0, got {v_min}")
    amplitude = params.get("amplitude")
    if amplitude is not None and not 0.0 <= amplitude < math.inf:
        raise ValueError(f"linearizer kind {kind!r} needs a finite amplitude >= 0, got {amplitude}")
    for key in ("band", "levels"):
        if params.get(key, 1) < 1:
            raise ValueError(f"linearizer kind {kind!r} needs {key} >= 1, got {params[key]}")

    if kind == "staircase_x":
        # reflecting +-1 random walks quantized to steps of size 0.9 lip/N,
        # each a half-length walk followed by its mirror image, so it closes
        # on the torus.  Every step, the seam included, is 0 or one step, so
        # the Lipschitz constant is met with margin while the number of
        # distinct values stays small.
        levels = params.get("levels", max(8, n // 2))
        step = 0.9 * lip / n

        def walk() -> np.ndarray:
            half = np.empty(n // 2, dtype=np.int64)
            cur = int(rng.integers(0, levels))
            for i in range(n // 2):
                half[i] = cur
                move = int(rng.integers(-1, 2))
                cur = min(max(cur + move, 0), levels - 1)
            return np.concatenate([half, half[::-1]])

        v = v_min + step * (walk()[:, None] + walk()[None, :])
        return LinearizerField(n_log2, v, Regularity("staircase_x", lip=lip, floor=v_min), seed)

    floor = params.get("floor", lip * lip) if kind == "lip_2d" else v_min
    if kind == "lip_2d" and not lip * lip <= floor < math.inf:
        raise ValueError(f"linearizer kind {kind!r} needs a finite floor >= lip_constant**2 = {lip * lip}, got {floor}")
    if kind == "dyadic_of_lipschitz" and v_min <= 0:
        raise ValueError("dyadic_of_lipschitz needs v_min > 0")
    axes = (_AXIS[kind],) if kind in _AXIS else (0, 1)
    w = _band_limited_noise(n_log2, rng, band=params.get("band", 3))
    measured = max(_adjacent_max_diff(w, axis=axis) for axis in axes) * n
    if measured > 0:
        scale = 0.95 * lip / (measured * math.sqrt(len(axes)))
        if amplitude is not None:  # amplitude / ptp(w) alone would round differently
            scale = min(scale, scale * amplitude / (np.ptp(w) * scale))
    elif amplitude is not None:  # no variation along the axis, so no Lipschitz limit on the scale
        scale = amplitude / np.ptp(w)
    else:
        raise ValueError(f"{kind} noise for seed {seed} does not vary along its axis; give an amplitude")
    v = floor + scale * (w - w.min())
    if kind == "dyadic_of_lipschitz":
        return LinearizerField(n_log2, dyadic_floor(v), Regularity(kind, lip=lip), seed)
    return LinearizerField(n_log2, v, Regularity(kind, lip=lip, floor=floor), seed)


@dataclass(frozen=True)
class LipschitzReport:
    passed: bool
    worst_ratio: float
    witness: tuple | None


def _torus_delta(n: int) -> np.ndarray:
    d = np.arange(n)
    return np.minimum(d, n - d) / n


def _random_pairs(n: int, seed: int):
    """10,000 random grid point pairs (a, b) and their torus distances."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, n, size=(10_000, 2))
    b = rng.integers(0, n, size=(10_000, 2))
    dx = _torus_delta(n)[(a[:, 0] - b[:, 0]) % n]
    dy = _torus_delta(n)[(a[:, 1] - b[:, 1]) % n]
    return a, b, np.hypot(dx, dy)


def _neighbour_pairs(n: int, axis: int, wrap: bool):
    """Every grid point a in C order with its neighbour b one step along the
    axis, and their distance 1/N; without wrap, only the points whose
    neighbour lies inside the grid (no step across the seam)."""
    a = np.indices((n, n)).reshape(2, -1).T
    if not wrap:
        a = a[a[:, axis] < n - 1]
    b = a.copy()
    b[:, axis] = (b[:, axis] + 1) % n
    return a, b, np.full(len(a), 1.0 / n)


def _pair_rule(kind: str, n: int, lip: float, seed: int):
    """The point pairs (a, b) of a regularity class, their distances, and the
    ratio of (V(a), V(b), distance) that must stay <= 1 on every pair."""
    if kind in _AXIS:
        pairs = _neighbour_pairs(n, _AXIS[kind], wrap=False)
        return (*pairs, lambda va, vb, dist: np.abs(va - vb) / (lip * dist))
    if kind == "lip_2d":
        triples = (_neighbour_pairs(n, 0, wrap=True), _neighbour_pairs(n, 1, wrap=True), _random_pairs(n, seed))
        pairs = [np.concatenate(parts) for parts in zip(*triples)]
        return (*pairs, lambda va, vb, dist: np.abs(va - vb) / np.maximum(lip * lip, lip * dist))
    if kind == "dyadic_of_lipschitz":
        # necessary condition: V(z) < 2 V(z') + lip * dist
        return (*_random_pairs(n, seed), lambda va, vb, dist: np.maximum(va, vb) / (2.0 * np.minimum(va, vb) + lip * dist))
    raise ValueError(f"unsupported regularity kind {kind!r}")


def verify_lipschitz(V: LinearizerField, mode: Regularity, seed: int = 0) -> LipschitzReport:
    """Check a declared regularity class on the grid by one pair rule: each
    class names its point pairs and a ratio that must stay <= 1 on each, and
    the worst pair is the witness, as two (i, j) tuples of ints.

    'lip_x' / 'lip_y' take the non-wrapping neighbours along the axis (the
    path metric of the sampled segment; this makes exact linear fields pass
    with ratio 1) with allowance lip / N; 'staircase_x' is checked with the
    'lip_x' rule.  'lip_2d' takes every torus neighbour and 10,000 random
    pairs, with allowance max(lip**2, lip * torus distance).
    'dyadic_of_lipschitz' takes the random pairs with the ratio
    max / (2 min + lip * distance); a field that is not dyadic-valued fails
    with ratio inf and no witness.
    """
    if mode.kind in ("constant", "none"):
        return LipschitzReport(True, 0.0, None)
    if mode.kind == "dyadic_of_lipschitz" and not _all_dyadic(V.values):
        return LipschitzReport(False, math.inf, None)
    a, b, dist, ratio = _pair_rule(mode.kind, V.n, mode.lip if mode.lip is not None else 1.0, seed)
    ratios = ratio(V.values[a[:, 0], a[:, 1]], V.values[b[:, 0], b[:, 1]], dist)
    k = int(np.argmax(ratios))
    worst = float(ratios[k])
    return LipschitzReport(worst <= 1.0 + 1e-9, worst, (tuple(map(int, a[k])), tuple(map(int, b[k]))))


def dyadic_round_up(lam):
    """min{2**(j+2) : 2**j > lam}; brackets lam via result/8 <= lam < result/4.
    Needs 0 < lam < 2**1021, where the result is finite."""
    arr = np.asarray(lam, dtype=np.float64)
    if not np.all((arr > 0) & (arr < 2.0**1021)):
        raise ValueError("dyadic_round_up requires 0 < input < 2**1021")
    out = 8.0 * dyadic_floor(arr)  # exact: both factors are powers of two
    return float(out) if np.isscalar(lam) or arr.ndim == 0 else out


def dyadic_floor(values) -> np.ndarray:
    """2**floor(log2 v) for v > 0 (the largest power of two <= v); 0 stays 0."""
    arr = np.asarray(values, dtype=np.float64)
    if np.any(~np.isfinite(arr)) or np.any(arr < 0):
        raise ValueError("dyadic_floor requires finite input >= 0")
    _, exp = np.frexp(arr)  # v = m * 2**exp with m in [0.5, 1)
    return np.where(arr > 0, np.ldexp(1.0, exp - 1), 0.0)


class _Groups(NamedTuple):
    """Positions on a grid of S points grouped by value: the sorted distinct
    values, the positions in group order (increasing within a group), and
    their flat indices group * S + position in the (g, N, N) array of the
    groups' grids (increasing)."""

    values: np.ndarray
    positions: np.ndarray
    flat: np.ndarray


def _grouped(values: np.ndarray, positions: np.ndarray, size: int) -> _Groups:
    """positions on a grid of size points grouped by their values, from one
    stable argsort of the values: a group starts where the sorted value
    changes, and equal values keep the order of their positions."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.ones(ordered.size, dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    positions = positions[order]
    return _Groups(ordered[starts], positions, (np.cumsum(starts) - 1) * size + positions)


def _on_grid(arr: np.ndarray, shape: tuple) -> None:
    """GridMismatchError unless arr is a grid of that shape."""
    if np.shape(arr) != shape:
        raise GridMismatchError(f"array of shape {np.shape(arr)} on a grid of shape {shape}")


@dataclass(frozen=True)
class ScaledSymbol:
    """The symbol weight * m(key * hyper) at scale key: a profile m, an
    argument grid hyper >= 0 (ValueError otherwise) and a weight (an array
    or a scalar); :func:`gather` and :func:`_scatter` may sum it by h =
    hyper instead of by key."""

    m: MultiplierProfile
    hyper: np.ndarray
    weight: np.ndarray | float

    def __post_init__(self) -> None:
        if not np.all(self.hyper >= 0):
            raise ValueError("symbol arguments must be >= 0")

    def __call__(self, key):
        return self.weight * self.m(key * self.hyper)


# Entries per stack of groups in _pick and _spread (128 KiB of complex128).
_STACK = 1 << 13


def _stacks(groups: _Groups, size: int):
    """Consecutive runs of at most max(1, _STACK // size) groups on a grid of
    size points, each as (its slice of the group indices, its positions,
    their flat indices in the (k, N, N) array of its k groups' grids)."""
    step = max(1, _STACK // size)
    lo = 0
    for first in range(0, groups.values.size, step):
        last = min(first + step, groups.values.size)
        hi = int(groups.flat.searchsorted(last * size))
        yield slice(first, last), groups.positions[lo:hi], groups.flat[lo:hi] - first * size
        lo = hi


def _pick(transform, arr: np.ndarray, plan: _Plan) -> np.ndarray:
    """out[x] = transform(arr * factor(v))[x] for each position x of the
    group of value v, over the plan's stacks and factors."""
    out = np.zeros(arr.size, dtype=np.complex128)
    for stack, positions, flat in plan.stacks:
        out[positions] = transform(arr * plan.factors(stack)).ravel()[flat]
    return out.reshape(arr.shape)


def _spread(transform, arr: np.ndarray, plan: _Plan) -> np.ndarray:
    """Sum over the groups of transform(arr restricted to the group) *
    factor, over the plan's stacks and factors; the terms are added in group
    order.  A stack's terms are one reduction over its first axis, which
    numpy runs as the sequential sum of the rows, after the running sum is
    added into the first row: the bits of adding the terms one at a time."""
    values = np.asarray(arr, dtype=np.complex128).ravel()
    out = np.zeros(arr.shape, dtype=np.complex128)
    for stack, positions, flat in plan.stacks:
        restricted = np.zeros((stack.stop - stack.start) * values.size, dtype=np.complex128)
        restricted[flat] = values[positions]
        terms = transform(restricted.reshape((-1,) + arr.shape)) * plan.factors(stack)
        terms[0] += out
        out = np.add.reduce(terms, axis=0)
    return out


def _synthesis(spec: np.ndarray) -> np.ndarray:
    """The inverse of the grid's forward transform over the last two axes:
    ifft2 with numpy's ``norm="forward"`` (no 1/N^2)."""
    return _ifft2(spec, norm="forward")


def _h_bands(keys: np.ndarray, symbol: ScaledSymbol) -> _Groups:
    """The frequencies where the symbol's weight is nonzero, grouped by h in
    the three bands of the module docstring, set by the smallest and the
    largest of the sorted keys, keys[0] and keys[-1]: the dead h are
    dropped, the flat h take the value 0 (whose factor m(0) is 1) and so
    form one group, and each transition h keeps its own group.  A flat h is live (key_min h <=
    key_max h <= eps < R), and a transition h is > 0, so the flat group,
    when there is one, comes first."""
    m, hyper = symbol.m, symbol.hyper
    support = np.flatnonzero(np.broadcast_to(symbol.weight, np.shape(hyper)))
    hs = np.ravel(hyper)[support]
    live = keys[0] * hs < m.support_radius
    flat = keys[-1] * hs <= m.epsilon
    return _grouped(np.where(flat, 0.0, hs)[live], support[live], np.size(hyper))


class _Plan:
    """What :func:`_gather` and :func:`_scatter` sum over: the (N, N) key
    array, the groups, the rule that evaluates the (g, N, N) factors of an
    array of g group values, on the frequency side the symbol's weight (None
    on the V side), and the factors of every group as a read-only table when
    the grouping fits in one stack (None otherwise).  It derives the groups'
    stacks, :func:`_stacks`, once, so no apply or adjoint searches the
    grouping.  A plain class with slots: a frozen dataclass or a NamedTuple
    here adds 0.1-0.6 ms to every import of the module."""

    __slots__ = ("keys", "groups", "evaluate", "weight", "table", "stacks")

    def __init__(self, keys: np.ndarray, groups: _Groups, evaluate: callable,
                 weight: np.ndarray | float | None, table: np.ndarray | None = None) -> None:
        self.keys, self.groups, self.evaluate, self.weight, self.table = keys, groups, evaluate, weight, table
        self.stacks = tuple(_stacks(groups, keys.size))

    def factors(self, stack: slice) -> np.ndarray:
        """The factors of the groups in a slice of the group indices: a view
        of the table, or evaluated on those groups' values."""
        if self.table is None:
            return self.evaluate(self.groups.values[stack])
        return self.table[stack]


def _plan(keys: np.ndarray, symbol_of) -> _Plan:
    """The kernel's one rule on a key array, >= 0 (scales; ValueError
    otherwise): a :class:`ScaledSymbol` whose :func:`_h_bands` hold fewer
    groups than there are distinct keys is summed over the bands, with the
    factors h -> m(key * h) on the grid for an array of h; any other symbol
    is summed by key, grouped by equal key (a key 0.0 is the first group),
    with symbol_of on the keys as a (g, 1, 1) array (the contract of
    :func:`gather`).  The side is decided on the keys sorted once (their
    ends set the bands, and the changes between neighbours count the
    distinct keys), and the keys are grouped only when the key side runs.
    When the g groups fit in one stack, g N^2 <= max(N^2, _STACK), their
    factors are evaluated here in one call and kept as the table, at most
    max(N^2, _STACK) entries."""
    if not np.all(keys >= 0):
        raise ValueError("bucket keys must be >= 0")
    weight, evaluate = None, lambda values: symbol_of(values[:, None, None])
    if isinstance(symbol_of, ScaledSymbol):
        ordered = np.sort(keys, axis=None)
        bands = _h_bands(ordered, symbol_of)
        if bands.values.size < 1 + np.count_nonzero(ordered[1:] != ordered[:-1]):
            groups, weight = bands, symbol_of.weight
            evaluate = lambda hs: symbol_of.m(keys * hs[:, None, None])
    if weight is None:
        groups = _grouped(keys.ravel(), np.arange(keys.size), keys.size)
    table = None
    if groups.values.size * keys.size <= max(keys.size, _STACK):
        table = evaluate(groups.values)
        table.flags.writeable = False
    return _Plan(keys, groups, evaluate, weight, table)


def _gather(spec: np.ndarray, plan: _Plan) -> np.ndarray:
    _on_grid(spec, plan.keys.shape)
    if plan.weight is None:
        return _pick(_synthesis, spec, plan)
    return _spread(_synthesis, spec * plan.weight, plan)


def gather(spec: np.ndarray, keys: np.ndarray, symbol_of) -> np.ndarray:
    """Variable-symbol synthesis: out[x] = ifft2(spec * symbol_of(k),
    norm="forward")[x] for each point x of the (N, N) key array, k = keys[x]
    >= 0, with spec an (N, N) spectrum (GridMismatchError otherwise).

    The V side takes one inverse transform per distinct key.  A
    :class:`ScaledSymbol` takes the frequency side instead when its three
    bands of h, set by the smallest and the largest key, hold fewer groups
    than there are distinct keys.  The dead h (key_min * h >= R, where
    m(key * h) is exactly 0) take no transform.  The flat h (key_max * h <=
    eps, where it is exactly 1) take one inverse transform of spec * weight
    on their union.  Each transition h takes one on its frequencies, times
    m(key(x) * h) at every point.  The module docstring shows why the bands
    are exact; the merge only reassociates the flat terms' sum.

    Groups go in stacks of max(1, 2**13 // N^2) per ifft2 call; each group
    is then picked or added in turn, in key or h order.  The factors
    (symbol_of on the keys, or m on the h) of all g groups come from one
    call, kept as a read-only (g, N, N) table, when g N^2 <= max(N^2,
    2**13); otherwise from one call per stack, on the stack's groups.  A
    stack and the table hold at most max(N^2, 2**13) entries.  So symbol_of
    is called with the keys of a stack, or all the keys, as a (g, 1, 1)
    array and returns the (g, N, N) symbols, one per key, each computed on
    its own key; numpy broadcasting gives this to any symbol built from key
    by elementwise arithmetic on (N, N) grids, a :class:`ScaledSymbol`
    among them."""
    return _gather(spec, _plan(keys, symbol_of))


def _scatter(g: np.ndarray, plan: _Plan) -> np.ndarray:
    """Exact adjoint of :func:`gather` for real symbols, in the unweighted
    inner products: sum over the distinct keys k of symbol_of(k) *
    fft2(g on the points with key k), with the plan :func:`_plan` makes of
    the keys and the symbol, on an (N, N) grid g.

    The side, the bands and the stacks follow :func:`gather`.  On the
    frequency side each transition h takes fft2(g * m(key * h)) on its
    frequencies, the flat h take one fft2(g) on theirs (each of their own
    transforms was fft2(g * 1), so the merge changes no bit), and the dead
    h stay 0; the result is times the weight."""
    _on_grid(g, plan.keys.shape)
    if plan.weight is None:
        return _spread(_fft2, g, plan)
    return _pick(_fft2, g, plan) * plan.weight


def apply_linearized_bruteforce(f: SampledField, V: LinearizerField, m: MultiplierProfile, beta: float) -> SampledField:
    """O(N^4) reference: per output point, sum the masked, m-weighted spectrum
    against the Fourier phases directly."""
    if f.n_log2 != V.n_log2:
        raise GridMismatchError("field and linearizer grids differ")
    n = f.n
    hyper = hyperbolic_argument(f.n_log2, beta)
    base = forward_transform(f).coeffs * pi_beta_mask(beta, f.n_log2).values
    phase = np.exp(2j * np.pi * np.outer(np.arange(n), frequencies(f.n_log2)) / n)  # both axes
    out = np.empty((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            out[i, j] = phase[i] @ (m(V.values[i, j] * hyper) * base) @ phase[j]
    return SampledField(f.n_log2, out)


@dataclass(frozen=True)
class LinearOperatorHandle:
    """The grid-linear operator f -> gather(fft2(f, norm="forward"), keys,
    symbol_of) with its adjoint, built by :meth:`of` from the (N, N) key
    array and the symbol it keeps as fields.

    apply and adjoint take a SampledField on the handle's grid and return
    one; both raise GridMismatchError for a field on another grid, and the
    image's SampledField checks its finiteness.  The fields keys and
    symbol_of describe the operator itself, so an oracle built from them
    (:func:`hypercross.normest.dense_matrix`) runs none of apply's code;
    dataclasses.replace of apply and adjoint keeps them."""

    n_log2: int
    apply: callable
    adjoint: callable
    keys: np.ndarray
    symbol_of: callable

    @classmethod
    def of(cls, V: LinearizerField, symbol_of) -> LinearOperatorHandle:
        """The handle of the symbol under :func:`gather`'s contract keyed by
        V.  It keeps one :func:`_plan`: it sorts V, bands h, picks the side
        and groups it once, here, so an apply or adjoint sorts nothing.  The
        map is one fft2 and one :func:`_gather`, and the adjoint one
        :func:`_scatter` and one ifft2."""
        plan = _plan(V.values, symbol_of)
        return cls(
            V.n_log2,
            lambda f: SampledField(V.n_log2, _gather(_fft2(f.samples, norm="forward"), plan)),
            lambda f: SampledField(V.n_log2, _ifft2(_scatter(f.samples, plan))),
            V.values,
            symbol_of,
        )


def linearized_operator(V: LinearizerField, m: MultiplierProfile, beta: float) -> LinearOperatorHandle:
    """The variable-scale operator as a gather of the spectrum keyed by V,
    with the symbol m(V h) weighted by the Pi_beta mask; the adjoint is the
    matching :func:`_scatter`.  Key 0 gives the m(0) symbol."""
    return LinearOperatorHandle.of(V, ScaledSymbol(m, hyperbolic_argument(V.n_log2, beta), pi_beta_mask(beta, V.n_log2).values))


def apply_linearized_bucketed(f: SampledField, V: LinearizerField, m: MultiplierProfile, beta: float) -> SampledField:
    """Fast path: one application of :func:`linearized_operator`."""
    return linearized_operator(V, m, beta).apply(f)


def domination_constant(m: MultiplierProfile, V: LinearizerField) -> float:
    """Max over the distinct values lam of V of the mass of the dyadic-window
    majorant of the one-dimensional kernel of the multiplier xi -> m(lam |xi|).

    Writing k for the inverse transform of the symbol row and Phi for its
    radially non-increasing majorant on the torus, the returned constant C
    satisfies |k * g| <= C * M1 g pointwise for every g and every lam, where
    M1 is the centered dyadic-window maximal operator of :mod:`decomposition`.
    The values lam go through in chunks of N, one (chunk, N) array each, so
    memory stays O(N^2).
    """
    n = V.n
    abs_freq = np.abs(frequencies(V.n_log2)).astype(np.float64)
    dist = np.minimum(np.arange(n), n - np.arange(n))  # torus distance in cells
    half_widths = [1 << q for q in range(V.n_log2)]
    lams = np.maximum(np.unique(V.values), 1e-300)
    best = 0.0
    for start in range(0, lams.size, n):
        kernel = np.abs(np.fft.ifft(m(lams[start : start + n, None] * abs_freq), axis=1, norm="forward"))
        # a_q = per-row sup of |kernel| outside the previous window
        a = [kernel.max(axis=1)] + [kernel[:, dist > h].max(axis=1) for h in half_widths[:-1]] + [0.0]
        c = 0.0
        for q, h in enumerate(half_widths):
            c = c + (a[q] - a[q + 1]) * min(2 * h + 1, n) / n
        best = max(best, float(np.max(c)))
    return best


def write_linearizer(path_prefix: str, V: LinearizerField, params: dict | None = None) -> None:
    """HXF1 payload (real values) plus a JSON sidecar describing the field."""
    write_hxf1(str(path_prefix) + ".hxf1", V.n_log2, V.values.astype(np.complex128))
    meta = {
        "kind": V.regularity.kind,
        "params": dict(params or {}),
        "seed": V.seed,
        "measured_constants": {
            "min": float(V.values.min()),
            "max": float(V.values.max()),
            "adjacent_x": float(_adjacent_max_diff(V.values, axis=0) * V.n),
            "adjacent_y": float(_adjacent_max_diff(V.values, axis=1) * V.n),
        },
    }
    with open(str(path_prefix) + ".json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
