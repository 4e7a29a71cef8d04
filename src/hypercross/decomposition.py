"""Scale decomposition of the variable-scale hyperbolic multiplier.

This module works in the axis convention m(V(x,y) |xi|**beta |eta|), the only
place in the package that puts the exponent on the first variable; its
argument grid is the transpose of the package's |xi| |eta|**beta grid (see
:func:`_hyper_args`).  The dyadic scale family acts on the first variable
through an annulus of log-width 2/|beta| and on the second variable through
one-octave bands.  Continuous dt/t integrals are replaced by dyadic ladders
that form exact partitions of unity on the grid, so the split of the
operator into a principal part (scales where the profile is identically 1)
and an error part (profile-weighted transition scales) is an exact finite
identity rather than a quadrature approximation.

A one-octave window supported in [1,2] admits no smooth dyadic partition of
unity, so the eta-axis window takes the balanced sharp form: 1 strictly
inside the octave and 1/2 at the two endpoints.  In the paper it is the
product phi2_hat * psi2_hat of a frequency window and a kernel psi2 with
compact space support; only that product enters the sums, so the family
stores it as one table, and :func:`psi2_space` keeps the kernel whose
support radius the ratio check samples: psi2 is minus the second derivative
of the profile ``MultiplierProfile(R/2, R)``, R = ``PSI2_SUPPORT_RADIUS``.

The variable-scale terms (lemma, principal, error, small variation) are
calls of the kernel :func:`hypercross.linearized.gather` keyed by V or by
its dyadic rounding vtilde (the rounded scale), with a symbol per key.
The lemma and error symbols are :class:`hypercross.linearized.ScaledSymbol`
values, which the kernel may group by frequency instead of by V; the error
part runs one gather per rounded scale, weighted by that scale's ladder
pairs above the principal cutoff (:func:`_above_symbol`).
The family (:class:`LPFamily`) is two arrays of ladder exponents and
two tables with one row per ladder scale; phi1 is normalized per
frequency at every beta.  The sum over all ladder pairs is the outer
product of the two axis sums.  A sum over part of them (the principal
cutoff, a frozen large-variation window) is one :func:`_pair_sum`, the
product phi1.T @ (mask @ octave), its mask over the (K, L) grid of
t * s**beta; the pairs above a rounded scale's cutoff, which weight the
error and small-variation terms, are the full sum minus that scale's
principal sum.  The small-variation piece takes d/dtau on the symbol by the
profile's exact derivative: one gather per tau node keyed by the rounded
scale, interpolated at V on the nine node ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridMismatchError, SampledField, forward_transform, frequencies
from .linearized import (
    LinearizerField,
    ScaledSymbol,
    dyadic_round_up,
    gather,
)
from .multiplier import (
    MultiplierProfile,
    SymbolGrid,
    _defined,
    hyperbolic_argument,
    smoothstep,
)

PSI2_SUPPORT_RADIUS = 9.0 / 512.0  # < 2**-5 and < 2**-4/3; > one cell at N = 64
# tau nodes of the small-variation integral, as multiples r of the dyadic base vtilde / 8
_SMALL_VARIATION_RATIOS = 2.0 ** (np.arange(9) / 8)


class LadderError(ValueError):
    """The requested scale family cannot be hosted on this grid."""


# ---------------------------------------------------------------------------
# Profile pieces.
# ---------------------------------------------------------------------------

def _phi1_window(u, annulus_exp: float) -> np.ndarray:
    """Window w on the log2 axis supported in (-a, a), a = annulus_exp: the
    ramp smoothstep(u + a) minus the ramp smoothstep(u - (a - 1)).  Its
    dyadic sums are not normalized; :func:`make_lp_family` divides them out
    per frequency."""
    u = np.asarray(u, dtype=np.float64)
    return smoothstep(u + annulus_exp) - smoothstep(u - (annulus_exp - 1.0))


def _octave_product(u: np.ndarray) -> np.ndarray:
    """Balanced sharp octave window: 1 on (1,2), 1/2 at {1,2}, else 0."""
    u = np.asarray(u, dtype=np.float64)
    out = np.zeros_like(u)
    out[(u > 1.0) & (u < 2.0)] = 1.0
    out[(u == 1.0) | (u == 2.0)] = 0.5
    return out


def psi2_space(y):
    """Space samples of psi2 = -b'', b the profile MultiplierProfile(R/2, R),
    R = PSI2_SUPPORT_RADIUS: a mean-zero C^3 kernel supported in (-R, R)."""
    return -MultiplierProfile(PSI2_SUPPORT_RADIUS / 2, PSI2_SUPPORT_RADIUS).derivative(y, 2)


# ---------------------------------------------------------------------------
# The Littlewood-Paley family.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LPFamily:
    """Dyadic ladders and their per-scale one-axis symbol tables.

    Row k of ``phi1`` (K, N) is the xi-axis window at scale s = 2**ks[k];
    row l of ``octave`` (L, N) is the eta-axis window phi2_hat * psi2_hat at
    scale t = 2**ls[l], :func:`_octave_product` of |eta| / t.  Columns
    follow FFT frequency order.
    """

    beta: float
    n_log2: int
    ks: np.ndarray
    ls: np.ndarray
    phi1: np.ndarray
    octave: np.ndarray


def make_lp_family(beta: float, n_log2: int) -> LPFamily:
    """Build the scale family for exponent beta on an N = 2**n_log2 grid.

    The xi-axis annulus has log-radius a = 1/|beta|, and beta = 0 takes
    a = 1; phi1 is the one window :func:`_phi1_window` at every beta,
    divided by its per-frequency total.  At beta = 0 every ladder-pair mask
    depends on t alone, so phi1 enters only through that total, which is 1.
    Tables are row-aligned with ``ks`` and ``ls``.  Raises LadderError when
    the annulus cannot cover the ladder (|beta| >= 2), the grid cannot host
    it, or phi1 would need more than 4N rows (n_log2 + 2 ceil(a) + 2 of
    them: |beta| too small), so phi1 stays within 4 N^2 entries.
    """
    if n_log2 < 3:
        raise LadderError("grid too small to host the annuli")
    a = 1.0 / abs(beta) if beta != 0.0 else 1.0
    if a <= 0.5:
        raise LadderError(f"annulus log-radius {a} <= 1/2: dyadic ladder cannot cover (|beta| >= 2)")
    rows = n_log2 + 2 * np.ceil(a) + 2  # a float, so an infinite a gives inf, not OverflowError
    if not rows <= 4 << n_log2:
        raise LadderError(f"beta = {beta} needs {rows:.0f} phi1 rows, above 4N = {4 << n_log2}")

    abs_freq = np.abs(frequencies(n_log2)).astype(np.float64)
    resolved = abs_freq > 0
    ks = np.arange(-math.ceil(a) - 1, n_log2 + math.ceil(a) + 1)
    ls = np.arange(-1, n_log2)

    log_freq = np.zeros_like(abs_freq)
    np.log2(abs_freq, out=log_freq, where=resolved)
    phi1 = _phi1_window(log_freq - ks[:, None], a)
    phi1[:, ~resolved] = 0.0
    total = phi1.sum(axis=0)
    if np.any(total[resolved] <= 1e-9):
        raise LadderError("xi annulus leaves gaps on the dyadic ladder; cannot normalize")
    phi1[:, resolved] *= 1.0 / total[resolved]

    octave = _octave_product(abs_freq / 2.0 ** ls[:, None])
    return LPFamily(beta, n_log2, ks, ls, phi1, octave)


def _axis_sums(family: LPFamily) -> tuple[np.ndarray, np.ndarray]:
    return family.phi1.sum(axis=0), family.octave.sum(axis=0)


def calderon_residual(f: SampledField, family: LPFamily) -> float:
    """||f - sum_k sum_l P1 P2 P3 f||_2 / ||f||_2 over the dyadic ladders;
    GridMismatchError unless f lives on the family's grid."""
    if f.n_log2 != family.n_log2:
        raise GridMismatchError("field and family grids differ")
    spec = forward_transform(f)
    diff = spec.coeffs * (1.0 - _full_symbol(family))
    denom = math.sqrt(float(np.sum(np.abs(spec.coeffs) ** 2)))
    if denom == 0.0:
        return 0.0
    return math.sqrt(float(np.sum(np.abs(diff) ** 2))) / denom


# ---------------------------------------------------------------------------
# Principal and error parts.
# ---------------------------------------------------------------------------

def _hyper_args(family: LPFamily) -> np.ndarray:
    """|xi|**beta * |eta| on the frequency grid (exponent on the xi axis): the
    transpose of the package's |xi| * |eta|**beta grid, with equal products."""
    return hyperbolic_argument(family.n_log2, family.beta).T


def _pair_sum(family: LPFamily, keep) -> np.ndarray:
    """Sum of the pair symbols phi1_k (x) octave_l over the ladder pairs
    (k, l) whose t_l * s_k**beta satisfies ``keep``, applied elementwise to
    the (K, L) grid of those products: one bilinear product of the tables."""
    kept = keep(2.0 ** family.ls * (2.0 ** family.ks[:, None]) ** family.beta)
    return family.phi1.T @ (kept @ family.octave)


def _below_symbol(family: LPFamily, cutoff: float) -> np.ndarray:
    """Sum of pair symbols over ladder pairs with t * s**beta < cutoff."""
    return _pair_sum(family, lambda ts: ts < cutoff)


def _full_symbol(family: LPFamily) -> np.ndarray:
    w1, g2 = _axis_sums(family)
    return w1[:, None] * g2[None, :]


def _above_symbol(family: LPFamily, m: MultiplierProfile, vt) -> np.ndarray:
    """Sum of pair symbols over the ladder pairs with t * s**beta >=
    m.epsilon / vt, at a rounded scale vt (a (g, 1, 1) stack of them gives
    g symbols): the full sum minus the principal sum below that cutoff."""
    return _full_symbol(family) - _below_symbol(family, m.epsilon / vt)


def _check_positive(V: LinearizerField) -> None:
    if np.any(V.values <= 0):
        raise ValueError("decomposition requires V > 0 on the grid")


def _spectrum_and_scale(f: SampledField, V: LinearizerField, family: LPFamily) -> tuple[np.ndarray, np.ndarray]:
    """What each rounding term starts from: the spectrum of f and the
    rounded scale vtilde of V.  ValueError unless V > 0 (or when vtilde
    would overflow), GridMismatchError unless f lives on the family's grid."""
    _check_positive(V)
    if f.n_log2 != family.n_log2:
        raise GridMismatchError("field and family grids differ")
    return forward_transform(f).coeffs, dyadic_round_up(V.values)


def principal_term(f: SampledField, V: LinearizerField, family: LPFamily, m: MultiplierProfile) -> SampledField:
    """Scale-truncated part: ladder pairs with t < m.epsilon / (vtilde s**beta),
    summed without the profile weight (the weight is identically 1 there).

    vtilde is the pointwise dyadic rounding of V; on those pairs the profile
    argument stays strictly inside the flat region of m.
    """
    spec, vt = _spectrum_and_scale(f, V, family)
    out = gather(spec, vt, lambda c: _below_symbol(family, m.epsilon / c))
    return SampledField(f.n_log2, out)


def error_term(f: SampledField, V: LinearizerField, family: LPFamily, m: MultiplierProfile) -> SampledField:
    """Profile-weighted complement of :func:`principal_term`: for each point,
    the remaining ladder pairs filtered through m(V(x,y) |xi|**beta |eta|)."""
    spec, vt = _spectrum_and_scale(f, V, family)
    hyper = _hyper_args(family)
    out = np.empty(spec.shape, dtype=np.complex128)
    for c in np.unique(vt):
        # one gather per rounded scale c, its symbol weighted by the ladder
        # pairs above c's cutoff; points of other classes, whose outputs are
        # discarded, take the class's smallest V, so the h groups dead on the
        # class are dead on the whole grid
        in_class = vt == c
        keys = np.where(in_class, V.values, V.values[in_class].min())
        piece = gather(spec, keys, ScaledSymbol(m, hyper, _above_symbol(family, m, c)))
        out[in_class] = piece[in_class]
    return SampledField(f.n_log2, out)


def lemma_operator(f: SampledField, V: LinearizerField, m: MultiplierProfile, beta: float) -> SampledField:
    """Direct variable-scale application in this module's axis convention:
    output spectrum m(V(x,y) |xi|**beta |eta|) * f_hat, gathered pointwise.

    The symbol is weighted by where |xi|**beta is defined, so for beta < 0
    the line xi = 0 gets symbol value 0, the limit as xi -> 0 (as in
    :func:`hypercross.multiplier.hyperbolic_symbol`, transposed)."""
    _check_positive(V)
    weight = _defined(frequencies(f.n_log2), beta)[:, None]
    symbol = ScaledSymbol(m, hyperbolic_argument(f.n_log2, beta).T, weight)
    return SampledField(f.n_log2, gather(forward_transform(f).coeffs, V.values, symbol))


def large_variation_symbol(j: int, family: LPFamily, m: MultiplierProfile) -> SymbolGrid:
    """Symbol of the frozen error piece at scale 2**j: ladder pairs with
    1/(2**(j+3) s**beta) <= t <= 1/(2**(j-2) s**beta), weighted by
    m(2**j |xi|**beta |eta|)."""
    lo = math.ldexp(1.0, -(j + 3))
    hi = math.ldexp(1.0, -(j - 2))
    window = _pair_sum(family, lambda ts: (lo <= ts) & (ts <= hi))
    return SymbolGrid(family.n_log2, window * m(math.ldexp(1.0, j) * _hyper_args(family)))


def small_variation_error(f: SampledField, V: LinearizerField, family: LPFamily, m: MultiplierProfile) -> SampledField:
    """Pointwise integral of |d/dtau E_tau f| from the dyadic base of V(x,y)
    up to V(x,y): the trapezoid rule on the 9 nodes tau = r * base, with the
    ratios r = 2**(i/8), i = 0..8, interpolated linearly at u = V / base.
    The base is vtilde / 8, the largest power of two <= V, for vtilde the
    rounded scale of V.

    Node r * base is one gather keyed by vtilde with the symbol
    :func:`_above_symbol` (vtilde) * d/dtau m(tau |xi|**beta |eta|), taken
    exactly as |xi|**beta |eta| * m'(tau |xi|**beta |eta|) (d/dtau commutes
    with the inverse FFT).  Exactly zero wherever V equals its dyadic base,
    hence identically zero for fields taking values in {2**j}.
    """
    spec, vt = _spectrum_and_scale(f, V, family)
    base = vt / 8  # exact: vt is a power of two
    hyper = _hyper_args(family)
    r, dr = _SMALL_VARIATION_RATIOS, np.diff(_SMALL_VARIATION_RATIOS)
    integrand = np.abs([gather(spec, vt, lambda c: _above_symbol(family, m, c) * hyper * m.derivative(c / 8 * ri * hyper, 1)) for ri in r])
    trapezoids = 0.5 * (dr[:, None, None] * base) * (integrand[:-1] + integrand[1:])
    cum = np.concatenate([np.zeros((1,) + base.shape), np.cumsum(trapezoids, axis=0)])
    u = V.values / base  # exact: base is a power of two
    pos = np.clip(np.searchsorted(r, u, side="right") - 1, 0, r.size - 2)
    frac = (u - r[pos]) / dr[pos]
    return SampledField(f.n_log2, np.choose(pos, cum) * (1 - frac) + np.choose(pos + 1, cum) * frac)


def overlap_count(family: LPFamily, m: MultiplierProfile, j_range) -> int:
    """Max over grid frequencies of the number of frozen error symbols that
    are nonzero there."""
    n = 1 << family.n_log2
    counts = np.zeros((n, n), dtype=np.int64)
    for j in j_range:
        counts += large_variation_symbol(j, family, m).values != 0.0
    return int(counts.max())


def representable_j_range(family: LPFamily, m: MultiplierProfile) -> range:
    """j values whose frozen error symbol can meet the grid: the band
    [2**(-j-5), 2**(-j+4)] must intersect the attainable |xi|**beta |eta|."""
    hyper = _hyper_args(family)
    attained = hyper[hyper > 0]
    lo, hi = float(attained.min()), float(attained.max())
    j_min = int(math.floor(-math.log2(hi))) - 4
    j_max = int(math.ceil(-math.log2(lo))) + 5
    return range(j_min, j_max + 1)


# ---------------------------------------------------------------------------
# The ratio check and the first-variable maximal function.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatioCheckReport:
    variant: str
    samples_checked: int
    violations: int
    worst_ratio: float
    witnesses: tuple = ()


def lipschitz_ratio_check(
    V: LinearizerField,
    family: LPFamily,
    beta: float,
    L: float,
    variant: str = "lip",
    n_samples: int = 10_000,
    seed: int = 0,
) -> RatioCheckReport:
    """Sample (x, y, z) triples with |y - z| inside the psi2 support at a
    ladder scale t and verify V(x, z*)/V(x, y*) <= 3/2 whenever the pair
    falls in the regime where the two rounded scales differ.

    variant 'lip' restricts s**beta <= 2/L (the frequency-band regime of the
    one-variable Lipschitz hypothesis); variant 'floor' instead restricts to
    the cone regime s <= 4t.  L enters only the 'lip' regime, and must be
    finite and > 0 (ValueError otherwise).  The larger-scale point goes in the numerator:
    the rounding is monotone, so that point has the larger V and every
    ratio exceeds 1.
    """
    _check_positive(V)
    if variant not in ("lip", "floor"):
        raise ValueError(f"variant must be 'lip' or 'floor', got {variant!r}")
    if not 0.0 < L < math.inf:
        raise ValueError(f"ratio check needs a finite L > 0, got {L}")
    rng = np.random.default_rng(seed)
    n = V.n
    v = V.values
    vt = dyadic_round_up(v)
    t_all = 2.0 ** family.ls
    reach = np.maximum(np.floor(PSI2_SUPPORT_RADIUS / t_all * n - 1e-12).astype(np.int64), 0)
    s_all = 2.0 ** family.ks

    xs = rng.integers(0, n, size=n_samples)
    ys = rng.integers(0, n, size=n_samples)
    # the scales whose kernel support spans a grid step, a prefix of the
    # ladder since reach falls as t grows; the first scale if none does
    picks = rng.integers(0, max(int(np.count_nonzero(reach)), 1), size=n_samples)
    ts = t_all[picks]
    deltas = rng.integers(-reach[picks], reach[picks] + 1)
    zs = (ys + deltas) % n

    vy = vt[xs, ys]
    vz = vt[xs, zs]

    # admissible ladder dilation per sample: the rounded-scale window
    # v_den * s**beta < 1/t <= v_num * s**beta, plus the variant regime
    s_beta = s_all[None, :] ** beta
    window = (ts[:, None] >= 1.0 / (np.maximum(vy, vz)[:, None] * s_beta)) & (
        ts[:, None] < 1.0 / (np.minimum(vy, vz)[:, None] * s_beta)
    )
    if variant == "lip":
        window &= s_beta <= 2.0 / L + 1e-12
    else:
        window &= s_all[None, :] <= 4.0 * ts[:, None]
    idx = np.flatnonzero(window.any(axis=1))  # empty where the two rounded scales agree

    va, vb = v[xs[idx], ys[idx]], v[xs[idx], zs[idx]]
    ratios = np.maximum(va, vb) / np.minimum(va, vb)
    bad = np.flatnonzero(ratios > 1.5 + 1e-12)
    worst = float(ratios.max()) if ratios.size else 1.0
    witnesses = tuple(
        (int(xs[i]), int(ys[i]), int(zs[i]), float(s_all[np.argmax(window[i])]), float(ts[i]), float(r))
        for i, r in zip(idx[bad[:8]], ratios[bad[:8]])
    )
    return RatioCheckReport(variant, int(idx.size), int(bad.size), worst, witnesses)


def hl_maximal_m1(f: SampledField) -> SampledField:
    """Centered Hardy-Littlewood maximal function in the first variable over
    dyadic window half-widths (the point itself included)."""
    mags = np.abs(f.samples)
    n = f.n
    out = mags.copy()
    for q in range(f.n_log2):
        h = 1 << q
        if 2 * h + 1 >= n:
            avg = np.broadcast_to(mags.mean(axis=0, keepdims=True), mags.shape)
        else:
            acc = mags.copy()
            for d in range(1, h + 1):
                acc = acc + np.roll(mags, d, axis=0) + np.roll(mags, -d, axis=0)
            avg = acc / (2 * h + 1)
        out = np.maximum(out, avg)
    return SampledField(f.n_log2, out)
