"""One-variable multiplier profiles and two-dimensional hyperbolic symbols.

Profiles are compactly supported, even, C^3-or-better functions of one real
variable.  Bump profiles squeeze between the indicators of (-eps, eps) and
(-2 eps, 2 eps) using a degree-11 smoothstep transition whose first five
derivatives vanish at the knots, so all smoothness-constant scans see a C^5
function.  The two-dimensional symbol of a profile at dilation lam is
m(lam * |xi| * |eta|**beta); :func:`hyperbolic_argument` builds the argument
grid |xi| * |eta|**beta for every symbol of the package.  This is the one
argument convention: the scale-decomposition module, which puts the exponent
on the first variable, works with the transpose of this grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import _grid_array, frequencies, frequency_grids

# Degree-11 smoothstep: S(0)=0, S(1)=1, S', .., S^(5) vanish at both knots.
# Evaluated as x**6 * poly(x) on [0, 1/2] and by the symmetry S = 1 - S(1-x)
# above 1/2, so values never leave [0, 1] through roundoff.
_SMOOTHSTEP_POLY = (462.0, -1980.0, 3465.0, -3080.0, 1386.0, -252.0)


def _smoothstep_lower(x):
    """x**6 * poly(x); accurate and nonnegative on [0, 1/2]."""
    acc = np.zeros_like(x)
    for c in reversed(_SMOOTHSTEP_POLY):
        acc = acc * x + c
    return x**6 * acc


def smoothstep(u):
    """Monotone C^5 ramp from 0 at u<=0 to 1 at u>=1."""
    u = np.asarray(u, dtype=np.float64)
    x = np.clip(u, 0.0, 1.0)
    near = _smoothstep_lower(np.minimum(x, 1.0 - x))  # x up to 1/2, 1 - x above (exact there)
    return np.where(x <= 0.5, near, 1.0 - near)


def smoothstep_d2(u):
    """Second derivative of :func:`smoothstep` (zero outside (0, 1))."""
    u = np.asarray(u, dtype=np.float64)

    def d2_lower(x):
        acc = np.zeros_like(x)
        for k, c in reversed(list(enumerate(_SMOOTHSTEP_POLY))):
            p = k + 6
            acc = acc * x + c * p * (p - 1)
        return x**4 * acc

    x = np.clip(u, 0.0, 1.0)
    low = d2_lower(np.minimum(x, 0.5))
    high = -d2_lower(np.minimum(1.0 - x, 0.5))  # S'' is odd about 1/2
    out = np.where(x <= 0.5, low, high)
    return np.where((u <= 0.0) | (u >= 1.0), 0.0, out)


@dataclass(frozen=True)
class MultiplierProfile:
    """Compactly supported even profile with vectorized evaluation.

    ``evaluate`` accepts scalars or numpy arrays; values vanish for
    ``|t| > support_radius``.  ``epsilon`` is the flat radius where the
    constructor knows it: eps for bump profiles and flat_radius for plateau
    profiles.  :func:`flat_radius` returns it, and ``hypercross normest``
    writes it to the epsilon column.
    """

    support_radius: float
    evaluate: Callable[[np.ndarray], np.ndarray]
    epsilon: float | None = None

    def __call__(self, t):
        return self.evaluate(t)


def _is_dyadic_in_unit(eps: float) -> bool:
    if not (0.0 < eps <= 1.0) or not math.isfinite(eps):
        return False
    mantissa, _ = math.frexp(eps)
    return mantissa == 0.5


def _flat_then_ramp(flat: float, width: float) -> Callable[[np.ndarray], np.ndarray]:
    """t -> 1 on |t| <= flat, else 1 - smoothstep((|t| - flat) / width).

    The polynomial runs only on the transition band flat < |t| < stop and on
    NaN, which it maps to NaN.  From stop = nextafter(flat + width, inf) up,
    (|t| - flat) / width >= 1 under any rounding, so the value there is
    exactly 0, as the closed form gives."""
    stop = float(np.nextafter(flat + width, math.inf))

    def evaluate(t):
        a = np.abs(np.asarray(t, dtype=np.float64))
        flat_part = a <= flat
        out = np.asarray(flat_part, dtype=np.float64)
        band = ~flat_part & ~(a >= stop)
        out[band] = 1.0 - smoothstep((a[band] - flat) / width)
        return out

    return evaluate


def make_bump_profile(eps: float) -> MultiplierProfile:
    """Even C^5 profile with 1 on [-eps, eps], 0 outside (-2 eps, 2 eps)."""
    if not _is_dyadic_in_unit(eps):
        raise ValueError(f"eps must be 2**-i for integer i >= 0, got {eps}")
    return MultiplierProfile(support_radius=2.0 * eps, evaluate=_flat_then_ramp(eps, eps), epsilon=eps)


def make_plateau_profile(flat_radius: float, support_radius: float) -> MultiplierProfile:
    """Even C^5 profile: 1 on [-flat_radius, flat_radius], 0 outside support;
    the support radius must be finite."""
    if not (0.0 < flat_radius < support_radius < math.inf):
        raise ValueError(f"need 0 < flat_radius < support_radius < inf, got {flat_radius}, {support_radius}")
    evaluate = _flat_then_ramp(flat_radius, support_radius - flat_radius)
    return MultiplierProfile(support_radius=support_radius, evaluate=evaluate, epsilon=flat_radius)


def make_custom_profile(func: Callable, support_radius: float, epsilon: float | None = None) -> MultiplierProfile:
    def evaluate(t, _f=func):
        return np.asarray(_f(np.asarray(t, dtype=np.float64)), dtype=np.float64)

    return MultiplierProfile(support_radius=support_radius, evaluate=evaluate, epsilon=epsilon)


def smoothness_constant(m: MultiplierProfile) -> float:
    """sum_{i<=3} sup_t |t^i m^(i)(t)| with central finite differences.

    Derivatives use step h = 2**-16 * support_radius; the sup is taken over an
    equispaced scan of 2**16 + 1 points on [-2R, 2R].
    """
    r = m.support_radius
    h = math.ldexp(r, -16)
    t = np.linspace(-2.0 * r, 2.0 * r, (1 << 16) + 1)
    f0 = m(t)
    fp = m(t + h)
    fm = m(t - h)
    fpp = m(t + 2 * h)
    fmm = m(t - 2 * h)
    d1 = (fp - fm) / (2 * h)
    d2 = (fp - 2 * f0 + fm) / (h * h)
    d3 = (fpp - 2 * fp + 2 * fm - fmm) / (2 * h**3)
    total = 0.0
    for i, d in enumerate((f0, d1, d2, d3)):
        vals = np.abs(t**i * d)
        if not np.all(np.isfinite(vals)):
            raise ValueError("profile produced non-finite values during the derivative scan")
        total += float(vals.max())
    return total


@dataclass(frozen=True)
class SymbolGrid:
    """Real multiplier values over the integer frequency grid (FFT order)."""

    n_log2: int
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _grid_array(self.n_log2, self.values, np.float64))


def _abs_power(freq: np.ndarray, beta: float) -> np.ndarray:
    """|k|**beta on integer frequencies with the conventions |0|**beta = 0 for
    beta > 0, 1 for beta = 0, and a 0 placeholder for beta < 0 (those entries
    are always masked away by the caller)."""
    a = np.abs(freq).astype(np.float64)
    if beta == 0.0:
        return np.ones_like(a)
    if beta > 0.0:
        return a**beta
    out = np.zeros_like(a)
    nz = a > 0
    out[nz] = a[nz] ** beta
    return out


def hyperbolic_argument(n_log2: int, beta: float) -> np.ndarray:
    """|xi| * |eta|**beta on the frequency grid (FFT order); |k|**beta follows
    :func:`_abs_power`."""
    freqs = frequencies(n_log2)
    return np.abs(freqs).astype(np.float64)[:, None] * _abs_power(freqs, beta)[None, :]


def hyperbolic_symbol(lam: float, beta: float, m: MultiplierProfile, n_log2: int) -> SymbolGrid:
    """Symbol m(lam * |xi| * |eta|**beta) on the frequency grid.

    For beta < 0 the line eta = 0 gets symbol value 0 (it always lies
    outside the matching truncation mask).
    """
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be positive and finite, got {lam}")
    values = m(lam * hyperbolic_argument(n_log2, beta))
    if beta < 0:
        values = np.where(frequencies(n_log2) == 0, 0.0, values)  # broadcasts over eta
    return SymbolGrid(n_log2, values)


def pi_beta_mask(beta: float, n_log2: int) -> SymbolGrid:
    """Indicator of {|eta|**beta <= 1} on the frequency grid.

    beta > 0 keeps |eta| <= 1 (the eta = 0 line included), beta < 0 keeps
    |eta| >= 1 (eta = 0 dropped), beta = 0 keeps everything.
    """
    _, eta = frequency_grids(n_log2)
    a = np.abs(eta)
    if beta == 0.0:
        keep = np.ones_like(a, dtype=bool)
    elif beta > 0.0:
        keep = a <= 1
    else:
        keep = a >= 1
    return SymbolGrid(n_log2, keep.astype(np.float64))


def flat_radius(m: MultiplierProfile) -> float:
    """Largest r such that m >= 1 - 1e-9 on [0, r] (eps for bump profiles)."""
    if m.epsilon is not None:
        return float(m.epsilon)
    scan = np.linspace(0.0, m.support_radius, 8193)
    vals = m(scan)
    below = np.nonzero(vals < 1.0 - 1e-9)[0]
    if below.size == 0:
        return float(m.support_radius)
    if below[0] == 0:
        raise ValueError("profile has no flat region around 0 (m(0) < 1)")
    return float(scan[below[0] - 1])
