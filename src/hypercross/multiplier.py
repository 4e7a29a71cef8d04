"""One-variable multiplier profiles and two-dimensional hyperbolic symbols.

A profile is the even ramp :class:`MultiplierProfile`: 1 on |t| <= eps, a
degree-11 smoothstep transition whose first five derivatives vanish at the
knots, and 0 from the support radius on.  It is C^5, and since the
transition is a polynomial its derivatives are exact.
:meth:`MultiplierProfile.derivative` is the only code that evaluates them:
the smoothness-constant scan, the small-variation term and the kernel psi2
of the scale decomposition all call it.  Bump profiles squeeze between the
indicators of (-eps, eps) and (-2 eps, 2 eps); a plateau profile is
``MultiplierProfile(flat_radius, support_radius)`` itself, for any finite
support radius above the flat radius.

The two-dimensional symbol of a profile at dilation lam is
m(lam * |xi| * |eta|**beta); :func:`hyperbolic_argument` builds the argument
grid |xi| * |eta|**beta for every symbol of the package.  This is the one
argument convention: the scale-decomposition module, which puts the exponent
on the first variable, works with the transpose of this grid.

|k|**beta has a value unless k = 0 and beta < 0; the one predicate
``_defined`` says so, and the power, the symbol and the Pi_beta mask are
each written from it, 0 where it is false.

The argument grid, its transpose and the Pi_beta mask depend on (n_log2,
beta) alone: a memo keyed by (n_log2, float(beta)) keeps the last 8 of
each, read-only, each grid with its stable order by value, from which
:mod:`hypercross.linearized` cuts its bands.  At N = 256 a grid entry holds
at most 1 MiB and a mask 0.5 MiB: 12 MiB in all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import _grid_array, _Memo, frequencies

# Degree-11 smoothstep: S(0)=0, S(1)=1, S', .., S^(5) vanish at both knots.
# Evaluated as x**6 * poly(x) on [0, 1/2] and by the symmetry S = 1 - S(1-x)
# above 1/2, so values never leave [0, 1] through roundoff.
# row k: the coefficients of S^(k)(x) / x**(6-k), k = 0..6
_SMOOTHSTEP_DERIVATIVE_POLYS = [[c * math.perm(j + 6, k) for j, c in enumerate((462.0, -1980.0, 3465.0, -3080.0, 1386.0, -252.0))] for k in range(7)]


def _smoothstep_lower(x, k: int = 0):
    """S^(k)(x) = x**(6-k) * poly_k(x); accurate on [0, 1/2], nonnegative for
    k = 0.  Horner's rule, in place."""
    acc = np.zeros_like(x)
    for c in reversed(_SMOOTHSTEP_DERIVATIVE_POLYS[k]):
        acc *= x
        acc += c
    acc *= x ** (6 - k)
    return acc


def smoothstep(u):
    """Monotone C^5 ramp from 0 at u<=0 to 1 at u>=1."""
    u = np.asarray(u, dtype=np.float64)
    x = np.clip(u, 0.0, 1.0)
    near = _smoothstep_lower(np.minimum(x, 1.0 - x))  # x up to 1/2, 1 - x above (exact there)
    return np.where(x <= 0.5, near, 1.0 - near)


@dataclass(frozen=True)
class MultiplierProfile:
    """Even C^5 profile: 1 on |t| <= epsilon, 1 - smoothstep((|t| - epsilon) / w)
    on the transition band, w = support_radius - epsilon, and 0 from
    support_radius on.

    The smoothstep polynomial runs only on the band epsilon < |t| < stop and
    on NaN, which it maps to NaN.  From stop = nextafter(epsilon + w, inf) up,
    (|t| - epsilon) / w >= 1 under any rounding, so the value there is
    exactly 0, as the closed form gives.
    """

    epsilon: float
    support_radius: float

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon < self.support_radius < math.inf):
            raise ValueError(f"need 0 < epsilon < support_radius < inf, got {self.epsilon}, {self.support_radius}")
        width = self.support_radius - self.epsilon
        object.__setattr__(self, "_width", width)
        object.__setattr__(self, "_stop", float(np.nextafter(self.epsilon + width, math.inf)))

    def __call__(self, t):
        a = np.abs(np.asarray(t, dtype=np.float64))
        flat_part = a <= self.epsilon
        out = np.asarray(flat_part, dtype=np.float64)
        band = ~flat_part & ~(a >= self._stop)
        out[band] = 1.0 - smoothstep((a[band] - self.epsilon) / self._width)
        return out

    def derivative(self, t, k: int):
        """Exact k-th derivative, 1 <= k <= 6: -sign(t)**k * S^(k)(u) / w**k
        on the transition band, u = (|t| - epsilon) / w, and exactly 0
        elsewhere and from u = 1 on, where S^(6) has a nonzero left limit.

        S^(k) is evaluated like the ramp: x**(6-k) * poly_k(x) at x = u up
        to u = 1/2, and above by the symmetry S^(k)(u) = (-1)**(k+1)
        S^(k)(1 - u).  It divides by w k times, so no power of w overflows
        or underflows on its own: the result is finite wherever the exact
        value is (up to rounding at the ends of the float range), and beyond
        that range it is the inf of the exact sign."""
        if k not in range(1, 7):
            raise ValueError(f"derivative order must be 1 .. 6, got {k}")
        t = np.asarray(t, dtype=np.float64)
        a = np.abs(t)
        out = np.zeros_like(a)
        band = ~(a <= self.epsilon) & ~(a >= self._stop)
        u = (a[band] - self.epsilon) / self._width
        near = _smoothstep_lower(np.minimum(u, 1.0 - u), k)  # u up to 1/2, 1 - u above (exact there)
        value = -np.sign(t[band]) ** k * np.where(u >= 1.0, 0.0, np.where(u <= 0.5, near, (-1) ** (k + 1) * near))
        for _ in range(k):
            value /= self._width
        out[band] = value
        return out


def make_bump_profile(eps: float) -> MultiplierProfile:
    """Even C^5 profile with 1 on [-eps, eps], 0 outside (-2 eps, 2 eps)."""
    if not (0.0 < eps <= 1.0 and math.frexp(eps)[0] == 0.5):
        raise ValueError(f"eps must be 2**-i for integer i >= 0, got {eps}")
    return MultiplierProfile(eps, 2.0 * eps)


def smoothness_constant(m: MultiplierProfile) -> float:
    """sum_{i<=3} sup_t |t^i m^(i)(t)| with exact derivatives, the sup taken
    over an equispaced scan of 2**16 + 1 points on [-2R, 2R], R =
    support_radius.

    The sum depends only on epsilon / R, so the scan runs on the profile with
    both radii divided by the power of two that puts R in [1, 2).  That
    scaling is exact, so A keeps the bits of a scan at the given radii
    wherever that scan has no overflowed or subnormal intermediate, and every
    term stays finite (|t| <= 4, transition width >= 2**-52).  ValueError
    when epsilon / R is so small that the scaled epsilon underflows to 0."""
    shift = math.frexp(m.support_radius)[1] - 1
    epsilon = math.ldexp(m.epsilon, -shift)
    if epsilon == 0.0:
        raise ValueError(f"epsilon / support_radius = {m.epsilon} / {m.support_radius} is below the float range of the derivative scan")
    scaled = MultiplierProfile(epsilon, math.ldexp(m.support_radius, -shift))
    t = np.linspace(-2.0 * scaled.support_radius, 2.0 * scaled.support_radius, (1 << 16) + 1)
    terms = (scaled(t), t * scaled.derivative(t, 1), t * t * scaled.derivative(t, 2), t * t * t * scaled.derivative(t, 3))
    return sum(float(np.abs(term).max()) for term in terms)


@dataclass(frozen=True)
class SymbolGrid:
    """Real multiplier values over the integer frequency grid (FFT order)."""

    n_log2: int
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _grid_array(self.n_log2, self.values, np.float64))


def _defined(freq: np.ndarray, beta: float) -> np.ndarray:
    """Where |k|**beta has a value on integer frequencies: every k for
    beta >= 0 (|0|**0 = 1), only k != 0 for beta < 0."""
    return (freq != 0) | (beta >= 0.0)


def _abs_power(freq: np.ndarray, beta: float) -> np.ndarray:
    """|k|**beta on integer frequencies where :func:`_defined`, and a 0
    placeholder at k = 0 for beta < 0 (callers weight it away)."""
    a = np.abs(freq).astype(np.float64)
    return np.power(a, beta, out=np.zeros_like(a), where=_defined(freq, beta))


def _argument(n_log2: int, beta: float, transposed: bool) -> tuple[np.ndarray, np.ndarray]:
    """The read-only argument grid, or its transpose, and its stable order
    by value."""
    if transposed:
        grid = hyperbolic_argument(n_log2, beta).T
    else:
        freqs = frequencies(n_log2)
        with np.errstate(over="ignore", invalid="ignore"):  # beta = inf: 0 * inf is NaN
            grid = np.abs(freqs).astype(np.float64)[:, None] * _abs_power(freqs, beta)[None, :]
        if not np.all(np.isfinite(grid)):
            raise ValueError(f"|xi| |eta|**beta overflows at beta = {beta} on the N = {freqs.size} grid")
        grid.flags.writeable = False
    order = np.argsort(grid, axis=None, kind="stable")
    order.flags.writeable = False
    return grid, order


_ARGUMENTS = _Memo(_argument, 8)


def hyperbolic_argument(n_log2: int, beta: float) -> np.ndarray:
    """|xi| * |eta|**beta on the frequency grid (FFT order), read-only and
    memoized; |k|**beta follows :func:`_abs_power`.  ValueError where an
    argument overflows: at beta = inf, and where the largest, (N/2)**(1 +
    beta), passes the largest float (from beta of about 1024 / (n_log2 - 1)
    - 1 on)."""
    return _ARGUMENTS(n_log2, float(beta), False)[0]


def _transposed_argument(n_log2: int, beta: float) -> np.ndarray:
    """|xi|**beta * |eta|, the transpose of :func:`hyperbolic_argument`,
    memoized with an order of its own."""
    return _ARGUMENTS(n_log2, float(beta), True)[0]


def _argument_order(hyper: np.ndarray) -> np.ndarray | None:
    """The order of a memoized argument grid, found by identity; None for
    any other array."""
    for grid, order in _ARGUMENTS.entries.values():
        if grid is hyper:
            return order
    return None


def hyperbolic_symbol(lam: float, beta: float, m: MultiplierProfile, n_log2: int) -> SymbolGrid:
    """Symbol m(lam * |xi| * |eta|**beta) where |eta|**beta is :func:`_defined`,
    and 0 on the rest: the line eta = 0 for beta < 0, which always lies
    outside the matching truncation mask."""
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be positive and finite, got {lam}")
    return SymbolGrid(n_log2, m(lam * hyperbolic_argument(n_log2, beta)) * _defined(frequencies(n_log2), beta))


def _pi_beta_mask(n_log2: int, beta: float) -> SymbolGrid:
    eta = frequencies(n_log2)
    keep = _defined(eta, beta) & (_abs_power(eta, beta) <= 1.0)
    return SymbolGrid(n_log2, np.broadcast_to(keep, (eta.size, eta.size)).astype(np.float64))


_MASKS = _Memo(_pi_beta_mask, 8)


def pi_beta_mask(beta: float, n_log2: int) -> SymbolGrid:
    """Indicator of Pi_beta = {|eta|**beta <= 1} on the frequency grid, the
    eta where |eta|**beta is defined (:func:`_defined`) and at most 1;
    memoized.

    beta > 0 keeps |eta| <= 1 (the eta = 0 line included), beta < 0 keeps
    |eta| >= 1 (eta = 0 dropped), beta = 0 keeps everything.
    """
    return _MASKS(n_log2, float(beta))
