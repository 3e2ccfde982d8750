"""Gaussian noise calibration for (epsilon, delta) differential privacy.

The central object is the decreasing function

    g(u) = Phi(1/(2u) - eps*u) - exp(eps) * Phi(-1/(2u) - eps*u),   u > 0,

whose value at u = sigma/Delta decides whether isotropic Gaussian noise of
scale sigma makes a query of L2 sensitivity Delta (eps, delta)-DP: the
mechanism is private iff g(sigma/Delta) <= delta. The minimal admissible
scale is sigma = u_star * Delta with u_star the smallest root of
g(u) <= delta; it exists and is unique for every eps >= 0 and
delta in (0, 1) because g decreases strictly from 1 to 0.

For large eps*u both terms of g are tiny and nearly equal, so g is always
evaluated in log space (log of the Gaussian CDF from the standard library's
complementary error function) and combined with expm1; this keeps full
relative accuracy up to eps = 40 and beyond. At eps = 0 the two terms are
both near log(1/2) and the difference cancels, so g uses its closed form
erf(1/(2*sqrt(2)*u)) there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import require

_SQRT2 = math.sqrt(2.0)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# below this t, Phi(t) nears the subnormal range and log Phi uses its
# asymptotic series instead of erfc; from there on, the series' tenth term
# is below 1e-22 and every later one smaller still
_LOG_PHI_SERIES_BELOW = -37.0
_LOG_PHI_SERIES_TERMS = 10

# bisection safety limits; unreachable in practice because g is monotone
_MAX_BRACKET_STEPS = 2000
_MAX_BISECT_STEPS = 500
# relative width of the final bisection bracket
_TOL = 1e-12


def _require_epsilon(epsilon: float) -> None:
    """Raise ValueError unless `epsilon` is finite and >= 0: the domain of
    a `PrivacyParams` epsilon, and of every mechanism's but laplacian's and
    mahalanobis' (see `mechanisms.check_epsilon`)."""
    if not (epsilon >= 0.0 and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy level: epsilon >= 0, delta in (0, 1)."""

    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        _require_epsilon(self.epsilon)
        require("delta", self.delta)


@dataclass(frozen=True)
class CalibrationResult:
    """Minimal noise multiplier and the per-component scales it induces."""

    u_star: float
    sigma_per_component: np.ndarray  # sigma_i = u_star * Delta_i


def _log_phi(t: float) -> float:
    """log Phi(t) to full relative precision for every finite t.

    Above 0 it is log1p of minus the upper tail; down to -37 the log of the
    lower tail from erfc; below that the asymptotic expansion
    log Phi(t) = -t^2/2 - log(-t) - log(2 pi)/2 + log(1 - 1/t^2 + 3/t^4 - ...).
    """
    if t > 0.0:
        return math.log1p(-0.5 * math.erfc(t / _SQRT2))
    if t > _LOG_PHI_SERIES_BELOW:
        return math.log(0.5 * math.erfc(-t / _SQRT2))
    inv_t2 = 1.0 / (t * t)
    total = term = 1.0
    for k in range(1, _LOG_PHI_SERIES_TERMS):
        term *= -(2 * k - 1) * inv_t2
        total += term
    return -0.5 * t * t - math.log(-t) - _HALF_LOG_2PI + math.log(total)


def g(u: float, epsilon: float) -> float:
    """The DP condition function; strictly decreasing in u with
    g(0+) = 1 and g(inf) = 0.

    Evaluated as exp(a) * (1 - exp(b - a)) with a, b the log terms, which
    survives the catastrophic cancellation of the direct difference when the
    two terms converge in the tail. At epsilon = 0, where a and b both near
    log(1/2) and b - a cancels, it is the exact erf(1/(2 sqrt(2) u)).
    """
    if not u > 0.0:
        raise ValueError(f"u must be > 0, got {u}")
    if epsilon < 0.0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if epsilon == 0.0:
        return math.erf(1.0 / (2.0 * _SQRT2 * u))
    half = 1.0 / (2.0 * u)
    a = _log_phi(half - epsilon * u)
    b = epsilon + _log_phi(-half - epsilon * u)
    if b >= a:
        return 0.0
    return math.exp(a) * -math.expm1(b - a)


def solve_u_star(params: PrivacyParams) -> float:
    """Smallest u > 0 with g(u) <= delta, by bracketed bisection.

    The bracket is grown geometrically from u = 1 and then bisected to a
    relative width of `_TOL`; monotonicity of g makes this unconditionally
    convergent. The returned value satisfies g(u) <= delta for the float
    evaluation of g, not always for the exact g: at small epsilon the two
    log terms of g nearly cancel, and the exact g(u*) can exceed delta by a
    small relative amount. mpmath at 60 digits gives 1.1e-6 at epsilon 1e-8,
    delta 1e-12, and 4.6e-10 at epsilon 1e-4, delta 1e-12; at epsilon 0.01
    and 1 the exact g(u*) is below delta. ROADMAP item 2 plans the fix.
    """
    eps, delta = params.epsilon, params.delta
    lo = hi = 1.0
    steps = 0
    if g(1.0, eps) <= delta:
        while g(lo, eps) <= delta:
            hi = lo
            lo *= 0.5
            steps += 1
            if steps > _MAX_BRACKET_STEPS:
                raise ArithmeticError("failed to bracket u_star from below")
    else:
        while g(hi, eps) > delta:
            lo = hi
            hi *= 2.0
            steps += 1
            if steps > _MAX_BRACKET_STEPS:
                raise ArithmeticError("failed to bracket u_star from above")
    # invariant: g(lo) > delta >= g(hi)
    steps = 0
    while hi - lo > _TOL * hi:
        mid = 0.5 * (lo + hi)
        if g(mid, eps) <= delta:
            hi = mid
        else:
            lo = mid
        steps += 1
        if steps > _MAX_BISECT_STEPS:
            raise ArithmeticError("bisection for u_star did not converge")
    return hi


def classic_sigma_formula(epsilon: float, delta: float, Delta: float) -> float:
    """Closed-form scale Delta * sqrt(2*log(1.25/delta)) / epsilon for any
    finite epsilon > 0, which its callers check first.

    It guarantees (epsilon, delta)-DP only for epsilon in (0, 1), the range
    `mechanisms.check_epsilon` decides; the mechanisms evaluate it
    outside that range only for protocol sweeps, and then report the run as
    not proven, and `nadp calibrate` reports no classic sigma there.
    """
    require("delta", delta)
    if Delta < 0.0:
        raise ValueError(f"sensitivity must be >= 0, got {Delta}")
    return Delta * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


def calibrate_components(
    local_sensitivities: np.ndarray, params: PrivacyParams
) -> CalibrationResult:
    """Per-component noise scales sigma_i = u_star * Delta_i."""
    u_star = solve_u_star(params)
    deltas = np.asarray(local_sensitivities, dtype=np.float64)
    if np.any(deltas < 0.0):
        raise ValueError("local sensitivities must be >= 0")
    return CalibrationResult(u_star=u_star, sigma_per_component=u_star * deltas)
