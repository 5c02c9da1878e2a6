"""Scalar special functions used by the closed-form throughput model.

All functions are pure and operate on Python floats; they are safe to call
from any number of threads.
"""

import math

from scipy import special

__all__ = ["lambert_w0", "poisson_cdf", "qfunc", "INV_E"]

# branch point of the principal Lambert W branch
INV_E = 1.0 / math.e

_DOMAIN_SLACK = 1e-12
_MAX_ITER = 50
_REL_STEP_TOL = 1e-14


def lambert_w0(y):
    """Principal branch W0 of the Lambert W function for real y >= -1/e.

    Solves w * exp(w) = y with w >= -1.  Arguments slightly below -1/e
    (within 1e-12) are clamped to the branch point; anything lower, and NaN,
    raises ValueError, which callers use as the signal that no real steady
    state exists.

    Uses Halley's iteration seeded by a series approximation near the
    branch point and a log-based guess for large arguments.
    """
    if not y >= -INV_E - _DOMAIN_SLACK:   # also true for NaN
        raise ValueError(f"lambert_w0: argument {y} outside [-1/e, inf)")
    y = max(y, -INV_E)

    if y == 0.0:
        return 0.0

    # 1 + e*y -> 0 at the branch point; the series in p = sqrt(2(1 + e*y))
    # is both the seed and the answer very close to it, where Halley's
    # correction degenerates (dw/dy -> inf).
    p2 = 2.0 * (1.0 + math.e * y)
    if p2 <= 0.0:
        return -1.0
    if p2 < 1e-4:
        p = math.sqrt(p2)
        return -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p * p2

    if y < 1.0:
        p = math.sqrt(p2)
        w = -1.0 + p - p * p / 3.0
    else:
        w = math.log(y)
        if w > 1.0:
            w -= math.log(w)

    for _ in range(_MAX_ITER):
        ew = math.exp(w)
        f = w * ew - y
        wp1 = w + 1.0
        # Halley step
        step = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w -= step
        if abs(step) <= _REL_STEP_TOL * max(1.0, abs(w)):
            break
    return w


def poisson_cdf(n, mu):
    """Pr(X <= n) for X ~ Poisson(mu).

    Evaluated through the regularized upper incomplete gamma function,
    which is stable for mu well beyond 1e4 (no term-by-term overflow).
    """
    if n < 0:
        raise ValueError("poisson_cdf: n must be a nonnegative integer")
    if mu < 0:
        raise ValueError("poisson_cdf: mu must be nonnegative")
    if mu == 0.0:
        return 1.0
    # Pr(X <= n) = Gamma(n+1, mu) / n! = gammaincc(n+1, mu)
    return float(special.gammaincc(n + 1, mu))


def qfunc(x):
    """Gaussian tail probability Q(x) = Pr(Z > x) for standard normal Z."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))
