"""Scalar special functions used by the closed-form throughput model.

All functions are pure scalar wrappers of scipy and the math module: they
take and return Python floats and are safe to call from any number of
threads.

Only the closed forms need scipy, and importing ``scipy.special`` takes
about 0.4 s and 18 MB, so it is imported at the first call that needs it,
not when the package loads: the simulator and the signal lab never pay for
it.  The first call binds the two scipy functions to module globals, so
every call after it costs one ``is None`` check.  Concurrent first calls
are safe: the import system lets one thread run the import while the others
wait, and each binds the same functions.
"""

import math

__all__ = ["lambert_w0", "poisson_cdf", "qfunc"]

# branch point of the principal Lambert W branch
_INV_E = 1.0 / math.e

_DOMAIN_SLACK = 1e-12

# scipy.special.lambertw and gammaincc, bound by _load_scipy at first use
_lambertw = None
_gammaincc = None


def _load_scipy():
    global _lambertw, _gammaincc
    from scipy import special
    _gammaincc = special.gammaincc
    _lambertw = special.lambertw


def lambert_w0(y):
    """Principal branch W0 of the Lambert W function for real y >= -1/e.

    Solves w * exp(w) = y with w >= -1.  Arguments slightly below -1/e
    (within 1e-12) are clamped to the branch point; anything lower, and NaN,
    raises ValueError, which callers use as the signal that no real steady
    state exists.

    Evaluates scipy's principal branch (Corless et al., "On the Lambert W
    function", 1996).  The branch point itself is answered here: scipy
    returns NaN at exactly -1/e.
    """
    if not y >= -_INV_E - _DOMAIN_SLACK:   # also true for NaN
        raise ValueError(f"lambert_w0: argument {y} outside [-1/e, inf)")
    if y <= -_INV_E:
        return -1.0
    if _lambertw is None:
        _load_scipy()
    return float(_lambertw(y).real)


def poisson_cdf(n, mu):
    """Pr(X <= n) for X ~ Poisson(mu); 0 for n < 0, since X >= 0.

    Evaluated through the regularized upper incomplete gamma function,
    which is stable for mu well beyond 1e4 (no term-by-term overflow).
    """
    if mu < 0:
        raise ValueError("poisson_cdf: mu must be nonnegative")
    if n < 0:
        return 0.0
    if _gammaincc is None:
        _load_scipy()
    # Pr(X <= n) = Gamma(n+1, mu) / n! = gammaincc(n+1, mu)
    return float(_gammaincc(n + 1, mu))


def qfunc(x):
    """Gaussian tail probability Q(x) = Pr(Z > x) for standard normal Z."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))
