"""Closed-form throughput and stability model for two-stage random access.

Covers the three schemes:

* CRA-2: handshake variant whose data stage has one slot per detected
  preamble, so the session length varies with the detection outcome.
* CRA-1: grant-free variant with a fixed-length spread data stage.
* Multichannel ALOHA: orthogonal-preamble baseline (pool size = preamble
  length).

All functions are pure; rates are in users (or packets) per unit symbol
duration.  The per-K forms (``prob_singleton``, ``prob_unused``,
``mean_detected_split``, ``backlog_drift``) take a numpy array of active
counts as well as a scalar.
"""

import math
import numbers
from dataclasses import dataclass, replace
from math import erfc, sqrt

from .specfun import lambert_w0, poisson_cdf

__all__ = [
    "ProtocolParams",
    "SteadyState",
    "ErrorBoundInputs",
    "prob_singleton",
    "prob_unused",
    "mean_detected_split",
    "steady_state_cra2",
    "throughput_cra1",
    "throughput_maloha",
    "backlog_drift",
    "instability_threshold",
    "detection_error_bounds",
    "support_error_prob",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ProtocolParams:
    """Scalar protocol constants shared by the model and the simulator.

    Lengths are in symbols (unit symbol duration normalized to 1):
    ``preamble_len`` is the Stage-1 length, ``payload_len`` the data-packet
    length, ``feedback_len`` the total feedback duration of a CRA-2 session.
    ``pool_size`` is the number of preambles and ``arrival_rate`` the mean
    number of newly active users per symbol.  ``p_md`` / ``p_fa`` are the
    per-preamble missed-detection and false-alarm probabilities.
    """

    preamble_len: int
    payload_len: int
    pool_size: int
    feedback_len: float
    arrival_rate: float
    p_md: float = 0.0
    p_fa: float = 0.0

    def __post_init__(self):
        for key, least in (("preamble_len", 1), ("payload_len", 1),
                           ("pool_size", 2)):
            if not isinstance(getattr(self, key), numbers.Integral) \
                    or getattr(self, key) < least:
                raise ValueError(f"{key} must be an integer >= {least}")
        # NaN compares False with everything, so test finiteness first
        if not math.isfinite(self.feedback_len) or self.feedback_len < 0:
            raise ValueError("feedback_len must be finite and >= 0")
        if not math.isfinite(self.arrival_rate) or self.arrival_rate < 0:
            raise ValueError("arrival_rate must be finite and >= 0")
        # keeps the Lambert W argument of the CRA-2 fixed point in [-1/e, 0]
        if not (self.p_md >= 0.0 and self.p_fa >= 0.0   # False for NaN
                and self.p_md + self.p_fa <= 1.0):
            raise ValueError(f"need p_md, p_fa >= 0 and p_md + p_fa <= 1, "
                             f"got p_md {self.p_md} and p_fa {self.p_fa}")

    @property
    def overhead_len(self):
        """Stage-1 plus feedback duration of a CRA-2 session."""
        return self.preamble_len + self.feedback_len

    @property
    def txn_len(self):
        """Time to send one preamble plus one unspread packet (N + M)."""
        return self.preamble_len + self.payload_len

    @property
    def traffic_intensity(self):
        """Normalized load: expected arrivals per txn_len."""
        return self.arrival_rate * self.txn_len

    @property
    def fixed_session_len(self):
        """Session length of CRA-1 / multichannel ALOHA (constant)."""
        return self.preamble_len + self.feedback_len / 2.0 \
            + self.preamble_len * self.payload_len

    def with_traffic(self, traffic_intensity):
        """Copy with arrival_rate set from a normalized load value."""
        return replace(self, arrival_rate=traffic_intensity / self.txn_len)


@dataclass(frozen=True)
class SteadyState:
    """Solved CRA-2 operating point."""

    mean_active: float
    mean_detected: float
    throughput: float
    mean_session_len: float


@dataclass(frozen=True)
class ErrorBoundInputs:
    """Per-user effective SNRs (linear P|h|^2 / N0) for the ML error bounds.

    ``active_snrs`` covers the K active users; ``virtual_snrs`` the assumed
    receive SNRs of the pool_size - K untransmitted preambles.
    """

    active_snrs: tuple
    virtual_snrs: tuple
    pool_size: int

    def __post_init__(self):
        k = len(self.active_snrs)
        if not 1 <= k < self.pool_size:
            raise ValueError("need 1 <= len(active_snrs) < pool_size")
        if not self.virtual_snrs:
            raise ValueError("virtual_snrs must be nonempty")
        # NaN compares False with everything, so test finiteness first
        if not all(math.isfinite(s) and s >= 0
                   for s in self.active_snrs + self.virtual_snrs):
            raise ValueError("SNR values must be finite and nonnegative")

    @classmethod
    def power_controlled(cls, snr, active_count, pool_size):
        """All users (real and virtual) at the same receive SNR."""
        return cls(
            active_snrs=(snr,) * active_count,
            virtual_snrs=(snr,) * (pool_size - active_count),
            pool_size=pool_size,
        )


def prob_singleton(n_active, pool_size):
    """Probability a given preamble is chosen by exactly one of K users."""
    # |K - 1| is K - 1 wherever the factor K is nonzero; at K = 0 it keeps
    # a one-preamble pool from raising 0 ** -1
    return n_active / pool_size * (1.0 - 1.0 / pool_size) ** abs(n_active - 1)


def prob_unused(n_active, pool_size):
    """Probability a given preamble is chosen by none of K users."""
    return (1.0 - 1.0 / pool_size) ** n_active


def mean_detected_split(n_active, params):
    """Expected detected-slot counts (singleton, collided, false) given K.

    Singleton and collided preambles survive detection with probability
    1 - p_md each; every unused preamble is falsely detected with
    probability p_fa.
    """
    L = params.pool_size
    a1 = prob_singleton(n_active, L)
    a2 = prob_unused(n_active, L)
    singleton = (1.0 - params.p_md) * L * a1
    collided = (1.0 - params.p_md) * L * (1.0 - a1 - a2)
    false = params.p_fa * L * a2
    return singleton, collided, false


def _fixed_point_coeffs(params):
    """Coefficients (c1, c2) of the CRA-2 mean-load fixed point x = c1 - c2*exp(-x)."""
    lam = params.arrival_rate
    c1 = lam * (params.overhead_len / params.pool_size
                + params.payload_len * (1.0 - params.p_md))
    c2 = lam * params.payload_len * (1.0 - params.p_md - params.p_fa)
    return c1, c2


def steady_state_cra2(params):
    """Full CRA-2 operating point: mean active/detected counts and throughput.

    The operating point is the fixed point under a Poisson active count.  The
    session chain's active count is a Poisson mixture over the previous
    session's length, so by Jensen's inequality its mean active and detected
    counts are upper bounds on the chain's exact stationary means.

    Solves x = c1 - c2*exp(-x) for x = mean_active / pool_size through the
    principal Lambert W branch.  Valid parameters guarantee c1 >= c2 >= 0,
    so the W argument -c2*exp(-c1) lies in [-1/e, 0]; ``lambert_w0`` raises
    ValueError below it or on NaN (coefficients that overflowed).
    """
    c1, c2 = _fixed_point_coeffs(params)
    L = params.pool_size
    mean_active = L * (c1 + lambert_w0(-c2 * math.exp(-c1)))
    unused = math.exp(-mean_active / L)   # e^-x at the mean load x = K / L
    one_m_md = 1.0 - params.p_md
    mean_detected = L * (one_m_md - unused * (one_m_md - params.p_fa))
    mean_len = params.overhead_len + params.payload_len * mean_detected
    throughput = params.arrival_rate * one_m_md * unused
    return SteadyState(
        mean_active=mean_active,
        mean_detected=mean_detected,
        throughput=throughput,
        mean_session_len=mean_len,
    )


def _capped_throughput(params, pool, cap):
    """Throughput of a fixed-length session with b = lambda * length active
    users: a user succeeds when it is detected, no other user picks its
    preamble out of ``pool`` and fewer than ``cap`` pick the others."""
    lam = params.arrival_rate
    b1 = lam * params.fixed_session_len
    cap_prob = poisson_cdf(cap - 1, b1 * (1.0 - 1.0 / pool))
    return lam * (1.0 - params.p_md) * math.exp(-b1 / pool) * cap_prob


def throughput_cra1(params):
    """CRA-1 throughput: multiuser detection fails outright when the
    active count reaches the spreading gain (preamble length)."""
    return _capped_throughput(params, params.pool_size,
                              params.preamble_len - 1)


def throughput_maloha(params):
    """Multichannel ALOHA baseline: pool size equals preamble length and the
    receiver decodes at most preamble_len packets per session."""
    n = params.preamble_len
    return _capped_throughput(params, n, n)


def backlog_drift(n_active, params):
    """Expected one-session change of CRA-2's active count in fast retrial."""
    singleton, collided, false = mean_detected_split(n_active, params)
    lam = params.arrival_rate
    td = params.payload_len
    return (lam * (params.overhead_len + td * (collided + false))
            - (1.0 - lam * td) * singleton)


def instability_threshold(params):
    """Smallest K0 such that backlog_drift(K) > 0 for all K in [K0, 10 L],
    or None if the drift is still nonpositive at 10 L.

    With q = 1 - p_md and r = 1 - 1/L, prob_singleton is K r^(K - 1) / L
    and prob_unused is r^K, so the drift is exactly

        A - r^K (q K / r + B),   A = lambda (N + tau + M q L),
                                 B = lambda M L (q - p_fa) >= 0

    (p_md + p_fa <= 1).  It tends to A > 0, so a finite threshold exists
    for arrival_rate > 0.  The K-derivative of r^K (q K / r + B) is
    r^K (q / r + (q K / r + B) ln r): positive below K* = -1/ln r - B r / q
    and negative above it.  So the drift falls up to K* and rises after it,
    and K* < L - 1/2, as -1/ln(1 - x) < 1/x - 1/2.  The K with drift <= 0
    thus form one run around K*, and the drift's least integer value is at
    floor(K*) or floor(K*) + 1.  If both drifts are positive, K0 = 0.
    Otherwise the drift is nondecreasing from floor(K*) + 1 on, and K0 is
    found by bisection above the nonpositive one of the two (the upper if
    both are): at most 3 + ceil(log2(10 L)) scalar drift calls in all.  K*
    is taken as 0 at q = 0, where the drift is constant, and where it is
    negative or NaN (B overflowed).
    """
    L = int(params.pool_size)
    k_max = 10 * L
    if backlog_drift(k_max, params) <= 0:
        return None
    q = 1.0 - params.p_md
    k_star = 0.0
    if q > 0.0:
        b = params.arrival_rate * params.payload_len * L * (q - params.p_fa)
        k_star = -1.0 / math.log1p(-1.0 / L) - b * (1.0 - 1.0 / L) / q
    k = int(k_star) if k_star > 0.0 else 0   # False for NaN
    if backlog_drift(k + 1, params) <= 0:
        lo = k + 1
    elif backlog_drift(k, params) <= 0:
        lo = k
    else:
        return 0
    hi = k_max   # drift(lo) <= 0 < drift(hi), nondecreasing on [k + 1, hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if backlog_drift(mid, params) <= 0:
            lo = mid
        else:
            hi = mid
    return hi


def detection_error_bounds(inputs):
    """Union bounds on (p_md, p_fa) for pairwise-optimal ML preamble detection.

    Each pairwise error is a Gaussian tail Q(sqrt(snr/2)); the bounds are
    the means over active users (missed detection) and virtual users
    (false alarm).  Each term is ``qfunc``'s own arithmetic, summed in the
    same order, without a call per SNR, so the bounds are bit-identical to
    summing ``qfunc`` calls.  The 0.5 stays on each term: halving a sum of
    subnormal terms rounds differently from summing their halves.
    """
    md = sum([0.5 * erfc(sqrt(s / 2.0) / _SQRT2) for s in inputs.active_snrs])
    fa = sum([0.5 * erfc(sqrt(s / 2.0) / _SQRT2) for s in inputs.virtual_snrs])
    return md / len(inputs.active_snrs), fa / len(inputs.virtual_snrs)


def support_error_prob(pool_size, eps):
    """Probability the detected preamble set differs from the true one when
    every preamble independently errs with probability eps."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must be in [0, 1]")
    return 1.0 - math.exp(-pool_size * eps)
