"""Session-level Monte Carlo engine for CRA-1, CRA-2 and multichannel ALOHA.

Each session draws the number of newly active users, lets every active user
pick a preamble uniformly at random, applies independent per-preamble
missed-detection / false-alarm coin flips, and books successes from detected
singleton preambles.  Two operating modes: ``drop`` (unsuccessful users
leave) and ``fast_retrial`` (they re-enter the next session with a fresh
preamble draw), which is CRA-2's alone: a CRA-1 or ALOHA walk would only
measure how soon it got stuck above the cap, serving no one.

``estimate_throughput`` takes one of three paths, chosen from the scheme
and the mode:

- CRA-1 and multichannel ALOHA sessions in drop mode are i.i.d.: their
  length is fixed, so every session's active count is Poisson with the same
  mean and nothing carries over.  ``_iid_sessions`` draws them in blocks of
  vector operations.
- CRA-2 in drop mode is a chain: a session's arrival mean mu is the arrival
  rate times the previous session's length.  Its K ~ Poisson(mu) users pick
  preambles uniformly, so by Poisson splitting each preamble independently
  holds Poisson(mu / L) users and is detected with one probability s.
  Since s depends on the previous detected count D alone,
  ``_cra2_sessions`` takes a session's detected count D' ~ Bin(L, s(D))
  from a pool of pre-drawn variates kept for state D (the random-mapping
  construction, exact in law) and, after the loop, draws its successes
  given that count as Bin(D', theta), at a cost that grows with neither K
  nor L; it records mu in place of K.
- CRA-2 in fast retrial (whose backlog carries over) walks the session
  chain in one loop, ``_walk``, which ``simulate_stability`` also runs.
  Per session it makes one scalar Poisson draw of K and one
  ``stage1_outcome`` call, which draws the K users' per-preamble counts as
  one Multinomial(K; 1/L, ..., 1/L), at O(L) cost whatever K is; the
  K - successes users it leaves are the next session's backlog.  The tests
  pin the walk down through degenerate runs that force the active count,
  and run it in drop mode as the conditional-on-K reference for
  ``_cra2_sessions``.

Each scheme's ``_session_rule`` gives every path its session length, and
``_iid_sessions`` its success cap.  Every path returns (successes, active,
detected) arrays and allocates 24 bytes per session before the first draw
(the successes of ``_cra2_sessions``, 8 more, come from its one vector
draw after the loop), so a run too long to allocate fails at once (``cra``
prints one ``error:`` line) instead of growing until memory runs out.  The
variate pools of ``_cra2_sessions`` hold at most ``_POOL_STATES`` states of
at most ``_POOL_CHUNK`` variates each, and its theta temporaries at most
``_THETA_BLOCK`` sessions, whatever the run length and L.  A pool whose
per-preamble arrays (``_iid_sessions``, ``stage1_outcome``) cannot be
allocated raises a ValueError that names ``pool_size``.
``estimate_throughput`` alone drops the warm-up sessions and builds the
session lengths.

Each run seeds numpy's default PCG64 bit generator through
``numpy.random.SeedSequence(cfg.seed)``, so a fixed (seed, config) pair
reproduces its stream bit-exactly.  A sweep hashes each task's seed from
(replicate seed, grid index, the scheme's place in ``Scheme``) with
``cli.derive_seed``, so its tasks may run in any process and in any order.
"""

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .analytic import ProtocolParams

# Sessions per block of the i.i.d. path are chosen so that a block's
# (session, preamble) occupancy array holds about this many counts, which
# bounds its memory whatever n_sessions is.
_BLOCK_CELLS = 1 << 20

# Largest pool and largest mean active count per session that a config may
# ask for: the samplers take both as int64, and numpy's Poisson sampler
# refuses means above 2^63 - 1 - 10 * sqrt(2^63 - 1), about 9.2e18.  A
# fast-retrial backlog may still grow past the mean; the walk stops with an
# error once a session's active count does.
_MAX_POOL_SIZE = np.iinfo(np.int64).max
_MAX_MEAN_ACTIVE = 2.0 ** 62

# CRA-2 drop-mode chain: the variates of Bin(L, s(D)) that one refill of a
# state's pool draws, and the number of states that may hold pools before
# all are emptied.  Together they bound the pools at _POOL_STATES *
# _POOL_CHUNK Python ints (under 1 MB) whatever L is.  theta is computed in
# blocks of _THETA_BLOCK sessions, so its temporaries take a few MB at most.
_POOL_CHUNK = 16
_POOL_STATES = 1024
_THETA_BLOCK = _BLOCK_CELLS // 4

# Contiguous batches of the batch-means standard error; a run that measures
# fewer sessions takes one batch per session.
_BATCHES = 30

__all__ = [
    "Scheme",
    "Mode",
    "SimConfig",
    "ThroughputEstimate",
    "stage1_outcome",
    "estimate_throughput",
    "simulate_stability",
]


class Scheme(enum.Enum):
    CRA1 = "cra1"
    CRA2 = "cra2"
    MC_ALOHA = "maloha"


class Mode(enum.Enum):
    DROP = "drop"
    FAST_RETRIAL = "fast_retrial"


def _session_rule(scheme, params):
    """(base, per_detected, cap): a session lasts base + per_detected * D
    symbols, D its detected count, and books its detected singletons only
    while K <= cap.  CRA-2 sends one packet per detected preamble; CRA-1's
    multiuser detection fails once K reaches the spreading gain N, and
    ALOHA's N orthogonal channels decode nothing once K passes N."""
    if scheme is Scheme.CRA2:
        return params.overhead_len, params.payload_len, math.inf
    n = params.preamble_len
    cap = n - 1 if scheme is Scheme.CRA1 else n
    return params.fixed_session_len, 0, cap


def _startup_detected(params):
    """A neutral detected count for the session before the first; warm-up
    makes the choice immaterial."""
    L, rate = params.pool_size, params.arrival_rate
    return round(L * (1.0 - math.exp(-rate * params.txn_len / L)))


@dataclass(frozen=True)
class SimConfig:
    params: ProtocolParams
    scheme: Scheme = Scheme.CRA2
    mode: Mode = Mode.DROP
    n_sessions: int = 100_000
    warmup_sessions: int = 1_000
    seed: int = 0

    def __post_init__(self):
        if self.mode is Mode.FAST_RETRIAL and self.scheme is not Scheme.CRA2:
            raise ValueError(
                "mode fast_retrial needs scheme cra2: above its cap a CRA-1 "
                "or ALOHA session serves no one")
        if self.n_sessions < 1:
            raise ValueError("n_sessions must be >= 1")
        if not 0 <= self.warmup_sessions < self.n_sessions:
            raise ValueError("need 0 <= warmup_sessions < n_sessions")
        p = self.params
        if p.pool_size > _MAX_POOL_SIZE:
            raise ValueError("pool_size must be at most 2**63 - 1")
        if self.scheme is Scheme.MC_ALOHA and p.pool_size != p.preamble_len:
            # orthogonal baseline: one channel per preamble
            p = replace(p, pool_size=p.preamble_len)
            object.__setattr__(self, "params", p)
        # a session is longest when all L preambles are detected
        base, per_detected, _ = _session_rule(self.scheme, p)
        longest = base + per_detected * float(p.pool_size)
        if p.arrival_rate * longest > _MAX_MEAN_ACTIVE:
            raise ValueError(
                f"arrival_rate {p.arrival_rate:.3g} (traffic "
                f"{p.traffic_intensity:.3g}) is too large: a session may "
                f"average {p.arrival_rate * longest:.3g} active users, "
                f"above 2**62")


@dataclass(frozen=True)
class ThroughputEstimate:
    """Ratio estimator sum(successes)/sum(session length) with batch-means
    standard error; ``detected_std_error`` is the batch-means standard error
    of ``mean_detected``.  For CRA-2 in drop mode ``mean_active`` is the mean
    of each session's arrival mean lambda * (previous session length), which
    is E[K | past]: unbiased for E[K], with a lower variance than the mean of
    drawn counts."""

    mean_throughput: float
    std_error: float
    sessions_run: int
    mean_active: float
    mean_detected: float
    mean_session_len: float
    detected_std_error: float


def stage1_outcome(n_active, params, rng):
    """One preamble round: occupancy counts and detection outcome given K.

    Returns (singleton, collided, detected_singleton, detected_collided,
    false_slots).  The per-preamble counts of K uniform picks are drawn as
    one Multinomial(K; 1/L, ..., 1/L), the classical occupancy law, and the
    free and singleton preambles are counted in O(L) time and memory
    whatever K is.
    """
    L = params.pool_size
    try:
        counts = rng.multinomial(n_active, np.full(L, 1.0 / L))
    except MemoryError as exc:
        raise _pool_too_large(L, exc) from None
    # only preambles with fewer than two users are binned, so the bins
    # stay two whatever K is
    free, singleton = np.bincount(counts[counts < 2], minlength=2).tolist()
    collided = L - free - singleton

    p_det = 1.0 - params.p_md
    d1 = rng.binomial(singleton, p_det) if singleton else 0
    d2 = rng.binomial(collided, p_det) if collided else 0
    d3 = rng.binomial(free, params.p_fa) if (free and params.p_fa > 0.0) else 0
    return singleton, collided, int(d1), int(d2), int(d3)


def _pool_too_large(L, exc):
    """The error of a session whose per-preamble arrays cannot be allocated;
    CRA-2 in drop mode needs none and takes any pool SimConfig accepts."""
    return ValueError(f"pool_size {L} is too large: its per-preamble arrays "
                      f"do not fit in memory ({exc})")


def _walk(cfg, horizon, backlog=0, stop_backlog=None):
    """Walk CRA-2's sequential session chain for up to ``horizon`` sessions,
    drawing each session's K and then its occupancy counts given K: fast
    retrial, ``simulate_stability``, and the conditional-on-K reference that
    the tests hold ``_cra2_sessions`` to.

    Session t+1's arrival mean is the arrival rate times session t's length,
    N + tau + M D.  Each session books its detected singletons, and in fast
    retrial session t+1 adds the K - successes users session t left.
    ``backlog`` holds the users waiting before the first session.  The walk
    stops early once the backlog after a session exceeds ``stop_backlog``,
    and raises ValueError once a session's active count exceeds 2**62, near
    the int64 limit of the samplers and of the session arrays.

    Returns the (successes, active, detected) arrays of the sessions run.
    """
    p = cfg.params
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    poisson = rng.poisson
    rate = p.arrival_rate
    base, per_detected, _ = _session_rule(Scheme.CRA2, p)
    retrial = cfg.mode is Mode.FAST_RETRIAL
    detected = _startup_detected(p)
    succ_out = np.empty(horizon, dtype=np.int64)
    active_out = np.empty(horizon, dtype=np.int64)
    detected_out = np.empty(horizon, dtype=np.int64)
    run = horizon
    for t in range(horizon):
        k = int(poisson(rate * (base + per_detected * detected))) + backlog
        if k > _MAX_MEAN_ACTIVE:
            raise ValueError(
                f"arrival_rate {rate:.3g} (traffic "
                f"{p.traffic_intensity:.3g}) is too large: session {t} has "
                f"{k:.3g} active users, above 2**62")
        _, _, d1, d2, d3 = stage1_outcome(k, p, rng)
        detected = d1 + d2 + d3
        backlog = k - d1 if retrial else 0
        succ_out[t] = d1
        active_out[t] = k
        detected_out[t] = detected
        if stop_backlog is not None and backlog > stop_backlog:
            run = t + 1
            break
    return succ_out[:run], active_out[:run], detected_out[:run]


def _iid_sessions(cfg, total):
    """Run ``total`` i.i.d. sessions of a fixed-length scheme (CRA-1, ALOHA)
    in drop mode; returns their (successes, active, detected) arrays, as
    ``_walk`` does.

    The run's arrays are allocated before the first draw, then filled in
    blocks: one Poisson draw of every session's active count, one draw of
    all picks, and one ``bincount`` over (session, preamble) cells that
    yields each session's singleton and occupied counts; the detection coin
    flips are three vector binomial draws.
    """
    p = cfg.params
    L = p.pool_size
    length, _, cap = _session_rule(cfg.scheme, p)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    out = np.empty((3, total), dtype=np.int64)
    block = max(1, _BLOCK_CELLS // L)
    keep = 1.0 - p.p_md
    for start in range(0, total, block):
        b = min(block, total - start)
        active = rng.poisson(p.arrival_rate * length, size=b)
        cells = rng.integers(0, L, size=int(active.sum()))
        cells += np.repeat(np.arange(0, b * L, L), active)
        try:
            counts = np.bincount(cells, minlength=b * L).reshape(b, L)
        except MemoryError as exc:
            raise _pool_too_large(L, exc) from None
        singleton = np.count_nonzero(counts == 1, axis=1)
        occupied = np.count_nonzero(counts, axis=1)
        d1 = rng.binomial(singleton, keep)
        d2 = rng.binomial(occupied - singleton, keep)
        d3 = rng.binomial(L - occupied, p.p_fa)
        out[:, start:start + b] = d1 * (active <= cap), active, d1 + d2 + d3
    return tuple(out)


def _cra2_sessions(cfg, total):
    """Run ``total`` CRA-2 drop-mode sessions; returns their (successes,
    active, detected) arrays, as ``_walk`` does, except that ``active`` holds
    each session's arrival mean mu = lambda * (previous session length).

    With m = mu / L, a preamble holds no user with probability e^-m and one
    with m e^-m, independently of the others.  It is detected with
    probability s = q (1 - e^-m) + e^-m p_fa (q = 1 - p_md), so a session's
    detected count is D' ~ Bin(L, s), and given D' its successes (detected
    singletons) are Bin(D', theta) with theta = q m e^-m / s.

    mu, and so s, depends on the previous detected count D alone, so the
    loop only looks D up and takes the next variate of Bin(L, s(D)) from
    that state's pool: a state's first visit draws one scalar, its second
    and later visits refill its pool ``_POOL_CHUNK`` variates at a time
    with one vector draw.  A state's variates are i.i.d. and independent of
    every other state's, so using each once on successive visits is the
    random-mapping construction of the chain (Levin, Peres & Wilmer,
    *Markov Chains and Mixing Times*, 2009, section 1.2) and its law is
    exact.  Once ``_POOL_STATES`` states hold pools, all pools are emptied;
    that too is exact, because unused variates are independent of the path
    drawn so far, and it bounds the pooled memory whatever L is.  After the
    loop, mu, s and theta follow from the recorded path by vector
    operations, and one vector draw gives every session's successes.  The
    active, detected and theta arrays (24 bytes per session) are allocated
    before the first draw; the vector draw returns the successes (8 more).
    """
    p = cfg.params
    L = p.pool_size
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    binomial = rng.binomial
    rate = p.arrival_rate
    overhead, payload, _ = _session_rule(Scheme.CRA2, p)
    keep, p_fa = 1.0 - p.p_md, p.p_fa
    active_out = np.empty(total)
    detected_out = np.empty(total, dtype=np.int64)
    theta = np.empty(total)
    # active_out holds each session's previous detected count until the
    # loop ends, then its arrival mean
    detected = _startup_detected(p)
    active_out[0] = detected
    pools = {}
    pool_of = pools.get
    for t in range(total):
        pool = pool_of(detected)
        if pool:
            detected = pool.pop()
        else:
            m = rate * (overhead + payload * detected) / L
            # a convex combination of q and p_fa: in [0, 1] with no clamp
            s = math.exp(-m) * p_fa - keep * math.expm1(-m)
            if pool is None:
                if len(pools) >= _POOL_STATES:
                    pools.clear()
                pools[detected] = []
                detected = binomial(L, s)
            else:
                pool += binomial(L, s, _POOL_CHUNK).tolist()
                detected = pool.pop()
        detected_out[t] = detected
    active_out[1:] = detected_out[:-1]
    active_out *= payload
    active_out += overhead
    active_out *= rate
    for start in range(0, total, _THETA_BLOCK):
        m = active_out[start:start + _THETA_BLOCK] / L
        p0 = np.exp(-m)
        s = p0 * p_fa - keep * np.expm1(-m)
        block = theta[start:start + _THETA_BLOCK]
        # where s is 0 nothing is detected and theta is immaterial: 0
        block.fill(0.0)
        np.divide(keep * m * p0, s, out=block, where=s > 0.0)
    # q m e^-m / s may round above 1 as m -> 0
    np.minimum(theta, 1.0, out=theta)
    return binomial(detected_out, theta), active_out, detected_out


def _ratio_estimate(succ, lengths, active, detected):
    """Ratio estimator sum(succ)/sum(lengths) over the measured sessions,
    with the standard error of the means of min(_BATCHES, n) contiguous
    batch ratios; the mean detected count gets the standard error of its
    means over the same batches."""
    n = succ.size
    n_batches = min(_BATCHES, n)
    edges = [round(i * n / n_batches) for i in range(n_batches)]
    sizes = np.diff([*edges, n])
    rates = np.add.reduceat(succ, edges) / np.add.reduceat(lengths, edges)
    det_means = np.add.reduceat(detected, edges) / sizes

    def batch_se(means):
        return float(means.std(ddof=1) / math.sqrt(n_batches)) \
            if n_batches > 1 else 0.0

    tot_time = float(lengths.sum())
    return ThroughputEstimate(
        mean_throughput=int(succ.sum()) / tot_time,
        std_error=batch_se(rates),
        sessions_run=n,
        mean_active=float(active.sum()) / n,
        mean_detected=int(detected.sum()) / n,
        mean_session_len=tot_time / n,
        detected_std_error=batch_se(det_means),
    )


def estimate_throughput(cfg):
    """Warm up, then measure: ratio estimator over the measured sessions
    with a batch-means standard error over min(30, n) batches.

    In drop mode CRA-1 and ALOHA take the block path for i.i.d. sessions
    and CRA-2 its chain of pooled Bin(L, s(D)) transitions; CRA-2's fast
    retrial walks the session chain with one occupancy draw per session.
    Session lengths follow the scheme's rule from the detected counts.
    """
    total = cfg.warmup_sessions + cfg.n_sessions
    if cfg.mode is Mode.FAST_RETRIAL:
        sessions = _walk(cfg, total)
    elif cfg.scheme is Scheme.CRA2:
        sessions = _cra2_sessions(cfg, total)
    else:
        sessions = _iid_sessions(cfg, total)
    succ, active, detected = (x[cfg.warmup_sessions:] for x in sessions)
    base, per_detected, _ = _session_rule(cfg.scheme, cfg.params)
    lengths = base + per_detected * detected
    return _ratio_estimate(succ, lengths, active, detected)


def simulate_stability(cfg, horizon, initial_backlog=0, stop_backlog=None):
    """Backlog trajectory Z(t) = active(t) - successes(t) under fast
    retrial; no packets are dropped.

    Stops early once the backlog exceeds ``stop_backlog`` (trajectory is
    truncated there), which keeps diverging runs cheap.  ``horizon`` sets the
    number of sessions; ``cfg.n_sessions`` is not used.
    """
    if cfg.mode is not Mode.FAST_RETRIAL:
        raise ValueError("simulate_stability requires fast_retrial mode")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if initial_backlog < 0:
        raise ValueError("initial_backlog must be >= 0")
    if initial_backlog > _MAX_MEAN_ACTIVE:
        raise ValueError("initial_backlog must be at most 2**62")
    if stop_backlog is not None and stop_backlog < 0:
        raise ValueError("stop_backlog must be >= 0 or None")
    succ, active, _ = _walk(cfg, horizon, initial_backlog, stop_backlog)
    return active - succ
