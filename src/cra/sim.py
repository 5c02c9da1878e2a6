"""Session-level Monte Carlo engine for CRA-1, CRA-2 and multichannel ALOHA.

Each session draws the number of newly active users, lets every active user
pick a preamble uniformly at random, applies independent per-preamble
missed-detection / false-alarm coin flips, and books successes from detected
singleton preambles.  Two operating modes: ``drop`` (unsuccessful users
leave) and ``fast_retrial`` (they re-enter the next session with a fresh
preamble draw).

A session with fewer than 30 active users per preamble draws one pick per
user and counts them; a heavier one (a deep fast-retrial backlog) draws its
per-preamble counts as one multinomial, which has the same law and costs
O(L) instead of O(K).

CRA-1 and multichannel ALOHA sessions in drop mode are i.i.d.: their length
is fixed, so every session's active count is Poisson with the same mean and
nothing carries over.  ``estimate_throughput`` draws those sessions in
blocks of vector operations.  CRA-2 (whose arrivals depend on the previous
session's length) and every scheme in fast retrial (whose backlog carries
over) walk the sequential ``SessionChain``, which is also the per-session
reference path the tests pin down.

Randomness comes from numpy's default PCG64 bit generator seeded through
``numpy.random.SeedSequence``; replicas parallelize by spawning child seeds,
and a fixed (seed, config) pair reproduces the trace stream bit-exactly.
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

# A session with at least this many active users per preamble draws its
# occupancy counts with one multinomial instead of one pick per user.  Each
# of the multinomial's binomial steps then has n*p >= 30, where numpy
# switches to the BTPE sampler, whose cost does not grow with n: the draw
# costs O(L) whatever K is.  Lighter sessions keep one pick per user, so
# their random stream (every drop-mode sweep) is unchanged.
_HEAVY_USERS_PER_PREAMBLE = 30

__all__ = [
    "Scheme",
    "Mode",
    "SimConfig",
    "SessionTrace",
    "ThroughputEstimate",
    "stage1_outcome",
    "run_session",
    "SessionChain",
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


@dataclass(frozen=True)
class SimConfig:
    params: ProtocolParams
    scheme: Scheme = Scheme.CRA2
    mode: Mode = Mode.DROP
    n_sessions: int = 100_000
    warmup_sessions: int = 1_000
    seed: int = 0

    def __post_init__(self):
        if self.n_sessions < 1:
            raise ValueError("n_sessions must be >= 1")
        if not 0 <= self.warmup_sessions < self.n_sessions:
            raise ValueError("need 0 <= warmup_sessions < n_sessions")
        if self.scheme is Scheme.MC_ALOHA \
                and self.params.pool_size != self.params.preamble_len:
            # orthogonal baseline: one channel per preamble
            object.__setattr__(
                self, "params",
                replace(self.params, pool_size=self.params.preamble_len))


@dataclass
class SessionTrace:
    """Realized random outcome of one session."""

    index: int
    active: int            # K
    occupied: int          # preambles chosen by >= 1 user
    singleton: int         # preambles chosen by exactly 1 user
    collided: int          # preambles chosen by >= 2 users
    detected_singleton: int
    detected_collided: int
    false_slots: int
    detected_total: int
    session_len: float
    successes: int
    backlog: int = 0       # fast-retrial mode only


@dataclass(frozen=True)
class ThroughputEstimate:
    """Ratio estimator sum(successes)/sum(session length) with batch-means
    standard error."""

    mean_throughput: float
    std_error: float
    sessions_run: int
    total_time: float
    mean_active: float
    mean_detected: float
    mean_session_len: float


def stage1_outcome(n_active, params, rng, picks=None):
    """One preamble round: occupancy counts and detection outcome given K.

    Returns (singleton, collided, detected_singleton, detected_collided,
    false_slots).  ``picks`` overrides the uniform preamble choices (used by
    tests to force collision patterns).

    The per-preamble counts are drawn one of two ways, with the same law.  A
    session with fewer than ``_HEAVY_USERS_PER_PREAMBLE`` (30) users per
    preamble draws one uniform pick per user and counts them with
    ``bincount``; a heavier one draws the counts directly as one
    Multinomial(K; 1/L, ..., 1/L), whose cost does not grow with K.
    """
    L = params.pool_size
    if picks is not None:
        picks = np.asarray(picks, dtype=np.int64)
        if picks.size != n_active:
            raise ValueError("picks must have one entry per active user")
        counts = np.bincount(picks, minlength=L)
    elif n_active >= _HEAVY_USERS_PER_PREAMBLE * L:
        counts = rng.multinomial(n_active, np.full(L, 1.0 / L))
    else:
        counts = np.bincount(rng.integers(0, L, size=n_active), minlength=L)
    occupied = int(np.count_nonzero(counts))
    singleton = int(np.count_nonzero(counts == 1))
    collided = occupied - singleton

    p_det = 1.0 - params.p_md
    d1 = rng.binomial(singleton, p_det) if singleton else 0
    d2 = rng.binomial(collided, p_det) if collided else 0
    free = L - occupied
    d3 = rng.binomial(free, params.p_fa) if (free and params.p_fa > 0.0) else 0
    return singleton, collided, int(d1), int(d2), int(d3)


def _capped_successes(scheme, n_active, detected_singleton, params):
    """Successes of a fixed-length CRA-1 / multichannel-ALOHA session.

    CRA-1's multiuser detection of the spread packets fails outright once the
    active count reaches the spreading gain (K <= N - 1 succeeds); ALOHA's
    orthogonal channels decode at most N packets (K <= N).  Works on scalars
    and on arrays of sessions alike.
    """
    cap = params.preamble_len - 1 if scheme is Scheme.CRA1 \
        else params.preamble_len
    return detected_singleton * (n_active <= cap)


def run_session(cfg, rng, index, prev_len, backlog=0, forced_active=None,
                picks=None):
    """Run one session and return its trace.

    ``prev_len`` is the previous session length (sets the Poisson arrival
    mean); ``backlog`` holds fast-retrial re-entries.  ``forced_active`` and
    ``picks`` pin the randomness down for unit tests.
    """
    p = cfg.params
    if forced_active is not None:
        n_active = forced_active
    else:
        n_active = int(rng.poisson(p.arrival_rate * prev_len)) + backlog

    singleton, collided, d1, d2, d3 = stage1_outcome(n_active, p, rng, picks)
    detected = d1 + d2 + d3

    if cfg.scheme is Scheme.CRA2:
        session_len = p.overhead_len + p.payload_len * detected
        successes = d1
    else:
        session_len = p.fixed_session_len
        successes = _capped_successes(cfg.scheme, n_active, d1, p)

    new_backlog = n_active - d1 if cfg.mode is Mode.FAST_RETRIAL else 0
    return SessionTrace(
        index=index,
        active=n_active,
        occupied=singleton + collided,
        singleton=singleton,
        collided=collided,
        detected_singleton=d1,
        detected_collided=d2,
        false_slots=d3,
        detected_total=detected,
        session_len=session_len,
        successes=successes,
        backlog=new_backlog,
    )


class SessionChain:
    """Sequential session iterator; session t+1's arrivals depend on the
    length of session t (CRA-2) and on the backlog (fast retrial)."""

    def __init__(self, cfg, initial_backlog=0):
        self.cfg = cfg
        self.rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
        p = cfg.params
        if cfg.scheme is Scheme.CRA2:
            # neutral bootstrap; warmup makes the choice immaterial
            expected_slots = round(
                p.pool_size
                * (1.0 - math.exp(-p.arrival_rate * p.txn_len / p.pool_size)))
            self.prev_len = p.overhead_len + p.payload_len * expected_slots
        else:
            self.prev_len = p.fixed_session_len
        self.backlog = initial_backlog
        self.index = 0

    def next_session(self):
        trace = run_session(self.cfg, self.rng, self.index, self.prev_len,
                            self.backlog)
        self.prev_len = trace.session_len
        self.backlog = trace.backlog
        self.index += 1
        return trace


def _chain_sessions(cfg):
    """(successes, length, active, detected) of each measured session of the
    sequential session chain, after its warm-up."""
    chain = SessionChain(cfg)
    for _ in range(cfg.warmup_sessions):
        chain.next_session()
    n = cfg.n_sessions
    succ = np.empty(n, dtype=np.int64)
    lengths = np.empty(n)
    active = np.empty(n, dtype=np.int64)
    detected = np.empty(n, dtype=np.int64)
    for i in range(n):
        tr = chain.next_session()
        succ[i] = tr.successes
        lengths[i] = tr.session_len
        active[i] = tr.active
        detected[i] = tr.detected_total
    return succ, lengths, active, detected


def _iid_sessions(cfg):
    """(successes, length, active, detected) of each measured session of an
    i.i.d. fixed-length scheme (CRA-1, ALOHA) in drop mode.

    The warm-up and measured sessions are drawn in blocks: one Poisson draw
    of every session's active count, one draw of all picks, and one
    ``bincount`` over (session, preamble) cells that yields each session's
    singleton and occupied counts; the detection coin flips are three vector
    binomial draws.
    """
    p = cfg.params
    L = p.pool_size
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    total = cfg.warmup_sessions + cfg.n_sessions
    block = max(1, _BLOCK_CELLS // L)
    keep = 1.0 - p.p_md
    parts = []
    for start in range(0, total, block):
        b = min(block, total - start)
        active = rng.poisson(p.arrival_rate * p.fixed_session_len, size=b)
        cells = rng.integers(0, L, size=int(active.sum()))
        cells += np.repeat(np.arange(0, b * L, L), active)
        counts = np.bincount(cells, minlength=b * L).reshape(b, L)
        singleton = np.count_nonzero(counts == 1, axis=1)
        occupied = np.count_nonzero(counts, axis=1)
        d1 = rng.binomial(singleton, keep)
        d2 = rng.binomial(occupied - singleton, keep)
        d3 = rng.binomial(L - occupied, p.p_fa)
        parts.append((_capped_successes(cfg.scheme, active, d1, p), active,
                      d1 + d2 + d3))
    succ, active, detected = (np.concatenate(x)[cfg.warmup_sessions:]
                              for x in zip(*parts))
    lengths = np.full(cfg.n_sessions, p.fixed_session_len)
    return succ, lengths, active, detected


def _ratio_estimate(succ, lengths, active, detected, min_batches):
    """Ratio estimator sum(succ)/sum(lengths) over the measured sessions,
    with the standard error of the means of min(min_batches, n) contiguous
    batch ratios."""
    n = succ.size
    n_batches = min(min_batches, n)
    edges = [round(i * n / n_batches) for i in range(n_batches)]
    rates = np.add.reduceat(succ, edges) / np.add.reduceat(lengths, edges)
    se = float(rates.std(ddof=1) / math.sqrt(rates.size)) if rates.size > 1 else 0.0
    tot_time = float(lengths.sum())
    return ThroughputEstimate(
        mean_throughput=int(succ.sum()) / tot_time,
        std_error=se,
        sessions_run=n,
        total_time=tot_time,
        mean_active=int(active.sum()) / n,
        mean_detected=int(detected.sum()) / n,
        mean_session_len=tot_time / n,
    )


def estimate_throughput(cfg, min_batches=30):
    """Warm up, then measure: ratio estimator over the measured sessions
    with a batch-means standard error (>= min_batches batches).

    CRA-1 and ALOHA in drop mode take the block path for i.i.d. sessions;
    the other configurations walk the session chain.
    """
    if cfg.mode is Mode.DROP and cfg.scheme is not Scheme.CRA2:
        sessions = _iid_sessions(cfg)
    else:
        sessions = _chain_sessions(cfg)
    return _ratio_estimate(*sessions, min_batches)


def simulate_stability(cfg, horizon, initial_backlog=0, stop_backlog=None):
    """Backlog trajectory Z(t) = active(t) - detected_singleton(t) under
    fast retrial; no packets are dropped.

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
    if stop_backlog is not None and stop_backlog < 0:
        raise ValueError("stop_backlog must be >= 0 or None")
    chain = SessionChain(cfg, initial_backlog=initial_backlog)
    traj = []
    for _ in range(horizon):
        tr = chain.next_session()
        traj.append(tr.backlog)
        if stop_backlog is not None and tr.backlog > stop_backlog:
            break
    return np.asarray(traj, dtype=np.int64)
