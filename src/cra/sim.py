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
  mean and nothing carries over: they run no warm-up.  By Poisson splitting
  a preamble's users are i.i.d. Poisson(lambda T / L), so ``_iid_sessions``
  draws no picks: one six-way multinomial per session, and its collided
  preambles' users only where its cap can still hold them.
- CRA-2 in drop mode is a chain: a session's arrival mean mu is the arrival
  rate times the previous session's length.  By Poisson splitting its
  detected count is D' ~ Bin(L, s(D)), s depending on the previous detected
  count D alone, so ``_cra2_sessions`` takes D' from a pool of pre-drawn
  variates kept for state D (the random-mapping construction, exact in law)
  and then draws the successes given D' block by block, at a cost that
  grows with neither K nor L.
- CRA-2 in fast retrial (whose backlog carries over) walks the session
  chain in one loop, ``_walk``, which ``simulate_stability`` also runs.
  Per session it takes K's new users from a pool of Poisson variates kept
  for the previous detected count, draws the free and singleton preamble
  counts of the K users' uniform picks exactly (``_occupancy``), and
  thins them by binomial variates from pools kept per count; the tests'
  conditional-on-K reference, ``tests/helpers.stage1_outcome``, draws the
  same law with scalar binomials.  A heavy session, one whose chance of
  any preamble with at most one user is small, takes the union-of-events
  sampler of Karp, Luby & Madras (1989) at O(1) expected cost, its
  uniforms drawn 64 at a time; a light one draws one pick per user, in
  O(L) memory whatever K is.  The K - successes users it leaves are the
  next session's backlog.

Each scheme's ``_session_rule`` gives every path its session length, and
``_iid_sessions`` its pool and success cap: ALOHA's pool is its N channels
whatever ``pool_size`` says.  Each per-session number is held once: a
drop-mode kernel allocates its (successes, detected) arrays, 16 bytes per
session, before its first draw (``_walk`` adds its backlog), and drop
mode reports ``mean_active`` as lambda times the mean session length, E[K]
at stationarity.  ``estimate_throughput`` times each batch from its detected
sum, so nothing else grows with the run and a run too long to allocate
fails at once (``cra`` prints one ``error:`` line).  Each dict of variate
pools (``_refill``) holds at most ``_POOL_STATES`` x ``_POOL_CHUNK``
variates and the theta temporaries of ``_cra2_sessions`` ``_THETA_BLOCK``
sessions, whatever the run length and L.  An occupancy draw of
``_walk`` too large to allocate raises a ValueError naming ``pool_size``.

Each run seeds numpy's default PCG64 bit generator through
``numpy.random.SeedSequence(cfg.seed)``, so a fixed (seed, config) pair
reproduces its stream bit-exactly.  A sweep hashes each task's seed from
(replicate seed, grid index, the scheme's place in ``Scheme``) with
``cli.derive_seed``, so its tasks may run in any process and in any order.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .analytic import ProtocolParams

# A block of the i.i.d. path holds about this many counts: six per session
# plus one per collided preamble it may draw for (at most cap / 2 and L),
# down to one session, whose draws then go this many at a time.
_BLOCK_CELLS = 1 << 20

# Largest pool and largest mean active count per session that a config may
# ask for: the samplers take both as int64, and numpy's Poisson sampler
# refuses means above 2^63 - 1 - 10 * sqrt(2^63 - 1), about 9.2e18.  A
# fast-retrial backlog may still grow past the mean; the walk stops with an
# error once a session's active count does.
_MAX_POOL_SIZE = np.iinfo(np.int64).max
_MAX_MEAN_ACTIVE = 2.0 ** 62

# Variate pools (_refill): the variates that one refill of a key's pool
# draws, and the number of keys that may hold pools before all are
# emptied.  Together they bound each dict of pools at _POOL_STATES *
# _POOL_CHUNK Python ints (under 1 MB) whatever L is.  theta is computed in
# blocks of _THETA_BLOCK sessions, so its temporaries take a few MB at most.
_POOL_CHUNK = 16
_POOL_STATES = 1024
_THETA_BLOCK = _BLOCK_CELLS // 4

# Users per preamble up to which a light _occupancy session (u > 1/2)
# draws one pick per user, so its picks hold at most 15 int64 per preamble;
# a session above it halves its pool.  At this load u = L (1 + K / L)
# e^(-K / L) roughly stays above 1/2 only in pools over about 10^5, so
# smaller pools never halve, and the halves of a larger one soon take the
# O(1) proposal.
_PICK_LOAD = 15

# Contiguous batches of the batch-means standard error; a run that measures
# fewer sessions takes one batch per session.
_BATCHES = 30

__all__ = [
    "Scheme",
    "Mode",
    "SimConfig",
    "ThroughputEstimate",
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
    """(pool, base, per_detected, cap): K users pick among pool preambles,
    the session lasts base + per_detected * D symbols, D its detected count,
    and books its detected singletons only while K <= cap.  CRA-2 sends one
    packet per detected preamble; CRA-1's multiuser detection fails once K
    reaches the spreading gain N, a cap held within int64 (no K reaches
    2^63); ALOHA's pool is its N orthogonal channels, one per preamble
    symbol, which decode nothing once K passes N."""
    L, n = params.pool_size, params.preamble_len
    if scheme is Scheme.CRA2:
        return L, params.overhead_len, params.payload_len, math.inf
    if scheme is Scheme.CRA1:
        return L, params.fixed_session_len, 0, min(n - 1, _MAX_POOL_SIZE)
    return n, params.fixed_session_len, 0, n


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
        if not 0 <= self.warmup_sessions < self.n_sessions:
            raise ValueError(f"need 0 <= warmup_sessions < n_sessions, got "
                             f"{self.warmup_sessions} and {self.n_sessions}")
        p = self.params
        pool, base, per_detected, _ = _session_rule(self.scheme, p)
        if pool > _MAX_POOL_SIZE:   # MC-ALOHA's pool is its N channels
            key = ("preamble_len" if self.scheme is Scheme.MC_ALOHA
                   else "pool_size")
            raise ValueError(f"{key} must be at most 2**63 - 1")
        # a session is longest when all its preambles are detected
        longest = base + per_detected * float(pool)
        if p.arrival_rate * longest > _MAX_MEAN_ACTIVE:
            raise ValueError(
                f"arrival_rate {p.arrival_rate:.3g} (traffic "
                f"{p.traffic_intensity:.3g}) is too large: a session may "
                f"average {p.arrival_rate * longest:.3g} active users, "
                f"above 2**62")

    @property
    def pool_size(self):
        """The pool the scheme draws from: N for MC-ALOHA, else L."""
        return _session_rule(self.scheme, self.params)[0]


@dataclass(frozen=True)
class ThroughputEstimate:
    """Ratio estimator sum(successes)/sum(session length) with batch-means
    standard error; ``detected_std_error`` is the batch-means standard error
    of ``mean_detected``.  In drop mode ``mean_active`` is lambda times
    ``mean_session_len``, unbiased for E[K] = lambda E[length] at
    stationarity, and ``final_backlog`` is None; in fast retrial they are
    the mean of the drawn K and the users the last session left waiting."""

    mean_throughput: float
    std_error: float
    sessions_run: int
    mean_active: float
    mean_detected: float
    mean_session_len: float
    detected_std_error: float
    final_backlog: int | None


def _occupancy(n_active, L, rng):
    """(free, singleton): the numbers of the L preambles that K users, each
    picking one uniformly, leave empty and hold exactly one user.

    A preamble is light, holding at most one user, with probability
    (1 - 1/L)^(K - 1) (L - 1 + K) / L, so u, L times that, bounds the chance
    that any is.  A session with u <= 1/2 takes the union-of-events sampler
    of Karp, Luby & Madras ("Monte-Carlo approximation algorithms for
    enumeration problems", J. Algorithms 10, 1989): with probability u it
    proposes one light preamble, holding one user with probability
    K / (K + L - 1), and the other L - 1 preambles drawn by this function.
    That proposes a session with c light preambles with c times its own
    probability, so keeping it with probability 1 / c, and else taking no
    light preamble, as with probability 1 - u, is exact in law.  A proposal
    recurses with probability u <= 1/2, so the draw costs O(1) on average
    and a chain deeper than 60 has probability below 2^-60.  A lighter
    session draws one pick per user up to ``_PICK_LOAD`` users per
    preamble; above it one binomial splits the users between the two
    halves of the pool, each drawn by this function (at most log2 L deep),
    so memory stays O(L) whatever K is.
    """
    if n_active < 2:
        return L - n_active, n_active
    if L == 1:
        return 0, 0
    u = (L - 1 + n_active) * math.exp((n_active - 1) * math.log1p(-1.0 / L))
    if u <= 0.5:
        if rng.random() >= u:
            return 0, 0
        one = int(rng.random() * (n_active + L - 1) < n_active)
        free, singleton = _occupancy(n_active - one, L - 1, rng)
        keep = rng.random() * (free + singleton + 1) < 1.0
        return (free + 1 - one, singleton + one) if keep else (0, 0)
    if n_active <= _PICK_LOAD * L:
        held = np.bincount(rng.integers(L, size=n_active), minlength=L)
        return tuple(np.bincount(held, minlength=2)[:2].tolist())
    half = L // 2
    k = int(rng.binomial(n_active, half / L))
    f1, s1 = _occupancy(k, half, rng)
    f2, s2 = _occupancy(n_active - k, L - half, rng)
    return f1 + f2, s1 + s2


def _walk(cfg, horizon, backlog=0):
    """Walk CRA-2's fast-retrial session chain for ``horizon`` sessions,
    drawing each session's K and then its occupancy counts given K:
    fast-retrial ``estimate_throughput`` and ``simulate_stability``.

    Session t+1's arrival mean is the arrival rate times session t's length,
    N + tau + M D.  Each session books its detected singletons, and session
    t+1 adds the K - successes users session t left, ``backlog`` before the
    first.  The walk raises ValueError, naming the new users and the backlog
    carried in, once a session's active count exceeds 2**62.

    The scalar draws come from pools (``_refill``), as in
    ``_cra2_sessions``: a session's new users from a pool of Poisson
    variates kept for the detected count D before it, which alone sets
    their mean, its detected singleton and collided counts from pools of
    Bin(n, 1 - p_md) variates and its false alarms from pools of
    Bin(n, p_fa) variates, each kept for the count n thinned (a count of
    0, or p_fa = 0, draws nothing), and the uniforms of ``_occupancy``'s
    proposal from blocks of 64.  Every variate is drawn independently of
    the path and used once, so the law is exact (the random-mapping
    construction).  The pools are freed on return.

    Returns the (successes, detected, backlog) of each session, a session's
    backlog being the users it leaves waiting, as three arrays, so that a
    caller keeping one frees the others (``simulate_stability`` does).
    """
    p = cfg.params
    rng = np.random.default_rng(cfg.seed)
    poisson = rng.poisson
    rate, L = p.arrival_rate, p.pool_size
    _, base, per_detected, _ = _session_rule(Scheme.CRA2, p)
    uniforms = _BlockUniforms(rng)
    detect = _pooled_binomial(rng, 1.0 - p.p_md)
    false_alarm = _pooled_binomial(rng, p.p_fa)
    arrivals = {}
    arrivals_of = arrivals.get
    detected = _startup_detected(p)
    succ_out = np.empty(horizon, dtype=np.int64)
    detected_out = np.empty(horizon, dtype=np.int64)
    backlog_out = np.empty(horizon, dtype=np.int64)
    for t in range(horizon):
        pool = arrivals_of(detected)
        new = pool.pop() if pool else _refill(
            arrivals, detected, poisson,
            rate * (base + per_detected * detected))
        k = new + backlog
        if k > _MAX_MEAN_ACTIVE:
            raise ValueError(
                f"session {t} has {k:.3g} active users, above 2**62: "
                f"{new:.3g} new at arrival_rate {rate:.3g} (traffic "
                f"{p.traffic_intensity:.3g}) plus "
                f"{'initial_backlog' if t == 0 else 'backlog'} {backlog:.3g}")
        try:
            free, singleton = _occupancy(k, L, uniforms)
        except MemoryError as exc:   # the drop-mode paths draw no occupancy
            raise ValueError(f"pool_size {L} is too large: the occupancy "
                             f"draw of {k} users over {L} preambles does "
                             f"not fit in memory ({exc})") from None
        collided = L - free - singleton
        d1 = detect(singleton) if singleton else 0
        d2 = detect(collided) if collided else 0
        d3 = false_alarm(free) if (free and p.p_fa > 0.0) else 0
        detected = d1 + d2 + d3
        backlog = k - d1
        succ_out[t] = d1
        detected_out[t] = detected
        backlog_out[t] = backlog
    return succ_out, detected_out, backlog_out


def _refill(pools, key, draw, *args):
    """The next variate of ``key``'s pool in ``pools``, which is empty:
    ``key``'s first visit draws one scalar, ``draw(*args)``, and a later
    one refills its pool with ``draw(*args, _POOL_CHUNK)``.  Once
    ``_POOL_STATES`` keys hold pools, all are emptied first, which bounds
    the pooled memory and keeps the law exact, unused variates being
    independent of the path drawn so far."""
    pool = pools.get(key)
    if pool is None:
        if len(pools) >= _POOL_STATES:
            pools.clear()
        pools[key] = []
        return draw(*args)
    pool += draw(*args, _POOL_CHUNK).tolist()
    return pool.pop()


def _pooled_binomial(rng, prob):
    """n -> a Bin(n, prob) variate from a pool kept for n (``_refill``)."""
    pools = {}
    pool_of = pools.get
    binomial = rng.binomial

    def draw(n):
        pool = pool_of(n)
        return pool.pop() if pool else _refill(pools, n, binomial, n, prob)
    return draw


class _BlockUniforms:
    """The Generator calls of ``_occupancy``, its scalar ``random()`` taken
    from blocks of 64 uniforms, each drawn by one ``random(64)`` call."""

    def __init__(self, rng):
        self.integers, self.binomial = rng.integers, rng.binomial
        self._random, self._block = rng.random, []

    def random(self):
        if not self._block:
            self._block = self._random(64).tolist()
        return self._block.pop()


def _iid_sessions(cfg, total):
    """Run ``total`` i.i.d. sessions of a fixed-length scheme (CRA-1, ALOHA)
    in drop mode; returns their (successes, detected) arrays.

    A preamble is free, a singleton or collided with probabilities
    p0 = e^-m, p1 = m e^-m and p2 = 1 - p0 - p1 (m = lambda T / L),
    independently of the others, then detected or not: one multinomial
    gives a session's detected and missed singletons, false alarms, quiet
    free, and detected and missed collided preambles.  A session books its
    detected singletons while K <= cap; K adds to them the collided
    preambles' users, each Poisson(m) given >= 2 (``_collided_draw``), so
    only a session with 2 collided <= cap - singletons can book, and only
    it draws them, at most cap / 2: the law stays exact.  The arrays are
    allocated before the first draw, then filled block by block.
    """
    p = cfg.params
    L, length, _, cap = _session_rule(cfg.scheme, p)
    rng = np.random.default_rng(cfg.seed)
    out = np.empty((2, total), dtype=np.int64)
    m = p.arrival_rate * length / L
    p0, p1 = math.exp(-m), m * math.exp(-m)
    p2 = max(-math.expm1(-m) - p1, 0.0)
    keep = 1.0 - p.p_md
    pvals = [p1 * keep, p1 * p.p_md, p0 * p.p_fa, p0 * (1.0 - p.p_fa),
             p2 * keep, p2 * p.p_md]
    draw = _collided_draw(m, rng)
    block = max(1, _BLOCK_CELLS // (6 + min(cap // 2, L)))
    for start in range(0, total, block):
        b = min(block, total - start)
        d1, missed1, d3, _, d2, missed2 = rng.multinomial(L, pvals, b).T
        room = cap - d1 - missed1
        collided = d2 + missed2
        fit = np.flatnonzero(2 * collided <= room)
        need = collided[fit]
        if fit.size == 1:   # a lone session may hold more than a block
            users = sum(int(draw(min(_BLOCK_CELLS, need[0] - i)).sum())
                        for i in range(0, need[0], _BLOCK_CELLS))
        else:
            running = np.concatenate(([0], np.cumsum(draw(int(need.sum())))))
            users = np.diff(running[np.cumsum(need)], prepend=0)
        books = np.zeros(b, dtype=bool)
        books[fit] = users <= room[fit]
        out[:, start:start + b] = d1 * books, d1 + d2 + d3
    return tuple(out)


def _collided_draw(m, rng):
    """A sampler of n i.i.d. Poisson(m) counts given >= 2: below m = 2 by
    inversion on the pmf at 2, 3, ..., normalized by its own sum, since
    1 - e^-m (1 + m) cancels at small m; else by redrawing values < 2."""
    if m < 2.0:
        terms = [1.0]
        while terms[-1] > 2.0 ** -64:
            terms.append(terms[-1] * m / (len(terms) + 2))
        cdf = np.cumsum(terms)
        cdf /= cdf[-1]
        return lambda n: np.searchsorted(cdf, rng.random(n), "right") + 2

    def draw(n):
        counts = rng.poisson(m, n)
        while (low := np.flatnonzero(counts < 2)).size:
            counts[low] = rng.poisson(m, low.size)
        return counts
    return draw


def _cra2_sessions(cfg, total):
    """Run ``total`` CRA-2 drop-mode sessions; returns their (successes,
    detected) arrays.

    With m = mu / L, mu = lambda * (previous session length), a preamble
    holds no user with probability e^-m and one with m e^-m, independently
    of the others.  It is detected with probability s = q (1 - e^-m) +
    e^-m p_fa (q = 1 - p_md), so a session's detected count is
    D' ~ Bin(L, s), and given D' its successes (detected singletons) are
    Bin(D', theta) with theta = q m e^-m / s.

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
    loop, each ``_THETA_BLOCK`` sessions compute their m from the detected
    count before each, then their theta, and draw their successes at once,
    in the order of one vector draw.  The successes and detected arrays
    (16 bytes per session) are allocated before the first draw.
    """
    p = cfg.params
    L = p.pool_size
    rng = np.random.default_rng(cfg.seed)
    binomial = rng.binomial
    rate = p.arrival_rate
    _, overhead, payload, _ = _session_rule(Scheme.CRA2, p)
    keep, p_fa = 1.0 - p.p_md, p.p_fa
    detected_out = np.empty(total, dtype=np.int64)
    succ_out = np.empty(total, dtype=np.int64)
    detected = before = _startup_detected(p)
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
            detected = _refill(pools, detected, binomial, L, s)
        detected_out[t] = detected
    for start in range(0, total, _THETA_BLOCK):
        block = slice(start, start + _THETA_BLOCK)
        now = detected_out[block]
        prev = np.concatenate(([before], now[:-1]), dtype=float)
        before = now[-1]
        m = rate * (overhead + payload * prev) / L
        p0 = np.exp(-m)
        s = p0 * p_fa - keep * np.expm1(-m)
        # 0 where nothing is detected (s = 0); q m e^-m / s may round past 1
        theta = np.divide(keep * m * p0, s, out=np.zeros_like(m),
                          where=s > 0.0)
        succ_out[block] = binomial(now, np.minimum(theta, 1.0))
    return succ_out, detected_out


def _batch_se(means):
    """Batch-means standard error ``means.std(ddof=1) / sqrt(b)`` of b batch
    means, by the ufuncs that ``std`` runs, bit for bit, without its call
    overhead; 0 for a single batch."""
    b = means.size
    if b == 1:
        return 0.0
    dev = means - np.add.reduce(means) / b
    return math.sqrt(np.add.reduce(dev * dev) / (b - 1)) / math.sqrt(b)


def _ratio_estimate(succ, detected, base, per_detected, rate, backlog=None):
    """Ratio estimator sum(succ)/sum(session length) over the measured
    sessions, a session lasting base + per_detected * D symbols, with the
    standard error of the means of min(_BATCHES, n) contiguous batch ratios;
    the mean detected count gets the standard error of its means over the
    same batches.  ``mean_active`` is the mean of successes + ``backlog``
    (fast retrial's K) where given, else ``rate`` times the mean session
    length.  A batch's time is base * size + per_detected * sum(D), so
    nothing is built per session (5 KB traced on 10^6 sessions)."""
    n = succ.size
    n_batches = min(_BATCHES, n)
    # batch i starts at round(i n / n_batches), halves to even as round() does
    bounds = np.rint(np.arange(0, (n_batches + 1) * n, n) / n_batches) \
        .astype(np.int64)
    edges = bounds[:-1]
    sizes = bounds[1:] - edges
    # two forks: reduceat(x, edges, dtype=float) copies all of x to float,
    # a per-session array that fails test_drop_mode_holds_16_bytes_per_session
    # and test_ratio_estimate_builds_nothing_per_session (tests/test_sim.py)
    if detected.max() < 2.0 ** 63 / n:
        det_sums = np.add.reduceat(detected, edges)
        succ_sums = np.add.reduceat(succ, edges)
    else:   # an int64 batch sum could wrap (pools near 2^62): sum in float
        det_sums, succ_sums = (np.array([x[a:b].sum(dtype=float)
                                         for a, b in zip(edges, bounds[1:])])
                               for x in (detected, succ))
    times = base * sizes + float(per_detected) * det_sums
    succ_total = float(succ.sum(dtype=float))
    det_total = float(detected.sum(dtype=float))
    tot_time = base * n + per_detected * det_total
    return ThroughputEstimate(
        mean_throughput=succ_total / tot_time,
        std_error=_batch_se(succ_sums / times),
        sessions_run=n,
        mean_active=rate * tot_time / n if backlog is None
        else (succ_total + float(backlog.sum(dtype=float))) / n,
        mean_detected=det_total / n,
        mean_session_len=tot_time / n,
        detected_std_error=_batch_se(det_sums / sizes),
        final_backlog=None if backlog is None else int(backlog[-1]),
    )


def estimate_throughput(cfg):
    """Warm up, then measure: ratio estimator over the measured sessions
    with a batch-means standard error over min(30, n) batches.

    In drop mode CRA-1 and ALOHA take the block path for i.i.d. sessions,
    which start at stationarity and so run no warm-up, and CRA-2 its chain
    of pooled Bin(L, s(D)) transitions; CRA-2's fast retrial walks the
    session chain with one occupancy draw per session and pooled scalar
    draws.
    """
    n, w = cfg.n_sessions, cfg.warmup_sessions
    backlog = None
    if cfg.mode is Mode.FAST_RETRIAL:
        succ, detected, backlog = (x[w:] for x in _walk(cfg, w + n))
    elif cfg.scheme is Scheme.CRA2:
        succ, detected = (x[w:] for x in _cra2_sessions(cfg, w + n))
    else:
        succ, detected = _iid_sessions(cfg, n)
    _, base, per_detected, _ = _session_rule(cfg.scheme, cfg.params)
    return _ratio_estimate(succ, detected, base, per_detected,
                           cfg.params.arrival_rate, backlog)


def simulate_stability(cfg, horizon, initial_backlog=0):
    """Backlog trajectory Z(t), the users session t leaves waiting, over
    ``horizon`` sessions of fast retrial; no packets are dropped.
    ``cfg.n_sessions`` is not used.
    """
    if cfg.mode is not Mode.FAST_RETRIAL:
        raise ValueError("simulate_stability requires fast_retrial mode")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if not 0 <= initial_backlog <= _MAX_MEAN_ACTIVE:
        raise ValueError("initial_backlog must be in [0, 2**62]")
    return _walk(cfg, horizon, initial_backlog)[2]
