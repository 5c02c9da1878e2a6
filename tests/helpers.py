"""Independent oracles shared by the test modules.

These deliberately avoid the library's own code paths: bisection instead of
scipy's Lambert W, direct log-space summation instead of incomplete-gamma,
exhaustive enumeration and a one-user-at-a-time recursion instead of closed
forms and of the occupancy draw, damped fixed-point iteration instead of
Lambert W, stationary solves of the session Markov chain (over K, and by
Poisson splitting) instead of the simulator, sliced batch sums and
``np.std`` instead of the batch-means standard error's own reductions,
scalar binomial thinning of the occupancy draw given K instead of the
walk's pooled variates, a drop-mode session walk that draws each session's
K and its occupancy given K instead of the pooled chain, a per-K scan of scalar drift calls instead
of the threshold's turning point and bisection, literal ML residual norms
instead of the projected noise score, and one SVD per column subset
instead of batched SVDs.  It also reads the CLI's result CSVs back into
rows, and stands in for a Generator whose occupancy draw a test forces or
whose draws it counts.
"""

import csv
import itertools
import math
from fractions import Fraction

import numpy as np
from scipy import stats

from cra.analytic import backlog_drift
from cra.sim import _occupancy

# largest Poisson tail mass exact_chain_means may cut off above K_max
CHAIN_TAIL_TOL = 1e-12
# trials per noise draw in pairwise_rate_residuals: (4096, 31) complex noise
# is 2 MB
RESIDUAL_CHUNK = 4096


def lambert_bisect(y, lo=-1.0, hi=700.0, tol=1e-14):
    """Solve w * exp(w) = y on the principal branch by bisection."""
    f = lambda w: w * math.exp(w) - y
    assert f(lo) <= 0 <= f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol * max(1.0, abs(lo)):
            break
    return 0.5 * (lo + hi)


def poisson_cdf_sum(n, mu):
    """Direct summation of Poisson pmf terms in log space."""
    if mu == 0:
        return 1.0
    terms = [math.exp(k * math.log(mu) - mu - math.lgamma(k + 1))
             for k in range(n + 1)]
    return math.fsum(terms)


def fixed_point_mean_load(c1, c2, tol=1e-12, max_iter=100000):
    """Iterate x <- c1 - c2*exp(-x) from 0 until converged."""
    x = 0.0
    for _ in range(max_iter):
        nxt = c1 - c2 * math.exp(-x)
        if abs(nxt - x) < tol:
            return nxt
        x = nxt
    raise RuntimeError("fixed point iteration did not converge")


def enumerate_assignments(n_active, pool_size):
    """All pool_size**n_active equally likely preamble assignments."""
    return itertools.product(range(pool_size), repeat=n_active)


def exact_occupancy_pmf(n_active, pool_size):
    """Law of (singleton count, collided count) by exhaustive enumeration of
    the pool_size**n_active equally likely preamble assignments, as a dict
    {(singleton, collided): probability}."""
    total = pool_size ** n_active
    hits = {}
    for assign in enumerate_assignments(n_active, pool_size):
        counts = [0] * pool_size
        for a in assign:
            counts[a] += 1
        cell = (counts.count(1), sum(1 for c in counts if c >= 2))
        hits[cell] = hits.get(cell, 0) + 1
    return {cell: n / total for cell, n in hits.items()}


def exact_occupancy_means(n_active, pool_size):
    """(E[singleton count], E[occupied count]) by exhaustive enumeration."""
    pmf = exact_occupancy_pmf(n_active, pool_size).items()
    return (sum(s * prob for (s, _), prob in pmf),
            sum((s + c) * prob for (s, c), prob in pmf))


def occupancy_pmf_dp(n_active, pool_size):
    """Exact law of (singleton count, collided count) of ``n_active`` users
    that each pick one of ``pool_size`` preambles uniformly, as a dict
    {(singleton, collided): Fraction}; see ``occupancy_laws``."""
    return next(itertools.islice(occupancy_laws(pool_size), n_active, None))


def occupancy_laws(pool_size):
    """The laws of ``occupancy_pmf_dp`` for 0, 1, 2, ... users, adding one
    user at a time: the next user lands on a free preamble, a singleton
    (which then collides) or a collided one with probabilities free / L,
    singleton / L and collided / L."""
    L = pool_size
    law = {(0, 0): Fraction(1)}
    while True:
        yield law
        nxt = {}
        for (s, c), prob in law.items():
            for cell, ways in (((s + 1, c), L - s - c), ((s - 1, c + 1), s),
                               ((s, c), c)):
                if ways:
                    nxt[cell] = nxt.get(cell, 0) + prob * Fraction(ways, L)
        law = nxt


class PickedOccupancy:
    """Stand-in for a numpy Generator whose ``integers`` returns the given
    preamble picks, one per user, so a test can force the occupancy draw of
    a light ``stage1_outcome`` session, where every user is a pick; every
    other call goes to a real Generator."""

    def __init__(self, picks):
        self.picks = np.asarray(picks, dtype=np.int64)
        self.rng = np.random.default_rng(0)

    def integers(self, high, size):
        assert self.picks.size == size, "one pick per active user"
        assert self.picks.max() < high
        return self.picks

    def __getattr__(self, name):
        return getattr(self.rng, name)


class CountedDraws:
    """Stand-in for a numpy Generator that counts the calls of each of its
    methods (``calls``, by name); every call goes to a real Generator."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = {}

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return method(*args, **kwargs)
        return counted


def _stationary_chain(params):
    """Stationary law of the CRA-2 drop-mode session chain.

    The state is D, the detected-slot count of the previous session.  Given
    D, the active count is K ~ Poisson(lambda * (N + tau + M*D)); the K users
    occupy B of the L preambles (classical occupancy distribution, Johnson &
    Kotz, *Urn Models and Their Application*, 1977); and the next state is
    D' = Bin(B, 1 - p_md) + Bin(L - B, p_fa).  K is truncated at K_max, the
    largest count whose Poisson upper tail at the largest mean is still at
    least ``CHAIN_TAIL_TOL``; the cut-off mass is asserted to be below it.

    Returns (states, mu, p_k, pi): the states D = 0..L, the Poisson mean of
    K in each state, the truncated law P(K | D) as rows over K = 0..K_max,
    and the stationary law pi of D.
    """
    L = params.pool_size
    states = np.arange(L + 1)
    mu = params.arrival_rate * (params.overhead_len
                                + params.payload_len * states)
    k_max = int(stats.poisson.isf(CHAIN_TAIL_TOL, mu[-1])) + 1
    tail = stats.poisson.sf(k_max, mu[-1])
    assert tail < CHAIN_TAIL_TOL, \
        f"K tail mass {tail:.3g} above {CHAIN_TAIL_TOL:.3g}"

    p_k = stats.poisson.pmf(np.arange(k_max + 1)[None, :], mu[:, None])
    p_k /= p_k.sum(axis=1, keepdims=True)

    # P(B | K) row by row: the (K+1)-th user lands on one of the B occupied
    # preambles with probability B/L, otherwise it occupies a new one
    p_b = np.zeros((k_max + 1, L + 1))
    p_b[0, 0] = 1.0
    for k in range(k_max):
        p_b[k + 1] = p_b[k] * states / L
        p_b[k + 1, 1:] += p_b[k, :-1] * (L - states[:-1]) / L

    p_d = np.zeros((L + 1, L + 1))
    for b in states:
        hits = stats.binom.pmf(np.arange(b + 1), b, 1.0 - params.p_md)
        false = stats.binom.pmf(np.arange(L - b + 1), L - b, params.p_fa)
        p_d[b] = np.convolve(hits, false)

    return states, mu, p_k, _stationary_law(p_k @ p_b @ p_d)


def _stationary_law(trans):
    """Stationary law pi of the transition matrix ``trans``: pi (T - I) = 0
    with one balance equation replaced by the normalization sum(pi) = 1."""
    system = trans.T - np.eye(len(trans))
    system[-1] = 1.0
    rhs = np.zeros(len(trans))
    rhs[-1] = 1.0
    return np.linalg.solve(system, rhs)


def exact_chain_means(params):
    """(E[K], E[D]) of the stationary CRA-2 drop-mode session chain
    (see ``_stationary_chain``)."""
    states, mu, _, pi = _stationary_chain(params)
    return float(pi @ mu), float(pi @ states)


def exact_chain_throughput(params):
    """Long-run throughput E[successes] / E[session length] of the
    stationary CRA-2 drop-mode session chain (see ``_stationary_chain``).

    The next session's K has law pi . P(K | D), and a session with K users
    books E[successes | K] = (1 - p_md) K (1 - 1/L)^(K-1) detected
    singletons; a session with D detected slots lasts N + tau + M*D.
    """
    states, _, p_k, pi = _stationary_chain(params)
    k = np.arange(p_k.shape[1])
    successes = (1.0 - params.p_md) * k \
        * (1.0 - 1.0 / params.pool_size) ** (k - 1)
    mean_len = params.overhead_len + params.payload_len * float(pi @ states)
    return float(pi @ p_k @ successes) / mean_len


def split_detect_prob(params):
    """(states, mu, s): the states D = 0..L of the CRA-2 drop-mode session
    chain, the arrival mean mu = lambda * (N + tau + M*D) of the session
    after each, and the chance s = (1 - p_md)(1 - e^-m) + e^-m p_fa,
    m = mu / L, that a preamble of that session is detected, so that its
    detected count is Bin(L, s)."""
    states = np.arange(params.pool_size + 1)
    mu = params.arrival_rate * (params.overhead_len
                                + params.payload_len * states)
    m = mu / params.pool_size
    s = (1.0 - params.p_md) * -np.expm1(-m) + np.exp(-m) * params.p_fa
    return states, mu, s


def _split_law(params):
    """(states, mu, s, theta, trans, pi) of the CRA-2 drop-mode session
    chain by Poisson splitting (see ``split_chain``): ``trans`` holds the
    transition matrix, row D the law Bin(L, s(D)) of the next state, and
    ``pi`` its stationary law."""
    L = params.pool_size
    states, mu, s = split_detect_prob(params)
    m = mu / L
    theta = (1.0 - params.p_md) * m * np.exp(-m) / s
    trans = stats.binom.pmf(states, L, s[:, None])
    return states, mu, s, theta, trans, _stationary_law(trans)


def split_chain(params):
    """(throughput, E[K], E[D]) of the stationary CRA-2 drop-mode session
    chain by Poisson splitting, with no sum over K.

    Given D, each of the L preambles independently holds Poisson(m) users,
    m = lambda * (N + tau + M*D) / L, so it is detected with probability
    s = (1 - p_md)(1 - e^-m) + e^-m p_fa and the next state is
    D' ~ Bin(L, s).  Given D', the successes are Bin(D', theta), with
    theta = (1 - p_md) m e^-m / s the chance that a detected preamble holds
    one user.
    """
    L = params.pool_size
    states, mu, s, theta, _, pi = _split_law(params)
    mean_detected = float(pi @ states)
    mean_len = params.overhead_len + params.payload_len * mean_detected
    return float(pi @ (L * s * theta)) / mean_len, float(pi @ mu), \
        mean_detected


def split_chain_std_error(params, n_sessions):
    """Exact asymptotic standard error of the CRA-2 drop-mode throughput
    estimate sum(successes) / sum(lengths) over ``n_sessions`` sessions of
    the stationary chain of ``split_chain``.

    With eta the chain's throughput, a session that follows state D and
    detects D' preambles has reward r = d1 - eta (N + tau + M D'), of mean
    0.  With h(D) = E[r | D] and G = (I - T + 1 pi)^-1 h (the fundamental
    matrix: Kemeny & Snell, *Finite Markov Chains*, 1960), the asymptotic
    variance of the reward sum per session is
    sigma^2 = E_pi[r^2] + 2 E_pi[r G(D')], and the estimate's standard error
    is sigma / (sqrt(n) E[length]) (Asmussen & Glynn, *Stochastic
    Simulation*, 2007, ch. IV).  Given D', E[d1] = theta D' and
    E[d1^2] = theta (1 - theta) D' + theta^2 D'^2, so both expectations
    are sums over the rows of T.
    """
    states, _, _, theta, trans, pi = _split_law(params)
    length = params.overhead_len + params.payload_len * states
    mean_len = float(pi @ length)
    eta = float(pi @ (trans @ states * theta)) / mean_len
    # E[r | D, D'] for D by row and D' by column, then E[r^2 | D, D']
    r = theta[:, None] * states[None, :] - eta * length[None, :]
    r2 = (theta * (1.0 - theta))[:, None] * states[None, :] + r ** 2
    h = (trans * r).sum(axis=1)
    fundamental = np.eye(len(states)) - trans + pi[None, :]
    g = np.linalg.solve(fundamental, h)
    var = pi @ (trans * r2).sum(axis=1) + 2.0 * pi @ (trans * r) @ g
    return math.sqrt(var / n_sessions) / mean_len


def batch_means_std_errors(succ, detected, base, per_detected):
    """(std_error, detected_std_error) of ``sim._ratio_estimate`` taken the
    plain way: b = min(30, n) batches starting at round(i n / b), each
    summed by slicing (in float where an int64 sum could wrap), and
    ``np.std(ddof=1) / sqrt(b)`` of the batch rates, successes over
    base * size + per_detected * sum(D), and of the batch mean D; 0 for a
    single batch."""
    n = succ.size
    b = min(30, n)
    if b == 1:
        return 0.0, 0.0
    edges = [round(i * n / b) for i in range(b)] + [n]
    dtype = None if detected.max() < 2.0 ** 63 / n else float
    sizes = np.diff(edges)

    def sums(x):
        return np.array([x[lo:hi].sum(dtype=dtype)
                         for lo, hi in zip(edges, edges[1:])])
    det_sums = sums(detected)
    rates = sums(succ) / (base * sizes + float(per_detected) * det_sums)
    return (float(np.std(rates, ddof=1) / math.sqrt(b)),
            float(np.std(det_sums / sizes, ddof=1) / math.sqrt(b)))


def stage1_outcome(n_active, params, rng):
    """One preamble round given K: the detected singleton, detected
    collided and false-alarm preamble counts (d1, d2, d3).

    ``_occupancy`` draws the free and singleton counts of the K users'
    uniform picks; then one scalar ``rng.binomial`` each detects
    Bin(n, 1 - p_md) of the n singleton and of the n collided preambles
    and raises Bin(n, p_fa) false alarms on the n free ones.  A count of
    0, or p_fa = 0, draws nothing.
    """
    L, p_det, p_fa = params.pool_size, 1.0 - params.p_md, params.p_fa
    free, singleton = _occupancy(n_active, L, rng)
    collided = L - free - singleton
    d1 = int(rng.binomial(singleton, p_det)) if singleton else 0
    d2 = int(rng.binomial(collided, p_det)) if collided else 0
    d3 = int(rng.binomial(free, p_fa)) if (free and p_fa > 0.0) else 0
    return d1, d2, d3


def drop_walk(params, n_sessions, seed, first_active=None):
    """(successes, active, detected) arrays of ``n_sessions`` CRA-2
    drop-mode sessions walked one at a time: the conditional-on-K reference
    for the simulator's pooled chain, which draws no K.

    Session t draws K ~ Poisson(lambda * (N + tau + M*D)), D the previous
    session's detected count (0 before the first), or takes
    ``first_active`` as the first session's K.  One ``stage1_outcome`` call
    gives its detected singletons, which succeed, and its detected count;
    the users it does not serve leave.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((3, n_sessions), dtype=np.int64)
    detected = 0
    for t in range(n_sessions):
        if t == 0 and first_active is not None:
            k = first_active
        else:
            k = int(rng.poisson(params.arrival_rate * (
                params.overhead_len + params.payload_len * detected)))
        d1, d2, d3 = stage1_outcome(k, params, rng)
        detected = d1 + d2 + d3
        out[:, t] = d1, k, detected
    return tuple(out)


def retrial_chain_moments(params, backlog, detected, n_sessions, z_max,
                          tol=1e-12):
    """Exact moments of CRA-2's fast-retrial session chain over its first
    ``n_sessions`` sessions, from ``backlog`` users waiting and ``detected``
    preambles detected before the first: (E[Z], Var[Z], the fourth central
    moment of Z, E[D], Var[D]), each an array over the sessions, where Z_t
    is the backlog session t leaves and D_t its detected count.

    The law of (Z, D) is iterated forward.  A session holds
    K = Z + Poisson(lambda (N + tau + M D)) users; given K, its (singleton,
    collided) counts have the law of ``occupancy_laws``, the rest of the L
    preambles being free, and d1 ~ Bin(singletons, 1 - p_md),
    d2 ~ Bin(collided, 1 - p_md) and d3 ~ Bin(free, p_fa).  Then
    D' = d1 + d2 + d3 and Z' = K - d1.  Z is truncated at ``z_max``, so K
    at z_max + L; the mass lost past either bound is carried and asserted
    below ``tol``.  Both transitions are built once as arrays: P(K | Z, D)
    and P(Z', D' | K).
    """
    L, q, p_fa = params.pool_size, 1.0 - params.p_md, params.p_fa
    k_max = z_max + L
    ks, zs, cells = np.arange(k_max + 1), np.arange(z_max + 1), \
        np.arange(L + 1)
    # arrivals: P(K | Z, D) = Poisson(mu_D) at K - Z, as [D, Z, K]
    mu = params.arrival_rate * (params.overhead_len
                                + params.payload_len * cells)
    new = ks[None, :] - zs[:, None]
    to_k = np.where(new >= 0, stats.poisson.pmf(np.maximum(new, 0),
                                                mu[:, None, None]), 0.0)
    # given (singletons s, collided c): the law of (d1, D'), as [s, c, d1, D']
    thin = np.zeros((L + 1, L + 1, L + 1, L + 1))
    for s in cells:
        for c in range(L + 1 - s):
            rest = np.convolve(stats.binom.pmf(cells, c, q),
                               stats.binom.pmf(cells, L - s - c, p_fa))
            for d1, prob in enumerate(stats.binom.pmf(cells[:s + 1], s, q)):
                thin[s, c, d1, d1:] = prob * rest[:L + 1 - d1]
    occupancy = np.zeros((k_max + 1, L + 1, L + 1))
    for k, law in zip(ks, occupancy_laws(L)):
        for (s, c), prob in law.items():
            occupancy[k, s, c] = prob
    outcome = np.einsum("ksc,scad->kad", occupancy, thin)
    # P(Z', D' | K) as [K, Z', D'], Z' = K - d1
    from_k = np.zeros((k_max + 1, z_max + 1, L + 1))
    for d1 in cells:
        keep = (ks >= d1) & (ks - d1 <= z_max)
        from_k[ks[keep], ks[keep] - d1] += outcome[keep, d1]

    law = np.zeros((z_max + 1, L + 1))
    law[backlog, detected] = 1.0
    moments = []
    for _ in range(n_sessions):
        law = np.einsum("k,kzd->zd", np.einsum("zd,dzk->k", law, to_k), from_k)
        mass = law.sum()
        pz, pd = law.sum(axis=1) / mass, law.sum(axis=0) / mass
        mean_z, mean_d = pz @ zs, pd @ cells
        moments.append((mean_z, pz @ (zs - mean_z) ** 2,
                        pz @ (zs - mean_z) ** 4, mean_d,
                        pd @ (cells - mean_d) ** 2))
    assert 1.0 - mass < tol, f"lost mass {1.0 - mass:.3g} above {tol:.3g}"
    return tuple(np.array(m) for m in zip(*moments))


def threshold_scan(params, k_max):
    """Smallest K0 with backlog_drift(K) > 0 on all of [K0, k_max], or None,
    by one scalar drift call per K."""
    k0 = None
    for k in range(0, k_max + 1):
        if backlog_drift(k, params) > 0:
            if k0 is None:
                k0 = k
        else:
            k0 = None
    return k0


def capped_success_moments(mean_active, pool_size, cap, p_md):
    """Mean and second moment of one CRA-1 / multichannel-ALOHA session's
    successes, by direct summation over the Poisson active count.

    K ~ Poisson(mean_active) users pick among ``pool_size`` preambles, and a
    session with K <= ``cap`` books each singleton with probability
    1 - p_md, otherwise nothing.  Sessions are i.i.d., so n sessions of fixed
    length T give a throughput estimate with standard error
    sqrt((m2 - m1**2) / n) / T.
    """
    q = 1.0 - p_md
    L = pool_size
    m1 = m2 = 0.0
    for k in range(1, cap + 1):
        pk = math.exp(k * math.log(mean_active) - mean_active
                      - math.lgamma(k + 1))
        singles = k * (1.0 - 1.0 / L) ** (k - 1)
        # E[B1 (B1 - 1)]: ordered pairs of preambles both picked exactly once
        pairs = (L - 1) / L * k * (k - 1) * (1.0 - 2.0 / L) ** max(k - 2, 0)
        m1 += pk * q * singles
        m2 += pk * (q * singles + q * q * pairs)
    return m1, m2


def pairwise_rate_residuals(base, alt, noise_var, rng, n_trials):
    """Fraction of trials in which the true hypothesis ``base`` has the larger
    residual norm on y = base + noise, exact ties counting one half.  Every
    trial draws its full N-dimensional complex noise."""
    scale = math.sqrt(noise_var / 2.0)
    losses = 0.0
    left = n_trials
    while left > 0:
        m = min(RESIDUAL_CHUNK, left)
        noise = scale * (rng.standard_normal((m, base.size))
                         + 1j * rng.standard_normal((m, base.size)))
        y = base + noise
        r_true = np.sum(np.abs(y - base) ** 2, axis=1)
        r_alt = np.sum(np.abs(y - alt) ** 2, axis=1)
        losses += np.count_nonzero(r_true > r_alt)
        losses += 0.5 * np.count_nonzero(r_true == r_alt)
        left -= m
    return losses / n_trials


def spark_per_subset(m, rank_tol=1e-10):
    """Spark of matrix ``m`` by one SVD per column subset, in increasing
    size; a subset is dependent when fewer than its size of its singular
    values exceed ``rank_tol`` times its largest."""
    n, L = m.shape
    for size in range(1, min(L, n + 1) + 1):
        for subset in itertools.combinations(range(L), size):
            s = np.linalg.svd(m[:, list(subset)], compute_uv=False)
            if np.count_nonzero(s > rank_tol * s.max(initial=0.0)) < size:
                return size
    return L + 1


def read_results(path):
    """Parse a CSV written by cli.emit_results back into row dicts."""
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        for rec in csv.DictReader(fh):
            row = dict(rec)
            for key in ("value", "estimate", "std_error"):
                row[key] = float(row[key]) if row[key] != "" else None
            for key in ("sessions", "seed"):
                row[key] = int(row[key]) if row[key] != "" else None
            rows.append(row)
    return rows
