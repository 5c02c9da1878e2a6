"""Complex-baseband laboratory for the preamble stage.

Generates non-orthogonal preamble pools, the sparse Stage-1 observation,
empirical pairwise ML error rates (missed detection and false alarm), and
brute-force identifiability checks (spark, MMV support condition).

An ML trial on y = base + n scores one real projection of its N-dimensional
noise, since |y - base|^2 - |y - alt|^2 = -(|d|^2 + 2 Re(d^H n)) exactly for
d = base - alt.  That projection is N(0, 2 sigma^2 |d|^2), so a trial draws
one normal.

The spark search tests the largest column subsets first: by Cauchy
interlacing a subset's sigma_min / sigma_max is at least that of any
superset, so if every min(L, N)-column subset is independent, so is every
smaller one.  A square subset is certified independent by its determinant,
|det A_S| > 1e-6 ||A_S||_F^N, and only the rest go to batched SVDs; a
random full-spark pool takes none.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PreamblePool",
    "SparseScene",
    "gen_pool",
    "received_stage1",
    "ml_md_trial",
    "ml_fa_trial",
    "ml_support_search",
    "spark_bruteforce",
    "mmv_identifiable",
]

# ML trials per normal draw in _pairwise_rate: 8 bytes a trial, 512 KB
_NOISE_CHUNK = 1 << 16
_RANK_TOL = 1e-10
_SVD_BATCH = 1 << 20  # matrix entries per stacked SVD in spark_bruteforce
# a square subset is independent when |det| > _DET_MARGIN ||A_S||_F^N: its
# sigma_min / sigma_max is then 10^4 times _RANK_TOL, far past det's rounding
_DET_MARGIN = 1e-6
_UNIT_NORM_TOL = 1e-12


@dataclass(frozen=True)
class PreamblePool:
    """N x L matrix of unit-norm complex preamble columns."""

    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2:
            raise ValueError("preamble pool must be a 2-D matrix")
        norms = np.linalg.norm(m, axis=0)
        if not np.max(np.abs(norms - 1.0)) <= _UNIT_NORM_TOL:  # NaN fails
            raise ValueError("preamble columns must have unit norm")

    @property
    def n_symbols(self):
        return self.matrix.shape[0]

    @property
    def pool_size(self):
        return self.matrix.shape[1]


@dataclass
class SparseScene:
    """One Stage-1 instance: active-user support, complex gains sqrt(P)*h
    and noise variance."""

    support: tuple
    coefficients: np.ndarray
    noise_var: float

    def __post_init__(self):
        if len(set(self.support)) != len(self.support):
            raise ValueError("support indices must be distinct")
        if len(self.coefficients) != len(self.support):
            raise ValueError("one coefficient per support index")
        if not (math.isfinite(self.noise_var) and self.noise_var > 0):
            raise ValueError("noise_var must be finite and positive")
        if not np.all(np.isfinite(self.coefficients)):
            raise ValueError("coefficients must be finite")

    @property
    def n_active(self):
        return len(self.support)


def gen_pool(n_symbols, pool_size, seed):
    """Unit-norm pool with i.i.d. circularly-symmetric Gaussian columns; a
    pool that cannot be allocated raises a ValueError naming pool_size."""
    if not 1 <= n_symbols <= pool_size:
        raise ValueError("need pool_size >= n_symbols >= 1")
    rng = np.random.default_rng(seed)
    try:
        raw = (rng.standard_normal((n_symbols, pool_size))
               + 1j * rng.standard_normal((n_symbols, pool_size)))
        return PreamblePool(raw / np.linalg.norm(raw, axis=0))
    except MemoryError as exc:
        raise ValueError(f"pool_size {pool_size} is too large: the "
                         f"{n_symbols} x {pool_size} pool does not fit in "
                         f"memory ({exc})") from None


def _index(i, bound, what):
    """``i`` as an int, refused unless it is an integer in [0, bound): a
    negative index would alias a column from the end, and a bool or a float
    would pass for a number."""
    if (isinstance(i, bool) or not isinstance(i, (int, np.integer))
            or not 0 <= i < bound):
        raise ValueError(f"{what} must be an integer in [0, {bound}): {i!r}")
    return int(i)


def _columns(pool, scene):
    """The scene's support as checked column indices into the pool."""
    return [_index(i, pool.pool_size, "support index") for i in scene.support]


def received_stage1(pool, scene, rng):
    """y = (sum of active preambles weighted by sqrt(P)*h) + CSCG noise."""
    n = pool.n_symbols
    scale = math.sqrt(scene.noise_var / 2.0)
    noise = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return pool.matrix[:, _columns(pool, scene)] @ scene.coefficients + noise


def _pairwise_rate(d, noise_var, rng, n_trials):
    """Fraction of noise draws n on which ML prefers the alternative
    hypothesis, d being the true one minus it: the score |d|^2 + 2 Re(d^H n)
    is negative.  2 Re(d^H n) is exactly N(0, 2 noise_var |d|^2), so a
    trial draws one standard normal and scales it."""
    if not isinstance(n_trials, (int, np.integer)) or n_trials < 1:
        raise ValueError(f"n_trials must be an integer >= 1: {n_trials!r}")
    d_sq = float(np.vdot(d, d).real)
    spread = math.sqrt(2.0 * noise_var * d_sq)
    losses = 0.0
    for done in range(0, n_trials, _NOISE_CHUNK):
        score = d_sq + spread * rng.standard_normal(
            min(_NOISE_CHUNK, n_trials - done))
        # a zero score (identical hypotheses) breaks by fair coin
        losses += np.count_nonzero(score < 0) + 0.5 * np.count_nonzero(score == 0)
    return float(losses / n_trials)


def ml_md_trial(pool, scene, user, rng, n_trials):
    """Empirical probability the ML detector prefers the hypothesis that
    drops active user ``user`` (index into the support) entirely.

    Converges to Q(sqrt(snr/2)) with snr = |coefficient|^2 / noise_var.
    """
    user = _index(user, scene.n_active, "user")
    d = pool.matrix[:, _columns(pool, scene)[user]] * scene.coefficients[user]
    return _pairwise_rate(d, scene.noise_var, rng, n_trials)


def ml_fa_trial(pool, scene, virtual_index, virtual_snr, rng, n_trials):
    """Empirical probability the ML detector prefers the hypothesis that an
    extra (virtual) user transmitted preamble ``virtual_index``.

    Converges to Q(sqrt(virtual_snr/2)).
    """
    virtual_index = _index(virtual_index, pool.pool_size, "virtual_index")
    if virtual_index in _columns(pool, scene):
        raise ValueError("virtual_index must not be in the active support")
    if not (math.isfinite(virtual_snr) and virtual_snr >= 0):
        raise ValueError(f"virtual_snr must be finite and >= 0: {virtual_snr}")
    amp = math.sqrt(virtual_snr * scene.noise_var)
    return _pairwise_rate(-pool.matrix[:, virtual_index] * amp,
                          scene.noise_var, rng, n_trials)


def ml_support_search(pool, y, n_active):
    """Exhaustive ML support detection: the size-K column subset whose
    least-squares residual on y is smallest.

    Reference oracle only; guarded to small pools since the hypothesis
    count grows combinatorially.
    """
    if pool.pool_size > 16 or n_active > 3:
        raise ValueError("exhaustive search limited to pool_size <= 16, K <= 3")

    def residual(subset):
        cols = pool.matrix[:, list(subset)]
        coef, *_ = np.linalg.lstsq(cols, y, rcond=None)
        return float(np.linalg.norm(y - cols @ coef) ** 2)
    return min(itertools.combinations(range(pool.pool_size), n_active),
               key=residual, default=None)


def _per_stack(n_symbols, size):
    """Column subsets of ``size`` per stacked SVD: ``_SVD_BATCH`` entries."""
    return _SVD_BATCH // (n_symbols * size + 1) + 1


@functools.lru_cache(maxsize=8)
def _subset_index(n_columns, size):
    """Read-only (C(n_columns, size), size) intp array of the column subsets
    in lexicographic order.  Only subsets that fit one stack are built, so
    an entry is at most 1.35 MB (6 x 23 pools, size 5), and the 8 entries
    stay under the 16 MB of one complex stack."""
    idx = np.fromiter(itertools.chain.from_iterable(
                          itertools.combinations(range(n_columns), size)),
                      dtype=np.intp, count=math.comb(n_columns, size) * size)
    idx = idx.reshape(-1, size)
    idx.flags.writeable = False
    return idx


def _subset_stacks(n_columns, size, per_stack):
    """The ``size``-column subsets as (k, size) intp arrays of at most
    ``per_stack`` rows each: one cached array when all of them fit."""
    if math.comb(n_columns, size) <= per_stack:
        yield _subset_index(n_columns, size)
        return
    subsets = itertools.combinations(range(n_columns), size)
    while chunk := list(itertools.islice(subsets, per_stack)):
        yield np.array(chunk, dtype=np.intp)


def _some_dependent(m, scaled, size):
    """Whether some ``size``-column subset of m fails the rank test.  The
    det certificate of a square subset reads ``scaled``, m times a power of
    two that puts every real and imaginary part below 1, so neither det nor
    the Frobenius power can overflow; the SVD takes only the subsets it
    does not certify."""
    n, n_columns = m.shape
    for idx in _subset_stacks(n_columns, size, _per_stack(n, size)):
        if size == n:
            fro_sq = np.sum(np.abs(scaled) ** 2, axis=0)[idx].sum(axis=1)
            det = np.abs(np.linalg.det(scaled.T[idx]))
            idx = idx[det <= _DET_MARGIN * fro_sq ** (n / 2)]
        if len(idx):
            s = np.linalg.svd(m.T[idx].transpose(0, 2, 1), compute_uv=False)
            tol = _RANK_TOL * s.max(axis=-1, keepdims=True, initial=0.0)
            if np.any(np.count_nonzero(s > tol, axis=-1) < size):
                return True
    return False


def spark_bruteforce(pool):
    """Exact spark: smallest number of linearly dependent columns.

    A column subset is dependent when fewer of its singular values than its
    size exceed ``_RANK_TOL`` times its largest.  Any n_symbols + 1 columns
    are dependent, so with r = min(pool_size, n_symbols) the spark is at
    most r + 1, and an independent pool has spark pool_size + 1.

    By Cauchy interlacing, deleting columns cannot lower sigma_min nor raise
    sigma_max, so the test is hereditary: if every r-column subset passes,
    every smaller subset does too and the spark is r + 1.  When the C(L, r)
    subsets of size r fit one stack of ``_SVD_BATCH`` entries they are
    tested first; if one fails, sizes 1..r-1 are searched upward in stacks,
    smallest first, and the spark is r if none fails.  So no input does
    more than one stack of work beyond a plain upward search, and none holds
    more than one stack at a time.  A square subset A_S (size n_symbols)
    passes without an SVD when |det A_S| > 1e-6 ||A_S||_F^n: since |det A_S|
    <= sigma_min sigma_max^(n-1) and sigma_max <= ||A_S||_F, its
    sigma_min / sigma_max then exceeds 1e-6, 10^4 times ``_RANK_TOL``.  A
    random full-spark pool takes no SVD.  Accepts a PreamblePool or a raw
    finite 2-D matrix (degenerate columns allowed in the latter).
    """
    m = pool.matrix if isinstance(pool, PreamblePool) else np.asarray(pool)
    if m.ndim != 2:
        raise ValueError(f"spark_bruteforce needs a 2-D matrix, got {m.ndim}-D")
    n, L = m.shape
    if L > 24:
        raise ValueError("spark_bruteforce limited to pool_size <= 24")
    if not np.all(np.isfinite(m)):
        raise ValueError("spark_bruteforce needs a finite matrix")
    peak = max(np.abs(m.real).max(initial=0.0),
               np.abs(m.imag).max(initial=0.0))
    scaled = m * math.ldexp(1.0, -max(math.frexp(peak)[1], 0))
    r = min(L, n)
    sizes = range(1, r + 1)
    if r and math.comb(L, r) <= _per_stack(n, r):
        if not _some_dependent(m, scaled, r):
            return r + 1
        sizes = range(1, r)  # a dependent r-subset: the spark is at most r
    for size in sizes:
        if _some_dependent(m, scaled, size):
            return size
    return sizes.stop


def mmv_identifiable(n_active, spark, rank_obs):
    """Sharp support-recovery condition for multiple measurement vectors:
    K < (spark - 1 + rank of the stacked coefficient matrix) / 2.
    An empty support (K = 0) is always identifiable."""
    if spark < 1 or rank_obs < 0:
        raise ValueError("need spark >= 1 and rank_obs >= 0")
    return n_active == 0 or n_active < (spark - 1 + rank_obs) / 2.0
