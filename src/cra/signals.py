"""Complex-baseband laboratory for the preamble stage.

Generates non-orthogonal preamble pools, the sparse Stage-1 / Stage-2
observations, empirical pairwise ML error rates (missed detection and false
alarm), and brute-force identifiability checks (spark, MMV support
condition).
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PreamblePool",
    "SparseScene",
    "gen_pool",
    "received_stage1",
    "received_stage2",
    "ml_md_trial",
    "ml_fa_trial",
    "ml_support_search",
    "spark_bruteforce",
    "mmv_identifiable",
]

_RANK_TOL = 1e-10
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
        if np.max(np.abs(norms - 1.0)) > _UNIT_NORM_TOL:
            raise ValueError("preamble columns must have unit norm")

    @property
    def n_symbols(self):
        return self.matrix.shape[0]

    @property
    def pool_size(self):
        return self.matrix.shape[1]


@dataclass
class SparseScene:
    """One Stage-1 instance: active-user support, complex gains sqrt(P)*h,
    noise variance, and optionally the M x K data symbols for Stage 2."""

    support: tuple
    coefficients: np.ndarray
    noise_var: float
    data_symbols: np.ndarray = field(default=None)

    def __post_init__(self):
        if len(set(self.support)) != len(self.support):
            raise ValueError("support indices must be distinct")
        if len(self.coefficients) != len(self.support):
            raise ValueError("one coefficient per support index")
        if self.noise_var <= 0:
            raise ValueError("noise_var must be positive")

    @property
    def n_active(self):
        return len(self.support)


def gen_pool(n_symbols, pool_size, seed):
    """Unit-norm pool with i.i.d. circularly-symmetric Gaussian columns."""
    if not 1 <= n_symbols <= pool_size:
        raise ValueError("need pool_size >= n_symbols >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    raw = (rng.standard_normal((n_symbols, pool_size))
           + 1j * rng.standard_normal((n_symbols, pool_size)))
    return PreamblePool(raw / np.linalg.norm(raw, axis=0))


def _noiseless_stage1(pool, scene):
    cols = pool.matrix[:, list(scene.support)]
    return cols @ scene.coefficients if scene.n_active else \
        np.zeros(pool.n_symbols, dtype=complex)


def _noise(rng, shape, noise_var):
    scale = math.sqrt(noise_var / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def received_stage1(pool, scene, rng):
    """y = (sum of active preambles weighted by sqrt(P)*h) + CSCG noise."""
    return _noiseless_stage1(pool, scene) + _noise(rng, pool.n_symbols,
                                                   scene.noise_var)


def received_stage2(pool, scene, rng):
    """M received vectors r_m sharing the Stage-1 support, each carrying the
    active users' m-th data symbol.  Returns an (M, N) array."""
    if scene.data_symbols is None:
        raise ValueError("scene has no data_symbols")
    d = np.asarray(scene.data_symbols)
    if d.shape[1] != scene.n_active:
        raise ValueError("data_symbols must be (M, n_active)")
    cols = pool.matrix[:, list(scene.support)]
    clean = (d * scene.coefficients) @ cols.T  # (M, N)
    return clean + _noise(rng, clean.shape, scene.noise_var)


def _pairwise_rate(base, alt, noise_var, rng, n_trials, chunk=100_000):
    """Fraction of noise draws for which the true hypothesis ``base`` loses
    the ML residual comparison against ``alt`` on y = base + noise."""
    if n_trials < 1:
        raise ValueError(f"trials must be >= 1, got {n_trials}")
    losses = 0.0
    left = n_trials
    while left > 0:
        m = min(chunk, left)
        n = _noise(rng, (m, base.size), noise_var)
        y = base + n
        r_true = np.sum(np.abs(y - base) ** 2, axis=1)
        r_alt = np.sum(np.abs(y - alt) ** 2, axis=1)
        losses += int(np.count_nonzero(r_true > r_alt))
        # exact residual ties (identical hypotheses) break by fair coin
        losses += 0.5 * int(np.count_nonzero(r_true == r_alt))
        left -= m
    return losses / n_trials


def ml_md_trial(pool, scene, user, rng, n_trials):
    """Empirical probability the ML detector prefers the hypothesis that
    drops active user ``user`` (index into the support) entirely.

    Converges to Q(sqrt(snr/2)) with snr = |coefficient|^2 / noise_var.
    """
    if not 0 <= user < scene.n_active:
        raise ValueError("user must index into the scene support")
    base = _noiseless_stage1(pool, scene)
    alt = base - pool.matrix[:, scene.support[user]] * scene.coefficients[user]
    return _pairwise_rate(base, alt, scene.noise_var, rng, n_trials)


def ml_fa_trial(pool, scene, virtual_index, virtual_snr, rng, n_trials):
    """Empirical probability the ML detector prefers the hypothesis that an
    extra (virtual) user transmitted preamble ``virtual_index``.

    Converges to Q(sqrt(virtual_snr/2)).
    """
    if virtual_index in scene.support:
        raise ValueError("virtual_index must not be in the active support")
    base = _noiseless_stage1(pool, scene)
    amp = math.sqrt(virtual_snr * scene.noise_var)
    alt = base + pool.matrix[:, virtual_index] * amp
    return _pairwise_rate(base, alt, scene.noise_var, rng, n_trials)


def ml_support_search(pool, y, n_active):
    """Exhaustive ML support detection: the size-K column subset whose
    least-squares residual on y is smallest.

    Reference oracle only; guarded to small pools since the hypothesis
    count grows combinatorially.
    """
    if pool.pool_size > 16 or n_active > 3:
        raise ValueError("exhaustive search limited to pool_size <= 16, K <= 3")
    best = None
    best_res = math.inf
    for subset in itertools.combinations(range(pool.pool_size), n_active):
        cols = pool.matrix[:, list(subset)]
        coef, *_ = np.linalg.lstsq(cols, y, rcond=None)
        res = float(np.linalg.norm(y - cols @ coef) ** 2)
        if res < best_res:
            best_res = res
            best = subset
    return best


def _numeric_rank(m):
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0:
        return 0
    return int(np.count_nonzero(s > _RANK_TOL * s[0]))


def spark_bruteforce(pool):
    """Exact spark: smallest number of linearly dependent columns.

    Tests all column subsets in increasing size; any n_symbols + 1 columns
    are dependent, so the answer is at most n_symbols + 1.  Accepts a
    PreamblePool or a raw matrix (degenerate columns allowed in the latter).
    """
    m = pool.matrix if isinstance(pool, PreamblePool) else np.asarray(pool)
    n, L = m.shape
    if L > 24:
        raise ValueError("spark_bruteforce limited to pool_size <= 24")
    for size in range(1, min(L, n + 1) + 1):
        for subset in itertools.combinations(range(L), size):
            if _numeric_rank(m[:, list(subset)]) < size:
                return size
    # all columns independent (only possible when L <= n)
    return L + 1


def mmv_identifiable(n_active, spark, rank_obs):
    """Sharp support-recovery condition for multiple measurement vectors:
    K < (spark - 1 + rank of the stacked coefficient matrix) / 2.
    An empty support (K = 0) is always identifiable."""
    if spark < 1 or rank_obs < 0:
        raise ValueError("need spark >= 1 and rank_obs >= 0")
    if n_active == 0:
        return True
    return n_active < (spark - 1 + rank_obs) / 2.0
