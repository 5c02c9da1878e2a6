import math
import re

import numpy as np
import pytest
from scipy import stats

from cra import signals
from cra.signals import (
    _NOISE_CHUNK,
    PreamblePool,
    SparseScene,
    gen_pool,
    ml_fa_trial,
    ml_md_trial,
    ml_support_search,
    mmv_identifiable,
    received_stage1,
    spark_bruteforce,
)
from cra.specfun import qfunc
from helpers import pairwise_rate_residuals, spark_per_subset


LAW_SNRS = (0.5, 2.5, 8.0)
LAW_SEEDS = (0, 1)
LAW_TRIALS = 200_000
LAW_K = stats.norm.isf(0.001 / (2 * len(LAW_SNRS) * len(LAW_SEEDS) * 2))


def pairwise_scene(snr):
    """Two users on an 8 x 16 pool at noise_var 2, the first at ``snr``."""
    pool = gen_pool(8, 16, seed=12)
    scene = SparseScene(support=(2, 11),
                        coefficients=np.array([math.sqrt(2.0 * snr),
                                               0.8 - 0.3j]),
                        noise_var=2.0)
    return pool, scene


def scene_with_snr(snr, support=(0,), noise_var=1.0):
    coeffs = np.full(len(support), math.sqrt(snr * noise_var), dtype=complex)
    return SparseScene(support=tuple(support), coefficients=coeffs,
                       noise_var=noise_var)


def normalized_pool(m):
    """The pool of m's columns scaled to unit norm."""
    return PreamblePool(m / np.linalg.norm(m, axis=0))


def degenerate_pool(shape, fill):
    """Complex Gaussian pool with a planted dependency: "duplicate i j"
    copies column i to j, "block r" makes the first 4 columns span a space
    of rank r, "full" plants none."""
    rng = np.random.default_rng(22)
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    kind, *where = fill.split()
    if kind == "duplicate":
        i, j = map(int, where)
        m[:, j] = m[:, i]
    elif kind == "block":
        r = int(where[0])
        m[:, :4] = m[:, :r] @ rng.standard_normal((r, 4))
    return normalized_pool(m)


class TestGenPool:
    def test_unit_norm_columns(self):
        pool = gen_pool(8, 32, seed=0)
        norms = np.linalg.norm(pool.matrix, axis=0)
        assert np.max(np.abs(norms - 1.0)) < 1e-12
        gram = pool.matrix.conj().T @ pool.matrix
        assert np.allclose(np.diag(gram).real, 1.0, atol=1e-12)

    def test_single_entry(self):
        pool = gen_pool(1, 1, seed=1)
        assert abs(abs(pool.matrix[0, 0]) - 1.0) < 1e-12

    def test_deterministic_in_seed(self):
        a = gen_pool(4, 16, seed=5)
        b = gen_pool(4, 16, seed=5)
        assert np.array_equal(a.matrix, b.matrix)
        c = gen_pool(4, 16, seed=6)
        assert not np.array_equal(a.matrix, c.matrix)

    def test_full_spark(self):
        assert spark_bruteforce(gen_pool(4, 8, seed=2)) == 5

    def test_rejects_non_unit_columns(self):
        with pytest.raises(ValueError):
            PreamblePool(np.ones((3, 4), dtype=complex))

    def test_rejects_nan_column(self):
        m = gen_pool(4, 8, seed=0).matrix.copy()
        m[:, 3] = math.nan
        with pytest.raises(ValueError, match="unit norm"):
            PreamblePool(m)

    def test_rejects_one_dimensional_array(self):
        with pytest.raises(ValueError, match="2-D"):
            PreamblePool(np.ones(3, dtype=complex) / math.sqrt(3.0))

    def test_matrix_is_read_only(self):
        pool = gen_pool(4, 8, seed=0)
        with pytest.raises(ValueError, match="read-only"):
            pool.matrix[0, 0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            pool.matrix *= 2.0

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            gen_pool(8, 4, seed=0)


class TestReceivedStage1:
    def test_noiseless_single_user(self):
        pool = gen_pool(6, 12, seed=3)
        scene = SparseScene(support=(7,), coefficients=np.array([1.0 + 0j]),
                            noise_var=1e-30)
        y = received_stage1(pool, scene, np.random.default_rng(0))
        assert np.allclose(y, pool.matrix[:, 7], atol=1e-12)

    def test_empty_support_is_noise(self):
        pool = gen_pool(6, 12, seed=3)
        scene = SparseScene(support=(), coefficients=np.array([]),
                            noise_var=1.0)
        rng = np.random.default_rng(1)
        y = received_stage1(pool, scene, rng)
        assert y.shape == (6,)
        assert np.linalg.norm(y) > 0

    @pytest.mark.parametrize("support", [(-1, 7), (12,), (1.0,), (True,)])
    def test_rejects_support_outside_pool(self, support):
        # -1 would alias column 11, so (-1, 11) would sum one column twice
        pool = gen_pool(6, 12, seed=3)
        with pytest.raises(ValueError, match="support index"):
            received_stage1(pool, scene_with_snr(1.0, support=support),
                            np.random.default_rng(0))

    def test_numpy_integer_support(self):
        pool = gen_pool(6, 12, seed=3)
        scene = SparseScene(support=(np.int64(7),),
                            coefficients=np.array([1.0 + 0j]), noise_var=1e-30)
        y = received_stage1(pool, scene, np.random.default_rng(0))
        assert np.allclose(y, pool.matrix[:, 7], atol=1e-12)

    def test_deterministic_in_seed(self):
        pool = gen_pool(6, 12, seed=3)
        scene = scene_with_snr(4.0, support=(1, 5))
        a = received_stage1(pool, scene, np.random.default_rng(11))
        b = received_stage1(pool, scene, np.random.default_rng(11))
        assert np.array_equal(a, b)


class TestPairwiseMlTrials:
    def test_md_zero_snr_is_coin_flip(self):
        pool = gen_pool(8, 16, seed=5)
        scene = scene_with_snr(0.0)
        rate = ml_md_trial(pool, scene, 0, np.random.default_rng(0), 20_000)
        assert rate == pytest.approx(0.5, abs=4 * 0.5 / math.sqrt(20_000))

    def test_md_vanishing_noise(self):
        pool = gen_pool(8, 16, seed=5)
        scene = SparseScene(support=(3,), coefficients=np.array([1.0 + 0j]),
                            noise_var=1e-6)
        rate = ml_md_trial(pool, scene, 0, np.random.default_rng(1), 2_000)
        assert rate == 0.0

    def test_md_matches_gaussian_tail(self):
        pool = gen_pool(8, 16, seed=6)
        for snr in (1.0, 4.0):
            scene = scene_with_snr(snr, support=(2, 11))
            n = 100_000
            rate = ml_md_trial(pool, scene, 0, np.random.default_rng(int(snr)),
                               n)
            expected = qfunc(math.sqrt(snr / 2.0))
            se = math.sqrt(expected * (1 - expected) / n)
            assert abs(rate - expected) <= 4 * se

    def test_fa_zero_snr_is_coin_flip(self):
        pool = gen_pool(8, 16, seed=7)
        scene = scene_with_snr(4.0)
        rate = ml_fa_trial(pool, scene, 5, 0.0, np.random.default_rng(3),
                           20_000)
        assert rate == pytest.approx(0.5, abs=4 * 0.5 / math.sqrt(20_000))

    def test_fa_matches_gaussian_tail(self):
        pool = gen_pool(8, 16, seed=8)
        scene = scene_with_snr(4.0, support=(0, 1))
        n = 100_000
        rate = ml_fa_trial(pool, scene, 9, 4.0, np.random.default_rng(4), n)
        expected = qfunc(math.sqrt(2.0))
        se = math.sqrt(expected * (1 - expected) / n)
        assert abs(rate - expected) <= 4 * se

    def test_fa_high_snr(self):
        pool = gen_pool(8, 16, seed=9)
        scene = scene_with_snr(1.0)
        rate = ml_fa_trial(pool, scene, 4, 1e4, np.random.default_rng(5),
                           2_000)
        assert rate == 0.0

    # below, at and across one noise chunk, then across many with a partial
    # last one: the chunks together draw one standard_normal(n_trials)
    @pytest.mark.parametrize("n_trials", [
        _NOISE_CHUNK - 1, _NOISE_CHUNK, 2 * _NOISE_CHUNK + 1, 250_001])
    @pytest.mark.parametrize("snr", [0.0, 2.5])
    def test_chunks_draw_one_normal_stream(self, snr, n_trials):
        pool, scene = pairwise_scene(snr)
        md = ml_md_trial(pool, scene, 0, np.random.default_rng(1), n_trials)
        fa = ml_fa_trial(pool, scene, 5, snr, np.random.default_rng(2),
                         n_trials)
        for rate, d, seed in (
                (md, pool.matrix[:, 2] * scene.coefficients[0], 1),
                (fa, -pool.matrix[:, 5] * math.sqrt(snr * 2.0), 2)):
            d_sq = float(np.vdot(d, d).real)
            g = np.random.default_rng(seed).standard_normal(n_trials)
            score = d_sq + math.sqrt(2.0 * scene.noise_var * d_sq) * g
            assert rate == (np.count_nonzero(score < 0)
                            + 0.5 * np.count_nonzero(score == 0)) / n_trials
        if snr == 0.0:
            assert md == fa == 0.5

    # 3 SNRs x 2 seeds x (md, fa) cases, each a two-sample z of the kernel
    # against the residual oracle on independent seeds, near N(0, 1): a bound
    # of k with 12 * 2 * Q(k) = 0.001 keeps the family-wise false-alarm rate
    # at 0.1%: k = 3.93.  |d|^2 = 2 snr, so the SNR-0.5 case alone cannot
    # tell a spread that lacks its |d| factor.
    @pytest.mark.parametrize("snr", LAW_SNRS)
    def test_same_law_as_residual_oracle(self, snr):
        pool, scene = pairwise_scene(snr)
        base = pool.matrix[:, [2, 11]] @ scene.coefficients
        md_alt = base - pool.matrix[:, 2] * scene.coefficients[0]
        fa_alt = base + pool.matrix[:, 5] * math.sqrt(snr * 2.0)
        n = LAW_TRIALS
        failures = []
        for seed in LAW_SEEDS:
            cases = (
                ("md", ml_md_trial(pool, scene, 0,
                                   np.random.default_rng((seed, 0)), n),
                 md_alt),
                ("fa", ml_fa_trial(pool, scene, 5, snr,
                                   np.random.default_rng((seed, 1)), n),
                 fa_alt))
            for name, rate, alt in cases:
                oracle = pairwise_rate_residuals(
                    base, alt, 2.0, np.random.default_rng((seed, 2)), n)
                p = 0.5 * (rate + oracle)
                z = (rate - oracle) / math.sqrt(2.0 * p * (1.0 - p) / n)
                if not abs(z) <= LAW_K:
                    failures.append(f"{name} seed={seed}: {rate:.5f} vs "
                                    f"oracle {oracle:.5f} (z {z:+.2f})")
        assert not failures, failures

    @pytest.mark.parametrize("kwargs, field", [
        ({"noise_var": math.nan}, "noise_var"),
        ({"noise_var": math.inf}, "noise_var"),
        ({"noise_var": 0.0}, "noise_var"),
        ({"coefficients": np.array([math.nan + 0j])}, "coefficients"),
        ({"coefficients": np.array([1 + 1j * math.inf])}, "coefficients"),
    ])
    def test_scene_rejects_non_finite(self, kwargs, field):
        given = {"support": (0,), "coefficients": np.array([1.0 + 0j]),
                 "noise_var": 1.0, **kwargs}
        with pytest.raises(ValueError, match=field):
            SparseScene(**given)

    @pytest.mark.parametrize("support, what", [
        ((3, 3), "distinct"), ((3, 4, 5), "one coefficient per support")])
    def test_scene_rejects_bad_support(self, support, what):
        with pytest.raises(ValueError, match=what):
            SparseScene(support=support, coefficients=np.ones(2, complex),
                        noise_var=1.0)

    @pytest.mark.parametrize("virtual_snr", [math.nan, math.inf, -1.0])
    def test_fa_rejects_bad_virtual_snr(self, virtual_snr):
        pool = gen_pool(8, 16, seed=9)
        with pytest.raises(ValueError, match="virtual_snr"):
            ml_fa_trial(pool, scene_with_snr(1.0), 4, virtual_snr,
                        np.random.default_rng(0), 10)

    @pytest.mark.parametrize("n_trials", [0, 2.5, "10"])
    def test_rejects_bad_trial_count(self, n_trials):
        pool = gen_pool(8, 16, seed=9)
        scene = scene_with_snr(1.0)
        with pytest.raises(ValueError, match="n_trials"):
            ml_md_trial(pool, scene, 0, np.random.default_rng(0), n_trials)
        with pytest.raises(ValueError, match="n_trials"):
            ml_fa_trial(pool, scene, 4, 1.0, np.random.default_rng(0),
                        n_trials)

    def test_index_validation(self):
        pool = gen_pool(8, 16, seed=9)
        scene = scene_with_snr(1.0, support=(3,))
        with pytest.raises(ValueError):
            ml_md_trial(pool, scene, 1, np.random.default_rng(0), 10)
        with pytest.raises(ValueError):
            ml_fa_trial(pool, scene, 3, 1.0, np.random.default_rng(0), 10)

    @pytest.mark.parametrize("virtual_index", [-1, 8, True, 3.0])
    def test_fa_rejects_virtual_index_outside_pool(self, virtual_index):
        # -1 aliases the active column 7; True and 3.0 pass for indices
        pool = gen_pool(4, 8, seed=9)
        scene = scene_with_snr(1.0, support=(7,))
        with pytest.raises(ValueError, match="virtual_index"):
            ml_fa_trial(pool, scene, virtual_index, 2.0,
                        np.random.default_rng(0), 1000)

    @pytest.mark.parametrize("user", [-1, True, 0.0])
    def test_md_rejects_non_index_user(self, user):
        pool = gen_pool(4, 8, seed=9)
        scene = scene_with_snr(1.0, support=(2, 7))
        with pytest.raises(ValueError, match="user"):
            ml_md_trial(pool, scene, user, np.random.default_rng(0), 10)

    @pytest.mark.parametrize("trial", ["md", "fa"])
    def test_trials_reject_support_outside_pool(self, trial):
        pool = gen_pool(4, 8, seed=9)
        scene = scene_with_snr(1.0, support=(-1, 2))
        with pytest.raises(ValueError, match="support index"):
            if trial == "md":
                ml_md_trial(pool, scene, 1, np.random.default_rng(0), 10)
            else:
                ml_fa_trial(pool, scene, 7, 1.0, np.random.default_rng(0), 10)


class TestExhaustiveSupportSearch:
    def test_recovers_support_at_high_snr(self):
        pool = gen_pool(6, 12, seed=10)
        scene = SparseScene(support=(1, 8),
                            coefficients=np.array([2.0 + 0j, -1.5 + 0.5j]),
                            noise_var=1e-4)
        y = received_stage1(pool, scene, np.random.default_rng(6))
        assert ml_support_search(pool, y, 2) == (1, 8)

    def test_size_guard(self):
        pool = gen_pool(4, 8, seed=0)
        with pytest.raises(ValueError):
            ml_support_search(pool, np.zeros(4, dtype=complex), 4)


class TestSpark:
    # spark reads a PreamblePool, so the pool's checks are its input guards:
    # a matrix that is not 2-D, is empty, or holds a non-finite entry or a
    # zero column never reaches it

    def test_duplicated_column(self):
        col = np.array([1.0, 2.0, 1.0]) / math.sqrt(6.0)
        m = np.column_stack([col, col, np.array([1.0, 0.0, 0.0])])
        assert spark_bruteforce(PreamblePool(m)) == 2

    def test_zero_column(self):
        with pytest.raises(ValueError, match="unit norm"):
            PreamblePool(np.column_stack([np.zeros(3), np.eye(3)]))

    def test_identity_matrix(self):
        assert spark_bruteforce(PreamblePool(np.eye(3))) == 4

    def test_spark_minus_one_is_rank(self):
        for seed in range(10):
            pool = gen_pool(4, 8, seed=seed)
            assert spark_bruteforce(pool) - 1 == np.linalg.matrix_rank(
                pool.matrix)

    def test_size_guard(self):
        with pytest.raises(ValueError, match="pool_size <= 24"):
            spark_bruteforce(normalized_pool(np.ones((2, 25))))

    @pytest.mark.parametrize("m", [np.ones(3), np.ones((2, 2, 2)),
                                   np.float64(1.0)])
    def test_rejects_non_matrix(self, m):
        with pytest.raises(ValueError, match="2-D"):
            PreamblePool(m)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan,
                                     complex(1.0, math.inf)])
    def test_rejects_non_finite(self, bad):
        m = np.eye(2, dtype=complex)
        m[0, 1] = bad
        with pytest.raises(ValueError, match="unit norm"):
            PreamblePool(m)

    @pytest.mark.parametrize("shape", [(3, 0), (0, 5)])
    def test_empty_matrix(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
            PreamblePool(np.zeros(shape, dtype=complex))

    @staticmethod
    def forbid_svd(monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("a det-certified pool reached the SVD")
        monkeypatch.setattr(np.linalg, "svd", no_svd)

    @pytest.mark.parametrize("n, L", [(4, 8), (6, 16)])
    def test_full_spark_pool_takes_no_svd(self, n, L, monkeypatch):
        self.forbid_svd(monkeypatch)
        assert spark_bruteforce(gen_pool(n, L, seed=1)) == n + 1

    def test_near_dependent_subset_takes_no_svd(self, monkeypatch):
        # column 3 of a full-spark 4 x 8 pool set to columns 0 + 1 + 2 plus
        # 0.0028 times column 4, normalized: the subset (0, 1, 2, 3) has
        # |det| 6.4e-5, which the certificate's margin 1e-6 n^(n/2) =
        # 1.6e-5 certifies and a margin of 1e-6 n^n = 2.56e-4 would not;
        # every other 4-column subset has |det| above 9e-3
        m = gen_pool(4, 8, seed=1).matrix.copy()
        column = m[:, 0] + m[:, 1] + m[:, 2] + 0.0028 * m[:, 4]
        m[:, 3] = column / np.linalg.norm(column)
        assert 1.6e-5 < abs(np.linalg.det(m[:, :4])) <= 2.56e-4
        self.forbid_svd(monkeypatch)
        assert spark_bruteforce(PreamblePool(m)) == 5

    @pytest.mark.parametrize("delta", [1e-6, 1e-9, 1e-11, 1e-13])
    @pytest.mark.parametrize("direction", ["column 1", "fresh"])
    def test_near_tolerance_columns(self, delta, direction):
        # column 2 = column 0 + delta * v: the pair (0, 2) has sigma ratio
        # about delta / 2, on either side of _RANK_TOL; with v = column 1
        # the triple (0, 1, 2) is dependent as well, and with a fresh v
        # the 4-column subsets through 0 and 2 are left to the SVD
        rng = np.random.default_rng(23)
        m = gen_pool(4, 8, seed=4).matrix.copy()
        v = m[:, 1] if direction == "column 1" else (
            rng.standard_normal(4) + 1j * rng.standard_normal(4))
        m[:, 2] = m[:, 0] + delta * v
        pool = normalized_pool(m)
        expected = spark_per_subset(pool.matrix)
        assert spark_bruteforce(pool) == expected
        if delta <= 1e-11:
            assert expected == 2
        else:
            assert expected == (3 if direction == "column 1" else 5)

    @pytest.mark.parametrize("batch", [1, 40, 200, 1200])
    @pytest.mark.parametrize("fill", ["full", "duplicate 0 7",
                                      "duplicate 3 4", "block 3"])
    def test_stack_edges(self, batch, fill, monkeypatch):
        # a 4 x 8 pool in stacks of 1 to 71 subsets: at 1200 entries its 70
        # four-column subsets fit one stack, below it they cross edges
        monkeypatch.setattr(signals, "_SVD_BATCH", batch)
        pool = degenerate_pool((4, 8), fill)
        assert spark_bruteforce(pool) == spark_per_subset(pool.matrix)

    def test_random_pools_match_per_subset_oracle(self):
        rng = np.random.default_rng(21)
        shapes = [(4, 8)] * 20 + [(3, 7), (2, 9)]
        pools = [gen_pool(n, L, seed=s) for s, (n, L) in enumerate(shapes)]
        pools += [normalized_pool(rng.standard_normal((3, 6)))
                  for _ in range(10)]
        for pool in pools:
            assert spark_bruteforce(pool) == spark_per_subset(pool.matrix)

    @pytest.mark.parametrize("shape, fill, expected", [
        ((4, 8), "duplicate 0 7", 2),
        ((4, 8), "duplicate 3 4", 2),
        ((4, 8), "block 1", 2),
        ((4, 8), "block 2", 3),
        ((5, 8), "block 2", 3),
        ((5, 8), "block 3", 4),
        ((5, 3), "full", 4),
        ((4, 4), "full", 5),
        ((3, 7), "block 1", 2),
        # every 3-column subset independent: spark n + 1 without a 4-column test
        ((3, 6), "full", 4),
        # fewer columns than rows, all independent: spark L + 1
        ((6, 2), "full", 3),
        # dependencies only below size r = min(L, n), in wide and tall pools
        ((6, 12), "duplicate 2 9", 2),
        ((6, 12), "block 1", 2),
        ((6, 12), "block 2", 3),
        ((6, 4), "duplicate 0 3", 2),
        ((6, 5), "block 2", 3),
        ((8, 4), "block 3", 4),
        ((6, 4), "full", 5),
    ])
    def test_degenerate_matrices_match_per_subset_oracle(self, shape, fill,
                                                         expected):
        pool = degenerate_pool(shape, fill)
        assert spark_bruteforce(pool) == spark_per_subset(pool.matrix) == \
            expected


class TestMmvIdentifiable:
    def test_detectable_user_boundary(self):
        # full-spark 4-column case: up to 3 users with full-rank coefficients
        assert mmv_identifiable(3, spark=5, rank_obs=4)
        assert not mmv_identifiable(4, spark=5, rank_obs=4)

    def test_zero_users(self):
        assert mmv_identifiable(0, spark=1, rank_obs=0)

    def test_single_measurement_vector(self):
        n = 10
        assert mmv_identifiable(5, spark=n + 1, rank_obs=1)
        assert not mmv_identifiable(6, spark=n + 1, rank_obs=1)

    def test_validation(self):
        with pytest.raises(ValueError):
            mmv_identifiable(1, spark=0, rank_obs=1)
