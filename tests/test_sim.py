import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from cra.analytic import ProtocolParams, backlog_drift, mean_detected_split, \
    prob_singleton, steady_state_cra2, throughput_cra1, throughput_maloha
from cra.sim import (
    _BLOCK_CELLS,
    _POOL_STATES,
    Mode,
    Scheme,
    SimConfig,
    _cra2_sessions,
    _iid_sessions,
    _ratio_estimate,
    _session_rule,
    _walk,
    estimate_throughput,
    simulate_stability,
    stage1_outcome,
)

from helpers import PickedOccupancy, capped_success_moments, \
    exact_chain_means, exact_chain_throughput, exact_occupancy_pmf, \
    split_chain, split_detect_prob


def perfect_params(**over):
    base = dict(preamble_len=4, payload_len=8, pool_size=6, feedback_len=2.0,
                arrival_rate=0.01, p_md=0.0, p_fa=0.0)
    return ProtocolParams(**{**base, **over})


def batch_se(values, n_batches=50):
    """Batch-means standard error of the mean of a correlated series."""
    means = [b.mean() for b in np.array_split(values, n_batches)]
    return float(np.std(means, ddof=1) / math.sqrt(n_batches))


class TestStage1Outcome:
    def test_forced_single_user(self):
        p = perfect_params()
        s, c, d1, d2, d3 = stage1_outcome(1, p, PickedOccupancy([3]))
        assert (s, c, d1, d2, d3) == (1, 0, 1, 0, 0)

    def test_forced_pure_collision(self):
        p = perfect_params()
        s, c, d1, d2, d3 = stage1_outcome(2, p, PickedOccupancy([5, 5]))
        assert (s, c, d1, d2, d3) == (0, 1, 0, 1, 0)

    def test_no_users_all_false_alarms(self):
        p = perfect_params(p_fa=1.0, p_md=0.0)
        rng = np.random.default_rng(0)
        s, c, d1, d2, d3 = stage1_outcome(0, p, rng)
        assert (s, c, d1, d2, d3) == (0, 0, 0, 0, p.pool_size)

    def test_accounting_identities_random(self, fig_params):
        rng = np.random.default_rng(1)
        L = fig_params.pool_size
        for _ in range(300):
            k = int(rng.integers(0, 80))
            s, c, d1, d2, d3 = stage1_outcome(k, fig_params, rng)
            assert s + c <= min(k, L)
            assert d1 <= s and d2 <= c
            assert d3 <= L - s - c
            # a singleton preamble holds 1 user, a collided one >= 2
            assert s + 2 * c <= k

    @pytest.mark.parametrize("k", [1, 5, 20, 100])
    def test_conditional_means_match_lemma(self, fig_params, k):
        rng = np.random.default_rng(100 + k)
        n = 100_000
        sums = np.zeros(3)
        sq = np.zeros(3)
        for _ in range(n):
            s, c, d1, d2, d3 = stage1_outcome(k, fig_params, rng)
            d = np.array([d1, d2, d3], dtype=float)
            sums += d
            sq += d * d
        means = sums / n
        ses = np.sqrt((sq / n - means ** 2) / n)
        expected = np.array(mean_detected_split(k, fig_params))
        assert np.all(np.abs(means - expected) <= 4 * ses + 1e-12)

    @pytest.mark.parametrize("pool, k", [(4, 3), (3, 5)])
    def test_occupancy_law_matches_enumeration(self, pool, k):
        # the exact (singleton, collided) law of k users picking one of
        # `pool` preambles each, against the empirical law of the
        # occupancy draw under perfect detection
        exact = exact_occupancy_pmf(k, pool)
        p = perfect_params(pool_size=pool)
        rng = np.random.default_rng(pool * 10 + k)
        n = 20_000
        seen = {}
        for _ in range(n):
            s, c, d1, d2, d3 = stage1_outcome(k, p, rng)
            assert (d1, d2, d3) == (s, c, 0)
            seen[s, c] = seen.get((s, c), 0) + 1
        for cell in exact.keys() | seen.keys():
            prob = exact.get(cell, 0.0)
            se = math.sqrt(prob * (1.0 - prob) / n)
            assert abs(seen.get(cell, 0) / n - prob) <= 4 * se, cell


class TestRunSession:
    """Bookkeeping of one session.  At arrival rate 0 a CRA-2 walk's first
    session holds exactly its initial backlog, which forces K; a CRA-1 or
    ALOHA session of the i.i.d. path gets its K and its users' picks from a
    generator that returns them."""

    def walk(self, k, mode=Mode.DROP, horizon=1, seed=0, **over):
        cfg = SimConfig(params=perfect_params(arrival_rate=0.0, **over),
                        mode=mode, n_sessions=10, warmup_sessions=0,
                        seed=seed)
        return _walk(cfg, horizon, backlog=k)

    @staticmethod
    def iid_session(monkeypatch, scheme, picks):
        """(successes, active, detected) of one ``_iid_sessions`` session
        under perfect detection whose K = len(picks) users pick ``picks``."""
        default_rng = np.random.default_rng

        class Forced:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def poisson(self, lam, size=None):
                return np.full(size, len(picks))

            def integers(self, low, high, size=None):
                assert size == len(picks) and max(picks) < high
                return np.array(picks, dtype=np.int64)

            def __getattr__(self, name):
                return getattr(self.rng, name)

        monkeypatch.setattr("cra.sim.np.random.default_rng", Forced)
        cfg = SimConfig(params=perfect_params(), scheme=scheme, n_sessions=1,
                        warmup_sessions=0)
        return tuple(int(x[0]) for x in _iid_sessions(cfg, 1))

    def test_cra2_single_user(self):
        succ, active, detected = self.walk(1)
        assert (succ[0], active[0], detected[0]) == (1, 1, 1)

    def test_cra2_session_len_follows_detected(self, fig_params):
        cfg = SimConfig(params=fig_params, scheme=Scheme.CRA2, n_sessions=300,
                        warmup_sessions=20, seed=4)
        detected = _cra2_sessions(cfg, 320)[2][20:]
        p = cfg.params
        lengths = p.overhead_len + p.payload_len * detected
        assert estimate_throughput(cfg).mean_session_len == \
            float(lengths.sum()) / 300

    def test_cra2_pure_collision(self):
        # three users on two preambles: one preamble always collides, is
        # detected (perfect detection) and books no success; with all three
        # on one preamble the session is a pure collision.  In drop mode the
        # unserved users leave, so the next session is empty
        seen = set()
        for seed in range(20):
            succ, active, detected = self.walk(3, horizon=2, pool_size=2,
                                               seed=seed)
            assert active[0] == 3 and succ[0] == detected[0] - 1
            assert active[1] == 0
            seen.add((int(detected[0]), int(succ[0])))
        assert seen == {(1, 0), (2, 1)}

    def test_cra1_overload_fails(self, monkeypatch):
        # CRA-1's multiuser detection decodes up to N - 1 users: K = N - 1
        # users on distinct preambles all book, while K = N detected
        # singletons book nothing
        n = perfect_params().preamble_len
        assert self.iid_session(monkeypatch, Scheme.CRA1, range(n - 1)) \
            == (n - 1, n - 1, n - 1)
        assert self.iid_session(monkeypatch, Scheme.CRA1, range(n)) \
            == (0, n, n)

    def test_cra1_single_user(self, monkeypatch):
        assert self.iid_session(monkeypatch, Scheme.CRA1, [5]) == (1, 1, 1)

    def test_fixed_session_len(self, fig_params):
        cfg = SimConfig(params=fig_params, scheme=Scheme.CRA1, n_sessions=100,
                        warmup_sessions=0, seed=4)
        assert estimate_throughput(cfg).mean_session_len == \
            pytest.approx(fig_params.fixed_session_len, rel=1e-15)

    def test_maloha_all_orthogonal(self):
        p = SimConfig(params=perfect_params(), scheme=Scheme.MC_ALOHA).params
        n = p.preamble_len
        assert p.pool_size == n  # forced L := N
        _, _, d1, _, _ = stage1_outcome(n, p, PickedOccupancy(range(n)))
        # all n detected singletons book, since K = N is within the cap
        assert d1 == n
        assert _session_rule(Scheme.MC_ALOHA, p)[2] == n

    def test_maloha_above_channel_count_fails(self, monkeypatch):
        # the orthogonal receiver decodes at most preamble_len packets; this
        # cap is what produces the Poisson-cdf factor in the closed form.
        # K = N users on the N channels all book; with K = N + 1 the N - 1
        # detected singletons book nothing
        n = perfect_params().preamble_len
        assert self.iid_session(monkeypatch, Scheme.MC_ALOHA, range(n)) \
            == (n, n, n)
        assert self.iid_session(monkeypatch, Scheme.MC_ALOHA,
                                [*range(n), 0]) == (0, n + 1, n)

    def test_fast_retrial_backlog(self, fig_params, monkeypatch):
        # the users a session leaves unserved are the next session's K
        succ, active, _ = self.walk(3, mode=Mode.FAST_RETRIAL, horizon=50,
                                    pool_size=2)
        assert active[0] == 3
        assert np.array_equal(active[1:], (active - succ)[:-1])
        # over a 2000-session walk at load 0.8, the users waiting at the end
        # are those waiting at the start plus the Poisson arrivals minus the
        # successes: none leaves unserved and none is made up
        default_rng = np.random.default_rng
        arrivals = []

        class Counting:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def poisson(self, lam, size=None):
                arrivals.append(self.rng.poisson(lam, size))
                return arrivals[-1]

            def __getattr__(self, name):
                return getattr(self.rng, name)

        cfg = SimConfig(params=fig_params.with_traffic(0.8),
                        mode=Mode.FAST_RETRIAL, n_sessions=10,
                        warmup_sessions=0, seed=3)
        succ = _walk(cfg, 2_000, backlog=5)[0]
        monkeypatch.setattr("cra.sim.np.random.default_rng", Counting)
        backlog = simulate_stability(cfg, 2_000, initial_backlog=5)
        assert backlog.size == 2_000 == len(arrivals)
        assert 5 + sum(int(a) for a in arrivals) - int(succ.sum()) \
            == backlog[-1]


class TestSimConfig:
    def test_warmup_bound(self, fig_params):
        with pytest.raises(ValueError):
            SimConfig(params=fig_params, n_sessions=10, warmup_sessions=10)

    def test_maloha_forces_pool_size(self, fig_params):
        cfg = SimConfig(params=fig_params, scheme=Scheme.MC_ALOHA)
        assert cfg.params.pool_size == fig_params.preamble_len

    @pytest.mark.parametrize("scheme, mode", [
        (Scheme.CRA1, Mode.DROP), (Scheme.CRA2, Mode.DROP),
        (Scheme.CRA2, Mode.FAST_RETRIAL), (Scheme.MC_ALOHA, Mode.DROP)],
        ids=lambda v: v.value)
    def test_rejects_what_the_samplers_cannot_take(self, fig_params, scheme,
                                                   mode):
        # numpy's Poisson sampler refuses a mean of 1e300, and no sampler
        # takes a pool beyond int64; both are refused before any draw
        with pytest.raises(ValueError, match="arrival_rate"):
            SimConfig(params=replace(fig_params, arrival_rate=1e300),
                      scheme=scheme, mode=mode)
        with pytest.raises(ValueError, match="pool_size"):
            SimConfig(params=replace(fig_params, pool_size=2 ** 63),
                      scheme=scheme, mode=mode)

    def test_fast_retrial_needs_cra2(self, fig_params):
        # above its cap a CRA-1 or ALOHA session serves no one and keeps
        # its K users, a set no walk leaves; the refusal comes before the
        # sampler checks, so it is what a bad run is told first
        for scheme in (Scheme.CRA1, Scheme.MC_ALOHA):
            for p in (fig_params, replace(fig_params, arrival_rate=1e300)):
                with pytest.raises(ValueError, match="mode"):
                    SimConfig(params=p, scheme=scheme, mode=Mode.FAST_RETRIAL)

    @pytest.mark.parametrize("scheme, mode", [
        (Scheme.CRA1, Mode.DROP), (Scheme.CRA2, Mode.FAST_RETRIAL)],
        ids=lambda v: v.value)
    def test_pool_beyond_memory_names_pool_size(self, fig_params, scheme,
                                                mode):
        # 10^12 preambles: per-preamble arrays of 7.28 TiB, which numpy
        # refuses at once; CRA-2 drop mode allocates none and runs
        cfg = SimConfig(params=replace(fig_params, pool_size=10 ** 12),
                        scheme=scheme, mode=mode, n_sessions=10,
                        warmup_sessions=1)
        with pytest.raises(ValueError, match="pool_size 1000000000000"):
            estimate_throughput(cfg)
        estimate_throughput(replace(cfg, scheme=Scheme.CRA2, mode=Mode.DROP))


class TestEstimateThroughput:
    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    def test_zero_arrivals(self, scheme):
        cfg = SimConfig(params=perfect_params(arrival_rate=0.0), scheme=scheme,
                        n_sessions=200, warmup_sessions=10, seed=3)
        est = estimate_throughput(cfg)
        assert est.mean_throughput == 0.0
        assert est.mean_active == 0.0

    def test_deterministic_replay(self, fig_params):
        cfg = SimConfig(params=fig_params, n_sessions=2000,
                        warmup_sessions=100, seed=42)
        assert estimate_throughput(cfg) == estimate_throughput(cfg)

    def test_trace_stream_deterministic(self, fig_params):
        cfg = SimConfig(params=fig_params, n_sessions=10, warmup_sessions=0,
                        seed=9)
        for a, b in zip(_walk(cfg, 50), _walk(cfg, 50)):
            assert np.array_equal(a, b)

    def test_throughput_is_ratio(self, fig_params):
        cfg = SimConfig(params=fig_params, n_sessions=500, warmup_sessions=0,
                        seed=5)
        succ, _, detected = _cra2_sessions(cfg, 500)
        time = float((fig_params.overhead_len
                      + fig_params.payload_len * detected).sum())
        est = estimate_throughput(cfg)
        assert est.mean_throughput == pytest.approx(succ.sum() / time,
                                                    rel=1e-12)
        assert est.mean_session_len * est.sessions_run == pytest.approx(
            time, rel=1e-12)
        assert est.std_error >= 0.0

    def test_short_run_se_has_one_batch_per_session(self, fig_params):
        # fewer than 30 measured sessions: each session is its own batch
        n = 10
        cfg = SimConfig(params=fig_params, scheme=Scheme.CRA2, n_sessions=n,
                        warmup_sessions=0, seed=12)
        succ, _, detected = _cra2_sessions(cfg, n)
        lengths = fig_params.overhead_len + fig_params.payload_len * detected
        est = estimate_throughput(cfg)
        assert est.std_error == pytest.approx(
            np.std(succ / lengths, ddof=1) / math.sqrt(n), rel=1e-12)
        assert est.detected_std_error == pytest.approx(
            np.std(detected, ddof=1) / math.sqrt(n), rel=1e-12)

    def test_long_run_se_has_30_batches(self, fig_params):
        # 90 measured sessions make 30 contiguous batches of 3
        cfg = SimConfig(params=fig_params, scheme=Scheme.CRA2, n_sessions=90,
                        warmup_sessions=10, seed=13)
        succ, _, detected = (x[10:].reshape(30, 3)
                             for x in _cra2_sessions(cfg, 100))
        lengths = fig_params.overhead_len + fig_params.payload_len * detected
        rates = succ.sum(axis=1) / lengths.sum(axis=1)
        est = estimate_throughput(cfg)
        assert est.std_error == pytest.approx(
            np.std(rates, ddof=1) / math.sqrt(30), rel=1e-12)
        assert est.detected_std_error == pytest.approx(
            np.std(detected.mean(axis=1), ddof=1) / math.sqrt(30), rel=1e-12)

    def test_fast_retrial_cra2_is_chain_ratio(self, fig_params):
        # fast retrial carries the backlog over, so CRA-2 walks the session
        # chain there rather than its pooled drop-mode path
        cfg = SimConfig(params=fig_params, mode=Mode.FAST_RETRIAL,
                        n_sessions=300, warmup_sessions=20, seed=6)
        succ, active, detected = (x[20:] for x in _walk(cfg, 320))
        time = float((fig_params.overhead_len
                      + fig_params.payload_len * detected).sum())
        est = estimate_throughput(cfg)
        assert est.mean_throughput == pytest.approx(succ.sum() / time,
                                                    rel=1e-12)
        assert est.mean_active == pytest.approx(active.sum() / 300, rel=1e-12)
        assert est.mean_detected == pytest.approx(detected.sum() / 300,
                                                  rel=1e-12)

    @pytest.mark.parametrize("scheme", [Scheme.CRA1, Scheme.MC_ALOHA],
                             ids=lambda s: s.value)
    def test_iid_blocks_replay_and_mean_active(self, fig_params, scheme):
        # 3 full blocks of 3382 sessions (L = 310) and a partial fourth
        block = _BLOCK_CELLS // fig_params.pool_size
        cfg = SimConfig(params=fig_params, scheme=scheme, n_sessions=10_000,
                        warmup_sessions=500, seed=21)
        total = cfg.warmup_sessions + cfg.n_sessions
        assert total > 3 * block and total % block
        est = estimate_throughput(cfg)
        assert est == estimate_throughput(cfg)
        mean = fig_params.arrival_rate * fig_params.fixed_session_len
        se = math.sqrt(mean / cfg.n_sessions)  # Poisson variance = mean
        assert abs(est.mean_active - mean) <= 4 * se

    def test_walk_replay_and_mean_active(self, fig_params):
        # CRA-2 at load 1 walked with one occupancy draw per session
        cfg = SimConfig(params=fig_params, scheme=Scheme.CRA2,
                        n_sessions=12_000, warmup_sessions=500, seed=23)
        total = cfg.warmup_sessions + cfg.n_sessions
        first = _walk(cfg, total)
        for a, b in zip(first, _walk(cfg, total)):
            assert np.array_equal(a, b)
        active = first[1][cfg.warmup_sessions:]
        exact_active, _ = exact_chain_means(fig_params)
        assert abs(active.mean() - exact_active) <= 4 * batch_se(active)

    @pytest.mark.parametrize("load", [0.4, 1.0, 1.6])
    @pytest.mark.parametrize("scheme", [Scheme.CRA1, Scheme.MC_ALOHA],
                             ids=lambda s: s.value)
    def test_iid_matches_closed_form(self, fig_params, scheme, load):
        # closed forms are exact for i.i.d. sessions; the SE is exact too
        p = fig_params.with_traffic(load)
        cfg = SimConfig(params=p, scheme=scheme, n_sessions=20_000,
                        warmup_sessions=100, seed=31)
        n = p.preamble_len
        if scheme is Scheme.CRA1:
            exact, pool, cap = throughput_cra1(p), p.pool_size, n - 1
        else:
            exact, pool, cap = throughput_maloha(p), n, n
        m1, m2 = capped_success_moments(
            p.arrival_rate * p.fixed_session_len, pool, cap, p.p_md)
        assert m1 / p.fixed_session_len == pytest.approx(exact, rel=1e-9)
        se = math.sqrt((m2 - m1 * m1) / cfg.n_sessions) / p.fixed_session_len
        est = estimate_throughput(cfg)
        assert abs(est.mean_throughput - exact) <= 4 * se

    def test_cra1_one_symbol_preamble_decodes_nothing(self, fig_params):
        # with N = 1 only K <= N - 1 = 0 active users would decode
        p = replace(fig_params, preamble_len=1)
        assert throughput_cra1(p) == 0.0
        cfg = SimConfig(params=p, scheme=Scheme.CRA1, n_sessions=2_000,
                        warmup_sessions=10, seed=5)
        est = estimate_throughput(cfg)
        assert est.mean_active > 0.5
        assert est.mean_throughput == throughput_cra1(p)

    def test_matches_exact_chain_at_reference_point(self, fig_params):
        # the exact stationary means of the session Markov chain must
        # reproduce those first computed by power iteration on the same
        # chain; acceptance criterion 2 holds the simulated means within 1%
        # of this oracle at this point
        exact_active, exact_detected = exact_chain_means(fig_params)
        assert exact_active == pytest.approx(18.637223747703747, rel=1e-6)
        assert exact_detected == pytest.approx(20.757356310902242, rel=1e-6)

    def test_low_load_matches_closed_form(self, fig_params):
        # the Poisson steady-state approximation is tight at low load
        p = fig_params.with_traffic(0.4)
        cfg = SimConfig(params=p, scheme=Scheme.CRA2, n_sessions=100_000,
                        warmup_sessions=1_000, seed=8)
        est = estimate_throughput(cfg)
        assert est.mean_active == pytest.approx(
            steady_state_cra2(p).mean_active, rel=0.01)


class TestCra2Sessions:
    """CRA-2 drop mode draws each session's detected count as one Bin(L, s)
    and its successes given that count as Bin(D', theta) (Poisson
    splitting); ``_walk``, which draws each session's K and then its
    occupancy counts given K, is its conditional-on-K reference."""

    # a pool small enough that every transition row is visited often
    SMALL_POOL = ProtocolParams(preamble_len=4, payload_len=8, pool_size=6,
                                feedback_len=1.0, arrival_rate=1.0 / 12,
                                p_md=0.05, p_fa=0.05)

    @pytest.mark.parametrize("rate, p_md, p_fa", [
        pytest.param(rate, p_md, p_fa, id=f"{name}-{p_md}-{p_fa}")
        for name, rate in [("m-to-0", 1e-300), ("m-1e-8", 1.2e-9),
                           ("m-100-to-900", 100.0), ("m-1e15", 1e15)]
        for p_md, p_fa in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (0.05, 0.05)]
    ] + [pytest.param(2.42e-16, 0.7, 0.0, id="m-2e-16-0.7-0.0")])
    def test_category_probabilities_valid(self, monkeypatch, rate, p_md,
                                          p_fa):
        # m = rate * (6 + 8 D) / 6.  At 1.2e-9, m is about 1e-8, where
        # 1 - e^-m would lose half its digits without expm1; at 100, m runs
        # from 100 (D = 0) to 900 (D = 6), where e^-m underflows to 0; at
        # 2.42e-16 with p_md = 0.7 and p_fa = 0, D stays 0 and q m e^-m / s
        # rounds to 1 + 2^-52, so theta must be clamped at 1
        drawn = []
        default_rng = np.random.default_rng

        class Recorder:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def binomial(self, n, prob, size=None):
                drawn.append((n, prob))
                return self.rng.binomial(n, prob, size)

        monkeypatch.setattr("cra.sim.np.random.default_rng", Recorder)
        cfg = SimConfig(params=perfect_params(arrival_rate=rate, p_md=p_md,
                                              p_fa=p_fa),
                        n_sessions=200, warmup_sessions=0, seed=7)
        succ, active, detected = _cra2_sessions(cfg, 200)
        L = cfg.params.pool_size
        # the loop's draws of D' (one scalar, or one pool refill, per draw),
        # then the one vector draw of every session's successes
        *in_loop, (counts, theta) = drawn
        sizes, s = np.array(in_loop).T
        assert 1 <= s.size <= 200 and np.all(sizes == L)
        assert theta.shape == (200,)
        assert np.array_equal(counts, detected)
        for prob in (s, theta):
            assert not np.isnan(prob).any()
            assert np.all((prob >= 0.0) & (prob <= 1.0))
        assert np.all(np.isfinite(active)) and np.all(active >= 0.0)
        if p_md == 1.0 or rate in (1e-300, 1e15):
            # nothing is detected, or a singleton is all but impossible
            assert not succ.any()
        if p_md == 0.0 and p_fa == 1.0:
            assert np.all(detected == L)
        if rate == 1e15 and p_md == 0.0:
            assert np.all(detected == L)  # every preamble collides

    @pytest.mark.parametrize("load", [0.1, 1.0, 2.0, "small-pool"])
    def test_split_chain_matches_k_chain(self, fig_params, load):
        # the Poisson-split chain, with no sum over K, against the chain
        # that sums over K and the occupancy law given K
        p = ProtocolParams(preamble_len=4, payload_len=8, pool_size=6,
                           feedback_len=1.0, arrival_rate=1.0 / 12,
                           p_md=0.05, p_fa=0.05) \
            if load == "small-pool" else fig_params.with_traffic(load)
        eta, mean_active, mean_detected = split_chain(p)
        assert eta == pytest.approx(exact_chain_throughput(p), rel=1e-12)
        assert (mean_active, mean_detected) == pytest.approx(
            exact_chain_means(p), rel=1e-12)

    def test_small_pool_matches_exact_chain_and_walk(self):
        # Poisson splitting is exact for any L, so a wrong category law
        # would show first on a small pool: L = 6 at load 1
        p = ProtocolParams(preamble_len=4, payload_len=8, pool_size=6,
                           feedback_len=1.0, arrival_rate=1.0 / 12,
                           p_md=0.05, p_fa=0.05)
        cfg = SimConfig(params=p, scheme=Scheme.CRA2, n_sessions=40_000,
                        warmup_sessions=100, seed=3)
        est = estimate_throughput(cfg)
        exact_eta = exact_chain_throughput(p)
        exact_detected = exact_chain_means(p)[1]
        assert abs(est.mean_throughput - exact_eta) <= 4 * est.std_error
        assert abs(est.mean_detected - exact_detected) \
            <= 4 * est.detected_std_error
        succ, active, detected = (
            x[100:] for x in _walk(replace(cfg, seed=4), 40_100))
        walk = _ratio_estimate(succ, p.overhead_len + p.payload_len * detected,
                               active, detected)
        assert abs(est.mean_throughput - walk.mean_throughput) \
            <= 4 * math.hypot(est.std_error, walk.std_error)
        assert abs(est.mean_detected - walk.mean_detected) \
            <= 4 * math.hypot(est.detected_std_error, walk.detected_std_error)

    def test_pooled_transitions_follow_split_law(self):
        # every row D -> D' of the simulated path is held to Bin(L, s(D)),
        # s from the helper's own formula; a pool shared between two states,
        # or variates drawn with the wrong state's s, fail here.  Each row
        # tested has a false-alarm rate of 1e-3, so at most 0.7% over the 7
        # states of L = 6
        p = self.SMALL_POOL
        cfg = SimConfig(params=p, scheme=Scheme.CRA2, n_sessions=200_000,
                        warmup_sessions=0, seed=23)
        detected = _cra2_sessions(cfg, cfg.n_sessions)[2]
        states, _, s = split_detect_prob(p)
        L = p.pool_size
        moves = np.bincount(detected[:-1] * (L + 1) + detected[1:],
                            minlength=(L + 1) ** 2).reshape(L + 1, L + 1)
        tested = 0
        for d, row in enumerate(moves):
            n = int(row.sum())
            if n < 1_000:
                continue
            expected = n * stats.binom.pmf(states, L, s[d])
            # cells expecting fewer than 5 are merged into one
            few = expected < 5.0
            observed, expected = row[~few], expected[~few]
            if few.any():
                observed = np.append(observed, row[few].sum())
                expected = np.append(expected, n - expected.sum())
            pvalue = stats.chisquare(observed, expected).pvalue
            assert pvalue > 1e-3, (d, n, row, pvalue)
            tested += 1
        assert tested >= 4

    def test_pool_cap_keeps_the_law(self, monkeypatch):
        # emptying every pool once two states hold one discards only unused
        # variates, so the small-pool estimate still matches the exact chain
        monkeypatch.setattr("cra.sim._POOL_STATES", 2)
        p = self.SMALL_POOL
        cfg = SimConfig(params=p, scheme=Scheme.CRA2, n_sessions=40_000,
                        warmup_sessions=100, seed=3)
        est = estimate_throughput(cfg)
        assert abs(est.mean_throughput - exact_chain_throughput(p)) \
            <= 4 * est.std_error
        assert abs(est.mean_detected - exact_chain_means(p)[1]) \
            <= 4 * est.detected_std_error

    def test_huge_pool_bounds_pooled_states(self, fig_params):
        # with L = 10^12 nearly every session lands on a new state; the
        # number of states holding pools, read from the kernel's frame at
        # every line, reaches the cap and never passes it
        p = replace(fig_params, pool_size=10 ** 12)
        cfg = SimConfig(params=p, scheme=Scheme.CRA2, n_sessions=3_000,
                        warmup_sessions=0, seed=9)
        held = []

        def tracer(frame, event, arg):
            if frame.f_code is _cra2_sessions.__code__:
                held.append(len(frame.f_locals.get("pools", ())))
                return tracer
            return None

        sys.settrace(tracer)
        try:
            succ, active, detected = _cra2_sessions(cfg, cfg.n_sessions)
        finally:
            sys.settrace(None)
        assert max(held) == _POOL_STATES
        assert np.all((0 <= detected) & (detected <= p.pool_size))
        assert np.all((0 <= succ) & (succ <= detected))
        assert np.all(np.isfinite(active))


class TestBinomialApproximationCalibration:
    def test_singleton_count_tv_distance(self):
        # Treating the per-preamble singleton indicators as independent
        # makes the singleton count Binomial(L, alpha1).  That matches the
        # mean exactly but overstates the variance, so the TV distance is
        # large and *grows* with L/K; the frozen thresholds document the
        # measured quality of the approximation rather than a limit law.
        rng = np.random.default_rng(11)
        measured_caps = {(16, 8): 0.40, (32, 8): 0.57, (64, 8): 0.69,
                         (64, 16): 0.51}
        n = 40_000
        for (L, K), cap in measured_caps.items():
            # n trials of K picks each, counted in (trial, preamble) cells
            cells = rng.integers(0, L, (n, K)) + L * np.arange(n)[:, None]
            occupancy = np.bincount(cells.ravel(), minlength=n * L)
            singletons = np.count_nonzero(occupancy.reshape(n, L) == 1, axis=1)
            counts = np.bincount(singletons, minlength=L + 1)
            ref = stats.binom.pmf(np.arange(L + 1), L, prob_singleton(K, L))
            tv = 0.5 * np.abs(counts / n - ref).sum()
            assert tv < cap
            # the mean itself is exact
            emp_mean = (counts / n) @ np.arange(L + 1)
            assert emp_mean == pytest.approx(L * prob_singleton(K, L),
                                             abs=0.05)


class TestStability:
    def fast_cfg(self, params, seed=0):
        return SimConfig(params=params, scheme=Scheme.CRA2,
                         mode=Mode.FAST_RETRIAL, n_sessions=10,
                         warmup_sessions=0, seed=seed)

    def test_requires_fast_retrial(self, fig_params):
        cfg = SimConfig(params=fig_params, mode=Mode.DROP)
        with pytest.raises(ValueError):
            simulate_stability(cfg, 10)

    def test_zero_arrivals_zero_backlog(self):
        cfg = self.fast_cfg(perfect_params(arrival_rate=0.0))
        traj = simulate_stability(cfg, 200)
        assert np.all(traj == 0)

    def test_low_load_recurrent(self, fig_params):
        # empirical recurrence fixture: at load 0.2 the backlog keeps
        # returning to zero
        cfg = self.fast_cfg(fig_params.with_traffic(0.2), seed=13)
        traj = simulate_stability(cfg, 20_000)
        zero_visits = int((traj == 0).sum())
        assert zero_visits > 1_000
        assert traj.max() < 100

    def test_overload_slope_matches_drift(self, fig_params):
        # deep in the saturated regime the trajectory climbs at the
        # analytic drift rate
        p = fig_params.with_traffic(3.0)
        cfg = self.fast_cfg(p, seed=17)
        horizon = 200
        for start in (5_000, 50_000):
            traj = simulate_stability(cfg, horizon, initial_backlog=start)
            slope = (traj[-1] - traj[0]) / (horizon - 1)
            drift = backlog_drift(start, p)
            assert slope == pytest.approx(drift, rel=0.05), start

    def test_stop_backlog_truncates(self, fig_params):
        p = fig_params.with_traffic(3.0)
        cfg = self.fast_cfg(p, seed=19)
        traj = simulate_stability(cfg, 10_000, initial_backlog=100,
                                  stop_backlog=1_000)
        assert traj.size < 10_000
        assert traj[-1] > 1_000
