import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from cra.analytic import ProtocolParams, backlog_drift, mean_detected_split, \
    prob_singleton, throughput_cra1, throughput_maloha
from cra.sim import (
    _BLOCK_CELLS,
    _HEAVY_USERS_PER_PREAMBLE,
    Mode,
    Scheme,
    SessionChain,
    SimConfig,
    estimate_throughput,
    run_session,
    simulate_stability,
    stage1_outcome,
)

from helpers import capped_success_moments, exact_chain_means


def perfect_params(**over):
    base = dict(preamble_len=4, payload_len=8, pool_size=6, feedback_len=2.0,
                arrival_rate=0.01, p_md=0.0, p_fa=0.0)
    return ProtocolParams(**{**base, **over})


class TestStage1Outcome:
    def test_forced_single_user(self):
        p = perfect_params()
        rng = np.random.default_rng(0)
        s, c, d1, d2, d3 = stage1_outcome(1, p, rng, picks=[3])
        assert (s, c, d1, d2, d3) == (1, 0, 1, 0, 0)

    def test_forced_pure_collision(self):
        p = perfect_params()
        rng = np.random.default_rng(0)
        s, c, d1, d2, d3 = stage1_outcome(2, p, rng, picks=[5, 5])
        assert (s, c, d1, d2, d3) == (0, 1, 0, 1, 0)

    def test_no_users_all_false_alarms(self):
        p = perfect_params(p_fa=1.0, p_md=0.0)
        rng = np.random.default_rng(0)
        s, c, d1, d2, d3 = stage1_outcome(0, p, rng)
        assert (s, c, d1, d2, d3) == (0, 0, 0, 0, p.pool_size)

    def test_forced_picks_honoured_when_heavy(self):
        # K >= 30 L would take the multinomial draw; given picks win
        p = perfect_params()
        k = _HEAVY_USERS_PER_PREAMBLE * p.pool_size
        rng = np.random.default_rng(0)
        s, c, d1, d2, d3 = stage1_outcome(k, p, rng, picks=[2] * k)
        assert (s, c, d1, d2, d3) == (0, 1, 0, 1, 0)

    def test_pick_length_mismatch(self):
        with pytest.raises(ValueError):
            stage1_outcome(2, perfect_params(), np.random.default_rng(0),
                           picks=[1])

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

    @pytest.mark.parametrize(
        "k, heavy", [(1, False), (5, False), (20, False), (100, False),
                     (5, True), (100, True)],
        ids=["1", "5", "20", "100", "multinomial-5", "multinomial-100"])
    def test_conditional_means_match_lemma(self, fig_params, monkeypatch, k,
                                           heavy):
        if heavy:
            # every K takes the multinomial draw, also where singletons
            # are common enough for their mean to be tested
            monkeypatch.setattr("cra.sim._HEAVY_USERS_PER_PREAMBLE", 0)
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


class TestRunSession:
    def cfg(self, scheme, **over):
        return SimConfig(params=perfect_params(**over), scheme=scheme,
                         n_sessions=10, warmup_sessions=0, seed=0)

    def test_cra2_single_user(self):
        cfg = self.cfg(Scheme.CRA2)
        tr = run_session(cfg, np.random.default_rng(0), 0, 100.0,
                         forced_active=1)
        assert tr.detected_total == 1
        assert tr.successes == 1
        assert tr.session_len == cfg.params.overhead_len + cfg.params.payload_len

    def test_cra2_pure_collision(self):
        cfg = self.cfg(Scheme.CRA2)
        tr = run_session(cfg, np.random.default_rng(0), 0, 100.0,
                         forced_active=2, picks=[2, 2])
        assert tr.detected_total == 1
        assert tr.detected_collided == 1
        assert tr.successes == 0

    def test_cra1_overload_fails(self):
        cfg = self.cfg(Scheme.CRA1)
        n = cfg.params.preamble_len
        tr = run_session(cfg, np.random.default_rng(0), 0, 1.0,
                         forced_active=n, picks=list(range(n)))
        assert tr.detected_singleton == n
        assert tr.successes == 0
        assert tr.session_len == cfg.params.fixed_session_len

    def test_cra1_single_user(self):
        cfg = self.cfg(Scheme.CRA1)
        tr = run_session(cfg, np.random.default_rng(0), 0, 1.0,
                         forced_active=1)
        assert tr.successes == 1

    def test_maloha_all_orthogonal(self):
        cfg = self.cfg(Scheme.MC_ALOHA)
        n = cfg.params.preamble_len
        assert cfg.params.pool_size == n  # forced L := N
        tr = run_session(cfg, np.random.default_rng(0), 0, 1.0,
                         forced_active=n, picks=list(range(n)))
        assert tr.successes == n

    def test_maloha_above_channel_count_fails(self):
        # the orthogonal receiver decodes at most preamble_len packets;
        # this cap is what produces the Poisson-cdf factor in the closed form
        cfg = self.cfg(Scheme.MC_ALOHA)
        n = cfg.params.preamble_len
        tr = run_session(cfg, np.random.default_rng(0), 0, 1.0,
                         forced_active=n + 1, picks=list(range(n)) + [0])
        assert tr.successes == 0

    def test_fast_retrial_backlog(self):
        cfg = SimConfig(params=perfect_params(), scheme=Scheme.CRA2,
                        mode=Mode.FAST_RETRIAL, n_sessions=10,
                        warmup_sessions=0, seed=0)
        tr = run_session(cfg, np.random.default_rng(0), 0, 1.0,
                         forced_active=3, picks=[1, 1, 2])
        assert tr.backlog == 3 - tr.detected_singleton


class TestSimConfig:
    def test_warmup_bound(self, fig_params):
        with pytest.raises(ValueError):
            SimConfig(params=fig_params, n_sessions=10, warmup_sessions=10)

    def test_maloha_forces_pool_size(self, fig_params):
        cfg = SimConfig(params=fig_params, scheme=Scheme.MC_ALOHA)
        assert cfg.params.pool_size == fig_params.preamble_len


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
        a = [SessionChain(cfg).next_session() for _ in range(50)]
        b = [SessionChain(cfg).next_session() for _ in range(50)]
        assert a == b

    def test_throughput_is_ratio(self, fig_params):
        cfg = SimConfig(params=fig_params, n_sessions=500, warmup_sessions=0,
                        seed=5)
        chain = SessionChain(cfg)
        succ = 0
        time = 0.0
        for _ in range(500):
            tr = chain.next_session()
            succ += tr.successes
            time += tr.session_len
        est = estimate_throughput(
            SimConfig(params=fig_params, n_sessions=500, warmup_sessions=0,
                      seed=5))
        assert est.mean_throughput == pytest.approx(succ / time, rel=1e-12)
        assert est.total_time == pytest.approx(time, rel=1e-12)
        assert est.std_error >= 0.0

    def test_fast_retrial_cra1_is_chain_ratio(self, fig_params):
        # fast retrial carries the backlog over, so CRA-1 walks the session
        # chain there rather than the i.i.d. block path
        cfg = SimConfig(params=fig_params, scheme=Scheme.CRA1,
                        mode=Mode.FAST_RETRIAL, n_sessions=300,
                        warmup_sessions=20, seed=6)
        chain = SessionChain(cfg)
        traces = [chain.next_session() for _ in range(320)][20:]
        est = estimate_throughput(cfg)
        assert est.mean_throughput == pytest.approx(
            sum(t.successes for t in traces)
            / sum(t.session_len for t in traces), rel=1e-12)
        assert est.mean_active == pytest.approx(
            sum(t.active for t in traces) / 300, rel=1e-12)
        assert est.mean_detected == pytest.approx(
            sum(t.detected_total for t in traces) / 300, rel=1e-12)

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

    def test_matches_exact_chain_at_reference_point(self, fig_params):
        # validates the engine against the exact stationary distribution
        # of the session Markov chain; the oracle itself must reproduce the
        # means first computed by power iteration on the same chain
        exact_active, exact_detected = exact_chain_means(fig_params)
        assert exact_active == pytest.approx(18.637223747703747, rel=1e-6)
        assert exact_detected == pytest.approx(20.757356310902242, rel=1e-6)
        cfg = SimConfig(params=fig_params, scheme=Scheme.CRA2,
                        n_sessions=200_000, warmup_sessions=2_000, seed=7)
        est = estimate_throughput(cfg)
        assert est.mean_active == pytest.approx(exact_active, rel=0.01)
        assert est.mean_detected == pytest.approx(exact_detected, rel=0.01)

    def test_low_load_matches_closed_form(self, fig_params):
        # the Poisson steady-state approximation is tight at low load
        from cra.analytic import mean_active_cra2
        p = fig_params.with_traffic(0.4)
        cfg = SimConfig(params=p, scheme=Scheme.CRA2, n_sessions=100_000,
                        warmup_sessions=1_000, seed=8)
        est = estimate_throughput(cfg)
        assert est.mean_active == pytest.approx(mean_active_cra2(p), rel=0.01)


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
        for (L, K), cap in measured_caps.items():
            n = 40_000
            counts = np.zeros(L + 1)
            for _ in range(n):
                _, c = np.unique(rng.integers(0, L, K), return_counts=True)
                counts[int((c == 1).sum())] += 1
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
        # analytic drift rate; from 50 000 (> 30 L) every session takes the
        # multinomial occupancy draw
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
