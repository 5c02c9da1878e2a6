import math
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from cra.analytic import ProtocolParams, backlog_drift, mean_detected_split, \
    prob_singleton, steady_state_cra2, throughput_cra1, throughput_maloha
from cra.sim import (
    _BLOCK_CELLS,
    _POOL_CHUNK,
    _POOL_STATES,
    Mode,
    Scheme,
    SimConfig,
    _cra2_sessions,
    _iid_sessions,
    _ratio_estimate,
    _session_rule,
    _startup_detected,
    _walk,
    estimate_throughput,
    simulate_stability,
)

from helpers import CountedDraws, PickedOccupancy, batch_means_std_errors, \
    capped_success_moments, drop_walk, exact_chain_means, \
    exact_chain_throughput, exact_occupancy_pmf, occupancy_pmf_dp, \
    retrial_chain_moments, split_chain, split_detect_prob, stage1_outcome


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
        assert stage1_outcome(1, p, PickedOccupancy([3])) == (1, 0, 0)

    def test_forced_pure_collision(self):
        p = perfect_params()
        assert stage1_outcome(2, p, PickedOccupancy([5, 5])) == (0, 1, 0)

    def test_no_users_all_false_alarms(self):
        p = perfect_params(p_fa=1.0, p_md=0.0)
        rng = np.random.default_rng(0)
        assert stage1_outcome(0, p, rng) == (0, 0, p.pool_size)

    def test_accounting_identities_random(self, fig_params):
        rng = np.random.default_rng(1)
        L = fig_params.pool_size
        for _ in range(300):
            k = int(rng.integers(0, 80))
            d1, d2, d3 = stage1_outcome(k, fig_params, rng)
            assert d1 + d2 <= min(k, L)
            # false alarms fall on free preambles only
            assert d3 <= L - d1 - d2
            # a singleton preamble holds 1 user, a collided one >= 2
            assert d1 + 2 * d2 <= k

    @pytest.mark.parametrize("k", [1, 5, 20, 100])
    def test_conditional_means_match_lemma(self, fig_params, k):
        rng = np.random.default_rng(100 + k)
        n = 100_000
        sums = np.zeros(3)
        sq = np.zeros(3)
        for _ in range(n):
            d = np.array(stage1_outcome(k, fig_params, rng), dtype=float)
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
        # occupancy draw under perfect detection, which detects every
        # occupied preamble and raises no false alarm
        exact = exact_occupancy_pmf(k, pool)
        p = perfect_params(pool_size=pool)
        rng = np.random.default_rng(pool * 10 + k)
        n = 20_000
        seen = {}
        for _ in range(n):
            s, c, d3 = stage1_outcome(k, p, rng)
            assert d3 == 0
            seen[s, c] = seen.get((s, c), 0) + 1
        for cell in exact.keys() | seen.keys():
            prob = exact.get(cell, 0.0)
            se = math.sqrt(prob * (1.0 - prob) / n)
            assert abs(seen.get(cell, 0) / n - prob) <= 4 * se, cell

    @staticmethod
    def assert_occupancy_law(pool, k, rng, n=20_000):
        """The empirical (singleton, collided) law of n draws under perfect
        detection, which detects every occupied preamble and raises no
        false alarm, within 4 SE of the exact law in every cell, plus 1 / n
        so that one draw of a cell far rarer than 1 / n fails no cell."""
        exact = occupancy_pmf_dp(k, pool)
        p = perfect_params(pool_size=pool)
        seen = {}
        for _ in range(n):
            s, c, d3 = stage1_outcome(k, p, rng)
            assert d3 == 0
            seen[s, c] = seen.get((s, c), 0) + 1
        for cell in exact.keys() | seen.keys():
            prob = float(exact.get(cell, 0))
            se = math.sqrt(prob * (1.0 - prob) / n)
            assert abs(seen.get(cell, 0) / n - prob) <= 4 * se + 1 / n, cell

    @pytest.mark.parametrize("pool, k, forced", [
        (4, 3, False), (7, 9, False), (3, 9, False), (5, 18, False),
        (4, 3, True), (7, 9, True), (2, 3, True), (5, 30, True),
        (6, 40, True), (4, 60, True)])
    def test_occupancy_law_matches_recursion(self, monkeypatch, pool, k,
                                             forced):
        # Unforced, (4, 3) and (7, 9) have u > 1/2 and hold at most 15
        # users per preamble, so each user draws a pick, while (3, 9) and
        # (5, 18) have u = 0.43 and 0.50 and take the proposal, which finds
        # two light preambles in 1.4% and 4.7% of draws.  A pick load of 0
        # forces the u > 1/2 sessions to halve their pools, down to pools
        # of 2 and 1 preambles; (5, 30), (6, 40) and (4, 60) have u <= 1/2
        # and take the proposal whatever the pick load.
        if forced:
            monkeypatch.setattr("cra.sim._PICK_LOAD", 0)
        rng = CountedDraws(pool * 100 + k)
        self.assert_occupancy_law(pool, k, rng)
        picks = not forced and (pool, k) in ((4, 3), (7, 9))
        assert rng.calls.get("integers", 0) == (20_000 if picks else 0)
        assert "multinomial" not in rng.calls

    def test_occupancy_beyond_memory_names_the_draw(self, monkeypatch):
        # the walk's first session holds its backlog of 5 users on 6
        # preambles; an occupancy draw that finds no room refuses it, so
        # nothing is allocated, and the walk's error names the draw and
        # pool_size
        def refusing(n_active, L, rng):
            raise MemoryError("no room for the picks")

        monkeypatch.setattr("cra.sim._occupancy", refusing)
        cfg = SimConfig(params=perfect_params(arrival_rate=0.0),
                        mode=Mode.FAST_RETRIAL, n_sessions=10,
                        warmup_sessions=0)
        with pytest.raises(ValueError) as err:
            _walk(cfg, 1, backlog=5)
        assert str(err.value) == (
            "pool_size 6 is too large: the occupancy draw of 5 users over "
            "6 preambles does not fit in memory (no room for the picks)")

    def test_heavy_session_draws_no_picks(self, fig_params):
        # the retrial_backlog sessions, K of 5000 and more over 310
        # preambles, all take the proposal: a few uniforms, no picks and
        # no multinomial
        rng = CountedDraws(3)
        for k in (2694, 5000, 50_000, 250_000):
            for _ in range(500):
                d1, d2, d3 = stage1_outcome(k, fig_params, rng)
                assert d1 + 2 * d2 <= k and d1 + d2 + d3 <= 310
        assert "integers" not in rng.calls
        assert "multinomial" not in rng.calls

    def test_heavy_session_over_huge_pool(self):
        # 4e13 users over 10^12 preambles have u = 1.7e-4: the proposal
        # draws nothing per preamble, where a draw over the preamble pairs
        # would not fit in memory
        rng = CountedDraws(5)
        k, pool = 4 * 10 ** 13, 10 ** 12
        d1, d2, d3 = stage1_outcome(k, perfect_params(pool_size=pool), rng)
        assert d3 == 0 and d1 + 2 * d2 <= k and d1 + d2 <= pool
        assert set(rng.calls) <= {"random", "binomial"}


class TestRunSession:
    """Bookkeeping of one session.  At arrival rate 0 a CRA-2 fast-retrial
    walk's first session holds exactly its initial backlog, and the tests'
    drop-mode walk takes its first K as given, which forces K; a CRA-1 or
    ALOHA session of the i.i.d. path gets the preamble counts of given
    picks from a generator that returns them as its multinomial row, and
    its collided preambles' users, if its cap can hold them, from a forced
    collided draw."""

    def walk(self, k, horizon=1, seed=0, **over):
        cfg = SimConfig(params=perfect_params(arrival_rate=0.0, **over),
                        mode=Mode.FAST_RETRIAL, n_sessions=10,
                        warmup_sessions=0, seed=seed)
        return _walk(cfg, horizon, backlog=k)

    @staticmethod
    def iid_session(monkeypatch, scheme, picks):
        """(successes, detected) of one ``_iid_sessions`` session under
        perfect detection whose K = len(picks) users pick ``picks``: its
        multinomial row holds their singleton and collided preambles, all
        detected, and their free ones, all quiet, and its collided draw
        returns the collided preambles' users, or none when asked for
        none."""
        cfg = SimConfig(params=perfect_params(), scheme=scheme, n_sessions=1,
                        warmup_sessions=0)
        held = np.bincount(picks, minlength=cfg.pool_size)
        assert held.size == cfg.pool_size
        row = [np.sum(held == 1), 0, 0, np.sum(held == 0), np.sum(held > 1),
               0]
        default_rng = np.random.default_rng

        class Forced:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def multinomial(self, n, pvals, size):
                assert n == cfg.pool_size and size == 1
                return np.array([row])

            def __getattr__(self, name):
                return getattr(self.rng, name)

        def collided_draw(m, rng):
            def draw(n):
                assert n in (0, row[4])
                return held[held > 1][:n]
            return draw

        monkeypatch.setattr("cra.sim.np.random.default_rng", Forced)
        monkeypatch.setattr("cra.sim._collided_draw", collided_draw)
        return tuple(int(x[0]) for x in _iid_sessions(cfg, 1))

    def test_cra2_single_user(self):
        succ, detected, backlog = self.walk(1)
        assert (succ[0], detected[0], backlog[0]) == (1, 1, 0)

    def test_cra2_session_len_follows_detected(self, fig_params):
        cfg = SimConfig(params=fig_params, scheme=Scheme.CRA2, n_sessions=300,
                        warmup_sessions=20, seed=4)
        detected = _cra2_sessions(cfg, 320)[1][20:]
        p = cfg.params
        lengths = p.overhead_len + p.payload_len * detected
        est = estimate_throughput(cfg)
        assert est.mean_session_len == float(lengths.sum()) / 300
        # drop mode's mean active count is lambda times the mean length
        assert est.mean_active == pytest.approx(
            p.arrival_rate * est.mean_session_len, rel=1e-15)
        assert est.final_backlog is None   # nothing waits in drop mode

    def test_cra2_pure_collision(self):
        # three users on two preambles: one preamble always collides, is
        # detected (perfect detection) and books no success; with all three
        # on one preamble the session is a pure collision.  In drop mode the
        # unserved users leave, so the next session is empty
        seen = set()
        p = perfect_params(arrival_rate=0.0, pool_size=2)
        for seed in range(20):
            succ, active, detected = drop_walk(p, 2, seed, first_active=3)
            assert active[0] == 3 and succ[0] == detected[0] - 1
            assert active[1] == 0
            seen.add((int(detected[0]), int(succ[0])))
        assert seen == {(1, 0), (2, 1)}

    def test_cra1_overload_fails(self, monkeypatch):
        # CRA-1's multiuser detection decodes up to N - 1 users: K = N - 1
        # users on distinct preambles all book, while K = N detected
        # singletons book nothing.  A collided preamble's users count in K:
        # a pair beside a singleton makes K = 3 = N - 1 and books, three
        # users beside it make K = 4 and book nothing
        n = perfect_params().preamble_len
        assert self.iid_session(monkeypatch, Scheme.CRA1, range(n - 1)) \
            == (n - 1, n - 1)
        assert self.iid_session(monkeypatch, Scheme.CRA1, range(n)) \
            == (0, n)
        assert n == 4
        assert self.iid_session(monkeypatch, Scheme.CRA1, [0, 0, 1]) \
            == (1, 2)
        assert self.iid_session(monkeypatch, Scheme.CRA1, [0, 0, 0, 1]) \
            == (0, 2)

    def test_cra1_single_user(self, monkeypatch):
        assert self.iid_session(monkeypatch, Scheme.CRA1, [5]) == (1, 1)

    def test_fixed_session_len(self, fig_params):
        cfg = SimConfig(params=fig_params, scheme=Scheme.CRA1, n_sessions=100,
                        warmup_sessions=0, seed=4)
        assert estimate_throughput(cfg).mean_session_len == \
            pytest.approx(fig_params.fixed_session_len, rel=1e-15)

    def test_maloha_all_orthogonal(self):
        n = perfect_params().preamble_len
        p = perfect_params(pool_size=n)  # one channel per preamble symbol
        d1, _, _ = stage1_outcome(n, p, PickedOccupancy(range(n)))
        # all n detected singletons book, since K = N is within the cap
        assert d1 == n
        assert _session_rule(Scheme.MC_ALOHA, p)[3] == n

    def test_maloha_above_channel_count_fails(self, monkeypatch):
        # the orthogonal receiver decodes at most preamble_len packets; this
        # cap is what produces the Poisson-cdf factor in the closed form.
        # K = N users on the N channels all book; with K = N + 1 the N - 1
        # detected singletons book nothing
        n = perfect_params().preamble_len
        assert self.iid_session(monkeypatch, Scheme.MC_ALOHA, range(n)) \
            == (n, n)
        assert self.iid_session(monkeypatch, Scheme.MC_ALOHA,
                                [*range(n), 0]) == (0, n)

    def test_fast_retrial_backlog(self, fig_params, monkeypatch):
        # the users a session leaves unserved are the next session's K
        succ, _, backlog = self.walk(3, horizon=50, pool_size=2)
        active = succ + backlog
        assert active[0] == 3
        assert np.array_equal(active[1:], backlog[:-1])
        # over a 2000-session walk at load 0.8, the sessions whose arrival
        # mean is lambda (N + tau + M D_(t-1)) take, as their new users
        # K_t - Z_(t-1), in order, the first scalar Poisson variate drawn
        # for that mean and then each refill of _POOL_CHUNK variates from
        # its end (no pool is emptied: L + 1 = 311 keys), and leave unused
        # only the tail of the last refill; the users waiting at the end
        # are those waiting at the start plus the variates used minus the
        # successes: none leaves unserved and none is made up
        default_rng = np.random.default_rng
        drawn = {}

        class Counting:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def poisson(self, lam, size=None):
                out = self.rng.poisson(lam, size)
                drawn.setdefault(lam, []).extend(np.atleast_1d(out).tolist())
                return out

            def __getattr__(self, name):
                return getattr(self.rng, name)

        p = fig_params.with_traffic(0.8)
        cfg = SimConfig(params=p, mode=Mode.FAST_RETRIAL, n_sessions=10,
                        warmup_sessions=0, seed=3)
        succ, detected, _ = _walk(cfg, 2_000, backlog=5)
        monkeypatch.setattr("cra.sim.np.random.default_rng", Counting)
        backlog = simulate_stability(cfg, 2_000, initial_backlog=5)
        assert backlog.size == 2_000
        before = np.concatenate(([_startup_detected(p)], detected[:-1]))
        visits = Counter(before.tolist())
        order = {}
        for lam, values in drawn.items():
            first, refills = values[:1], values[1:]
            assert len(refills) % _POOL_CHUNK == 0
            order[lam] = first + [
                v for i in range(0, len(refills), _POOL_CHUNK)
                for v in reversed(refills[i:i + _POOL_CHUNK])]
        rates = {d: p.arrival_rate * (p.overhead_len + p.payload_len * d)
                 for d in visits}
        assert set(rates.values()) == drawn.keys()
        used = sum(sum(order[rates[d]][:n]) for d, n in visits.items())
        assert 5 + used - int(succ.sum()) == backlog[-1]
        arrivals = succ + backlog - np.concatenate(([5], backlog[:-1]))
        taken = {}
        for new, d in zip(arrivals.tolist(), before.tolist()):
            taken.setdefault(rates[d], []).append(new)
        for lam, values in taken.items():
            assert values == order[lam][:len(values)], lam
            assert len(order[lam]) - len(values) < _POOL_CHUNK, lam


class TestSimConfig:
    def test_warmup_bound(self, fig_params):
        with pytest.raises(ValueError):
            SimConfig(params=fig_params, n_sessions=10, warmup_sessions=10)

    def test_no_sessions_names_n_sessions(self, fig_params):
        with pytest.raises(ValueError, match="n_sessions"):
            SimConfig(params=fig_params, n_sessions=0)

    def test_maloha_forces_pool_size(self, fig_params):
        # ALOHA draws from its N channels and leaves the params as given
        cfg = SimConfig(params=fig_params, scheme=Scheme.MC_ALOHA)
        assert cfg.pool_size == fig_params.preamble_len
        assert cfg.params == fig_params

    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    def test_params_kept_as_given(self, scheme):
        p = perfect_params()
        cfg = SimConfig(params=p, scheme=scheme)
        assert cfg.params == p
        assert cfg.pool_size == (p.preamble_len if scheme is Scheme.MC_ALOHA
                                 else p.pool_size)

    def test_replace_keeps_pool_size(self, fig_params):
        # a config built from an ALOHA one inherits the L it was given
        aloha = SimConfig(params=fig_params, scheme=Scheme.MC_ALOHA)
        cra1 = replace(aloha, scheme=Scheme.CRA1)
        assert cra1.params.pool_size == cra1.pool_size == fig_params.pool_size

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
        if scheme is not Scheme.MC_ALOHA:
            with pytest.raises(ValueError, match="pool_size"):
                SimConfig(params=replace(fig_params, pool_size=2 ** 63),
                          scheme=scheme, mode=mode)
            return
        # ALOHA's pool is its N channels: an L past int64 takes no part in
        # its run, which is the run at any other L
        cfg = SimConfig(params=replace(fig_params, pool_size=2 ** 63),
                        scheme=scheme, mode=mode, n_sessions=10,
                        warmup_sessions=1)
        assert estimate_throughput(cfg) == estimate_throughput(
            replace(cfg, params=fig_params))
        with pytest.raises(ValueError, match="preamble_len"):
            SimConfig(params=replace(fig_params, preamble_len=2 ** 63),
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
        (Scheme.CRA2, Mode.FAST_RETRIAL)], ids=lambda v: v.value)
    def test_pool_beyond_memory_names_pool_size(self, fig_params, scheme,
                                                mode):
        # 10^12 preambles: per-preamble arrays of 7.28 TiB, which numpy
        # refuses at once; the drop-mode paths allocate none and run
        cfg = SimConfig(params=replace(fig_params, pool_size=10 ** 12),
                        scheme=scheme, mode=mode, n_sessions=10,
                        warmup_sessions=1)
        with pytest.raises(ValueError, match="pool_size 1000000000000"):
            estimate_throughput(cfg)

    def test_cra1_cap_past_int64(self):
        # a spreading gain of 10^19 puts CRA-1's cap past int64, where no K
        # reaches, so the cap is held at 2^63 - 1 and never binds: every
        # session books its detected singletons, one session per block
        p = perfect_params(preamble_len=10 ** 19, arrival_rate=2e-19)
        assert _session_rule(Scheme.CRA1, p)[3] == 2 ** 63 - 1
        cfg = SimConfig(params=p, scheme=Scheme.CRA1, n_sessions=2_000,
                        warmup_sessions=0, seed=2)
        est = estimate_throughput(cfg)
        assert abs(est.mean_throughput - throughput_cra1(p)) \
            <= 4 * est.std_error

    @pytest.mark.parametrize("scheme", [Scheme.CRA1, Scheme.CRA2],
                             ids=lambda s: s.value)
    def test_drop_mode_takes_any_pool(self, fig_params, scheme):
        # 10^12 preambles run in drop mode.  With 4e18 and no arrivals a
        # session raises about p_fa L = 4e16 false alarms, so the detected
        # counts of a batch of 333 sessions pass 2^63: neither the totals
        # nor the batch sums may wrap in int64
        cfg = SimConfig(params=replace(fig_params, pool_size=10 ** 12),
                        scheme=scheme, n_sessions=10, warmup_sessions=1)
        assert estimate_throughput(cfg).mean_detected > 0.0
        pool = 4 * 10 ** 18
        cfg = SimConfig(params=replace(fig_params, pool_size=pool,
                                       arrival_rate=0.0),
                        scheme=scheme, n_sessions=10_000, warmup_sessions=10)
        est = estimate_throughput(cfg)
        assert est.mean_detected == pytest.approx(fig_params.p_fa * pool,
                                                  rel=0.01)
        assert 0.0 < est.detected_std_error < 1e-6 * est.mean_detected
        assert est.mean_session_len > 0.0


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
        cfg = SimConfig(params=fig_params, mode=Mode.FAST_RETRIAL,
                        n_sessions=10, warmup_sessions=0, seed=9)
        for a, b in zip(_walk(cfg, 50), _walk(cfg, 50)):
            assert np.array_equal(a, b)

    def test_throughput_is_ratio(self, fig_params):
        cfg = SimConfig(params=fig_params, n_sessions=500, warmup_sessions=0,
                        seed=5)
        succ, detected = _cra2_sessions(cfg, 500)
        time = float((fig_params.overhead_len
                      + fig_params.payload_len * detected).sum())
        est = estimate_throughput(cfg)
        assert est.mean_throughput == pytest.approx(succ.sum() / time,
                                                    rel=1e-12)
        assert est.mean_session_len * est.sessions_run == pytest.approx(
            time, rel=1e-12)
        assert est.std_error >= 0.0

    def test_ratio_estimate_builds_nothing_per_session(self):
        # a batch's time comes from its detected sum: 10^6 sessions take a
        # few KB, where an array of session lengths took 16 MB
        n = 10 ** 6
        succ, detected = np.ones(n, np.int64), np.full(n, 3, np.int64)
        tracemalloc.start()
        try:
            est = _ratio_estimate(succ, detected, 35.0, 256, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert est.mean_session_len == 35.0 + 256 * 3
        assert est.mean_throughput == 1 / (35.0 + 256 * 3)
        assert est.mean_active == 0.5 * (35.0 + 256 * 3)

    @pytest.mark.parametrize("wide", [False, True], ids=["int", "float"])
    @pytest.mark.parametrize("n", [1, 2, 29, 30, 31, 45, 600, 10 ** 5])
    def test_ratio_estimate_se_matches_np_std(self, n, wide):
        # both batch-means SEs equal np.std(ddof=1) of the batch rates and
        # batch mean D bit for bit, with int64 batch sums and, for D near
        # 2^63 / n, float ones; at n = 45 batch edges fall on halves,
        # which round to even (4.5 -> 4)
        rng = np.random.default_rng(n)
        if wide:
            detected = rng.integers(2 ** 62 // n, 2 ** 63 // n, n)
            detected[-1] = 2 ** 63 - 1
        else:
            detected = rng.integers(0, 310, n)
        assert (detected.max() >= 2.0 ** 63 / n) == wide
        succ = detected // rng.integers(1, 5, n)
        est = _ratio_estimate(succ, detected, 35.0, 256, 0.5)
        assert (est.std_error, est.detected_std_error) == \
            batch_means_std_errors(succ, detected, 35.0, 256)

    def test_short_run_se_has_one_batch_per_session(self, fig_params):
        # fewer than 30 measured sessions: each session is its own batch
        n = 10
        cfg = SimConfig(params=fig_params, scheme=Scheme.CRA2, n_sessions=n,
                        warmup_sessions=0, seed=12)
        succ, detected = _cra2_sessions(cfg, n)
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
        succ, detected = (x[10:].reshape(30, 3)
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
        succ, detected, backlog = (x[20:] for x in _walk(cfg, 320))
        time = float((fig_params.overhead_len
                      + fig_params.payload_len * detected).sum())
        est = estimate_throughput(cfg)
        assert est.mean_throughput == pytest.approx(succ.sum() / time,
                                                    rel=1e-12)
        assert est.mean_active == pytest.approx(
            (succ + backlog).sum() / 300, rel=1e-12)
        assert est.final_backlog == backlog[-1]
        assert est.mean_detected == pytest.approx(detected.sum() / 300,
                                                  rel=1e-12)

    @pytest.mark.parametrize("scheme", [Scheme.CRA1, Scheme.MC_ALOHA],
                             ids=lambda s: s.value)
    def test_iid_blocks_replay_and_mean_active(self, fig_params, scheme,
                                               monkeypatch):
        # blocks of 2^14 counts: several full blocks and a partial last one
        monkeypatch.setattr("cra.sim._BLOCK_CELLS", 1 << 14)
        default_rng = np.random.default_rng
        sizes = []

        class Recorder:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def multinomial(self, n, pvals, size):
                sizes.append(size)
                return self.rng.multinomial(n, pvals, size)

            def __getattr__(self, name):
                return getattr(self.rng, name)

        monkeypatch.setattr("cra.sim.np.random.default_rng", Recorder)
        cfg = SimConfig(params=fig_params, scheme=scheme, n_sessions=10_000,
                        warmup_sessions=500, seed=21)
        est = estimate_throughput(cfg)
        # i.i.d. sessions start at stationarity: the 500 warm-up sessions
        # are not drawn, and a replay without them gives the same estimate
        assert len(set(sizes[:-1])) == 1 and len(sizes) > 3
        assert 0 < sizes[-1] < sizes[0] and sum(sizes) == 10_000
        assert est == estimate_throughput(replace(cfg, warmup_sessions=0))
        # lambda T, the mean of every session's Poisson K
        mean = fig_params.arrival_rate * fig_params.fixed_session_len
        assert est.mean_active == pytest.approx(mean, rel=1e-15)

    @pytest.mark.parametrize("pool, m, cap", [
        pytest.param(pool, m, cap, id=f"{pool}-{m}") for pool, m, cap in
        [(4, 1.0, 4), (5, 0.3, 2), (6, 0.05, 1), (3, 2.5, 7), (2, 4.0, 8)]])
    def test_iid_joint_law_matches_picks(self, pool, m, cap):
        # the (successes, detected) law of 100 000 CRA-1 sessions under
        # perfect detection, with a cap near the mean K = m L, against
        # K ~ Poisson(m L) times the exact occupancy law of K picks, the
        # singletons booked only while K <= cap; below m = 2 (the inverted
        # table) and above it (redrawn Poisson values).  A chi^2 test over
        # the cells expecting at least 5 sessions, the rest pooled, fails a
        # correct kernel with probability 10^-3 per case; a rest expecting
        # fewer than 5 joins the last cell
        n = 100_000
        p = perfect_params(pool_size=pool, preamble_len=cap + 1)
        p = replace(p, arrival_rate=m * pool / p.fixed_session_len)
        cfg = SimConfig(params=p, scheme=Scheme.CRA1, n_sessions=n,
                        warmup_sessions=0, seed=pool)
        assert _session_rule(Scheme.CRA1, p)[3] == cap
        succ, detected = _iid_sessions(cfg, n)
        seen = {}
        for cell in zip(succ.tolist(), detected.tolist()):
            seen[cell] = seen.get(cell, 0) + 1
        expected = {}
        poisson = stats.poisson(m * pool)
        for k in range(int(poisson.isf(1e-12)) + 1):
            for (s, c), prob in occupancy_pmf_dp(k, pool).items():
                cell = (s if k <= cap else 0, s + c)
                expected[cell] = expected.get(cell, 0.0) \
                    + n * poisson.pmf(k) * float(prob)
        big = [cell for cell, e in expected.items() if e >= 5]
        obs = [seen.pop(cell, 0) for cell in big]
        exp = [expected[cell] for cell in big]
        obs.append(n - sum(obs))
        exp.append(n - sum(exp))
        if exp[-1] < 5:   # the rest is too rare to stand as a cell
            rest = obs.pop(), exp.pop()
            obs[-1] += rest[0]
            exp[-1] += rest[1]
        assert len(exp) > 2
        assert stats.chisquare(obs, exp).pvalue > 1e-3

    def test_iid_block_draws_bounded(self, fig_params, monkeypatch):
        # 10^9 preambles at 1 user each: about 3.7e8 singletons a session,
        # far above CRA-1's cap of 30, so no session can book, none draws a
        # collided user, and each books 0.  Then ALOHA on 4000 channels at
        # 1 user each with blocks of 2^8 counts: every session fits (its
        # singletons and collided pairs hold about 0.9 N users), a block is
        # one session, and its 1060 or so collided preambles' users are
        # drawn 2^8 at a time; no draw asks for more than a block, and the
        # estimate matches the closed form, whose cap binds in half the
        # sessions
        default_rng = np.random.default_rng
        sizes = []

        class Checked:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def random(self, size):
                assert size <= cells   # before any allocation
                sizes.append(size)
                return self.rng.random(size)

            def multinomial(self, n, pvals, size):
                assert 6 * size <= cells
                return self.rng.multinomial(n, pvals, size)

            def __getattr__(self, name):
                return getattr(self.rng, name)

        monkeypatch.setattr("cra.sim.np.random.default_rng", Checked)
        cells = _BLOCK_CELLS
        pool = 10 ** 9
        p = replace(fig_params, pool_size=pool)
        p = replace(p, arrival_rate=pool / p.fixed_session_len)
        cfg = SimConfig(params=p, scheme=Scheme.CRA1, n_sessions=2_000,
                        warmup_sessions=0, seed=8)
        succ, detected = _iid_sessions(cfg, 2_000)
        assert not succ.any() and not any(sizes)
        # Bin(L, s) with s = q (1 - e^-1) + p_fa e^-1: within 6 SD
        s = 0.99 * -math.expm1(-1.0) + 0.01 * math.exp(-1.0)
        assert np.all(np.abs(detected - s * pool)
                      <= 6 * math.sqrt(pool * s * (1.0 - s)))

        cells = 1 << 8
        monkeypatch.setattr("cra.sim._BLOCK_CELLS", cells)
        n = 4_000
        p = replace(perfect_params(), preamble_len=n, p_md=0.01)
        p = replace(p, arrival_rate=n / p.fixed_session_len)
        cfg = SimConfig(params=p, scheme=Scheme.MC_ALOHA, n_sessions=2_000,
                        warmup_sessions=0, seed=8)
        est = estimate_throughput(cfg)
        assert len(sizes) > 4 * 2_000
        m1, m2 = capped_success_moments(n, n, n, p.p_md)
        se = math.sqrt((m2 - m1 * m1) / cfg.n_sessions) / p.fixed_session_len
        assert abs(est.mean_throughput - throughput_maloha(p)) <= 4 * se

    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    def test_drop_mode_holds_16_bytes_per_session(self, fig_params, scheme,
                                                  monkeypatch):
        # the traced peak of a drop-mode estimate grows by its successes
        # and detected arrays alone, 16 bytes per session, from 10^5 to
        # 3 * 10^5 sessions (24 with the walk's backlog array); blocks of 2^14
        # counts and 2^12 theta sessions, so that both runs fill many
        monkeypatch.setattr("cra.sim._BLOCK_CELLS", 1 << 14)
        monkeypatch.setattr("cra.sim._THETA_BLOCK", 1 << 12)
        peaks = []
        for n in (10 ** 5, 3 * 10 ** 5):
            cfg = SimConfig(params=fig_params, scheme=scheme, n_sessions=n,
                            warmup_sessions=0, seed=1)
            tracemalloc.start()
            try:
                estimate_throughput(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / (2 * 10 ** 5) == pytest.approx(
            16.0, abs=0.5)

    def test_walk_replay_and_mean_active(self, fig_params):
        # CRA-2 drop mode at load 1 walked with one occupancy draw per
        # session, 500 warm-up sessions and 12 000 measured
        first = drop_walk(fig_params, 12_500, seed=23)
        for a, b in zip(first, drop_walk(fig_params, 12_500, seed=23)):
            assert np.array_equal(a, b)
        active = first[1][500:]
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
    splitting); ``helpers.drop_walk``, which draws each session's K and
    then its occupancy counts given K, is its conditional-on-K reference."""

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
        succ, detected = _cra2_sessions(cfg, 200)
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
        succ, active, detected = (x[100:] for x in drop_walk(p, 40_100, 4))
        walk = _ratio_estimate(succ, detected, p.overhead_len,
                               p.payload_len, p.arrival_rate, active)
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
        detected = _cra2_sessions(cfg, cfg.n_sessions)[1]
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

    def test_successes_do_not_depend_on_theta_block(self, monkeypatch,
                                                    fig_params):
        # each block draws its successes once it has its theta, and numpy's
        # binomial draws element by element in order, so 2500 sessions in
        # one block and in blocks of 1000, the last one partial, draw alike
        cfg = SimConfig(params=fig_params, n_sessions=2_500,
                        warmup_sessions=0, seed=31)
        runs = []
        for block in (2 ** 18, 1_000):
            monkeypatch.setattr("cra.sim._THETA_BLOCK", block)
            runs.append(_cra2_sessions(cfg, cfg.n_sessions))
        for one, blocked in zip(*runs):
            assert np.array_equal(one, blocked)
        assert runs[0][0].sum() > 0

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
            succ, detected = _cra2_sessions(cfg, cfg.n_sessions)
        finally:
            sys.settrace(None)
        assert max(held) == _POOL_STATES
        assert np.all((0 <= detected) & (detected <= p.pool_size))
        assert np.all((0 <= succ) & (succ <= detected))


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

    def test_holds_24_bytes_per_session(self, fig_params):
        # the traced peak grows by the walk's three arrays alone, 24 bytes
        # per session, from 10^4 to 3 * 10^4 sessions (32 when the
        # trajectory was computed as active - successes); a first run
        # takes the one-off allocations out of the measured ones.  With no
        # arrivals no session has a user; from backlog 5000 at load 3 on
        # the fig3 pool every session is heavy, so the variate pools and
        # the proposal run too
        for params, start in ((perfect_params(arrival_rate=0.0), 0),
                              (fig_params.with_traffic(3.0), 5_000)):
            cfg = self.fast_cfg(params)
            simulate_stability(cfg, 10, start)
            peaks = []
            for n in (10 ** 4, 3 * 10 ** 4):
                tracemalloc.start()
                try:
                    simulate_stability(cfg, n, start)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert (peaks[1] - peaks[0]) / (2 * 10 ** 4) <= 24.5, start


def retrial_law_z(params, start, n_sessions, z_max, n_seeds=2_000):
    """z of the walk's first ``n_sessions`` sessions from backlog ``start``
    over seeds 0 to ``n_seeds`` - 1 against the exact law of its (backlog,
    detected) chain (``retrial_chain_moments``): per session, the mean and
    variance of the backlog and the mean detected count."""
    mean_z, var_z, m4_z, mean_d, var_d = retrial_chain_moments(
        params, start, _startup_detected(params), n_sessions, z_max=z_max)
    cfg = SimConfig(params=params, mode=Mode.FAST_RETRIAL, n_sessions=10,
                    warmup_sessions=0)
    walks = [_walk(replace(cfg, seed=s), n_sessions, start)
             for s in range(n_seeds)]
    backlog = np.array([w[2] for w in walks])
    detected = np.array([w[1] for w in walks])
    # Var of a sample variance: (m4 - var^2 (n - 3) / (n - 1)) / n
    var_se = np.sqrt((m4_z - var_z ** 2 * (n_seeds - 3) / (n_seeds - 1))
                     / n_seeds)
    return np.concatenate([
        (backlog.mean(axis=0) - mean_z) / np.sqrt(var_z / n_seeds),
        (backlog.var(axis=0, ddof=1) - var_z) / var_se,
        (detected.mean(axis=0) - mean_d) / np.sqrt(var_d / n_seeds)])


def retrial_law_bound(n_sessions):
    """Two-sided bound on the 3 n z of ``retrial_law_z``: Q(k) = 0.001 /
    (2 * 3 n), a family-wise false-alarm rate of 0.1%."""
    return stats.norm.isf(0.001 / (2 * 3 * n_sessions))


class TestFastRetrialLaw:
    """The walk against the exact law of its chain on a 6-preamble pool,
    N = 4, M = 8, tau = 1, p_md = 0.05 != p_fa = 0.1, over 2000 seeds."""

    params = perfect_params(feedback_len=1.0, p_md=0.05, p_fa=0.1)

    def test_walk_matches_exact_chain(self):
        # light sessions: 25 sessions from backlog 4 at load 0.6
        # (instability threshold 9), bound 4.35.  At seeds 0-1999 the
        # largest |z| reads 2.23; a walk whose detected count drops its
        # false alarms reads 28.6, one whose arrival mean takes the
        # detected count two sessions back 18.5, one whose false alarms
        # share the detected counts' pools 33.0.  Over 300 other sets of
        # 200 seeds each z had SD 0.96-1.07.
        n = 25
        z = retrial_law_z(self.params.with_traffic(0.6), 4, n, z_max=120)
        assert np.abs(z).max() <= retrial_law_bound(n), np.round(z, 2)

    def test_heavy_walk_matches_exact_chain(self):
        # heavy sessions, which take _occupancy's proposal: 10 sessions
        # from backlog 30 at load 1.0 (threshold 0, overloaded), where
        # every K >= 24 has u <= 1/2 (u = 0.18 at K = 30), bound 4.15.  The
        # backlog grows about 4.2 a session, so z_max = 130 leaves lost
        # mass 1e-12 or less (120 leaves 1.8e-12).  At seeds 0-1999 the
        # largest |z| reads 1.76; a walk whose arrival mean takes the
        # detected count two sessions back reads 58.8, one that reuses a
        # proposal uniform 6.37.  Over 300 other sets of 200 seeds each z
        # had SD 0.93-1.05.  The oracle takes 0.06 s and the walks 0.1 s.
        n = 10
        z = retrial_law_z(self.params.with_traffic(1.0), 30, n, z_max=130)
        assert np.abs(z).max() <= retrial_law_bound(n), np.round(z, 2)


    def test_saturated_walk_draws_fresh_counts(self):
        # from backlog 10^6, u = 0 to double precision: every session
        # leaves its 6 preambles collided and books nothing, so its
        # detected count is a fresh Bin(6, 1 - p_md) and its new users,
        # K_t - Z_(t-1), a fresh Poisson(lambda (N + tau + M D_(t-1))).
        # One 4000-session walk: a chi-square test of the detected counts
        # against Bin(6, 0.7), cells 0-3 merged, and z of the sum and of
        # the Pearson dispersion of the new users, each at 0.1% / 3.  A
        # walk that reads a pooled variate without popping it repeats it
        # on every later visit of its key.
        p = replace(self.params, p_md=0.3).with_traffic(1.0)
        cfg = SimConfig(params=p, mode=Mode.FAST_RETRIAL, n_sessions=10,
                        warmup_sessions=0)
        n, start = 4_000, 10 ** 6
        succ, detected, backlog = _walk(cfg, n, start)
        assert not succ.any()
        expected = n * stats.binom.pmf(np.arange(7), 6, 0.7)
        observed = np.bincount(detected, minlength=7)
        fit = stats.chisquare([observed[:4].sum(), *observed[4:]],
                              [expected[:4].sum(), *expected[4:]])
        assert fit.pvalue > 0.001 / 3, (observed, np.round(expected))
        new = np.diff(backlog, prepend=start)
        before = np.concatenate(([_startup_detected(p)], detected[:-1]))
        mu = p.arrival_rate * (p.overhead_len + p.payload_len * before)
        z = [(new - mu).sum() / math.sqrt(mu.sum()),
             (((new - mu) ** 2 / mu).sum() - n)
             / math.sqrt((2.0 + 1.0 / mu).sum())]
        assert np.abs(z).max() <= stats.norm.isf(0.001 / 6), np.round(z, 2)
