import math
from dataclasses import replace

import numpy as np
import pytest

from cra import analytic
from cra.analytic import (
    ErrorBoundInputs,
    ProtocolParams,
    backlog_drift,
    detection_error_bounds,
    instability_threshold,
    mean_detected_split,
    prob_singleton,
    prob_unused,
    steady_state_cra2,
    support_error_prob,
    throughput_cra1,
    throughput_maloha,
    _fixed_point_coeffs,
)
from cra.specfun import _INV_E, lambert_w0, poisson_cdf, qfunc

from helpers import exact_occupancy_means, fixed_point_mean_load, \
    threshold_scan


def random_valid_params(rng):
    p_md = rng.uniform(0.0, 1.0)
    p_fa = rng.uniform(0.0, 1.0 - p_md)
    return ProtocolParams(
        preamble_len=int(rng.integers(2, 200)),
        payload_len=int(rng.integers(1, 2000)),
        pool_size=int(rng.integers(2, 2000)),
        feedback_len=float(rng.uniform(0.0, 50.0)),
        arrival_rate=float(rng.uniform(1e-6, 0.1)),
        p_md=p_md, p_fa=p_fa,
    )


def edge_params(rng, pool_size):
    """Random valid params at a load drawn log-uniformly over 1e-5..2 or
    uniformly over 0.4..1, the loads at which K0 can lie below L - 1; one
    in five left as drawn and the others at the drift's edges: L = 2, no
    arrivals, p_md = 1 (so p_fa = 0) or p_md + p_fa = 1."""
    p = replace(random_valid_params(rng), pool_size=pool_size)
    p = p.with_traffic(float(10 ** rng.uniform(-5.0, 0.3) if rng.integers(2)
                             else rng.uniform(0.4, 1.0)))
    edge = rng.integers(5)
    if edge == 1:
        p = replace(p, pool_size=2)
    elif edge == 2:
        p = replace(p, arrival_rate=0.0)
    elif edge == 3:
        p = replace(p, p_md=1.0, p_fa=0.0)
    elif edge == 4:
        p = replace(p, p_fa=1.0 - p.p_md)
    return p


def turning_point(p):
    """K* = -1/ln r - B r / q, where the drift A - r^K (q K / r + B) turns
    from falling to rising (q = 1 - p_md, r = 1 - 1/L, B = lambda M L
    (q - p_fa)); taken as 0 at q = 0, where the drift is constant."""
    q = 1.0 - p.p_md
    if q == 0.0:
        return 0.0
    L = p.pool_size
    b = p.arrival_rate * p.payload_len * L * (q - p.p_fa)
    return -1.0 / math.log1p(-1.0 / L) - b * (1.0 - 1.0 / L) / q


def mean_successes(ss, params):
    """Mean detected singletons per session at a CRA-2 operating point: a
    Poisson(K) active count over L preambles leaves (1 - p_md) K e^(-K/L)."""
    unused = math.exp(-ss.mean_active / params.pool_size)
    return (1.0 - params.p_md) * ss.mean_active * unused


class TestProtocolParams:
    def test_derived_durations(self, fig_params):
        p = fig_params
        assert p.overhead_len == 35.0
        assert p.txn_len == 287
        assert p.fixed_session_len == 31 + 2.0 + 31 * 256
        assert p.traffic_intensity == pytest.approx(1.0)

    def test_with_traffic(self, fig_params):
        p = fig_params.with_traffic(0.5)
        assert p.arrival_rate == pytest.approx(0.5 / 287.0)

    @pytest.mark.parametrize("kwargs", [
        dict(preamble_len=0), dict(payload_len=0), dict(pool_size=1),
        dict(feedback_len=-1.0), dict(arrival_rate=-1e-3),
        dict(p_md=1.2), dict(p_fa=-0.1), dict(p_md=0.6, p_fa=0.6),
        # counts are integers: inf gave a NaN CRA-2 throughput, NaN failed
        # inside lambert_w0 and 310.5 a CRA-1 TypeError
        dict(pool_size=math.inf), dict(preamble_len=math.nan),
        dict(pool_size=310.5),
        # NaN fails every comparison of the one probability check
        dict(p_md=math.nan),
    ])
    def test_validation(self, kwargs):
        base = dict(preamble_len=31, payload_len=256, pool_size=310,
                    feedback_len=4.0, arrival_rate=0.01)
        with pytest.raises(ValueError):
            ProtocolParams(**{**base, **kwargs})

    def test_numpy_integer_counts(self):
        p = ProtocolParams(preamble_len=np.int32(31),
                           payload_len=np.int64(256), pool_size=np.uint16(310),
                           feedback_len=4.0, arrival_rate=0.01)
        assert p.txn_len == 287


class TestOccupancyProbs:
    def test_trivial(self):
        assert prob_singleton(0, 10) == 0.0
        assert prob_singleton(1, 10) == pytest.approx(0.1)
        assert prob_unused(0, 10) == 1.0
        assert prob_unused(1, 2) == 0.5

    def test_small_cases_vs_enumeration(self):
        # K=2, L=2: 2 of 4 assignments leave a given preamble a singleton
        assert prob_singleton(2, 2) == pytest.approx(0.5)
        # K=3, L=4: 27 of 64 assignments avoid a given preamble
        assert prob_unused(3, 4) == pytest.approx(27.0 / 64.0)

    def test_array_of_k_matches_scalar_calls(self):
        # numpy's pow may differ from Python's in the last bit
        ks = np.arange(6)
        for pool in range(1, 6):
            assert prob_singleton(ks, pool).tolist() == pytest.approx(
                [prob_singleton(k, pool) for k in range(6)], rel=1e-15)
            assert prob_unused(ks, pool).tolist() == pytest.approx(
                [prob_unused(k, pool) for k in range(6)], rel=1e-15)
        assert prob_singleton(ks, 1).tolist() == [0, 1, 0, 0, 0, 0]

    def test_exact_means_all_small_instances(self):
        # E[B1] = L*alpha1 and E[B] = L*(1 - alpha2) hold exactly
        for pool in range(2, 6):
            for active in range(0, 6):
                b1, b = exact_occupancy_means(active, pool)
                assert b1 == pytest.approx(
                    pool * prob_singleton(active, pool), abs=1e-12)
                assert b == pytest.approx(
                    pool * (1.0 - prob_unused(active, pool)), abs=1e-12)


class TestMeanDetectedSplit:
    def test_no_active_users(self, fig_params):
        s, c, f = mean_detected_split(0, fig_params)
        assert s == 0.0 and c == 0.0
        assert f == pytest.approx(fig_params.p_fa * fig_params.pool_size)

    def test_two_users_two_preambles_perfect_detection(self):
        p = ProtocolParams(preamble_len=2, payload_len=1, pool_size=2,
                           feedback_len=0.0, arrival_rate=0.01)
        s, c, f = mean_detected_split(2, p)
        assert s == pytest.approx(1.0)   # E[B1] = 1 by enumeration
        assert c == pytest.approx(0.5)   # E[B2] = 0.5
        assert f == 0.0

    def test_large_active_limits(self, fig_params):
        s, c, f = mean_detected_split(10**6, fig_params)
        assert s == pytest.approx(0.0, abs=1e-12)
        assert f == pytest.approx(0.0, abs=1e-12)
        expected = (1.0 - fig_params.p_md) * fig_params.pool_size
        assert c == pytest.approx(expected, rel=1e-9)


class TestMeanActiveCra2:
    def test_vanishing_load(self, fig_params):
        p = replace(fig_params, arrival_rate=1e-12)
        assert steady_state_cra2(p).mean_active == pytest.approx(
            0.0, abs=1e-6)

    def test_degenerate_detection(self, fig_params):
        # p_md + p_fa = 1 makes the exponential term vanish
        p = replace(fig_params, p_md=0.3, p_fa=0.7)
        lam = p.arrival_rate
        expected = lam * (p.overhead_len + p.pool_size * p.payload_len * 0.7)
        assert steady_state_cra2(p).mean_active == pytest.approx(
            expected, rel=1e-12)

    def test_reference_point_vs_fixed_point_oracle(self, fig_params):
        p = fig_params
        lam = p.arrival_rate
        c1 = lam * (p.overhead_len / p.pool_size + p.payload_len * 0.99)
        c2 = lam * p.payload_len * 0.98
        oracle = p.pool_size * fixed_point_mean_load(c1, c2)
        got = steady_state_cra2(p).mean_active
        assert got == pytest.approx(oracle, rel=1e-9)
        assert got == pytest.approx(19.0, abs=0.05)

    def test_fixed_point_consistency_random(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            p = random_valid_params(rng)
            x = steady_state_cra2(p).mean_active / p.pool_size
            lam = p.arrival_rate
            c1 = lam * (p.overhead_len / p.pool_size
                        + p.payload_len * (1 - p.p_md))
            c2 = lam * p.payload_len * (1 - p.p_md - p.p_fa)
            assert abs(x - (c1 - c2 * math.exp(-x))) <= 1e-9

    def test_lambert_domain_safety_random(self):
        # c1 >= c2 for every valid parameter set keeps the W argument
        # inside [-1/e, 0]
        rng = np.random.default_rng(3)
        for _ in range(100_000):
            p_md = rng.uniform(0.0, 1.0)
            p_fa = rng.uniform(0.0, 1.0 - p_md)
            lam = rng.uniform(1e-9, 1.0)
            overhead = rng.uniform(0.0, 1e3)
            payload = rng.uniform(1.0, 1e4)
            pool = rng.integers(2, 1e4)
            c1 = lam * (overhead / pool + payload * (1 - p_md))
            c2 = lam * payload * (1 - p_md - p_fa)
            assert c1 >= c2 - 1e-15
            arg = -c2 * math.exp(-c1)
            assert -_INV_E - 1e-12 <= arg <= 0.0


class TestMeanDetectedCra2:
    def test_vanishing_load_no_false_alarms(self, fig_params):
        p = replace(fig_params, arrival_rate=1e-12, p_fa=0.0)
        assert steady_state_cra2(p).mean_detected == pytest.approx(
            0.0, abs=1e-6)

    def test_reference_point(self, fig_params):
        # evaluated from the fixed-point oracle mean load
        d = steady_state_cra2(fig_params).mean_detected
        assert d == pytest.approx(21.14609752006474, rel=1e-9)
        assert d < fig_params.preamble_len

    def test_mostly_missed_detection(self, fig_params):
        p = replace(fig_params, p_md=0.95, p_fa=0.02)
        ss = steady_state_cra2(p)
        x = ss.mean_active / p.pool_size
        expected = p.pool_size * (0.05 - math.exp(-x) * 0.03)
        assert ss.mean_detected == pytest.approx(expected, rel=1e-12)

    def test_two_forms_agree_random(self):
        # steady_state_cra2 uses the direct exponential form at the fixed
        # point; the Lambert form L*(1 - p_md + W(-c2 exp(-c1)) / (lambda M))
        # must give the same value
        rng = np.random.default_rng(4)
        for _ in range(500):
            p = random_valid_params(rng)
            d = steady_state_cra2(p).mean_detected
            assert 0.0 <= d <= p.pool_size
            c1, c2 = _fixed_point_coeffs(p)
            via_w = p.pool_size * (
                1.0 - p.p_md + lambert_w0(-c2 * math.exp(-c1))
                / (p.arrival_rate * p.payload_len))
            assert math.isclose(d, via_w, rel_tol=1e-9, abs_tol=1e-12)


class TestThroughputCra2:
    def test_vanishing_load(self, fig_params):
        p = replace(fig_params, arrival_rate=1e-12)
        assert steady_state_cra2(p).throughput == pytest.approx(0.0, abs=1e-10)

    def test_reference_point(self, fig_params):
        ss = steady_state_cra2(fig_params)
        assert fig_params.txn_len * ss.throughput == pytest.approx(
            0.9311927697667409, rel=1e-9)

    def test_all_missed(self, fig_params):
        p = replace(fig_params, p_md=1.0, p_fa=0.0)
        assert steady_state_cra2(p).throughput == 0.0

    def test_ratio_identity_random(self):
        # throughput equals mean successes / mean session length exactly
        rng = np.random.default_rng(5)
        for _ in range(300):
            p = random_valid_params(rng)
            ss = steady_state_cra2(p)
            ratio = mean_successes(ss, p) / ss.mean_session_len
            assert ratio == pytest.approx(ss.throughput, rel=1e-12, abs=1e-300)

    def test_steady_state_invariants(self, fig_params):
        ss = steady_state_cra2(fig_params)
        assert ss.mean_active >= 0
        assert 0 <= mean_successes(ss, fig_params) <= ss.mean_detected
        assert ss.mean_session_len == pytest.approx(
            fig_params.overhead_len
            + fig_params.payload_len * ss.mean_detected)


class TestThroughputCra1:
    def test_vanishing_load(self, fig_params):
        p = replace(fig_params, arrival_rate=1e-15)
        assert throughput_cra1(p) == pytest.approx(0.0, abs=1e-12)

    def test_reference_point(self, fig_params):
        # chained through the direct-summation Poisson oracle; the spec-level
        # shorthand "~0.57" rounds this value
        assert fig_params.txn_len * throughput_cra1(fig_params) == \
            pytest.approx(0.5846605886588929, rel=1e-9)

    def test_huge_pool_limit(self, fig_params):
        p = replace(fig_params, pool_size=10**9)
        b1 = p.arrival_rate * p.fixed_session_len
        expected = p.arrival_rate * 0.99 * poisson_cdf(p.preamble_len - 2, b1)
        assert throughput_cra1(p) == pytest.approx(expected, rel=1e-6)


class TestThroughputMaloha:
    def test_reference_point(self, fig_params):
        assert fig_params.txn_len * throughput_maloha(fig_params) == \
            pytest.approx(0.30853205372935777, rel=1e-9)

    def test_monotone_in_p_md(self, fig_params):
        vals = [throughput_maloha(replace(fig_params, p_md=pm))
                for pm in np.linspace(0.0, 0.9, 10)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        vals1 = [throughput_cra1(replace(fig_params, p_md=pm))
                 for pm in np.linspace(0.0, 0.9, 10)]
        assert all(b <= a for a, b in zip(vals1, vals1[1:]))

    def test_cra1_beats_maloha_for_larger_pool(self):
        # holds below overload (mean active count within the spreading
        # gain); in deep overload both throughputs are ~0 and the ordering
        # can flip at the 1e-14 level
        rng = np.random.default_rng(6)
        checked = 0
        for _ in range(400):
            p = random_valid_params(rng)
            if not p.pool_size > p.preamble_len >= 4:
                continue
            # rescale load so the mean active count stays within the gain
            rate = rng.uniform(0.05, 1.0) * p.preamble_len \
                / p.fixed_session_len
            p = replace(p, arrival_rate=rate)
            assert throughput_cra1(p) >= throughput_maloha(p) - 1e-15
            checked += 1
        assert checked > 50


class TestBacklogDrift:
    def test_empty_system_overhead_only(self, fig_params):
        p = replace(fig_params, p_fa=0.0)
        assert backlog_drift(0, p) == pytest.approx(
            p.arrival_rate * p.overhead_len)

    def test_large_active_limit(self, fig_params):
        p = fig_params
        limit = p.arrival_rate * (
            p.overhead_len + p.payload_len * (1 - p.p_md) * p.pool_size)
        assert backlog_drift(10**6, p) == pytest.approx(limit, rel=1e-6)
        assert limit > 0

    def test_threshold_low_load_regression(self, fig_params):
        # frozen from a dense scan of the drift sign at load 0.2
        p = fig_params.with_traffic(0.2)
        k0 = instability_threshold(p)
        assert k0 == 874
        assert backlog_drift(k0 - 1, p) <= 0
        assert all(backlog_drift(k, p) > 0 for k in range(k0, 10 * p.pool_size,
                                                          37))

    def test_threshold_unit_load(self, fig_params):
        # at load 1 the drift is already positive everywhere
        assert instability_threshold(fig_params) == 0

    def test_threshold_matches_reference_scan(self, fig_params):
        rng = np.random.default_rng(7)
        found = []
        for _ in range(40):
            p = replace(random_valid_params(rng),
                        pool_size=int(rng.integers(2, 400)),
                        payload_len=int(rng.integers(1, 512)))
            p = p.with_traffic(float(rng.uniform(0.0, 1.2)))
            k0 = instability_threshold(p)
            assert k0 == threshold_scan(p, 10 * p.pool_size)
            found.append(k0)
        idle = replace(fig_params, arrival_rate=0.0)
        assert instability_threshold(idle) is None
        assert threshold_scan(idle, 10 * idle.pool_size) is None
        assert 0 in found
        assert any(type(k0) is int and k0 > 0 for k0 in found)

    def test_drift_nondecreasing_on_tail(self):
        # the lemma instability_threshold searches on: on the whole of
        # [0, 10 L] the drift falls up to K* and rises from there on, and
        # K* < L - 1/2, so it is nondecreasing on the tail [L - 1, 10 L]
        rng = np.random.default_rng(11)
        shapes = set()
        for _ in range(300):
            p = edge_params(rng, int(rng.integers(2, 2000)))
            L = p.pool_size
            k_star = turning_point(p)
            tol = 1e-12 * (p.arrival_rate * (
                p.overhead_len + p.payload_len * L) + L)
            # steps[k] = drift(k + 1) - drift(k)
            steps = np.diff(backlog_drift(np.arange(0, 10 * L + 1), p))
            assert steps[:max(math.floor(k_star), 0)].max(initial=0.0) <= tol
            assert steps[max(math.ceil(k_star), 0):].min() >= -tol
            assert k_star < L - 0.5
            shapes.add("p_md = 1" if p.p_md == 1.0 else
                       "K* < 0" if k_star < 0 else "falls first")
        assert shapes == {"p_md = 1", "K* < 0", "falls first"}

    @pytest.mark.parametrize("seed", [1, 3, 65536])
    def test_threshold_matches_scan_on_every_branch(self, seed):
        # three independent draws of 1000 cases, each reaching every branch
        rng = np.random.default_rng(seed)
        branches = set()
        for _ in range(1000):
            p = edge_params(rng, int(rng.integers(2, 40)))
            L = p.pool_size
            k0 = instability_threshold(p)
            assert k0 == threshold_scan(p, 10 * L)
            if k0 is None:
                branches.add("none" if p.arrival_rate > 0 else "idle")
            else:
                assert type(k0) is int
                branches.add("zero" if k0 == 0 else "below" if k0 < L - 1
                             else "L - 1 or L" if k0 <= L else "tail")
        assert branches == {"none", "idle", "zero", "below", "L - 1 or L",
                            "tail"}
        # The least drift rises with the load.  Bisecting the load down to
        # adjacent floats puts it at 0 to the last float, where the array
        # form and scalar calls can round to different signs.
        zero = []
        for _ in range(25):
            p = replace(random_valid_params(rng),
                        pool_size=int(rng.integers(2, 400)))
            ks = np.arange(0, p.pool_size + 1)   # K* < L - 1/2

            def stable_at(lam):
                return backlog_drift(ks, replace(p, arrival_rate=lam)).min() \
                    <= 0

            # at lambda M = 1 the drift is at least lambda (N + tau) > 0
            lo, hi = 0.0, 1.0 / p.payload_len
            assert stable_at(lo) and not stable_at(hi)
            while lo < (lo + hi) / 2 < hi:
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if stable_at(mid) else (lo, mid)
            for lam in (lo, hi):
                q = replace(p, arrival_rate=lam)
                k0 = instability_threshold(q)
                assert k0 == threshold_scan(q, 10 * q.pool_size)
                zero.append(k0 == 0)
        assert any(zero) and not all(zero)

    def test_threshold_where_array_and_scalar_round_apart(self):
        # The least drift is 0 to the last float here, and the array form
        # of backlog_drift rounds it one ulp apart from the scalar calls: an
        # array scan read it as positive everywhere and returned 0
        p = ProtocolParams(191, 1111, 815, 43.98255866674611,
                           0.0006564728312027587, 0.676689351831066,
                           0.019658164536898743)
        assert instability_threshold(p) == threshold_scan(p, 10 * 815) == 258

    @pytest.mark.parametrize("last_zero", [-1, 0, 7, 48, 49, 50, 300, 499,
                                           500])
    def test_zero_drift_counts_as_stable(self, monkeypatch, fig_params,
                                         last_zero):
        # K0 is one past the last K whose drift is <= 0, so a drift of
        # exactly 0 is stable on every branch.  The stub is 0 on
        # [0, last_zero] and 1 above, a run holding floor(K*) = 0, so it
        # has the drift's shape.  The run ends at floor(K*) (0), below
        # L - 1 (7, 48), at L - 1, at L, in the tail (300, 499) or at 10 L
        # (None), or there is none (-1, so K0 = 0).
        p = replace(fig_params, pool_size=50).with_traffic(1.13)
        assert 0 < turning_point(p) < 1
        monkeypatch.setattr(analytic, "backlog_drift", lambda k, params:
                            0.0 if k <= last_zero else 1.0)
        assert instability_threshold(p) == (
            None if last_zero == 500 else last_zero + 1)

    @pytest.mark.parametrize("case, k0", [("load 3", 0),
                                          ("load 0.2", 282182984),
                                          ("B inf", 0), ("B NaN", 0)])
    def test_threshold_in_few_scalar_calls(self, monkeypatch, fig_params,
                                           case, k0):
        # L = 10^8, where a scan of K would take seconds, and lambda M =
        # 1e320, where B overflows to inf and, at p_md = p_fa, to inf * 0
        huge = replace(fig_params, pool_size=10**8)
        p = {"load 3": huge.with_traffic(3.0),
             "load 0.2": huge.with_traffic(0.2),
             "B inf": ProtocolParams(31, 10**20, 2, 4.0, 1e300, 0.01, 0.01),
             "B NaN": ProtocolParams(31, 10**20, 2, 4.0, 1e300, 0.5, 0.5),
             }[case]
        ks = []

        def counted(k, params):
            ks.append(k)
            return backlog_drift(k, params)

        monkeypatch.setattr(analytic, "backlog_drift", counted)
        assert instability_threshold(p) == k0
        assert all(type(k) is int for k in ks)
        assert len(ks) <= 3 + math.ceil(math.log2(10 * p.pool_size))

    def test_threshold_huge_pool(self, fig_params):
        # a tail case, where an array scan of K = 0..10 L held 8 GB per
        # temporary
        p = replace(fig_params, pool_size=10**8).with_traffic(0.2)
        k0 = instability_threshold(p)
        assert k0 == 282182984
        assert backlog_drift(k0 - 1, p) <= 0 < backlog_drift(k0, p)

    def test_array_matches_scalar_calls(self):
        # The terms are L times a probability, and the collided share
        # L * (1 - a1 - a2) cancels at small K, so a one-ulp difference
        # between numpy's and Python's pow shows there on the scale of L.
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = random_valid_params(rng)
            L = p.pool_size
            ks = np.concatenate([np.arange(4),
                                 rng.integers(4, 10 * L + 1, 200)])
            lam, M = p.arrival_rate, p.payload_len
            drift_scale = lam * (p.overhead_len + M * L) + L
            drifts = backlog_drift(ks, p)
            splits = mean_detected_split(ks, p)
            for i, k in enumerate(ks.tolist()):
                assert drifts[i] == pytest.approx(
                    backlog_drift(k, p), rel=1e-12, abs=1e-12 * drift_scale)
                for arr, one in zip(splits, mean_detected_split(k, p)):
                    assert arr[i] == pytest.approx(one, rel=1e-12,
                                                   abs=1e-12 * L)


class TestDetectionErrorBounds:
    def test_zero_snr(self):
        inp = ErrorBoundInputs.power_controlled(0.0, 3, 10)
        md, fa = detection_error_bounds(inp)
        assert md == 0.5 and fa == 0.5

    def test_high_snr(self):
        inp = ErrorBoundInputs.power_controlled(1e6, 3, 10)
        md, fa = detection_error_bounds(inp)
        assert md < 1e-100 and fa < 1e-100

    def test_12db_reference(self):
        inp = ErrorBoundInputs.power_controlled(16.0, 2, 8)
        md, fa = detection_error_bounds(inp)
        assert md == pytest.approx(qfunc(math.sqrt(8.0)), rel=1e-12)
        assert md == pytest.approx(0.0023388674905236288, rel=1e-9)
        assert fa == pytest.approx(md, rel=1e-14)

    def test_mixed_snrs(self):
        inp = ErrorBoundInputs(active_snrs=(0.0, 16.0), virtual_snrs=(4.0,),
                               pool_size=5)
        md, fa = detection_error_bounds(inp)
        assert md == pytest.approx(
            0.5 * (0.5 + qfunc(math.sqrt(8.0))), rel=1e-12)
        assert fa == pytest.approx(qfunc(math.sqrt(2.0)), rel=1e-12)

    def test_bit_identical_to_qfunc_mean(self):
        # SNR 2800..2990 puts Q in the subnormal range.  Where every term
        # is that small, halving the sum rounds differently from summing
        # halves, so one tuple in two is drawn from there and 1e6 (Q = 0)
        rng = np.random.default_rng(13)

        def snrs():
            tiny = rng.integers(2)
            return tuple(float(rng.choice(
                [1e6, rng.uniform(2800.0, 2990.0)] if tiny else
                [0.0, 1e6, 5e-324, rng.uniform(2800.0, 2990.0),
                 10 ** rng.uniform(-6.0, 6.0)]))
                for _ in range(int(rng.integers(1, 40))))

        def qfunc_mean(values):
            return sum(qfunc(math.sqrt(s / 2.0)) for s in values) \
                / len(values)

        for _ in range(500):
            active, virtual = snrs(), snrs()
            md, fa = detection_error_bounds(ErrorBoundInputs(
                active_snrs=active, virtual_snrs=virtual,
                pool_size=len(active) + 1))
            assert md == qfunc_mean(active) and fa == qfunc_mean(virtual)

    def test_validation(self):
        with pytest.raises(ValueError):
            ErrorBoundInputs(active_snrs=(), virtual_snrs=(1.0,), pool_size=4)
        with pytest.raises(ValueError):
            ErrorBoundInputs(active_snrs=(1.0,) * 4, virtual_snrs=(1.0,),
                             pool_size=4)
        with pytest.raises(ValueError):
            ErrorBoundInputs(active_snrs=(-1.0,), virtual_snrs=(1.0,),
                             pool_size=4)
        with pytest.raises(ValueError, match="virtual_snrs"):
            ErrorBoundInputs(active_snrs=(1.0,), virtual_snrs=(), pool_size=4)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                ErrorBoundInputs(active_snrs=(1.0,), virtual_snrs=(bad,),
                                 pool_size=4)


class TestSupportErrorProb:
    def test_reference_point(self):
        assert support_error_prob(310, 0.01) == pytest.approx(0.955, abs=1e-3)

    def test_no_errors(self):
        assert support_error_prob(310, 0.0) == 0.0

    def test_small_product(self):
        assert support_error_prob(100, 0.001) == pytest.approx(
            1.0 - math.exp(-0.1), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            support_error_prob(10, 1.5)
