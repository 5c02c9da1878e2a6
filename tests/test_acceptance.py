"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single
``ACCEPTANCE n: PASS/FAIL`` line (visible with ``pytest -s`` or in the
captured output of a failing test).  Tolerances are pinned; a failing
criterion fails honestly with the measured numbers in the message.
"""

import json
import math

import numpy as np
import pytest
from scipy import stats

from cra.analytic import (
    ProtocolParams,
    backlog_drift,
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
from cra.cli import derive_seed, main
from cra.signals import gen_pool, ml_fa_trial, ml_md_trial, mmv_identifiable, \
    spark_bruteforce, SparseScene
from cra.sim import Mode, Scheme, SimConfig, estimate_throughput, \
    simulate_stability, _ratio_estimate, _walk
from cra.specfun import qfunc

from helpers import exact_chain_means, exact_chain_throughput, \
    exact_occupancy_means, fixed_point_mean_load, split_chain_std_error

REF = ProtocolParams(preamble_len=31, payload_len=256, pool_size=310,
                     feedback_len=4.0, arrival_rate=1.0 / 287.0,
                     p_md=0.01, p_fa=0.01)
LOAD_GRID = (0.2, 0.6, 1.0, 1.4, 2.0)
FIG_GRID = tuple(round(0.1 * i, 10) for i in range(1, 21))


def report(number, desc, failures):
    status = "FAIL" if failures else "PASS"
    line = f"ACCEPTANCE {number}: {status} - {desc}"
    print(line)
    assert not failures, line + " :: " + " | ".join(failures)


def analytic_norm(scheme, params):
    t = params.txn_len
    if scheme is Scheme.CRA1:
        return t * throughput_cra1(params)
    if scheme is Scheme.CRA2:
        return t * steady_state_cra2(params).throughput
    return t * throughput_maloha(params)


@pytest.fixture(scope="module")
def grid_estimates():
    """Simulated vs closed-form normalized throughput on the load grid,
    all three schemes, 1e5 drop-mode sessions each; the estimate itself
    comes last."""
    out = {}
    for si, scheme in enumerate((Scheme.CRA1, Scheme.CRA2, Scheme.MC_ALOHA)):
        for li, lt in enumerate(LOAD_GRID):
            p = REF.with_traffic(lt)
            cfg = SimConfig(params=p, scheme=scheme, n_sessions=100_000,
                            warmup_sessions=1_000, seed=1000 * si + li)
            est = estimate_throughput(cfg)
            t = p.txn_len
            out[(scheme, lt)] = (t * est.mean_throughput, t * est.std_error,
                                 analytic_norm(scheme, p), est)
    return out


def _throughput_failures(results, schemes):
    failures = []
    for (scheme, lt), (sim, se, ana, _) in results.items():
        if scheme not in schemes:
            continue
        tol = max(3 * se, 0.02 * ana)
        if abs(sim - ana) > tol:
            failures.append(
                f"{scheme.value} load={lt}: sim={sim:.5f} vs closed-form "
                f"{ana:.5f} (tol {tol:.5f})")
    return failures


def test_criterion_01_throughput_agreement(grid_estimates):
    failures = _throughput_failures(
        grid_estimates, {Scheme.CRA1, Scheme.CRA2, Scheme.MC_ALOHA})
    report(1, "simulated throughput matches closed forms on the load grid",
           failures)


def test_criterion_02_steady_state_fixed_point():
    failures = []
    p = REF.with_traffic(1.0)
    ss = steady_state_cra2(p)
    beta2, d_bar = ss.mean_active, ss.mean_detected
    if abs(beta2 - 19.0) > 0.1:
        failures.append(f"mean active {beta2:.4f} not ~19.0")
    if abs(d_bar - 21.2) > 0.1:
        failures.append(f"mean detected {d_bar:.4f} not ~21.2")

    c1, c2 = _fixed_point_coeffs(p)
    oracle_beta2 = p.pool_size * fixed_point_mean_load(c1, c2)
    if abs(beta2 - oracle_beta2) > 1e-9 * max(1.0, abs(oracle_beta2)):
        failures.append(
            f"fixed point {beta2!r} vs iteration oracle {oracle_beta2!r}")

    for lt in FIG_GRID:
        if lt <= 1.0 and not steady_state_cra2(
                REF.with_traffic(lt)).mean_detected < REF.preamble_len:
            failures.append(f"mean detected >= N at load {lt}")

    cfg = SimConfig(params=p, scheme=Scheme.CRA2, n_sessions=1_000_000,
                    warmup_sessions=10_000, seed=2024)
    est = estimate_throughput(cfg)
    # The closed forms are the fixed point under an exactly Poisson active
    # count.  The session chain's active count is a Poisson mixture over the
    # previous session's length, so the simulation must match the chain's
    # exact stationary means, and the closed form bounds them from above:
    # E[K]/L = c1 - c2*E[exp(-lambda*len/L)] <= c1 - c2*exp(-E[K]/L) by
    # Jensen, and f(x) = c1 - c2*exp(-x) - x is concave with f(0) >= 0, so
    # E[K] lies at or below the fixed point; E[D] follows through
    # E[K] = lambda*(N + tau) + lambda*M*E[D].
    exact_active, exact_detected = exact_chain_means(p)
    for name, sim, exact, closed in (
            ("active", est.mean_active, exact_active, beta2),
            ("detected", est.mean_detected, exact_detected, d_bar)):
        values = (f"sim {sim:.4f}, exact chain {exact:.4f}, "
                  f"closed form {closed:.4f}")
        if abs(sim - exact) > 0.01 * exact:
            failures.append(f"mean {name}: sim vs exact chain exceeds 1% "
                            f"({values})")
        if closed < exact:
            failures.append(f"mean {name}: closed form below exact chain "
                            f"({values})")
    report(2, "steady-state fixed point and long-run simulated means",
           failures)


def test_criterion_03_throughput_orderings():
    failures = []
    p = REF.with_traffic(1.0)
    eta1 = analytic_norm(Scheme.CRA1, p)
    eta2 = analytic_norm(Scheme.CRA2, p)
    eta_ma = analytic_norm(Scheme.MC_ALOHA, p)
    if not eta2 > eta1 > eta_ma:
        failures.append(
            f"ordering violated at load 1: {eta2:.4f}, {eta1:.4f}, "
            f"{eta_ma:.4f}")
    if not 0.85 <= eta2 <= 1.0:
        failures.append(f"handshake throughput {eta2:.4f} outside [0.85, 1]")
    peak1 = max(analytic_norm(Scheme.CRA1, REF.with_traffic(lt))
                for lt in FIG_GRID)
    peak_ma = max(analytic_norm(Scheme.MC_ALOHA, REF.with_traffic(lt))
                  for lt in FIG_GRID)
    ratio = peak1 / peak_ma
    if not 1.7 <= ratio <= 2.2:
        failures.append(f"peak ratio {ratio:.4f} outside [1.7, 2.2]")
    report(3, "closed-form ordering and peak-ratio claims", failures)


def test_criterion_04_capacity_cap_resolution(grid_estimates):
    # The grant-free and orthogonal-channel closed forms use Poisson-cdf
    # caps Pr(V <= N-2) and Pr(V <= N-1); matching the simulation on the
    # full grid settles that normalization choice.
    failures = _throughput_failures(grid_estimates,
                                    {Scheme.CRA1, Scheme.MC_ALOHA})
    report(4, "probability-form capacity caps match simulation", failures)


def test_criterion_05_exact_small_instances():
    failures = []
    for L in range(1, 6):
        for K in range(0, 6):
            b1, b = exact_occupancy_means(K, L)
            if abs(b1 - L * prob_singleton(K, L)) > 1e-12:
                failures.append(f"singleton mean L={L} K={K}")
            if abs(b - L * (1.0 - prob_unused(K, L))) > 1e-12:
                failures.append(f"occupied mean L={L} K={K}")
            if L < 2:
                continue  # parameter validation requires pool_size >= 2
            p0 = ProtocolParams(preamble_len=4, payload_len=8, pool_size=L,
                                feedback_len=2.0, arrival_rate=0.01,
                                p_md=0.3, p_fa=0.2)
            d1, d2, d3 = mean_detected_split(K, p0)
            if abs(d1 - (1 - p0.p_md) * b1) > 1e-12 or \
                    abs(d2 - (1 - p0.p_md) * (b - b1)) > 1e-12 or \
                    abs(d3 - p0.p_fa * (L - b)) > 1e-12:
                failures.append(f"detected split L={L} K={K}")
    report(5, "exhaustive small-instance enumeration matches closed forms",
           failures)


def test_criterion_06_support_error_fixture():
    val = support_error_prob(310, 0.01)
    failures = []
    if abs(val - 0.955) > 0.001:
        failures.append(f"support_error_prob(310, 0.01) = {val:.6f}")
    report(6, "pool-wide support error probability fixture 0.955", failures)


def test_criterion_07_pairwise_ml_error():
    failures = []
    pool = gen_pool(31, 310, seed=77)
    n = 1_000_000
    for i, snr in enumerate((0.0, 1.0, 4.0, 16.0)):
        scene = SparseScene(support=(0,),
                            coefficients=np.array([math.sqrt(snr)],
                                                  dtype=complex),
                            noise_var=1.0)
        expected = qfunc(math.sqrt(snr / 2.0))
        se = math.sqrt(expected * (1.0 - expected) / n)
        md = ml_md_trial(pool, scene, 0, np.random.default_rng(500 + i), n)
        fa = ml_fa_trial(pool, scene, 1, snr,
                         np.random.default_rng(600 + i), n)
        if abs(md - expected) > 4 * se:
            failures.append(f"md snr={snr:g}: {md:.6f} vs {expected:.6f}")
        if abs(fa - expected) > 4 * se:
            failures.append(f"fa snr={snr:g}: {fa:.6f} vs {expected:.6f}")
    report(7, "pairwise ML error rates match the Gaussian tail", failures)


def test_criterion_08_identifiability():
    failures = []
    sparks = [spark_bruteforce(gen_pool(4, 8, seed=s)) for s in range(50)]
    if any(s != 5 for s in sparks):
        failures.append(f"random 4x8 pools: sparks {sorted(set(sparks))}")
    n = 31
    if not mmv_identifiable(n - 1, spark=n + 1, rank_obs=n - 1):
        failures.append("N-1 users with full-rank observations not "
                        "identifiable")
    if mmv_identifiable(n, spark=n + 1, rank_obs=n):
        failures.append("N users wrongly identifiable")
    report(8, "spark and multiple-measurement identifiability boundary",
           failures)


def test_criterion_09_instability():
    failures = []
    p = REF.with_traffic(3.0)
    start = 100
    blown = 0
    for seed in range(20):
        cfg = SimConfig(params=p, scheme=Scheme.CRA2, mode=Mode.FAST_RETRIAL,
                        n_sessions=10, warmup_sessions=0, seed=seed)
        traj = simulate_stability(cfg, 10_000, initial_backlog=start)
        if traj[-1] > 10 * start:
            blown += 1
    if blown < 19:  # >= 95% of 20 replicas
        failures.append(f"only {blown}/20 replicas exceeded 10x backlog")
    k0 = instability_threshold(p)
    for k in list(range(k0, k0 + 200)) + [10 * p.pool_size]:
        if backlog_drift(k, p) <= 0:
            failures.append(f"drift not positive at K={k} above K0={k0}")
            break
    report(9, "overload divergence and positive drift above threshold",
           failures)


def test_criterion_10_determinism(tmp_path):
    failures = []

    def rerun(name, argv):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}_{tag}.csv"
            rc = main(argv + ["--output", str(out)])
            if rc != 0:
                failures.append(f"{name}: exit code {rc}")
                return
            outs.append(out)
        if outs[0].read_bytes() != outs[1].read_bytes():
            failures.append(f"{name}: CSV outputs differ")
        prov = [json.loads((tmp_path / f"{name}_{t}.csv.provenance.json")
                           .read_text()) for t in ("a", "b")]
        if prov[0] != prov[1]:
            failures.append(f"{name}: provenance differs")

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "preamble_len": 8, "payload_len": 16, "pool_size": 24,
        "arrival_rate": 0.005, "swept_variable": "lambda_T",
        "grid": [0.5, 1.0], "n_sessions": 400, "warmup_sessions": 40,
        "replicate_seeds": [1]}))

    rerun("analytic", ["analytic", "--traffic", "1.0"])
    rerun("simulate", ["simulate", "--preamble-len", "8", "--payload-len",
                       "16", "--pool-size", "24", "--n-sessions", "400",
                       "--warmup", "40", "--seed", "3"])
    rerun("sweep", ["sweep", "--spec", str(spec)])
    rerun("signal", ["signal", "--snr", "0,4", "--trials", "5000",
                     "--pool-symbols", "8", "--pool-size", "16"])
    rerun("stability", ["stability", "--traffic", "3.0", "--horizon", "100",
                        "--initial-backlog", "10", "--seeds", "0,1"])
    report(10, "identical configs reproduce byte-identical outputs", failures)


def test_criterion_11_cra2_throughput_matches_exact_chain(grid_estimates):
    # The closed form assumes a Poisson active count, so criterion 1 allows
    # it 2%.  The exact stationary chain makes no such approximation, so the
    # simulation must sit within 4 SE of it: 4, not 3, because the
    # batch-means SE runs a little low (z over seeds 500-529 at load 0.6:
    # mean -0.23, SD 1.07).
    failures = []
    for lt in LOAD_GRID:
        p = REF.with_traffic(lt)
        sim, se, _, _ = grid_estimates[(Scheme.CRA2, lt)]
        exact = p.txn_len * exact_chain_throughput(p)
        if abs(sim - exact) > 4 * se:
            failures.append(f"load={lt}: sim={sim:.5f} vs exact chain "
                            f"{exact:.5f} (z {(sim - exact) / se:+.2f})")
    report(11, "simulated CRA-2 throughput matches the exact session chain",
           failures)


@pytest.fixture(scope="module")
def short_cra2_runs():
    """CRA-2 drop-mode runs of the fig3 benchmark's size (500 + 100
    sessions), 40 seeds at each load of criterion 1, by load."""
    return {lt: [estimate_throughput(SimConfig(
                params=REF.with_traffic(lt), scheme=Scheme.CRA2,
                n_sessions=500, warmup_sessions=100,
                seed=derive_seed(900 + s, 1))) for s in range(40)]
            for lt in LOAD_GRID}


def test_criterion_12_short_cra2_runs_match_exact_chain(short_cra2_runs):
    # The z-scores of eta2 against the exact chain must centre on 0 with a
    # spread near 1.  The batch-means SE of so short a run is noisy, so the
    # spread may reach 1.4.
    z = []
    for lt, runs in short_cra2_runs.items():
        exact = exact_chain_throughput(REF.with_traffic(lt))
        z += [(est.mean_throughput - exact) / est.std_error for est in runs]
    mean, sd = float(np.mean(z)), float(np.std(z, ddof=1))
    failures = []
    if abs(mean) > 0.35 or sd > 1.4:
        failures.append(f"z over {len(z)} runs: mean {mean:+.3f} (limit "
                        f"0.35), SD {sd:.3f} (limit 1.4)")
    report(12, "short CRA-2 runs agree with the exact chain in z-score",
           failures)


def test_criterion_13_detected_ratio_matches_exact_chain(grid_estimates):
    # The simulated d_bar_ratio and its standard error, as the sweep writes
    # them, against the exact chain's E[D] / N.
    failures = []
    for lt in LOAD_GRID:
        p = REF.with_traffic(lt)
        est = grid_estimates[(Scheme.CRA2, lt)][3]
        n = p.preamble_len
        sim, se = est.mean_detected / n, est.detected_std_error / n
        exact = exact_chain_means(p)[1] / n
        if not (se > 0 and abs(sim - exact) <= 4 * se):
            failures.append(f"load={lt}: d_bar_ratio {sim:.5f} +/- {se:.5f} "
                            f"vs exact chain {exact:.5f}")
    report(13, "simulated d_bar_ratio within 4 SE of the exact chain",
           failures)


# The batch-means SE is the SD of 30 batch ratios over sqrt(30).  Were the
# batch ratios independent and normal with the exact asymptotic variance,
# (SE / exact SE)^2 would follow chi2_29 / 29.
SE_FALSE_ALARM = 0.001


def _chi2_band(dof):
    """Two-sided band of chi2_dof / dof at SE_FALSE_ALARM."""
    return (stats.chi2.ppf(SE_FALSE_ALARM / 2, dof) / dof,
            stats.chi2.isf(SE_FALSE_ALARM / 2, dof) / dof)


def test_criterion_14_cra2_std_error_matches_exact_chain(grid_estimates,
                                                         short_cra2_runs):
    # Each CRA-2 SE of criterion 1's 1e5-session runs must lie in the
    # sqrt(chi2_29 / 29) band, [0.594, 1.447] at a false-alarm rate of 0.1%
    # (ratios measured 0.79-1.12).  Criterion 12's 200 short runs are
    # independent, so the pooled mean of their (SE / exact SE)^2 follows
    # chi2_5800 / 5800: band [0.940, 1.062] at 0.1% (measured 0.956).  Over
    # these six checks the false-alarm rate is at most 0.6%.  The batches of
    # a 500-session run hold about 17 sessions, whose correlation pulls its
    # SE low (mean variance ratio measured 0.84 at load 1.4, 0.96-1.03
    # elsewhere); the pooled band bounds that bias.
    failures = []
    lo, hi = (math.sqrt(b) for b in _chi2_band(29))
    for lt in LOAD_GRID:
        p = REF.with_traffic(lt)
        est = grid_estimates[(Scheme.CRA2, lt)][3]
        ratio = est.std_error / split_chain_std_error(p, est.sessions_run)
        if not lo <= ratio <= hi:
            failures.append(f"load={lt}: SE / exact SE {ratio:.3f} outside "
                            f"[{lo:.3f}, {hi:.3f}]")
    squares = []
    for lt, runs in short_cra2_runs.items():
        exact = split_chain_std_error(REF.with_traffic(lt), 500)
        squares += [(est.std_error / exact) ** 2 for est in runs]
    lo, hi = _chi2_band(29 * len(squares))
    pooled = float(np.mean(squares))
    if not lo <= pooled <= hi:
        failures.append(f"short runs: mean (SE / exact SE)^2 {pooled:.3f} "
                        f"outside [{lo:.3f}, {hi:.3f}]")
    report(14, "CRA-2 batch-means SE matches the exact chain's SE", failures)


# Criterion 15 runs 3 loads x 4 seeds; each run's (eta - load) / SE, with
# the SE from 30 batch means, is near t_29, so a bound of k SE with
# 2 * 12 * P(t_29 > k) = 0.001 keeps the family-wise false-alarm rate
# at 0.1%: k = 4.57.
STABLE_LOADS = (0.2, 0.5, 0.8)
STABLE_SEEDS = 4
STABLE_K = stats.t.isf(0.001 / (2 * len(STABLE_LOADS) * STABLE_SEEDS), 29)


def test_criterion_15_stable_fast_retrial_serves_the_load():
    # Below instability_threshold the fast-retrial backlog is metastable:
    # every user who arrives is served in the end, so the normalized
    # throughput is the offered load, up to the backlog's change over the
    # run (a few users in 5000 sessions).  The precondition, that the
    # run's backlog never reached the threshold, is asserted and reported.
    # z per run measured over 100 other seeds: SD 0.94-1.21, largest |z|
    # 3.5; dropping the retrial (backlog 0) reads z near -7 at load 0.8.
    # Each run walks its chain once and takes eta from the measured
    # sessions by estimate_throughput's own estimator; the first run
    # asserts that this is estimate_throughput's result.
    failures = []
    largest = []
    for lt in STABLE_LOADS:
        p = REF.with_traffic(lt)
        k0 = instability_threshold(p)
        top = 0
        for seed in range(STABLE_SEEDS):
            cfg = SimConfig(params=p, scheme=Scheme.CRA2,
                            mode=Mode.FAST_RETRIAL, n_sessions=5_000,
                            warmup_sessions=500, seed=seed)
            succ, detected, backlog = _walk(cfg, 5_500)
            highest = int(backlog.max())
            top = max(top, highest)
            if highest >= k0:
                failures.append(f"load={lt} seed={seed}: backlog reached "
                                f"{highest}, threshold {k0}")
                continue
            est = _ratio_estimate(succ[500:], detected[500:],
                                  p.overhead_len, p.payload_len,
                                  p.arrival_rate, backlog[500:])
            if lt == STABLE_LOADS[0] and seed == 0:
                assert est == estimate_throughput(cfg)
            eta, se = p.txn_len * est.mean_throughput, \
                p.txn_len * est.std_error
            if not abs(eta - lt) <= STABLE_K * se:
                failures.append(f"load={lt} seed={seed}: eta={eta:.5f} "
                                f"(z {(eta - lt) / se:+.2f}, bound "
                                f"{STABLE_K:.2f})")
        largest.append(f"{top}/{k0}")
    report(15, "stable fast-retrial throughput equals the offered load "
           f"(largest backlog / threshold: {', '.join(largest)})", failures)
