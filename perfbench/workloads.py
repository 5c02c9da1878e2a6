"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``__init__`` (the set-up
that ``setup_s`` times), then runs closed-loop units of work, one after the
other in this process.  ``run_unit(rep)`` returns a `Unit` with its wall time
and two work rates; ``check(unit, checks)`` verifies the unit's output.
``calibration`` names the calibration kernel whose work drifts with the
workload's on a noisy host (see calibration.py).

Calls into the package go through module attributes (``cli.main``,
``analytic.instability_threshold``, ...), never through names imported
earlier, so the tracer's patched functions are the ones called.
"""

import contextlib
import io
import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from cra import analytic, cli, signals, sim

import checks as ck

# fig3 preset protocol (cli.build_preset): N=31, M=256, tau=4, L=310,
# p_md = p_fa = 0.01
FIG3_N, FIG3_M, FIG3_TAU, FIG3_L, FIG3_P_ERR = 31, 256, 4.0, 310, 0.01
FIG3_GRID_POINTS = 20
FIG3_SCHEMES = 3
FIG3_METRICS = 4
FIG3_FIXED_LEN = FIG3_N + FIG3_TAU / 2 + FIG3_N * FIG3_M   # CRA-1 / ALOHA

# retrial_backlog: initial backlog and load lambda_T, overloaded
RETRIAL_BACKLOG, RETRIAL_TRAFFIC = 5000, 3.0


@dataclass
class Unit:
    wall: float            # seconds for the unit (fig3: its 1-worker sweep)
    primary: float         # main work rate, per second
    secondary: float       # second work rate, per second
    parts: dict = field(default_factory=dict)   # phase timings, seconds
    output: object = None  # what check() inspects
    speed: float = 1.0     # reference seconds per measured second


def _capped_moments(metric, traffic):
    """Success moments of one fig3 CRA-1 (eta1) or ALOHA (eta_ma) session."""
    mean_active = traffic / (FIG3_N + FIG3_M) * FIG3_FIXED_LEN
    if metric == "eta1":
        return ck.capped_success_moments(mean_active, FIG3_L, FIG3_N - 1,
                                         FIG3_P_ERR)
    return ck.capped_success_moments(mean_active, FIG3_N, FIG3_N, FIG3_P_ERR)


def _ref_params(traffic):
    return analytic.ProtocolParams(
        preamble_len=FIG3_N, payload_len=FIG3_M, pool_size=FIG3_L,
        feedback_len=FIG3_TAU, arrival_rate=traffic / (FIG3_N + FIG3_M),
        p_md=FIG3_P_ERR, p_fa=FIG3_P_ERR)


class Fig3Sweep:
    """`cra sweep --preset fig3` through cli.main, at 1 and then 2 workers."""

    name = "fig3_sweep"
    rate_names = ("sessions_per_s", "sessions_per_s_at_2_workers")
    calibration = "python"

    def __init__(self, seed, out_dir, n_sessions=500, warmup=100):
        self.seed = seed
        self.n_sessions = n_sessions
        self.warmup = warmup
        self.paths = {w: str(out_dir / f"fig3_workers{w}.csv") for w in (1, 2)}
        self.sessions = FIG3_GRID_POINTS * FIG3_SCHEMES * (n_sessions + warmup)

    def argv(self, rep, workers):
        return ["sweep", "--preset", "fig3",
                "--n-sessions", str(self.n_sessions),
                "--warmup", str(self.warmup),
                "--seeds", str(cli.derive_seed(self.seed, rep) % 2**31),
                "--output", self.paths[workers], "--workers", str(workers)]

    def run_unit(self, rep):
        walls = {}
        codes = {}
        for workers in (1, 2):
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = perf_counter()
                codes[workers] = cli.main(self.argv(rep, workers))
                walls[workers] = perf_counter() - t0
        with open(self.paths[1], "rb") as fh:
            serial = fh.read()
        with open(self.paths[2], "rb") as fh:
            parallel = fh.read()
        return Unit(wall=walls[1],
                    primary=self.sessions / walls[1],
                    secondary=self.sessions / walls[2],
                    parts={"workers_1": walls[1], "workers_2": walls[2]},
                    output=(codes, serial, parallel))

    def check(self, unit, checks):
        codes, serial, parallel = unit.output
        checks.expect(codes == {1: 0, 2: 0}, f"cli exit codes {codes}")
        checks.expect(serial == parallel,
                      "sweep CSV differs between 1 and 2 workers")
        header, rows = ck.read_csv(self.paths[1])
        checks.expect(header == ck.RESULT_HEADER, f"CSV header {header}")
        checks.expect(len(rows) == FIG3_GRID_POINTS * FIG3_METRICS * 2,
                      f"CSV has {len(rows)} rows")
        ck.check_sweep_rows(checks, rows, self.n_sessions, FIG3_FIXED_LEN,
                            FIG3_N + FIG3_M, _capped_moments)


class RetrialBacklog:
    """CRA-2 fast-retrial backlog trajectories from a large initial backlog
    at an overloaded load; each unit is one trajectory with its own seed."""

    name = "retrial_backlog"
    rate_names = ("sessions_per_s", "active_users_per_s")
    calibration = "array"

    def __init__(self, seed, out_dir, horizon=300):
        self.seed = seed
        self.horizon = horizon
        self.params = _ref_params(RETRIAL_TRAFFIC)

    def run_unit(self, rep):
        cfg = sim.SimConfig(params=self.params, scheme=sim.Scheme.CRA2,
                            mode=sim.Mode.FAST_RETRIAL,
                            n_sessions=self.horizon, warmup_sessions=0,
                            seed=cli.derive_seed(self.seed, rep))
        t0 = perf_counter()
        traj = sim.simulate_stability(cfg, self.horizon,
                                      initial_backlog=RETRIAL_BACKLOG)
        wall = perf_counter() - t0
        # users still active after each session: equals the active count up
        # to the session's successes, ~1e-3 at this load
        return Unit(wall=wall, primary=traj.size / wall,
                    secondary=float(traj.sum()) / wall, output=traj)

    def check(self, unit, checks):
        traj = unit.output
        checks.expect(traj.size == self.horizon,
                      f"trajectory has {traj.size} of {self.horizon} sessions")
        ck.check_backlog_slope(
            checks, traj, lambda k: analytic.backlog_drift(k, self.params))


class ClosedFormGrid:
    """cli.analytic_point over a seeded dense grid of (lambda_T, L, M, p_err),
    then instability_threshold and detection_error_bounds on a subset."""

    name = "closed_form_grid"
    rate_names = ("points_per_s", "thresholds_per_s")
    calibration = "python"

    def __init__(self, seed, out_dir, shape=(16, 8, 8, 5), n_thresholds=24):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        n_lam, n_l, n_m, n_p = shape
        loads = np.sort(rng.uniform(0.05, 2.5, n_lam))
        pools = np.sort(rng.choice(np.arange(31, 621), n_l, replace=False))
        payloads = np.sort(rng.choice(np.arange(32, 641), n_m, replace=False))
        errs = np.sort(rng.uniform(0.0, 0.1, n_p))
        self.points = [self._params(lt, L, M, pe) for lt in loads
                       for L in pools for M in payloads for pe in errs]
        # instability_threshold scans K up to 10 L, so its cost depends on L
        # alone; a fixed L keeps the work per unit the same for every seed
        self.threshold_points = [
            self._params(rng.uniform(0.05, 0.9), FIG3_L,
                         rng.choice(payloads), rng.choice(errs))
            for _ in range(n_thresholds)]
        self.bound_inputs = []
        for p in self.threshold_points:
            snr = float(rng.uniform(0.5, 20.0))
            k = int(rng.integers(1, p.pool_size))
            self.bound_inputs.append(
                (snr, analytic.ErrorBoundInputs.power_controlled(
                    snr, k, p.pool_size)))

    @staticmethod
    def _params(load, L, M, p_err):
        return analytic.ProtocolParams(
            preamble_len=FIG3_N, payload_len=int(M), pool_size=int(L),
            feedback_len=FIG3_TAU, arrival_rate=float(load) / (FIG3_N + int(M)),
            p_md=float(p_err), p_fa=float(p_err))

    def run_unit(self, rep):
        t0 = perf_counter()
        values = [cli.analytic_point(p) for p in self.points]
        t1 = perf_counter()
        thresholds = [analytic.instability_threshold(p)
                      for p in self.threshold_points]
        bounds = [analytic.detection_error_bounds(inputs)
                  for _, inputs in self.bound_inputs]
        t2 = perf_counter()
        return Unit(wall=t2 - t0,
                    primary=len(self.points) / (t1 - t0),
                    secondary=len(self.threshold_points) / (t2 - t1),
                    output=(values, thresholds, bounds))

    def check(self, unit, checks):
        values, thresholds, bounds = unit.output
        for i, (p, v) in enumerate(zip(self.points, values)):
            ck.check_fixed_point(checks, p, v["mean_active"])
            if i % 64 == 0:
                ck.check_capped_throughputs(checks, p, v["eta1"], v["eta_ma"])
        for p, k0 in zip(self.threshold_points, thresholds):
            ck.check_threshold(checks, p, k0,
                               lambda k, p=p: analytic.backlog_drift(k, p))
        for (snr, _), b in zip(self.bound_inputs, bounds):
            ck.check_error_bound(checks, snr, b)


class SignalLab:
    """Pairwise ML error trials on a 31 x 310 pool at several SNRs, then
    brute-force spark of random 4 x 8 pools."""

    name = "signal_lab"
    rate_names = ("ml_trials_per_s", "spark_pools_per_s")
    calibration = "array"
    snrs = (0.5, 2.0, 8.0, 16.0)

    def __init__(self, seed, out_dir, n_trials=50_000, n_spark=64):
        self.seed = seed
        self.n_trials = n_trials
        self.n_spark = n_spark
        self.pool = signals.gen_pool(31, 310, [seed, 2])
        rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
        users = rng.choice(310, size=2 * len(self.snrs), replace=False)
        self.cases = []
        for i, snr in enumerate(self.snrs):
            scene = signals.SparseScene(
                support=(int(users[2 * i]),),
                coefficients=np.array([math.sqrt(snr)], dtype=complex),
                noise_var=1.0)
            self.cases.append((snr, scene, int(users[2 * i + 1])))

    def run_unit(self, rep):
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 4, rep]))
        t0 = perf_counter()
        rates = []
        for snr, scene, virtual in self.cases:
            md = signals.ml_md_trial(self.pool, scene, 0, rng, self.n_trials)
            fa = signals.ml_fa_trial(self.pool, scene, virtual, snr, rng,
                                     self.n_trials)
            rates.append((snr, md, fa))
        t1 = perf_counter()
        sparks = [signals.spark_bruteforce(
                      signals.gen_pool(4, 8, [self.seed, 5, rep, j]))
                  for j in range(self.n_spark)]
        t2 = perf_counter()
        trials = 2 * len(self.cases) * self.n_trials
        return Unit(wall=t2 - t0, primary=trials / (t1 - t0),
                    secondary=self.n_spark / (t2 - t1),
                    output=(rates, sparks))

    def check(self, unit, checks):
        rates, sparks = unit.output
        for snr, md, fa in rates:
            ck.check_ml_rate(checks, "missed-detection", md, snr, self.n_trials)
            ck.check_ml_rate(checks, "false-alarm", fa, snr, self.n_trials)
        for s in sparks:
            checks.expect(s == 5, f"spark {s} of a random 4x8 pool, expected 5")


WORKLOADS = {w.name: w for w in (Fig3Sweep, RetrialBacklog, ClosedFormGrid,
                                 SignalLab)}

# Sizes for the warm-up unit and the smoke test: every code path, little work.
TINY = {
    "fig3_sweep": {"n_sessions": 60, "warmup": 10},
    "retrial_backlog": {"horizon": 20},
    "closed_form_grid": {"shape": (3, 2, 2, 2), "n_thresholds": 2},
    "signal_lab": {"n_trials": 2000, "n_spark": 2},
}
