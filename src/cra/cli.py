"""Command-line front end: single-point closed forms, simulation runs,
figure-style sweeps, signal-level ML experiments and stability trajectories.

Results are written as long-format CSV with the fixed header

    sweep_var,value,metric,source,estimate,std_error,sessions,seed

(UTF-8, LF line endings, 17 significant digits).  Every output file gets an
adjacent ``<path>.provenance.json`` echoing the full effective
configuration, so identical configs reproduce byte-identical files.
"""

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import analytic, signals
from .analytic import ProtocolParams
from .sim import Mode, Scheme, SimConfig, estimate_throughput, simulate_stability

RESULT_FIELDS = ("sweep_var", "value", "metric", "source", "estimate",
                 "std_error", "sessions", "seed")

SWEEP_VARIABLES = ("lambda_T", "L", "M", "p_err")
METRICS = ("eta1", "eta2", "eta_ma", "d_bar_ratio")

_SCHEME_FOR_METRIC = {
    "eta1": Scheme.CRA1,
    "eta2": Scheme.CRA2,
    "eta_ma": Scheme.MC_ALOHA,
    "d_bar_ratio": Scheme.CRA2,
}


class ConfigError(ValueError):
    """Invalid CLI/file configuration; message names the offending field."""


@dataclass(frozen=True)
class SweepSpec:
    base: SimConfig
    swept_variable: str
    grid: tuple
    outputs: tuple = METRICS
    replicate_seeds: tuple = (0,)

    def __post_init__(self):
        if self.swept_variable not in SWEEP_VARIABLES:
            raise ConfigError(
                f"swept_variable must be one of {SWEEP_VARIABLES}, "
                f"got {self.swept_variable!r}")
        if not self.grid:
            raise ConfigError("grid: must be nonempty")
        diffs = [b - a for a, b in zip(self.grid, self.grid[1:])]
        if any(d <= 0 for d in diffs):
            raise ConfigError("grid: values must be strictly increasing")
        bad = [m for m in self.outputs if m not in METRICS]
        if bad:
            raise ConfigError(f"outputs: unknown metric(s) {bad}")
        if not self.replicate_seeds:
            raise ConfigError("replicate_seeds: must be nonempty")


def apply_sweep_value(params, variable, value):
    """Protocol parameters with one swept variable replaced."""
    if variable == "lambda_T":
        return params.with_traffic(value)
    if variable == "L":
        return replace(params, pool_size=int(value))
    if variable == "M":
        return replace(params, payload_len=int(value))
    if variable == "p_err":
        return replace(params, p_md=value, p_fa=value)
    raise ConfigError(f"swept_variable: unknown variable {variable!r}")


def derive_seed(base_seed, *indices):
    """Deterministic 64-bit child seed for one (replicate, grid point) task."""
    ss = np.random.SeedSequence([int(base_seed), *[int(i) for i in indices]])
    hi, lo = ss.generate_state(2)
    return (int(hi) << 32) | int(lo)


# ---------------------------------------------------------------------------
# result emission

def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def emit_results(rows, path):
    """Write result rows (dicts with RESULT_FIELDS keys) as long-format CSV."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(RESULT_FIELDS)
            for row in rows:
                writer.writerow([_fmt(row.get(k)) for k in RESULT_FIELDS])
    except OSError as exc:
        raise ConfigError(f"cannot write results to {path}: {exc}") from exc


def read_results(path):
    """Parse a CSV written by emit_results back into row dicts."""
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


def write_provenance(path, config):
    with open(path + ".provenance.json", "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# parameter handling

_PARAM_FIELDS = ("preamble_len", "payload_len", "pool_size", "feedback_len",
                 "arrival_rate", "p_md", "p_fa")
_SIM_FIELDS = ("scheme", "mode", "n_sessions", "warmup_sessions", "seed")

_DEFAULTS = {
    "preamble_len": 31,
    "payload_len": 256,
    "pool_size": 310,
    "feedback_len": 4.0,
    "arrival_rate": None,   # derived from traffic when absent
    "traffic": 1.0,
    "p_md": 0.01,
    "p_fa": 0.01,
}


def _add_param_flags(parser):
    g = parser.add_argument_group("protocol parameters")
    g.add_argument("--config", help="JSON file with flat key-value settings; "
                                    "flags override file values")
    g.add_argument("--preamble-len", type=int)
    g.add_argument("--payload-len", type=int)
    g.add_argument("--pool-size", type=int)
    g.add_argument("--feedback-len", type=float)
    g.add_argument("--arrival-rate", type=float,
                   help="new users per symbol (overrides --traffic)")
    g.add_argument("--traffic", type=float,
                   help="normalized load: arrivals per (N + M) symbols")
    g.add_argument("--p-md", type=float)
    g.add_argument("--p-fa", type=float)


def _effective_settings(args):
    """Merge defaults, config file and CLI flags (flags win)."""
    settings = dict(_DEFAULTS)
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}")
        unknown = set(loaded) - set(_DEFAULTS) - set(_SIM_FIELDS)
        if unknown:
            raise ConfigError(f"config: unknown key(s) {sorted(unknown)}")
        settings.update(loaded)
    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    return settings


def params_from_args(args):
    s = _effective_settings(args)
    rate = s["arrival_rate"]
    if rate is None:
        rate = s["traffic"] / (s["preamble_len"] + s["payload_len"])
    try:
        params = ProtocolParams(
            preamble_len=s["preamble_len"],
            payload_len=s["payload_len"],
            pool_size=s["pool_size"],
            feedback_len=s["feedback_len"],
            arrival_rate=rate,
            p_md=s["p_md"],
            p_fa=s["p_fa"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return params


def params_to_dict(params):
    return {k: getattr(params, k) for k in _PARAM_FIELDS}


def analytic_point(params):
    """All closed-form metrics at one parameter point (normalized)."""
    ss = analytic.steady_state_cra2(params)
    t = params.txn_len
    return {
        "eta1": t * analytic.throughput_cra1(params),
        "eta2": t * ss.throughput,
        "eta_ma": t * analytic.throughput_maloha(params),
        "d_bar_ratio": ss.mean_detected / params.preamble_len,
        "mean_active": ss.mean_active,
        "mean_detected": ss.mean_detected,
        "mean_session_len": ss.mean_session_len,
    }


# ---------------------------------------------------------------------------
# sweep execution

def build_preset(name, args):
    """Figure-reproduction sweep presets."""
    base_params = ProtocolParams(preamble_len=31, payload_len=256,
                                 pool_size=310, feedback_len=4.0,
                                 arrival_rate=1.0 / 287.0,
                                 p_md=0.01, p_fa=0.01)
    if name == "fig3":
        swept, grid = "lambda_T", tuple(round(0.1 * i, 10) for i in range(1, 21))
    elif name == "fig4":
        swept, grid = "L", tuple(31 * i for i in range(1, 21))
    elif name == "fig5":
        base_params = replace(base_params, arrival_rate=1.0 / 200.0)
        swept, grid = "M", tuple(32 * i for i in range(1, 21))
    elif name == "fig6":
        swept, grid = "p_err", tuple(round(0.005 * i, 10) for i in range(1, 21))
    else:
        raise ConfigError(f"preset: unknown preset {name!r}")
    base = SimConfig(params=base_params,
                     n_sessions=args.n_sessions,
                     warmup_sessions=args.warmup,
                     seed=args.seeds[0])
    return SweepSpec(base=base, swept_variable=swept, grid=grid,
                     replicate_seeds=tuple(args.seeds))


def _run_sim_task(task):
    """One (grid point, scheme, seed) simulation; top level for pickling."""
    cfg_params, scheme, mode, n_sessions, warmup, seed = task
    cfg = SimConfig(params=cfg_params, scheme=scheme, mode=mode,
                    n_sessions=n_sessions, warmup_sessions=warmup, seed=seed)
    return estimate_throughput(cfg)


def run_sweep(spec, workers=1):
    """Evaluate a sweep: analytic values plus simulated estimates.

    Returns result rows in deterministic (grid index, metric, seed) order
    regardless of worker completion order.
    """
    point_params = [apply_sweep_value(spec.base.params, spec.swept_variable, v)
                    for v in spec.grid]

    schemes = sorted({_SCHEME_FOR_METRIC[m] for m in spec.outputs},
                     key=lambda s: s.value)
    tasks = []
    keys = []
    for gi, params in enumerate(point_params):
        for scheme in schemes:
            for si, seed in enumerate(spec.replicate_seeds):
                tasks.append((params, scheme, spec.base.mode,
                              spec.base.n_sessions, spec.base.warmup_sessions,
                              derive_seed(seed, gi, schemes.index(scheme))))
                keys.append((gi, scheme, si))

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            estimates = list(pool.map(_run_sim_task, tasks))
    else:
        estimates = [_run_sim_task(t) for t in tasks]
    by_key = dict(zip(keys, estimates))

    rows = []
    for gi, (value, params) in enumerate(zip(spec.grid, point_params)):
        point = analytic_point(params)
        t = params.txn_len
        for metric in spec.outputs:
            rows.append({
                "sweep_var": spec.swept_variable, "value": float(value),
                "metric": metric, "source": "analytic",
                "estimate": point[metric], "std_error": 0.0,
                "sessions": 0, "seed": None,
            })
            for si, seed in enumerate(spec.replicate_seeds):
                est = by_key[(gi, _SCHEME_FOR_METRIC[metric], si)]
                if metric == "d_bar_ratio":
                    val, se = est.mean_detected / params.preamble_len, None
                else:
                    val = t * est.mean_throughput
                    se = t * est.std_error
                rows.append({
                    "sweep_var": spec.swept_variable, "value": float(value),
                    "metric": metric, "source": "sim",
                    "estimate": val, "std_error": se,
                    "sessions": est.sessions_run, "seed": seed,
                })
    return rows


# ---------------------------------------------------------------------------
# subcommands

def _cmd_analytic(args):
    params = params_from_args(args)
    point = analytic_point(params)
    for key, val in point.items():
        print(f"{key} = {val:.10g}")
    if args.output:
        rows = [{"sweep_var": "lambda_T", "value": params.traffic_intensity,
                 "metric": m, "source": "analytic", "estimate": point[m],
                 "std_error": 0.0, "sessions": 0, "seed": None}
                for m in METRICS]
        emit_results(rows, args.output)
        write_provenance(args.output, params_to_dict(params))
    return 0


def _cmd_simulate(args):
    params = params_from_args(args)
    cfg = SimConfig(params=params, scheme=Scheme(args.scheme),
                    mode=Mode(args.mode), n_sessions=args.n_sessions,
                    warmup_sessions=args.warmup, seed=args.seed)
    est = estimate_throughput(cfg)
    t = params.txn_len
    print(f"normalized_throughput = {t * est.mean_throughput:.6g} "
          f"+/- {t * est.std_error:.3g}")
    print(f"mean_active = {est.mean_active:.6g}")
    print(f"mean_detected = {est.mean_detected:.6g}")
    print(f"mean_session_len = {est.mean_session_len:.6g}")
    if args.output:
        metric = {"cra1": "eta1", "cra2": "eta2", "maloha": "eta_ma"}[args.scheme]
        rows = [{"sweep_var": "lambda_T", "value": params.traffic_intensity,
                 "metric": metric, "source": "sim",
                 "estimate": t * est.mean_throughput,
                 "std_error": t * est.std_error,
                 "sessions": est.sessions_run, "seed": args.seed}]
        emit_results(rows, args.output)
        write_provenance(args.output, {**params_to_dict(params),
                                       "scheme": args.scheme,
                                       "mode": args.mode,
                                       "n_sessions": args.n_sessions,
                                       "warmup_sessions": args.warmup,
                                       "seed": args.seed})
    return 0


def _load_sweep_spec(path, args):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"spec: cannot read {path}: {exc}")
    s = {k: _DEFAULTS[k] for k in _PARAM_FIELDS}
    s.update({k: raw[k] for k in _PARAM_FIELDS if k in raw})
    if s["arrival_rate"] is None:
        s["arrival_rate"] = (raw.get("traffic", _DEFAULTS["traffic"])
                             / (s["preamble_len"] + s["payload_len"]))
    try:
        params = ProtocolParams(**s)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"spec: {exc}") from exc
    base = SimConfig(params=params,
                     n_sessions=raw.get("n_sessions", args.n_sessions),
                     warmup_sessions=raw.get("warmup_sessions", args.warmup),
                     seed=raw.get("seed", args.seeds[0]))
    return SweepSpec(base=base,
                     swept_variable=raw.get("swept_variable", "lambda_T"),
                     grid=tuple(raw.get("grid", ())),
                     outputs=tuple(raw.get("outputs", METRICS)),
                     replicate_seeds=tuple(raw.get("replicate_seeds",
                                                   args.seeds)))


def _cmd_sweep(args):
    if (args.preset is None) == (args.spec is None):
        raise ConfigError("sweep: give exactly one of --preset or --spec")
    if not args.seeds:
        raise ConfigError("seeds: give at least one replicate seed")
    if args.preset:
        spec = build_preset(args.preset, args)
    else:
        spec = _load_sweep_spec(args.spec, args)
    rows = run_sweep(spec, workers=_workers(args))
    emit_results(rows, args.output)
    write_provenance(args.output, {
        **params_to_dict(spec.base.params),
        "swept_variable": spec.swept_variable,
        "grid": list(spec.grid),
        "outputs": list(spec.outputs),
        "replicate_seeds": list(spec.replicate_seeds),
        "n_sessions": spec.base.n_sessions,
        "warmup_sessions": spec.base.warmup_sessions,
    })
    print(f"wrote {len(rows)} rows to {args.output}")
    return 0


def _cmd_signal(args):
    snrs = args.snr
    pool = signals.gen_pool(args.pool_symbols, args.pool_size, args.seed)
    rows = []
    for i, snr in enumerate(snrs):
        rng = np.random.default_rng(np.random.SeedSequence([args.seed, i]))
        scene = signals.SparseScene(support=(0,),
                                    coefficients=np.array([math.sqrt(snr)],
                                                          dtype=complex),
                                    noise_var=1.0)
        md = signals.ml_md_trial(pool, scene, 0, rng, args.trials)
        fa = signals.ml_fa_trial(pool, scene, 1, snr, rng, args.trials)
        ref = analytic.detection_error_bounds(
            analytic.ErrorBoundInputs.power_controlled(snr, 1, args.pool_size))[0]
        se_md = math.sqrt(max(md * (1 - md), 1e-12) / args.trials)
        se_fa = math.sqrt(max(fa * (1 - fa), 1e-12) / args.trials)
        print(f"snr={snr:g}: md={md:.6g} fa={fa:.6g} q_ref={ref:.6g}")
        rows.append({"sweep_var": "snr", "value": float(snr), "metric": "ml_md",
                     "source": "sim", "estimate": md, "std_error": se_md,
                     "sessions": args.trials, "seed": args.seed})
        rows.append({"sweep_var": "snr", "value": float(snr), "metric": "ml_fa",
                     "source": "sim", "estimate": fa, "std_error": se_fa,
                     "sessions": args.trials, "seed": args.seed})
        rows.append({"sweep_var": "snr", "value": float(snr), "metric": "ml_md",
                     "source": "analytic", "estimate": ref, "std_error": 0.0,
                     "sessions": 0, "seed": None})
    if args.spark_checks:
        small = [signals.spark_bruteforce(signals.gen_pool(4, 8, args.seed + j))
                 for j in range(args.spark_checks)]
        print(f"spark of {args.spark_checks} random 4x8 pools: "
              f"min={min(small)} max={max(small)}")
    if args.output:
        emit_results(rows, args.output)
        write_provenance(args.output, {"snr": list(snrs),
                                       "trials": args.trials,
                                       "pool_symbols": args.pool_symbols,
                                       "pool_size": args.pool_size,
                                       "seed": args.seed,
                                       "spark_checks": args.spark_checks})
    return 0


def _cmd_stability(args):
    params = params_from_args(args)
    rows = []
    for seed in args.seeds:
        cfg = SimConfig(params=params, scheme=Scheme.CRA2,
                        mode=Mode.FAST_RETRIAL, n_sessions=args.horizon,
                        warmup_sessions=0, seed=seed)
        traj = simulate_stability(cfg, args.horizon,
                                  initial_backlog=args.initial_backlog,
                                  stop_backlog=args.stop_backlog)
        print(f"seed {seed}: {traj.size} sessions, final backlog {traj[-1]}")
        rows.extend({"sweep_var": "session", "value": float(t),
                     "metric": "backlog", "source": "sim",
                     "estimate": float(z), "std_error": None,
                     "sessions": traj.size, "seed": seed}
                    for t, z in enumerate(traj))
    if args.output:
        emit_results(rows, args.output)
        write_provenance(args.output, {**params_to_dict(params),
                                       "horizon": args.horizon,
                                       "initial_backlog": args.initial_backlog,
                                       "stop_backlog": args.stop_backlog,
                                       "seeds": list(args.seeds)})
    return 0


# ---------------------------------------------------------------------------

def _int_list(text):
    return [int(v) for v in text.split(",") if v != ""]


def _float_list(text):
    return [float(v) for v in text.split(",") if v != ""]


def _workers(args):
    """Worker count: --workers, else the CRA_WORKERS environment variable,
    else 1."""
    if args.workers is not None:
        return args.workers
    text = os.environ.get("CRA_WORKERS", "1")
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"CRA_WORKERS: not an integer: {text!r}") from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cra",
        description="Throughput models and Monte Carlo simulation for "
                    "two-stage compressive random access.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", help="closed-form values at one point")
    _add_param_flags(p)
    p.add_argument("--output", help="optional CSV output path")
    p.set_defaults(func=_cmd_analytic)

    p = sub.add_parser("simulate", help="Monte Carlo run for one scheme")
    _add_param_flags(p)
    p.add_argument("--scheme", choices=["cra1", "cra2", "maloha"],
                   default="cra2")
    p.add_argument("--mode", choices=["drop", "fast_retrial"], default="drop")
    p.add_argument("--n-sessions", type=int, default=100_000)
    p.add_argument("--warmup", type=int, default=1_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="figure presets or custom sweeps")
    p.add_argument("--preset", choices=["fig3", "fig4", "fig5", "fig6"])
    p.add_argument("--spec", help="JSON sweep specification")
    p.add_argument("--output", required=True)
    p.add_argument("--n-sessions", type=int, default=100_000)
    p.add_argument("--warmup", type=int, default=1_000)
    p.add_argument("--seeds", type=_int_list, default=[0],
                   help="comma-separated replicate seeds")
    p.add_argument("--workers", type=int,
                   help="worker processes (default: CRA_WORKERS or 1)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("signal", help="pairwise ML error and spark checks")
    p.add_argument("--snr", type=_float_list, default=[0.0, 1.0, 4.0, 16.0])
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--pool-symbols", type=int, default=31)
    p.add_argument("--pool-size", type=int, default=310)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spark-checks", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_signal)

    p = sub.add_parser("stability", help="fast-retrial backlog trajectories")
    _add_param_flags(p)
    p.add_argument("--horizon", type=int, default=10_000)
    p.add_argument("--initial-backlog", type=int, default=0)
    p.add_argument("--stop-backlog", type=int, default=None)
    p.add_argument("--seeds", type=_int_list, default=[0])
    p.add_argument("--output")
    p.set_defaults(func=_cmd_stability)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
