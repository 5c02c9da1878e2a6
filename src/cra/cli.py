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
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import analytic, signals, specfun
from .analytic import ProtocolParams
from .sim import Mode, Scheme, SimConfig, estimate_throughput, simulate_stability

_RESULT_FIELDS = ("sweep_var", "value", "metric", "source", "estimate",
                  "std_error", "sessions", "seed")

METRICS = ("eta1", "eta2", "eta_ma", "d_bar_ratio")

# Each sweep variable: how a grid value sets the protocol parameters, and
# whether its values must be whole numbers (L and M are counts).
_SWEEPS = {
    "lambda_T": (lambda p, v: p.with_traffic(v), False),
    "L": (lambda p, v: replace(p, pool_size=int(v)), True),
    "M": (lambda p, v: replace(p, payload_len=int(v)), True),
    "p_err": (lambda p, v: replace(p, p_md=v, p_fa=v), False),
}

_SCHEME_FOR_METRIC = {
    "eta1": Scheme.CRA1,
    "eta2": Scheme.CRA2,
    "eta_ma": Scheme.MC_ALOHA,
    "d_bar_ratio": Scheme.CRA2,
}


@dataclass(frozen=True)
class SweepSpec:
    base: SimConfig
    swept_variable: str
    grid: tuple
    outputs: tuple = METRICS
    replicate_seeds: tuple = (0,)

    def __post_init__(self):
        if self.swept_variable not in _SWEEPS:
            raise ValueError(
                f"swept_variable must be one of {tuple(_SWEEPS)}, "
                f"got {self.swept_variable!r}")
        if not self.grid:
            raise ValueError("grid: must be nonempty")
        # NaN passes the order check below
        whole = _SWEEPS[self.swept_variable][1]
        if not all(math.isfinite(v) and (not whole or v == int(v))
                   for v in self.grid):
            raise ValueError(f"grid: {self.swept_variable} values must be "
                             f"finite{' integers' if whole else ''}, "
                             f"got {list(self.grid)}")
        diffs = [b - a for a, b in zip(self.grid, self.grid[1:])]
        if any(d <= 0 for d in diffs):
            raise ValueError("grid: values must be strictly increasing")
        bad = [m for m in self.outputs if m not in METRICS]
        if bad:
            raise ValueError(f"outputs: unknown metric(s) {bad}")
        if not self.replicate_seeds:
            raise ValueError("replicate_seeds: must be nonempty")
        # every row, analytic or simulated, is a drop-mode figure
        if self.base.mode is not Mode.DROP:
            raise ValueError(f"mode: a sweep runs drop mode only, got "
                             f"{self.base.mode.value!r}")


def derive_seed(base_seed, *indices):
    """Deterministic 64-bit seed of one task, hashed from a base seed and
    the task's indices (a sweep passes its grid and scheme indices)."""
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


def _row(sweep_var, value, metric, source, estimate, std_error=0.0,
         sessions=0, seed=None):
    """One result row; the defaults are those of an analytic row."""
    return dict(zip(_RESULT_FIELDS, (sweep_var, float(value), metric, source,
                                     estimate, std_error, sessions, seed)))


def _sim_row(sweep_var, value, metric, est, params, seed):
    """The row of one simulated estimate: the mean detected count per
    preamble symbol for ``d_bar_ratio``, else the throughput times N + M."""
    if metric == "d_bar_ratio":
        n = params.preamble_len
        val, se = est.mean_detected / n, est.detected_std_error / n
    else:
        t = params.txn_len
        val, se = t * est.mean_throughput, t * est.std_error
    return _row(sweep_var, value, metric, "sim", val, se, est.sessions_run,
                seed)


def emit_results(rows, path):
    """Write rows (dicts with _RESULT_FIELDS keys) as long-format CSV."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_RESULT_FIELDS)
        for row in rows:
            writer.writerow([_fmt(row.get(k)) for k in _RESULT_FIELDS])


# ---------------------------------------------------------------------------
# settings: defaults, then the --config/--spec file or the sweep preset,
# then the flags given

_PARAM_FIELDS = tuple(f.name for f in fields(ProtocolParams))
_PROTOCOL_KEYS = (*_PARAM_FIELDS, "traffic")

# Every setting: its default, its type and, for some, a string's choices or
# a number's least value, which a float must also be finite to meet (numpy's
# SeedSequence takes no negative seed; `signal`'s false alarms use preamble
# 1).  A list type means a nonempty list of its one element type; int and
# float accept integers within float range, float accepts floats too, and no
# type accepts a bool.  Rules across keys hold where the settings are used
# (ProtocolParams, SimConfig, SweepSpec, `signal`).  _FILE_KEYS names those
# a settings file may give; the rest are flags only.
_SETTINGS = {
    "preamble_len": (31, int), "payload_len": (256, int),
    "pool_size": (310, int, 2), "feedback_len": (4.0, float),
    "arrival_rate": (None, float),   # derived from traffic when absent
    "traffic": (1.0, float), "p_md": (0.01, float), "p_fa": (0.01, float),
    "scheme": ("cra2", str, [s.value for s in Scheme]),
    "mode": ("drop", str, [m.value for m in Mode]), "seed": (0, int, 0),
    "n_sessions": (100_000, int), "warmup_sessions": (1_000, int),
    "swept_variable": ("lambda_T", str), "grid": ((), [float]),
    "outputs": (METRICS, [str]), "replicate_seeds": ((0,), [int], 0),
    "snr": ((0.0, 1.0, 4.0, 16.0), [float], 0),
    "trials": (1_000_000, int, 1), "pool_symbols": (31, int, 1),
    "horizon": (10_000, int), "initial_backlog": (0, int),
}

_TYPE_NAMES = {int: "an integer within float range",
               float: "a number within float range",
               str: "a string"}

_SIM_KEYS = ("scheme", "mode", "n_sessions", "warmup_sessions", "seed")
_SWEEP_KEYS = ("swept_variable", "grid", "outputs", "replicate_seeds",
               "n_sessions", "warmup_sessions")
_SIGNAL_KEYS = ("snr", "trials", "pool_symbols", "pool_size", "seed")
_STABILITY_KEYS = ("horizon", "initial_backlog")
# keys each settings file may hold
_FILE_KEYS = {"config": (*_PROTOCOL_KEYS, *_SIM_KEYS),
              "spec": (*_PROTOCOL_KEYS, *_SWEEP_KEYS)}

# Figure-reproduction sweeps: overrides of the defaults, whose protocol
# point (N=31, M=256, L=310, tau=4, p_md=p_fa=0.01, load 1) they share.
_PRESETS = {
    "fig3": {"swept_variable": "lambda_T",
             "grid": tuple(round(0.1 * i, 10) for i in range(1, 21))},
    "fig4": {"swept_variable": "L", "grid": tuple(31 * i for i in range(1, 21))},
    "fig5": {"arrival_rate": 1.0 / 200.0, "swept_variable": "M",
             "grid": tuple(32 * i for i in range(1, 21))},
    "fig6": {"swept_variable": "p_err",
             "grid": tuple(round(0.005 * i, 10) for i in range(1, 21))},
}


def _fits(value, kind):
    if isinstance(kind, list):
        return (isinstance(value, list) and len(value) > 0
                and all(_fits(v, kind[0]) for v in value))
    if isinstance(value, bool):
        return False
    if kind in (int, float) and isinstance(value, int):
        # a JSON integer beyond float range overflows where it is used
        return abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def _checked(where, given):
    """The given settings, from flags or a settings file, if each value is
    of its key's type and meets its row's choices or least value."""
    for key, value in given.items():
        default, kind, *rule = _SETTINGS[key]
        many = isinstance(kind, list)
        each = kind[0] if many else kind
        if rule and each is str:
            if value in rule[0]:
                continue
            what = f"one of {rule[0]}"
        elif not (_fits(value, kind) or value is None and default is None):
            what = "a nonempty list, each " * many + _TYPE_NAMES[each]
        elif rule and not all(rule[0] <= v < math.inf   # False for NaN, inf
                              for v in (value if many else [value])):
            what = ("finite and " if each is float else "") + f">= {rule[0]}"
        else:
            continue
        raise ValueError(f"{where}{key} must be {what}, got {value!r}")
    return given


def _settings(args):
    """Effective settings: defaults, then the --config/--spec file or the
    sweep preset, then the flags given (flags hold None when not given)."""
    settings = {key: row[0] for key, row in _SETTINGS.items()}
    settings.update(_PRESETS.get(getattr(args, "preset", None), {}))
    for option, keys in _FILE_KEYS.items():
        path = getattr(args, option, None)
        if path is None:
            continue
        try:
            with open(path, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValueError(f"{option}: cannot read {path}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ValueError(f"{option}: {path} must hold a JSON object")
        unknown = set(loaded) - set(keys)
        if unknown:
            raise ValueError(f"{option}: unknown key(s) {sorted(unknown)}")
        settings.update(_checked(f"{option}: ", loaded))
    settings.update(_checked("", {k: v for k, v in vars(args).items()
                                  if k in _SETTINGS and v is not None}))
    return settings


def _params(s):
    """ProtocolParams from settings; without an arrival_rate the rate is
    traffic per N + M symbols."""
    values = {k: s[k] for k in _PARAM_FIELDS}
    if values["arrival_rate"] is not None:
        return ProtocolParams(**values)
    # validate N and M before dividing by N + M
    return ProtocolParams(**{**values, "arrival_rate": 0.0}) \
        .with_traffic(s["traffic"])


def _sim_config(s):
    return SimConfig(params=_params(s), scheme=Scheme(s["scheme"]),
                     mode=Mode(s["mode"]), n_sessions=s["n_sessions"],
                     warmup_sessions=s["warmup_sessions"], seed=s["seed"])


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

def _estimates(configs, workers):
    """``estimate_throughput`` of each config, in order, on ``workers``
    processes counting this one.

    This process runs every ``workers``-th config itself while a pool of at
    most ``workers - 1`` processes, and never more than it has configs, runs
    the others.  The pool takes them in chunks of about a quarter of each
    process's share, so many small tasks cost few round trips.
    """
    others = [c for i, c in enumerate(configs) if i % workers]
    if not others:
        return [estimate_throughput(c) for c in configs]
    processes = min(workers - 1, len(others))
    with ProcessPoolExecutor(max_workers=processes) as pool:
        pooled = pool.map(estimate_throughput, others,
                          chunksize=-(-len(others) // (4 * processes)))
        own = iter([estimate_throughput(c) for c in configs[::workers]])
        return [next(pooled) if i % workers else next(own)
                for i in range(len(configs))]


def run_sweep(spec, workers=1):
    """Evaluate a sweep: analytic values plus simulated estimates.

    ``workers`` counts the processes, this one included; it must be at
    least 1.  Returns result rows in deterministic (grid index, metric,
    seed) order regardless of worker completion order.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    apply = _SWEEPS[spec.swept_variable][0]
    point_params = [apply(spec.base.params, v) for v in spec.grid]

    # a scheme's seed follows its place in Scheme, whichever metrics are asked
    needed = {_SCHEME_FOR_METRIC[m] for m in spec.outputs}
    tasks = {(gi, scheme, si): replace(spec.base, params=params, scheme=scheme,
                                       seed=derive_seed(seed, gi, k))
             for gi, params in enumerate(point_params)
             for k, scheme in enumerate(Scheme) if scheme in needed
             for si, seed in enumerate(spec.replicate_seeds)}

    by_key = dict(zip(tasks, _estimates(list(tasks.values()), workers)))

    rows = []
    for gi, (value, params) in enumerate(zip(spec.grid, point_params)):
        point = analytic_point(params)
        for metric in spec.outputs:
            rows.append(_row(spec.swept_variable, value, metric, "analytic",
                             point[metric]))
            for si, seed in enumerate(spec.replicate_seeds):
                est = by_key[(gi, _SCHEME_FOR_METRIC[metric], si)]
                rows.append(_sim_row(spec.swept_variable, value, metric,
                                     est, params, seed))
    return rows


# ---------------------------------------------------------------------------
# subcommands: each takes the settings and the parsed flags, prints its
# summary and returns its result rows and provenance

def _report_divergence(params, seed, backlog):
    """A stderr line if a fast-retrial run ended with its backlog at or above
    the instability threshold: the drift is positive for good there, so the
    backlog was still growing when the run ended."""
    k0 = analytic.instability_threshold(params)
    if k0 is not None and backlog >= k0:
        print(f"seed {seed}: transient, not a steady state: final backlog "
              f"{backlog} is at or above the instability threshold {k0}",
              file=sys.stderr)


def _cmd_analytic(s, args):
    params = _params(s)
    point = analytic_point(params)
    for key, val in point.items():
        print(f"{key} = {val:.10g}")
    rows = [_row("lambda_T", params.traffic_intensity, m, "analytic", point[m])
            for m in METRICS]
    return rows, asdict(params)


def _cmd_simulate(s, args):
    cfg = _sim_config(s)
    est = estimate_throughput(cfg)
    # the scheme's throughput metric, not CRA-2's d_bar_ratio
    metric = next(m for m, scheme in _SCHEME_FOR_METRIC.items()
                  if scheme is cfg.scheme)
    row = _sim_row("lambda_T", cfg.params.traffic_intensity, metric, est,
                   cfg.params, cfg.seed)
    print(f"normalized_throughput = {row['estimate']:.6g} "
          f"+/- {row['std_error']:.3g}")
    for key in ("mean_active", "mean_detected", "mean_session_len"):
        print(f"{key} = {getattr(est, key):.6g}")
    if est.final_backlog is not None:
        _report_divergence(cfg.params, cfg.seed, est.final_backlog)
    return [row], {**asdict(cfg.params), "pool_size": cfg.pool_size,
                   **{k: s[k] for k in _SIM_KEYS}}


def _cmd_sweep(s, args):
    if (args.preset is None) == (args.spec is None):
        raise ValueError("sweep: give exactly one of --preset or --spec")
    spec = SweepSpec(base=_sim_config(s), swept_variable=s["swept_variable"],
                     grid=tuple(s["grid"]), outputs=tuple(s["outputs"]),
                     replicate_seeds=tuple(s["replicate_seeds"]))
    rows = run_sweep(spec, workers=args.workers)
    return rows, {**asdict(spec.base.params),
                  **{k: s[k] for k in _SWEEP_KEYS}}


def _cmd_signal(s, args):
    snrs, trials, seed = s["snr"], s["trials"], s["seed"]
    n_symbols, n_pool = s["pool_symbols"], s["pool_size"]
    if n_symbols > n_pool:
        raise ValueError(f"pool_symbols must be <= pool_size {n_pool}, "
                         f"got {n_symbols}")
    pool = signals.gen_pool(n_symbols, n_pool, seed)
    rows = []
    for i, snr in enumerate(snrs):
        # the pool draws default_rng(seed), and numpy's SeedSequence drops
        # trailing zero words, so [seed, 0] would repeat its stream
        rng = np.random.default_rng([seed, i + 1])
        scene = signals.SparseScene(support=(0,),
                                    coefficients=np.array([math.sqrt(snr)],
                                                          dtype=complex),
                                    noise_var=1.0)
        md = signals.ml_md_trial(pool, scene, 0, rng, trials)
        fa = signals.ml_fa_trial(pool, scene, 1, snr, rng, trials)
        # the pairwise missed-detection error of one user at this SNR
        ref = specfun.qfunc(math.sqrt(snr / 2.0))
        print(f"snr={snr:g}: md={md:.6g} fa={fa:.6g} q_ref={ref:.6g}")
        rows += [_row("snr", snr, m, "sim", p,
                      math.sqrt(max(p * (1 - p), 1e-12) / trials),
                      trials, seed)
                 for m, p in (("ml_md", md), ("ml_fa", fa))]
        rows.append(_row("snr", snr, "ml_md", "analytic", ref))
    return rows, {k: s[k] for k in _SIGNAL_KEYS}


def _cmd_stability(s, args):
    params = _params(s)
    runs = []
    for seed in s["replicate_seeds"]:
        cfg = SimConfig(params=params, scheme=Scheme.CRA2,
                        mode=Mode.FAST_RETRIAL, warmup_sessions=0, seed=seed)
        traj = simulate_stability(cfg, s["horizon"],
                                  initial_backlog=s["initial_backlog"])
        print(f"seed {seed}: {traj.size} sessions, final backlog {traj[-1]}")
        _report_divergence(params, seed, traj[-1])
        runs.append((seed, traj))
    # rows are made as they are written; the runs hold 8 bytes per session
    rows = (_row("session", t, "backlog", "sim", float(z), None, traj.size,
                 seed) for seed, traj in runs for t, z in enumerate(traj))
    return rows, {**asdict(params), "seeds": s["replicate_seeds"],
                  **{k: s[k] for k in _STABILITY_KEYS}}


# ---------------------------------------------------------------------------

def _list_of(kind):
    """Argparse type: comma-separated values of one kind, "" skipped."""
    def parse(text):
        return [kind(v) for v in text.split(",") if v != ""]
    parse.__name__ = f"{kind.__name__} list"   # named in argparse errors
    return parse


# Each subcommand: its handler, its help line and the settings it takes as
# flags.  Every subcommand also takes --output, sweep --preset, --spec and
# --workers, and those with protocol flags a --config file.
_COMMANDS = {
    "analytic": (_cmd_analytic, "closed-form values at one point",
                 _PROTOCOL_KEYS),
    "simulate": (_cmd_simulate, "Monte Carlo run for one scheme",
                 (*_PROTOCOL_KEYS, *_SIM_KEYS)),
    "sweep": (_cmd_sweep, "figure presets or custom sweeps",
              ("n_sessions", "warmup_sessions", "replicate_seeds")),
    "signal": (_cmd_signal, "pairwise ML miss and false-alarm rates",
               _SIGNAL_KEYS),
    "stability": (_cmd_stability, "CRA-2 fast-retrial backlog trajectories",
                  (*_PROTOCOL_KEYS, *_STABILITY_KEYS, "replicate_seeds")),
}

# the flags not named after their key
_FLAG_NAMES = {"warmup_sessions": "--warmup", "replicate_seeds": "--seeds"}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cra",
        description="Throughput models and Monte Carlo simulation for "
                    "two-stage compressive random access.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        if name == "sweep":
            p.add_argument("--preset", choices=list(_PRESETS))
            p.add_argument("--spec", help="JSON sweep specification")
            p.add_argument("--workers", type=int, default=1,
                           help="processes, this one included (default: 1)")
        elif "traffic" in keys:
            p.add_argument("--config", help="JSON file with flat key-value "
                                            "settings; flags override it")
        # No argparse default: a flag not given leaves the file, preset or
        # default value in force.
        for key in keys:
            _, kind, *rule = _SETTINGS[key]
            p.add_argument(_FLAG_NAMES.get(key, "--" + key.replace("_", "-")),
                           dest=key, type=_list_of(kind[0])
                           if isinstance(kind, list) else kind,
                           choices=rule[0] if rule and kind is str else None)
        p.add_argument("--output", required=name == "sweep",
                       help="CSV output path")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        rows, provenance = args.func(_settings(args), args)
        if args.output:
            emit_results(rows, args.output)
            with open(args.output + ".provenance.json", "w",
                      encoding="utf-8", newline="\n") as fh:
                json.dump(provenance, fh, indent=2, sort_keys=True)
                fh.write("\n")
        if args.command == "sweep":
            print(f"wrote {len(rows)} rows to {args.output}")
        return 0
    # a huge count overflows numpy's C integers; numpy fails at once on an
    # array beyond the address space
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
