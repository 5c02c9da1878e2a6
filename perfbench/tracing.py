"""Span tracing of the `cra` layers from outside the package.

`Tracer.active()` replaces the public functions of `cra.specfun`,
`cra.analytic`, `cra.sim`, `cra.signals` and `cra.cli` by timing wrappers,
wherever the package holds a reference to them (for example both
`cra.sim.estimate_throughput` and the `cra.cli.estimate_throughput` that
`cli` imported by name), and restores the originals on exit.  Nothing under
`src/` is changed.

Spans live in flat in-memory arrays (name, start, end, parent, work) and are
written out once, by `Tracer.save`, when the run ends.  A span's self time is
its duration minus the durations of its direct children; calls are
single-threaded and properly nested, so children never overlap.
"""

import contextlib
import inspect
import itertools
import os
from array import array
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

import numpy as np

LAYERS = ("specfun", "analytic", "sim", "signals", "cli")

# Per-call annotations.  A label splits one function's spans by an argument
# (scheme, worker count); work records what a call processed, so ratios are
# measured where the work happens.
_LABELS = {
    "sim.estimate_throughput": lambda a, kw: a[0].scheme.value,
    "cli.main": lambda a, kw: "w" + a[0][a[0].index("--workers") + 1]
    if a and "--workers" in a[0] else "w1",
    "cli.run_sweep": lambda a, kw: f"w{kw.get('workers', a[1] if len(a) > 1 else 1)}",
}
_WORK = {
    "sim.stage1_outcome": lambda a, kw, r: a[0],                # picks
    "sim.estimate_throughput": lambda a, kw, r: r.sessions_run,  # measured
    "sim.simulate_stability": lambda a, kw, r: r.size,
    "signals.ml_md_trial": lambda a, kw, r: a[4],               # trials
    "signals.ml_fa_trial": lambda a, kw, r: a[5],
}
# Bytes a call produced: the complex128 noise array an ML trial draws, or
# the file emit_results writes.
_BYTES = {
    "signals.ml_md_trial": lambda a, kw, r: 16 * a[4] * a[0].n_symbols,
    "signals.ml_fa_trial": lambda a, kw, r: 16 * a[5] * a[0].n_symbols,
    "cli.emit_results": lambda a, kw, r: os.path.getsize(a[1]),
}

# backlog_drift runs 10 L + 1 times per instability_threshold and qfunc once
# per user in detection_error_bounds, each for about a microsecond.  A timed
# span would cost more than the call and triple the caller's traced time, so
# these are only counted, per enclosing span; their time stays in the
# caller's self time.  The helpers backlog_drift calls are not wrapped at
# all: no metric needs them, and wrapping them would cost more again.
_COUNTED = {"analytic.backlog_drift", "specfun.qfunc"}
_UNTRACED = {"analytic.mean_detected_split", "analytic.prob_singleton",
             "analytic.prob_unused"}


def _public_functions(module):
    names = getattr(module, "__all__", None) or [
        n for n in vars(module) if not n.startswith("_")]
    return {n: getattr(module, n) for n in names
            if inspect.isfunction(getattr(module, n))
            and getattr(module, n).__module__ == module.__name__}


def _like(wrapper, fn):
    wrapper.__wrapped__ = fn
    for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
        setattr(wrapper, attr, getattr(fn, attr))
    return wrapper


def _timed_call(fn, *args):
    """Run one pool task in a worker and report (result, pid, busy seconds)."""
    t0 = perf_counter()
    result = fn(*args)
    return result, os.getpid(), perf_counter() - t0


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.nbytes = array("d")
        self._stack = []
        # calls of counted functions, by (name index, enclosing span index)
        self.counts = defaultdict(int)
        # busy seconds per worker pid, for each process-pool map
        self.pool_busy = []

    def _name_id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _wrap(self, name, fn):
        if name in _COUNTED:
            return self._wrap_counted(name, fn)
        label = _LABELS.get(name)
        work = _WORK.get(name)
        nbytes = _BYTES.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            i = len(tracer.start)
            full = name if label is None else f"{name}:{label(args, kwargs)}"
            tracer.name_id.append(tracer._name_id(full))
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.work.append(0.0)
            tracer.nbytes.append(0.0)
            tracer._stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.start[i] = t0
                tracer.end[i] = t1
            if work is not None:
                tracer.work[i] = work(args, kwargs, result)
            if nbytes is not None:
                tracer.nbytes[i] = nbytes(args, kwargs, result)
            return result

        return _like(wrapper, fn)

    def _wrap_counted(self, name, fn):
        key = self._name_id(name)
        counts = self.counts
        stack = self._stack

        def wrapper(*args, **kwargs):
            counts[key, stack[-1] if stack else -1] += 1
            return fn(*args, **kwargs)

        return _like(wrapper, fn)

    def _timed_pool(self):
        tracer = self

        class TimedPool(ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                busy = defaultdict(float)
                tracer.pool_busy.append(busy)
                results = super().map(_timed_call, itertools.repeat(fn),
                                      *iterables, **kwargs)
                for value, pid, seconds in results:
                    busy[pid] += seconds
                    yield value

        return TimedPool

    @contextlib.contextmanager
    def active(self):
        """Patch every reference to a traced function for the duration."""
        import cra
        import cra.cli
        modules = [cra] + [getattr(cra, layer) for layer in LAYERS]
        wrappers = {}
        for layer in LAYERS:
            for fname, fn in _public_functions(getattr(cra, layer)).items():
                if f"{layer}.{fname}" not in _UNTRACED:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{fname}", fn)
        saved = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        saved.append((cra.cli, "ProcessPoolExecutor",
                      cra.cli.ProcessPoolExecutor))
        cra.cli.ProcessPoolExecutor = self._timed_pool()
        try:
            yield self
        finally:
            for module, attr, value in saved:
                setattr(module, attr, value)

    def spans(self):
        """Spans as numpy arrays: name index, parent, start, end, work, self."""
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": parent,
            "start": start.copy(),
            "end": end.copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
            "nbytes": np.frombuffer(self.nbytes, dtype=np.float64).copy(),
            "self": dur - child,
        }

    def save(self, path):
        keys = list(self.counts)
        np.savez_compressed(
            path, names=np.array(self.names),
            count_name=np.array([k[0] for k in keys], dtype=np.int64),
            count_span=np.array([k[1] for k in keys], dtype=np.int64),
            count_calls=np.array([self.counts[k] for k in keys], dtype=np.int64),
            **self.spans())


class SpanStats:
    """Totals over the recorded spans, by function name.

    A name selects its own spans and those of its labelled variants:
    ``"sim.estimate_throughput"`` covers ``"sim.estimate_throughput:cra2"``.
    """

    def __init__(self, tracer):
        s = tracer.spans()
        self.names = list(tracer.names)
        self.name = s["name"]
        self.parent = s["parent"]
        self.dur = s["end"] - s["start"]
        self.self_t = s["self"]
        self.work = s["work"]
        self.nbytes = s["nbytes"]
        self.counts = dict(tracer.counts)
        layer = np.array([n.split(".")[0] for n in self.names] + [""])
        span_layer = layer[self.name]
        parent_layer = layer[np.where(self.parent >= 0,
                                      self.name[self.parent], len(self.names))]
        self._layer_time = {
            name: float(self.dur[(span_layer == name)
                                 & (parent_layer != name)].sum())
            for name in LAYERS}

    def _ids(self, fn):
        return [i for i, n in enumerate(self.names)
                if n == fn or n.startswith(fn + ":")]

    def _select(self, fn):
        return np.isin(self.name, self._ids(fn))

    def calls(self, fn):
        ids = self._ids(fn)
        return int(np.isin(self.name, ids).sum()) + sum(
            c for (i, _), c in self.counts.items() if i in ids)

    def calls_under(self, fn, parent_fn):
        """Calls of ``fn`` made directly from ``parent_fn``."""
        ids = self._ids(fn)
        in_parent = self._select(parent_fn)
        m = np.isin(self.name, ids) & (self.parent >= 0)
        return int(in_parent[self.parent[m]].sum()) + sum(
            c for (i, span), c in self.counts.items()
            if i in ids and span >= 0 and in_parent[span])

    def durations(self, fn):
        return self.dur[self._select(fn)]

    def total(self, fn):
        return float(self.durations(fn).sum())

    def self_total(self, fn):
        return float(self.self_t[self._select(fn)].sum())

    def work_total(self, fn):
        return float(self.work[self._select(fn)].sum())

    def bytes_total(self, fn):
        return float(self.nbytes[self._select(fn)].sum())

    def layer_time(self, layer):
        """Time inside the layer's outermost spans (nested calls counted once)."""
        return self._layer_time[layer]


def _ratio(a, b):
    """a / b, or 0 when the layer did no work on this workload (b == 0)."""
    return a / b if b else 0.0


def _median(values):
    return float(np.median(values)) if len(values) else 0.0


def parallel_efficiency(units):
    """Median 1-worker wall / (2 x median 2-worker wall); 0 for workloads
    without a 2-worker part."""
    serial = [u.parts["workers_1"] for u in units if "workers_1" in u.parts]
    parallel = [u.parts["workers_2"] for u in units if "workers_2" in u.parts]
    return _ratio(_median(serial), 2 * _median(parallel))


def layer_metrics(stats, pool_busy, traced, untraced):
    """Per-layer metrics of a traced run, as {name: value}.

    ``traced`` and ``untraced`` are the units run with and without tracing;
    counts are per traced unit.  A metric of a layer the workload never
    reaches is 0.
    """
    st = stats
    n_units = len(traced)
    per_call = lambda fn, scale: _ratio(st.total(fn), st.calls(fn)) * scale
    m = {}
    m["specfun.lambert_w0.calls_per_point"] = _ratio(
        st.calls("specfun.lambert_w0"), st.calls("cli.analytic_point"))
    m["specfun.lambert_w0.us_per_call"] = per_call("specfun.lambert_w0", 1e6)
    m["specfun.poisson_cdf.us_per_call"] = per_call("specfun.poisson_cdf", 1e6)
    for fn in ("steady_state_cra2", "throughput_cra1", "throughput_maloha"):
        m[f"analytic.{fn}.us_per_call"] = per_call(f"analytic.{fn}", 1e6)
    m["analytic.instability_threshold.ms_per_call"] = per_call(
        "analytic.instability_threshold", 1e3)
    m["analytic.backlog_drift.calls_per_threshold"] = _ratio(
        st.calls_under("analytic.backlog_drift", "analytic.instability_threshold"),
        st.calls("analytic.instability_threshold"))
    # only fig3_sweep calls cli.main, so the share is 0 on other workloads
    m["analytic.share_of_fig3"] = _ratio(st.layer_time("analytic"),
                                         st.total("cli.main"))

    stage1 = "sim.stage1_outcome"
    m["sim.stage1_outcome.calls"] = _ratio(st.calls(stage1), n_units)
    m["sim.stage1_outcome.us_per_call"] = per_call(stage1, 1e6)
    m["sim.stage1_outcome.ns_per_pick"] = _ratio(
        st.total(stage1), st.work_total(stage1)) * 1e9
    m["sim.stage1_outcome.share"] = _ratio(st.total(stage1),
                                           st.layer_time("sim"))
    m["sim.run_session.self_us"] = _ratio(
        st.self_total("sim.run_session"), st.calls("sim.run_session")) * 1e6
    est = "sim.estimate_throughput"
    m["sim.estimate_throughput.self_us_per_session"] = _ratio(
        st.self_total(est), st.calls_under("sim.run_session", est)) * 1e6
    for scheme in ("cra1", "cra2", "maloha"):
        m[f"sim.estimate_throughput.{scheme}.sessions_per_s"] = _ratio(
            st.calls_under("sim.run_session", f"{est}:{scheme}"),
            st.total(f"{est}:{scheme}"))
    m["sim.useful_session_ratio"] = _ratio(
        st.work_total(est) + st.work_total("sim.simulate_stability"),
        st.calls("sim.run_session"))
    m["sim.simulate_stability.sessions_per_s"] = _ratio(
        st.work_total("sim.simulate_stability"),
        st.total("sim.simulate_stability"))

    ml = ("signals.ml_md_trial", "signals.ml_fa_trial")
    for fn in ml:
        m[f"{fn}.trials_per_s"] = _ratio(st.work_total(fn), st.total(fn))
    m["signals.noise_gb_per_s_computed"] = _ratio(
        sum(st.bytes_total(fn) for fn in ml),
        sum(st.total(fn) for fn in ml)) / 1e9
    m["signals.spark_bruteforce.ms_per_pool"] = per_call(
        "signals.spark_bruteforce", 1e3)
    m["signals.gen_pool.ms_per_call"] = per_call("signals.gen_pool", 1e3)

    m["cli.main.s"] = per_call("cli.main:w1", 1.0)
    m["cli.run_sweep.self_s"] = _ratio(st.self_total("cli.run_sweep:w1"),
                                       st.calls("cli.run_sweep:w1"))
    m["cli.analytic_point.us_per_call"] = per_call("cli.analytic_point", 1e6)
    m["cli.emit_results.s"] = per_call("cli.emit_results", 1.0)
    m["cli.emit_results.bytes"] = _ratio(st.bytes_total("cli.emit_results"),
                                         st.calls("cli.emit_results"))
    # 2-worker sweep wall minus the task time of its busiest worker
    overheads = [wall - max(busy.values(), default=0.0) for wall, busy
                 in zip(st.durations("cli.run_sweep:w2"), pool_busy)]
    m["cli.pool_overhead_s"] = _median(overheads)
    m["cli.parallel_efficiency"] = parallel_efficiency(untraced)

    traced_wall = _median([u.wall for u in traced])
    untraced_wall = _median([u.wall for u in untraced])
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.overhead_share"] = _ratio(traced_wall - untraced_wall, untraced_wall)
    m["trace.spans_per_unit"] = _ratio(len(st.dur), n_units)
    return m


# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("specfun.lambert_w0.calls_per_point", "count", "lower"),
    ("specfun.lambert_w0.us_per_call", "us", "lower"),
    ("specfun.poisson_cdf.us_per_call", "us", "lower"),
    ("analytic.steady_state_cra2.us_per_call", "us", "lower"),
    ("analytic.throughput_cra1.us_per_call", "us", "lower"),
    ("analytic.throughput_maloha.us_per_call", "us", "lower"),
    ("analytic.instability_threshold.ms_per_call", "ms", "lower"),
    ("analytic.backlog_drift.calls_per_threshold", "count", "lower"),
    ("analytic.share_of_fig3", "ratio", "lower"),
    ("sim.stage1_outcome.calls", "count", "lower"),
    ("sim.stage1_outcome.us_per_call", "us", "lower"),
    ("sim.stage1_outcome.ns_per_pick", "ns", "lower"),
    ("sim.stage1_outcome.share", "ratio", "lower"),
    ("sim.run_session.self_us", "us", "lower"),
    ("sim.estimate_throughput.self_us_per_session", "us", "lower"),
    ("sim.estimate_throughput.cra1.sessions_per_s", "1/s", "higher"),
    ("sim.estimate_throughput.cra2.sessions_per_s", "1/s", "higher"),
    ("sim.estimate_throughput.maloha.sessions_per_s", "1/s", "higher"),
    ("sim.useful_session_ratio", "ratio", "higher"),
    ("sim.simulate_stability.sessions_per_s", "1/s", "higher"),
    ("signals.ml_md_trial.trials_per_s", "1/s", "higher"),
    ("signals.ml_fa_trial.trials_per_s", "1/s", "higher"),
    ("signals.noise_gb_per_s_computed", "GB/s", "higher"),
    ("signals.spark_bruteforce.ms_per_pool", "ms", "lower"),
    ("signals.gen_pool.ms_per_call", "ms", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.run_sweep.self_s", "s", "lower"),
    ("cli.analytic_point.us_per_call", "us", "lower"),
    ("cli.emit_results.s", "s", "lower"),
    ("cli.emit_results.bytes", "bytes", "lower"),
    ("cli.pool_overhead_s", "s", "lower"),
    ("cli.parallel_efficiency", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.spans_per_unit", "count", "lower"),
)
