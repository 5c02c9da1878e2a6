import argparse
import contextlib
import io
import json
import re
import shlex
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cra import cli
from cra.cli import (
    METRICS,
    SweepSpec,
    derive_seed,
    emit_results,
    main,
    run_sweep,
)
from cra.analytic import ProtocolParams, throughput_cra1
from cra.sim import Mode, Scheme, SimConfig, estimate_throughput

from ci_steps import step_lines
from helpers import read_results

TINY_PARAMS = {"preamble_len": 8, "payload_len": 16, "pool_size": 24}
CONFIG_KEYS = ("preamble_len", "payload_len", "pool_size", "feedback_len",
               "arrival_rate", "traffic", "p_md", "p_fa", "scheme", "mode",
               "n_sessions", "warmup_sessions", "seed")


# stands for a settings file path that does not exist
MISSING = object()


def tiny_spec_file(tmp_path, **over):
    spec = {
        "preamble_len": 8, "payload_len": 16, "pool_size": 24,
        "feedback_len": 2.0, "arrival_rate": 0.005,
        "p_md": 0.01, "p_fa": 0.01,
        "swept_variable": "lambda_T", "grid": [0.5, 1.0],
        "n_sessions": 400, "warmup_sessions": 50,
        "replicate_seeds": [1],
    }
    spec.update(over)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


class TestSweepSpec:
    def base(self):
        params = ProtocolParams(8, 16, 24, 2.0, 0.005, 0.01, 0.01)
        return SimConfig(params=params, n_sessions=100, warmup_sessions=10)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            SweepSpec(base=self.base(), swept_variable="lambda_T", grid=())

    def test_non_monotone_grid_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            SweepSpec(base=self.base(), swept_variable="lambda_T",
                      grid=(1.0, 0.5))

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError, match="swept_variable"):
            SweepSpec(base=self.base(), swept_variable="bogus", grid=(1.0,))

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="outputs"):
            SweepSpec(base=self.base(), swept_variable="lambda_T",
                      grid=(1.0,), outputs=("eta9",))

    def test_empty_seeds_rejected(self):
        # the CLI refuses an empty seed list before a SweepSpec is built
        with pytest.raises(ValueError,
                           match="replicate_seeds: must be nonempty"):
            SweepSpec(base=self.base(), swept_variable="lambda_T",
                      grid=(1.0,), replicate_seeds=())

    def test_apply_sweep_value(self):
        p = self.base().params

        def apply(variable, value):
            return cli._SWEEPS[variable][0](p, value)

        assert apply("lambda_T", 2.0).arrival_rate == pytest.approx(2.0 / 24)
        assert apply("L", 30).pool_size == 30
        assert apply("M", 64).payload_len == 64
        q = apply("p_err", 0.05)
        assert q.p_md == q.p_fa == 0.05
        # only the counts take whole numbers
        assert [v for v, (_, whole) in cli._SWEEPS.items() if whole] == \
            ["L", "M"]


class TestEmitResults:
    def row(self):
        return {"sweep_var": "lambda_T", "value": 1.0, "metric": "eta2",
                "source": "analytic", "estimate": 0.9311927697667409,
                "std_error": 0.0, "sessions": 0, "seed": None}

    def test_single_row_file(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_results([self.row()], str(path))
        lines = path.read_bytes().split(b"\n")
        assert len(lines) == 3 and lines[-1] == b""
        assert lines[0] == (b"sweep_var,value,metric,source,estimate,"
                            b"std_error,sessions,seed")

    def test_round_trip(self, tmp_path):
        path = tmp_path / "out.csv"
        rows = [self.row(),
                {"sweep_var": "L", "value": 62.0, "metric": "eta1",
                 "source": "sim", "estimate": 0.12345678901234567,
                 "std_error": 0.001, "sessions": 1000, "seed": 7}]
        emit_results(rows, str(path))
        back = read_results(str(path))
        assert back[0]["estimate"] == rows[0]["estimate"]
        assert back[1]["estimate"] == rows[1]["estimate"]
        assert back[1]["seed"] == 7
        assert back[0]["seed"] is None

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_results([self.row()], str(path))
        assert b"\r" not in path.read_bytes()


class TestRunSweep:
    def test_row_layout_and_determinism(self, tmp_path):
        params = ProtocolParams(8, 16, 24, 2.0, 0.005, 0.01, 0.01)
        base = SimConfig(params=params, n_sessions=300, warmup_sessions=30)
        spec = SweepSpec(base=base, swept_variable="lambda_T",
                         grid=(0.5, 1.0), replicate_seeds=(1, 2))
        rows = run_sweep(spec)
        # 2 grid points x 4 metrics x (1 analytic + 2 sim seeds)
        assert len(rows) == 2 * 4 * 3
        again = run_sweep(spec)
        assert rows == again
        analytic_rows = [r for r in rows if r["source"] == "analytic"]
        assert {r["metric"] for r in analytic_rows} == set(METRICS)

    def test_parallel_matches_serial(self):
        params = ProtocolParams(8, 16, 24, 2.0, 0.005, 0.01, 0.01)
        base = SimConfig(params=params, n_sessions=200, warmup_sessions=20)
        spec = SweepSpec(base=base, swept_variable="lambda_T",
                         grid=(0.5, 1.0), replicate_seeds=(3,))
        assert run_sweep(spec, workers=1) == run_sweep(spec, workers=2)
        # 5 tasks, which neither 2 nor 3 processes divide evenly
        spec = replace(spec, grid=(0.25, 0.5, 1.0, 1.5, 2.0),
                       outputs=("eta2",))
        serial = run_sweep(spec, workers=1)
        for workers in (2, 3):
            assert run_sweep(spec, workers=workers) == serial

    @pytest.mark.parametrize("workers", [2, 3, 1000])
    def test_pool_size_and_chunks(self, monkeypatch, workers):
        # fig3-sized: 20 grid points x 3 schemes = 60 tasks
        params = ProtocolParams(8, 16, 24, 2.0, 0.005, 0.01, 0.01)
        base = SimConfig(params=params, n_sessions=20, warmup_sessions=2)
        spec = SweepSpec(base=base, swept_variable="lambda_T",
                         grid=tuple(round(0.1 * i, 10) for i in range(1, 21)))
        serial = run_sweep(spec, workers=1)
        pools = []

        class FakePool:
            """Records its process count and chunk size; runs in-process."""

            def __init__(self, max_workers):
                self.max_workers = max_workers
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                self.chunksize = chunksize
                self.tasks = len(tasks)
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        assert run_sweep(spec, workers=workers) == serial
        (pool,) = pools
        # this process runs every workers-th task; the pool the other ones
        assert pool.tasks == 60 - len(range(0, 60, workers))
        assert pool.max_workers == min(workers - 1, pool.tasks)
        if workers < 1000:
            assert pool.chunksize > 1

    def test_base_scheme_does_not_change_rows(self):
        # every scheme runs on the base's parameters: an ALOHA base gives
        # CRA-2 its L, not the N channels ALOHA draws from
        params = ProtocolParams(8, 16, 24, 2.0, 0.005, 0.01, 0.01)
        base = SimConfig(params=params, n_sessions=200, warmup_sessions=20)
        spec = SweepSpec(base=base, swept_variable="lambda_T", grid=(1.0,))
        aloha = replace(spec, base=replace(base, scheme=Scheme.MC_ALOHA))
        assert run_sweep(aloha) == run_sweep(spec)

    def test_one_task_forks_nothing(self, monkeypatch):
        monkeypatch.setattr(cli, "ProcessPoolExecutor", None)
        params = ProtocolParams(8, 16, 24, 2.0, 0.005, 0.01, 0.01)
        base = SimConfig(params=params, n_sessions=20, warmup_sessions=2)
        spec = SweepSpec(base=base, swept_variable="lambda_T", grid=(1.0,),
                         outputs=("eta1",))
        assert len(run_sweep(spec, workers=1000)) == 2

    def test_workers_below_one_rejected(self):
        params = ProtocolParams(8, 16, 24, 2.0, 0.005, 0.01, 0.01)
        base = SimConfig(params=params, n_sessions=20, warmup_sessions=2)
        spec = SweepSpec(base=base, swept_variable="lambda_T", grid=(1.0,))
        for workers in (0, -1):
            with pytest.raises(ValueError, match="workers"):
                run_sweep(spec, workers=workers)

    def test_d_bar_ratio_std_error(self):
        # the simulated d_bar_ratio row carries the batch-means SE of the
        # mean detected count, over N like the estimate
        params = ProtocolParams(8, 16, 24, 2.0, 0.005, 0.01, 0.01)
        base = SimConfig(params=params, n_sessions=300, warmup_sessions=30)
        spec = SweepSpec(base=base, swept_variable="lambda_T", grid=(1.0,),
                         outputs=("d_bar_ratio",), replicate_seeds=(1,))
        _, row = run_sweep(spec)
        est = estimate_throughput(replace(
            base, params=params.with_traffic(1.0), seed=derive_seed(1, 0, 1)))
        assert row["estimate"] == est.mean_detected / 8
        assert row["std_error"] == est.detected_std_error / 8 > 0

    @pytest.mark.parametrize("outputs", [
        ("eta2",), ("d_bar_ratio",), ("eta_ma",), ("eta1", "eta_ma")])
    def test_metric_subset_matches_full_sweep(self, outputs):
        # a scheme's tasks are seeded by its place in Scheme, so a sweep
        # over some metrics writes exactly the full sweep's rows for them
        params = ProtocolParams(8, 16, 24, 2.0, 0.005, 0.01, 0.01)
        base = SimConfig(params=params, n_sessions=300, warmup_sessions=20)
        full, part = (run_sweep(SweepSpec(
            base=base, swept_variable="lambda_T", grid=(0.5, 1.0),
            outputs=out, replicate_seeds=(1,))) for out in (METRICS, outputs))
        assert part == [r for r in full if r["metric"] in outputs]

    def test_derive_seed_stable(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)


class TestCommands:
    def test_analytic_prints_point(self, capsys):
        assert main(["analytic", "--traffic", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "eta2" in out and "0.93119" in out

    def test_analytic_invalid_params(self, capsys):
        assert main(["analytic", "--p-md", "0.7", "--p-fa", "0.7"]) == 1
        assert "p_md" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, field", [
        ("--traffic", "nan", "arrival_rate"),
        ("--traffic", "inf", "arrival_rate"),
        ("--feedback-len", "nan", "feedback_len"),
        # finite, but the closed forms overflow to a NaN Lambert argument
        ("--arrival-rate", "1e308", "lambert_w0"),
    ])
    def test_analytic_non_finite_params(self, capsys, flag, value, field):
        assert main(["analytic", flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert field in err

    # The always-None middle column keeps the IDs the suite prints for these
    # cases.
    @pytest.mark.parametrize("argv, env, what", [
        (["signal", "--trials", "0"], None, "trials must be >= 1"),
        (["sweep", "--preset", "fig3", "--seeds", ","], None, "seeds"),
        (["simulate", "--n-sessions", "20", "--warmup", "20"], None,
         "warmup_sessions"),
        # a dict after --spec updates the tiny spec; a list is the whole file
        (["sweep", "--spec", {"grid": ["a", "b"]}], None, "grid"),
        (["sweep", "--spec", {"n_sessions": "abc"}], None, "n_sessions"),
        (["sweep", "--spec", [1, 2]], None, "JSON object"),
        (["sweep", "--spec", {"n_sesions": 400}], None, "n_sesions"),
        (["sweep", "--preset", "fig3", "--workers", "0"], None, "workers"),
        (["stability", "--seeds", ",", "--horizon", "10"], None, "seeds"),
        (["signal", "--snr", ","], None, "snr"),
        (["stability", "--initial-backlog", "-1", "--traffic", "1",
          "--horizon", "3", "--seeds", "0"], None, "initial_backlog"),
        (["stability", "--initial-backlog", "-5", "--horizon", "3",
          "--seeds", "0"], None, "initial_backlog"),
        (["stability", "--horizon", "-1", "--seeds", "0"], None,
         "horizon must be >= 1"),
        (["stability", "--horizon", "0", "--seeds", "0"], None, "horizon"),
        (["signal", "--snr", "nan", "--trials", "10"], None, "snr"),
        (["signal", "--snr", "4,-1", "--trials", "10"], None, "snr"),
        (["signal", "--snr", "inf", "--trials", "10"], None, "snr"),
        (["signal", "--snr", "4", "--trials", "-5"], None,
         "trials must be >= 1"),
        (["signal", "--seed", "-1", "--snr", "1", "--trials", "10"], None,
         "seed must be >= 0"),
        (["simulate", "--seed", "-1", "--n-sessions", "20", "--warmup", "2"],
         None, "seed must be >= 0"),
        (["stability", "--seeds", "0,-1", "--horizon", "3"], None,
         "replicate_seeds must be >= 0"),
        (["sweep", "--preset", "fig3", "--seeds", "-1"], None,
         "replicate_seeds must be >= 0"),
        (["sweep", "--spec", {"replicate_seeds": [-2]}], None,
         "replicate_seeds must be >= 0"),
        # the false-alarm trial needs a second preamble
        (["signal", "--pool-size", "1", "--pool-symbols", "1", "--snr", "1",
          "--trials", "10"], None, "pool_size"),
        (["signal", "--pool-symbols", "0", "--snr", "1", "--trials", "10"],
         None, "pool_symbols must be >= 1"),
        # above the default 310-preamble pool
        (["signal", "--pool-symbols", "400", "--snr", "1", "--trials", "10"],
         None, "pool_symbols must be <="),
        # L and M are counts; a non-finite value never sweeps
        (["sweep", "--spec", {"swept_variable": "L", "grid": [31.5, 62.9]}],
         None, "grid"),
        (["sweep", "--spec", {"swept_variable": "M", "grid": [32, 64.5]}],
         None, "grid"),
        (["sweep", "--spec", {"swept_variable": "L", "grid": [float("nan")]}],
         None, "grid"),
        (["sweep", "--spec", {"grid": [0.5, float("inf")]}], None, "grid"),
        # JSON integers beyond float range
        (["sweep", "--spec", {"arrival_rate": 10**400}], None, "arrival_rate"),
        (["sweep", "--spec", {"arrival_rate": None, "traffic": 10**400}],
         None, "traffic"),
        (["sweep", "--spec", {"grid": [1, 10**400]}], None, "grid"),
        (["sweep", "--spec", {"preamble_len": 10**400}], None, "preamble_len"),
        (["sweep", "--spec", {"n_sessions": 10**400}], None, "n_sessions"),
        # values numpy's samplers cannot take, refused for every scheme
        (["simulate", "--traffic", "1e300"], None, "arrival_rate"),
        (["simulate", "--scheme", "cra1", "--traffic", "1e300"], None,
         "traffic"),
        (["simulate", "--scheme", "maloha", "--traffic", "1e300"], None,
         "traffic"),
        (["simulate", "--mode", "fast_retrial", "--traffic", "1e300"], None,
         "traffic"),
        (["simulate", "--pool-size", "1" + "0" * 300], None, "pool_size"),
        (["simulate", "--scheme", "cra1", "--pool-size", "1" + "0" * 300],
         None, "pool_size"),
        # a fast-retrial backlog that outgrows 2**62 active users
        (["simulate", "--mode", "fast_retrial", "--traffic", "1e16",
          "--n-sessions", "10", "--warmup", "1"], None, "arrival_rate"),
        (["stability", "--traffic", "1e16", "--horizon", "10", "--seeds", "0"],
         None, "arrival_rate"),
        (["sweep", "--spec", {"warmup_sessions": 10**400}], None,
         "warmup_sessions must be an integer within float range"),
        # an occupancy draw over 10^12 preambles (7.28 TiB of counts),
        # which only fast retrial makes
        (["simulate", "--pool-size", "1000000000000", "--n-sessions", "10",
          "--warmup", "1", "--mode", "fast_retrial"], None, "pool_size"),
        (["stability", "--pool-size", "1000000000000", "--horizon", "3",
          "--seeds", "0"], None, "pool_size"),
        # a dict after --config is the whole file; scheme and mode are
        # checked against their choices wherever the command uses them
        (["analytic", "--config", {"scheme": "x"}], None,
         "config: scheme must be one of ['cra1', 'cra2', 'maloha'], got 'x'"),
        (["stability", "--horizon", "3", "--config", {"mode": "y"}], None,
         "config: mode must be one of ['drop', 'fast_retrial'], got 'y'"),
        (["simulate", "--config", {"scheme": "x"}], None,
         "config: scheme must be one of ['cra1', 'cra2', 'maloha'], got 'x'"),
        # fast retrial is CRA-2's alone, from flags or a settings file
        (["simulate", "--scheme", "cra1", "--mode", "fast_retrial"], None,
         "mode"),
        (["simulate", "--scheme", "maloha", "--mode", "fast_retrial"], None,
         "mode"),
        (["simulate", "--config", {"scheme": "maloha",
                                   "mode": "fast_retrial"}], None, "mode"),
        # a backlog beyond the samplers' 2**62 is the backlog's fault
        (["stability", "--initial-backlog", "9000000000000000000",
          "--horizon", "3"], None, "initial_backlog"),
        # exactly 2**62 waiting: session 0's arrivals pass the limit
        (["stability", "--initial-backlog", "4611686018427387904",
          "--horizon", "3"], None, "initial_backlog"),
        # least values hold for settings files as for flags
        (["simulate", "--config", {"seed": -1}], None, "seed must be >= 0"),
        (["analytic", "--config", {"pool_size": 1}], None, "pool_size"),
        # a 31 x 10^15 pool of 220 PiB
        (["signal", "--pool-size", "1000000000000000", "--snr", "1",
          "--trials", "10"], None, "pool_size 1000000000000000"),
        # MC-ALOHA's pool is its N channels, past int64 here
        (["simulate", "--scheme", "maloha", "--preamble-len",
          "10000000000000000000", "--arrival-rate", "0", "--n-sessions",
          "10", "--warmup", "1"], None, "preamble_len must be at most"),
        # settings files that cannot be read: a missing path (a name in
        # the test's own directory) and a file that is not JSON
        (["simulate", "--config", MISSING], None, "config: cannot read"),
        (["sweep", "--spec", MISSING], None, "spec: cannot read"),
        (["analytic", "--config", b"{not json"], None, "config: cannot read"),
    ])
    def test_bad_input_one_error_line(self, tmp_path, capsys, argv, env,
                                      what):
        path = tmp_path / "file.json"
        if isinstance(argv[-1], dict) and argv[-2] == "--spec":
            argv = argv[:-1] + [str(tiny_spec_file(tmp_path, **argv[-1]))]
        elif isinstance(argv[-1], (dict, list)):
            path.write_text(json.dumps(argv[-1]))
            argv = argv[:-1] + [str(path)]
        elif isinstance(argv[-1], bytes):
            path.write_bytes(argv[-1])
            argv = argv[:-1] + [str(path)]
        elif argv[-1] is MISSING:
            argv = argv[:-1] + [str(tmp_path / "missing.json")]
        if argv[0] == "sweep":
            argv = argv + ["--output", str(tmp_path / "o.csv"),
                           "--n-sessions", "20", "--warmup", "2"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1 and what in captured.err

    @pytest.mark.parametrize("argv", [
        ["--traffic", "1e15", "--n-sessions", "400", "--warmup", "0"],
        ["--traffic", "1e15", "--n-sessions", "2", "--warmup", "0"],
        ["--pool-size", "1000000000000", "--n-sessions", "10", "--warmup",
         "1"],
    ])
    def test_cra1_any_pool_and_load_runs(self, tmp_path, capsys, argv):
        # CRA-1 draws no picks and builds no per-preamble arrays: at load
        # 1e15 every session holds about 2.8e16 users, above its cap, and
        # books nothing, and mean_active is lambda T (400 sessions hold
        # more than 2^63 users in all); 10^12 preambles run like any pool
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--scheme", "cra1", *argv,
                     "--output", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        (row,) = read_results(out)
        if "--traffic" in argv:
            assert row["estimate"] == 0.0
            assert "mean_active = 2.77666e+16\n" in captured.out
            return
        p = ProtocolParams(preamble_len=31, payload_len=256,
                           pool_size=10 ** 12, feedback_len=4.0,
                           arrival_rate=1.0 / 287, p_md=0.01, p_fa=0.01)
        exact = throughput_cra1(p) * p.txn_len
        assert abs(row["estimate"] - exact) <= 4 * row["std_error"]

    @pytest.mark.parametrize("argv", [
        ["stability", "--horizon", "1000000000000000000", "--seeds", "0"],
        ["simulate", "--scheme", "cra2", "--n-sessions",
         "1000000000000000000"],
        ["simulate", "--scheme", "cra1", "--n-sessions",
         "1000000000000000000"],
        ["simulate", "--scheme", "maloha", "--n-sessions",
         "1000000000000000000"],
    ])
    def test_huge_run_length_one_error_line(self, capsys, argv):
        # the session arrays cannot be allocated: one error line, no traceback
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1

    def test_simulate_runs(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        rc = main(["simulate", "--preamble-len", "8", "--payload-len", "16",
                   "--pool-size", "24", "--n-sessions", "300",
                   "--warmup", "30", "--seed", "5", "--output", str(out)])
        assert rc == 0
        assert out.exists() and (tmp_path / "sim.csv.provenance.json").exists()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preamble_len": 8, "payload_len": 16,
                                   "pool_size": 24, "traffic": 0.5}))
        assert main(["analytic", "--config", str(cfg),
                     "--traffic", "1.0"]) == 0
        # flag wins over file: load 1.0 at these sizes
        assert "mean_active" in capsys.readouterr().out

    def test_config_sets_scheme_and_sessions(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY_PARAMS, "scheme": "cra1",
                                   "n_sessions": 7, "warmup_sessions": 1}))
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", str(cfg),
                     "--output", str(out)]) == 0
        [row] = read_results(str(out))
        assert row["metric"] == "eta1" and row["sessions"] == 7
        prov = json.loads((tmp_path / "sim.csv.provenance.json").read_text())
        assert prov["scheme"] == "cra1" and prov["n_sessions"] == 7

    def test_flag_overrides_spec_sessions(self, tmp_path, capsys):
        spec = tiny_spec_file(tmp_path)   # n_sessions 400
        out = tmp_path / "o.csv"
        assert main(["sweep", "--spec", str(spec), "--output", str(out),
                     "--n-sessions", "120", "--warmup", "10"]) == 0
        sim = [r for r in read_results(str(out)) if r["source"] == "sim"]
        assert sim and all(r["sessions"] == 120 for r in sim)

    def test_maloha_provenance_records_pool_that_ran(self, tmp_path, capsys):
        out = tmp_path / "ma.csv"
        assert main(["simulate", "--scheme", "maloha", "--pool-size", "500",
                     "--n-sessions", "200", "--warmup", "10",
                     "--output", str(out)]) == 0
        prov = json.loads((tmp_path / "ma.csv.provenance.json").read_text())
        assert prov["pool_size"] == prov["preamble_len"] == 31

    def test_maloha_runs_whatever_pool_size(self, tmp_path, capsys):
        # L past int64 takes no part in an ALOHA run, which draws from its
        # N channels
        out = tmp_path / "ma.csv"
        assert main(["simulate", "--scheme", "maloha", "--pool-size",
                     "10000000000000000000", "--arrival-rate", "0",
                     "--n-sessions", "10", "--warmup", "1",
                     "--output", str(out)]) == 0
        assert capsys.readouterr().err == ""
        prov = json.loads((tmp_path / "ma.csv.provenance.json").read_text())
        assert prov["pool_size"] == 31

    def test_config_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_key": 1}))
        assert main(["analytic", "--config", str(cfg)]) == 1
        assert "bogus_key" in capsys.readouterr().err

    def test_sweep_requires_exactly_one_source(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(["sweep", "--output", str(out)]) == 1
        assert "preset" in capsys.readouterr().err

    def test_sweep_custom_spec_byte_identical(self, tmp_path, capsys):
        spec = tiny_spec_file(tmp_path)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["sweep", "--spec", str(spec), "--output", str(out1)]) == 0
        assert main(["sweep", "--spec", str(spec), "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        prov = json.loads((tmp_path / "a.csv.provenance.json").read_text())
        assert prov["grid"] == [0.5, 1.0]

    def test_sweep_empty_grid_diagnostic(self, tmp_path, capsys):
        spec = tiny_spec_file(tmp_path, grid=[])
        assert main(["sweep", "--spec", str(spec),
                     "--output", str(tmp_path / "o.csv")]) == 1
        assert "grid" in capsys.readouterr().err

    def test_preset_fig3_row_count(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        rc = main(["sweep", "--preset", "fig3", "--output", str(out),
                   "--n-sessions", "50", "--warmup", "5"])
        assert rc == 0
        rows = read_results(str(out))
        # 20 grid points x 4 metrics x 2 sources (one replicate seed)
        assert len(rows) == 20 * 4 * 2

    def test_signal_command(self, tmp_path, capsys):
        out = tmp_path / "sig.csv"
        rc = main(["signal", "--snr", "0,4", "--trials", "4000",
                   "--pool-symbols", "8", "--pool-size", "16",
                   "--output", str(out)])
        assert rc == 0
        rows = read_results(str(out))
        assert {r["metric"] for r in rows} == {"ml_md", "ml_fa"}
        assert capsys.readouterr().out.count("q_ref=") == 2

    def test_signal_trials_draw_apart_from_pool(self, monkeypatch, capsys):
        # the pool draws SeedSequence(seed); numpy drops trailing zero
        # words, so seeding an SNR's trials from [seed, 0] would repeat it
        states = []
        md_trial = cli.signals.ml_md_trial

        def recording(pool, scene, index, rng, n_trials):
            states.append(rng.bit_generator.state)
            return md_trial(pool, scene, index, rng, n_trials)

        monkeypatch.setattr(cli.signals, "ml_md_trial", recording)
        assert main(["signal", "--snr", "0,1,4", "--trials", "10",
                     "--pool-symbols", "4", "--pool-size", "8"]) == 0
        pool_state = np.random.default_rng(
            np.random.SeedSequence(0)).bit_generator.state
        assert len(states) == 3
        assert all(state != pool_state for state in states)

    def test_stability_command(self, tmp_path, capsys):
        out = tmp_path / "stab.csv"
        rc = main(["stability", "--traffic", "3.0", "--horizon", "50",
                   "--initial-backlog", "10", "--seeds", "0,1",
                   "--output", str(out)])
        assert rc == 0
        rows = read_results(str(out))
        assert all(r["metric"] == "backlog" for r in rows)
        assert {r["seed"] for r in rows} == {0, 1}

    @pytest.mark.parametrize("argv, diverged", [
        # the retrial_backlog trajectory: load 3 from backlog 5000, where
        # the threshold is 0
        (["--traffic", "3", "--initial-backlog", "5000", "--horizon", "300"],
         True),
        (["--traffic", "0.5", "--horizon", "2000"], False),
    ])
    def test_stability_says_when_a_run_diverged(self, tmp_path, capsys, argv,
                                                diverged):
        out = tmp_path / "stab.csv"
        assert main(["stability", "--seeds", "0", "--output", str(out),
                     *argv]) == 0
        captured = capsys.readouterr()
        final = read_results(str(out))[-1]["estimate"]
        line = (f"seed 0: transient, not a steady state: final backlog "
                f"{final:.0f} is at or above the instability threshold")
        assert (line in captured.err) is diverged
        assert "transient" not in captured.out
        if not diverged:
            assert captured.err == ""

    @pytest.mark.parametrize("load, diverged", [
        # the threshold is 0 at load 1, so every run ends at or above it;
        # 446 at load 0.5
        ("1.0", True), ("0.5", False)])
    def test_simulate_says_when_a_run_diverged(self, capsys, fig_params,
                                                load, diverged):
        argv = ["--traffic", load, "--n-sessions", "2000", "--warmup", "100"]
        assert main(["simulate", "--mode", "fast_retrial", *argv]) == 0
        captured = capsys.readouterr()
        est = estimate_throughput(SimConfig(
            params=fig_params.with_traffic(float(load)),
            mode=Mode.FAST_RETRIAL, n_sessions=2000, warmup_sessions=100))
        line = (f"seed 0: transient, not a steady state: final backlog "
                f"{est.final_backlog} is at or above the instability "
                f"threshold 0\n")
        assert captured.err == (line if diverged else "")
        assert "transient" not in captured.out

    def test_stability_rows_written_as_made(self, tmp_path, capsys):
        # the rows are made as they are written, so a run holds its walk's
        # three arrays, 24 bytes per session; a list of row dicts took about
        # 370
        argv = ["stability", "--traffic", "0", "--seeds", "0",
                "--output", str(tmp_path / "stab.csv")]
        assert main(argv + ["--horizon", "10"]) == 0   # warm-up
        horizon = 10_000
        tracemalloc.start()
        try:
            rc = main(argv + ["--horizon", str(horizon)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 64 * horizon
        assert len(read_results(str(tmp_path / "stab.csv"))) == horizon

    def test_analytic_output_independent_of_nothing(self, tmp_path):
        out1 = tmp_path / "a1.csv"
        out2 = tmp_path / "a2.csv"
        main(["analytic", "--traffic", "1.0", "--output", str(out1)])
        main(["analytic", "--traffic", "1.0", "--output", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


PROTOCOL_OPTIONS = {
    "--config": "config", "--preamble-len": "preamble_len",
    "--payload-len": "payload_len", "--pool-size": "pool_size",
    "--feedback-len": "feedback_len", "--arrival-rate": "arrival_rate",
    "--p-md": "p_md", "--p-fa": "p_fa", "--traffic": "traffic",
}

# every subcommand's option strings, each with its argparse dest
CLI_OPTIONS = {
    "analytic": {**PROTOCOL_OPTIONS, "--output": "output"},
    "simulate": {**PROTOCOL_OPTIONS, "--scheme": "scheme", "--mode": "mode",
                 "--n-sessions": "n_sessions", "--warmup": "warmup_sessions",
                 "--seed": "seed", "--output": "output"},
    "sweep": {"--preset": "preset", "--spec": "spec", "--output": "output",
              "--n-sessions": "n_sessions", "--warmup": "warmup_sessions",
              "--seeds": "replicate_seeds", "--workers": "workers"},
    "signal": {"--snr": "snr", "--trials": "trials",
               "--pool-symbols": "pool_symbols", "--pool-size": "pool_size",
               "--seed": "seed", "--output": "output"},
    "stability": {**PROTOCOL_OPTIONS, "--horizon": "horizon",
                  "--initial-backlog": "initial_backlog",
                  "--seeds": "replicate_seeds", "--output": "output"},
}


def console_script_commands():
    """The arguments of each `cra` line in the workflow's console-script
    step, up to its first redirection or shell operator."""
    commands = []
    for line in step_lines("Console script"):
        words = shlex.split(line)
        if words[:1] == ["cra"]:
            end = next((i for i, w in enumerate(words)
                        if re.match(r"\d*[<>|&;]", w)), len(words))
            commands.append(words[1:end])
    return commands


class TestCliSurface:
    def test_workflow_commands_parse(self, capsys):
        # a flag renamed or dropped fails here, not first in CI; nothing
        # is run
        commands = console_script_commands()
        assert {argv[0] for argv in commands} == {"--help", *CLI_OPTIONS}
        parser = cli.build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit as exc:   # --help exits 0, a bad flag 2
                assert (argv, exc.code) == (["--help"], 0)

    def subparsers(self):
        [sub] = [a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
        return sub.choices

    def test_options_and_dests_pinned(self):
        found = {name: {opt: action.dest for action in p._actions
                        for opt in action.option_strings
                        if opt not in ("-h", "--help")}
                 for name, p in self.subparsers().items()}
        assert found == CLI_OPTIONS

    def test_choices_and_required_pinned(self):
        choices = {(name, a.dest): (a.choices, a.required)
                   for name, p in self.subparsers().items()
                   for a in p._actions if a.choices or a.required}
        assert choices == {
            ("simulate", "scheme"): (["cra1", "cra2", "maloha"], False),
            ("simulate", "mode"): (["drop", "fast_retrial"], False),
            ("sweep", "preset"): (["fig3", "fig4", "fig5", "fig6"], False),
            ("sweep", "output"): (None, True),
        }

    @pytest.mark.parametrize("command", sorted(CLI_OPTIONS))
    def test_help(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: cra {command}")
        assert all(opt in out for opt in CLI_OPTIONS[command])

    @pytest.mark.parametrize("argv, provenance", [
        (["signal", "--trials", "10"],
         {"pool_size": 310, "pool_symbols": 31, "seed": 0,
          "snr": [0.0, 1.0, 4.0, 16.0], "trials": 10}),
        (["signal", "--snr", "0,4", "--trials", "100", "--pool-symbols", "4",
          "--pool-size", "8", "--seed", "3"],
         {"pool_size": 8, "pool_symbols": 4, "seed": 3, "snr": [0.0, 4.0],
          "trials": 100}),
        (["stability", "--horizon", "5"],
         {"arrival_rate": 0.003484320557491289, "feedback_len": 4.0,
          "horizon": 5, "initial_backlog": 0, "p_fa": 0.01, "p_md": 0.01,
          "payload_len": 256, "pool_size": 310, "preamble_len": 31,
          "seeds": [0]}),
        (["stability", "--preamble-len", "8", "--payload-len", "16",
          "--pool-size", "24", "--traffic", "2", "--horizon", "20",
          "--initial-backlog", "4", "--seeds", "1,2"],
         {"arrival_rate": 0.08333333333333333, "feedback_len": 4.0,
          "horizon": 20, "initial_backlog": 4, "p_fa": 0.01, "p_md": 0.01,
          "payload_len": 16, "pool_size": 24, "preamble_len": 8,
          "seeds": [1, 2]}),
    ])
    def test_provenance_pinned(self, tmp_path, capsys, argv, provenance):
        out = tmp_path / "o.csv"
        assert main(argv + ["--output", str(out)]) == 0
        text = (tmp_path / "o.csv.provenance.json").read_text(encoding="utf-8")
        assert text == json.dumps(provenance, indent=2, sort_keys=True) + "\n"


JSON_VALUES = st.none() | st.booleans() | st.integers() | st.floats() \
    | st.just(10 ** 400) \
    | st.sampled_from(["cra1", "maloha", "drop", "fast_retrial", "x", ""]) \
    | st.lists(st.integers() | st.floats(), max_size=3)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.sampled_from(CONFIG_KEYS + ("bogus",)),
                       JSON_VALUES))
def test_config_file_fuzz(tmp_path_factory, loaded):
    """Any JSON object over the config keys resolves to a valid config or a
    ValueError or OverflowError, and `analytic` exits 0 or 1 with one error
    line."""
    path = tmp_path_factory.mktemp("fuzz") / "cfg.json"
    path.write_text(json.dumps(loaded))
    args = cli.build_parser().parse_args(["analytic", "--config", str(path)])
    try:
        valid = isinstance(cli._params(cli._settings(args)), ProtocolParams)
    except (ValueError, OverflowError):
        valid = False
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = main(["analytic", "--config", str(path)])
    if rc == 0:
        assert valid and err.getvalue() == ""
    else:
        assert rc == 1
        assert err.getvalue().startswith("error:")
        assert err.getvalue().count("\n") == 1
