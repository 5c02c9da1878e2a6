import ast
import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cra
from cra import analytic, signals, sim, specfun

# the package's src directory, for fresh interpreters
SRC = str(Path(cra.__file__).resolve().parents[1])
# prints which of scipy and scipy.special a fresh interpreter has loaded
SCIPY_LOADED = ("print('loaded', sorted(m for m in ('scipy', 'scipy.special') "
                "if m in sys.modules))")


def test_public_names_pinned():
    assert sorted(cra.__all__) == [
        "ErrorBoundInputs", "Mode", "PreamblePool", "ProtocolParams",
        "Scheme", "SimConfig", "SparseScene", "SteadyState",
        "ThroughputEstimate", "backlog_drift",
        "detection_error_bounds", "estimate_throughput", "gen_pool",
        "instability_threshold", "lambert_w0", "mean_detected_split",
        "ml_fa_trial", "ml_md_trial", "ml_support_search",
        "mmv_identifiable", "poisson_cdf", "prob_singleton", "prob_unused",
        "qfunc", "received_stage1", "simulate_stability",
        "spark_bruteforce", "steady_state_cra2", "support_error_prob",
        "throughput_cra1", "throughput_maloha",
    ]
    assert all(hasattr(cra, name) for name in cra.__all__)
    # the package re-exports every module's public names, with no exception
    modules = (analytic, signals, sim, specfun)
    assert sorted(cra.__all__) == sorted(
        name for module in modules for name in module.__all__)


@pytest.mark.parametrize(
    "demo", sorted((Path(__file__).parents[1] / "demos").glob("*.py")),
    ids=lambda path: path.name)
def test_demo_imports_exist(demo):
    # parsed, not run: every name a demo imports from the package exists
    imports = [(node.module, alias.name)
               for node in ast.walk(ast.parse(demo.read_text("utf-8")))
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "cra"
               for alias in node.names]
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), \
            f"{module}.{name}"


def run_fresh(code):
    """Run ``code`` in a fresh interpreter with the package on its path and
    return the lines it prints.  A fresh process is needed because other
    tests in this one import scipy."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120,
                          check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


class TestScipyLoadedOnFirstClosedForm:
    def test_only_the_closed_forms_load_scipy(self):
        out = run_fresh(f"""
            import contextlib, sys
            import cra
            {SCIPY_LOADED}
            from cra import cli
            with contextlib.suppress(SystemExit):
                cli.main(["--help"])
            assert cli.main(["signal", "--snr", "1", "--trials", "100"]) == 0
            assert cli.main(["stability", "--horizon", "5", "--seeds", "0"]) == 0
            assert cli.main(["simulate", "--n-sessions", "50",
                             "--warmup", "5"]) == 0
            {SCIPY_LOADED}
            assert cli.main(["analytic"]) == 0
            {SCIPY_LOADED}""")
        # after import cra, after the other commands, after cra analytic
        assert [line for line in out if line.startswith("loaded")] == [
            "loaded []", "loaded []", "loaded ['scipy', 'scipy.special']"]

    def test_concurrent_first_calls_match_eager_scipy(self):
        # 8 threads make the first closed-form calls at once; every value
        # must equal scipy.special's, bit for bit
        assert run_fresh("""
            import sys, threading
            from cra import specfun
            assert "scipy" not in sys.modules
            YS = [-0.36, -0.1, 1e-3, 0.5, 1.0, 10.0, 1e6]
            NMU = [(0, 0.5), (3, 2.0), (29, 30.0), (308, 309.0)]
            barrier = threading.Barrier(8)
            results = [None] * 8

            def first_use(i):
                barrier.wait(timeout=60)
                results[i] = ([specfun.lambert_w0(y).hex() for y in YS],
                              [specfun.poisson_cdf(n, mu).hex() for n, mu in NMU])

            sys.setswitchinterval(1e-6)
            threads = [threading.Thread(target=first_use, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            from scipy import special
            eager = ([float(special.lambertw(y).real).hex() for y in YS],
                     [float(special.gammaincc(n + 1, mu)).hex() for n, mu in NMU])
            print(results == [eager] * 8)""")[-1] == "True"
