"""Mutation checks: each catalogue entry plants one known defect in a
temporary copy of the tree and names the tests that must catch it.

    python tests/mutants.py

The copy holds ``src/``, ``tests/``, ``tools/`` and ``pyproject.toml``.
The named tests first run on the unmutated copy, where each must pass.
Then each entry replaces its snippet, which must occur exactly once in its
file, runs only its own tests under pytest and restores the file; each of
those tests must fail.  Prints one line per entry and exits 1 if a named
test does not pass on the unmutated copy, a snippet does not occur exactly
once, or a mutant survives.  pytest does not collect this file.  A change
that adds a guard adds its mutant here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "tools", "pyproject.toml")

WALK_LAW = "tests/test_sim.py::TestFastRetrialLaw::test_walk_matches_exact_chain"
WALK_MEMORY = ("tests/test_sim.py::TestStage1Outcome::"
               "test_occupancy_beyond_memory_names_the_draw")


class Mutant(NamedTuple):
    name: str
    path: str          # relative to the repository root
    snippet: str       # occurs exactly once in the file
    replacement: str
    tests: tuple       # pytest node ids, each of which must fail


MUTANTS = (
    Mutant("walk: false alarms thinned with 1 - p_md", "src/cra/sim.py",
           "false_alarm = _pooled_binomial(rng, p.p_fa)",
           "false_alarm = _pooled_binomial(rng, 1.0 - p.p_md)",
           (WALK_LAW,)),
    Mutant("walk: detected count drops the false alarms", "src/cra/sim.py",
           "detected = d1 + d2 + d3",
           "detected = d1 + d2",
           (WALK_LAW,)),
    Mutant("walk: collided preambles thinned as false alarms",
           "src/cra/sim.py",
           "d2 = detect(collided) if collided else 0",
           "d2 = false_alarm(collided) if collided else 0",
           (WALK_LAW,)),
    Mutant("walk: occupancy MemoryError not named", "src/cra/sim.py",
           "except MemoryError as exc:",
           "except ArithmeticError as exc:",
           (WALK_MEMORY,
            "tests/test_sim.py::TestSimConfig::"
            "test_pool_beyond_memory_names_pool_size[cra2-fast_retrial]")),
)


def outcomes(tree, tests):
    """{node id: PASSED, FAILED or ERROR} of ``tests`` run under pytest
    in ``tree``, with the package imported from its ``src/``."""
    path = os.pathsep.join(filter(None, [str(tree / "src"),
                                         os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
         *tests], cwd=tree, env=env, capture_output=True, text=True,
        check=False)
    seen = {}
    for line in proc.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR"):
            seen[rest.split(" - ")[0]] = word
    return seen


def main():
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, tree / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(ROOT / name, tree / name)
        tests = sorted({test for m in MUTANTS for test in m.tests})
        clean = outcomes(tree, tests)
        for test in tests:
            if clean.get(test) != "PASSED":
                print(f"unmutated: {test} {clean.get(test, 'not run')}")
                failed = True
        if failed:
            return 1
        for m in MUTANTS:
            path = tree / m.path
            text = path.read_text(encoding="utf-8")
            count = text.count(m.snippet)
            if count != 1:
                print(f"NO MATCH  {m.name}: the snippet occurs {count} times "
                      f"in {m.path}")
                failed = True
                continue
            path.write_text(text.replace(m.snippet, m.replacement),
                            encoding="utf-8")
            try:
                seen = outcomes(tree, m.tests)
            finally:
                path.write_text(text, encoding="utf-8")
            alive = [f"{test} {seen.get(test, 'not run')}" for test in m.tests
                     if seen.get(test) not in ("FAILED", "ERROR")]
            print(f"{'SURVIVED' if alive else 'killed  '}  {m.name}")
            for line in alive:
                print(f"    {line}")
            failed |= bool(alive)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
