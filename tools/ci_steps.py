"""Run the tier-1 workflow's "Console script" and "Demos" steps from this
checkout and print a manifest of what they did.

    python tools/ci_steps.py

Each command of the two steps runs as GitHub runs a step, under
``bash -eo pipefail`` from the repository root, with ``cra`` on PATH a shim
for ``python -m cra.cli`` on ``src/`` and RUNNER_TEMP a fresh temporary
directory.  The manifest gives, for each command, its exit code, the sha256
of its stdout and of its stderr (with that directory's path read as
``$RUNNER_TEMP``), and its wall time; then the sha256 of each
file the commands wrote, and the Python, numpy and scipy versions.  Two
checkouts that behave alike print the same manifest but for the wall
times.  Exits 1 if any command fails.
"""

import hashlib
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
STEPS = ("Console script", "Demos")


def step_lines(name):
    """The nonblank lines of the ``run: |`` block of workflow step
    ``name``, stripped of their indentation."""
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    step = next(i for i, line in enumerate(lines)
                if line.strip() == f"- name: {name}")
    run = next(i for i in range(step, len(lines))
               if lines[i].strip() == "run: |")
    indent = len(lines[run]) - len(lines[run].lstrip())
    block = []
    for line in lines[run + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        if line.strip():
            block.append(line.strip())
    return block


def shell_commands(lines):
    """The lines joined into complete shell commands: a line that opens a
    compound command (a ``for`` loop) takes the ones after it until
    ``bash -n`` accepts the text."""
    commands, pending = [], []
    for line in lines:
        pending.append(line)
        text = "\n".join(pending)
        if subprocess.run(["bash", "-n", "-c", text],
                          capture_output=True).returncode == 0:
            commands.append(text)
            pending = []
    if pending:
        raise ValueError(f"incomplete shell command: {pending}")
    return commands


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def main():
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        bin_dir, runner_temp = Path(tmp, "bin"), Path(tmp, "runner_temp")
        bin_dir.mkdir()
        runner_temp.mkdir()
        for name, args in (("cra", "-m cra.cli "), ("python", "")):
            shim = bin_dir / name
            shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" {args}"$@"\n')
            shim.chmod(0o755)
        env = {**os.environ, "RUNNER_TEMP": str(runner_temp),
               "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
               "PYTHONPATH": str(ROOT / "src")}
        for step in STEPS:
            print(f"# {step}")
            for command in shell_commands(step_lines(step)):
                t0 = time.perf_counter()
                done = subprocess.run(["bash", "-eo", "pipefail", "-c",
                                       command], cwd=ROOT, env=env,
                                      capture_output=True)
                wall = time.perf_counter() - t0
                failed |= done.returncode != 0
                out, err = (sha256(text.replace(bytes(runner_temp),
                                                b"$RUNNER_TEMP"))
                            for text in (done.stdout, done.stderr))
                print("$ " + command.replace("\n", "\n> "))
                print(f"  exit {done.returncode}  stdout {out}  stderr {err}"
                      f"  {wall:.2f} s")
        print("# files written")
        for path in sorted(p for p in runner_temp.rglob("*") if p.is_file()):
            print(f"{sha256(path.read_bytes())}  "
                  f"{path.relative_to(runner_temp)}")
    print(f"# python {platform.python_version()}  numpy {numpy.__version__}"
          f"  scipy {scipy.__version__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
