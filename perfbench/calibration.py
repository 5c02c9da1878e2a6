"""Machine-speed calibration for timings on a shared, noisy host.

On a 2-core x86_64 virtual machine shared with other tenants, the same unit of
work varies by up to 2x in phases that last minutes, and CPU time follows
wall time, so the host's speed itself drifts; longer runs do not average it
out.  A fixed kernel doing the same kind of work slows down with it, so
timings are reported in reference seconds: measured seconds times
REFERENCE_S[kind] / (the kernel's mean time just before and just after them).
REFERENCE_S is each kernel's median time on that machine, so a reference
second is about a wall second there.  The kernels do not touch the `cra`
package: a change to the package moves the reported times, a change of host
speed does not.

Two kinds of work drift differently, so each workload names its kernel.
Units ran for 200 s with both kernels around each, then were cut into 15 s
windows; the spread (IQR / median) of the window medians was:

    workload           raw    / python kernel   / array kernel
    fig3_sweep         0.28        0.06              0.15
    closed_form_grid   0.30        0.06              0.14
    retrial_backlog    0.17        0.16              0.02
    signal_lab         0.14        0.11              0.04

The interpreter-bound workloads follow the scalar Python kernel and the
numpy-bound ones follow the array kernel.

Set-up (a fresh interpreter importing numpy, scipy and `cra`) follows
neither kernel alone.  751 set-up processes over 9 minutes, with both
kernels around each, cut into windows of 9; the spread of the window
medians was 0.25 raw, 0.07 by the Python kernel, 0.09 by the array kernel
and 0.055 by the geometric mean of both speeds, which `setup_speed` gives.
"""

import math
from time import perf_counter

import numpy as np

# median kernel times on that machine (Python 3.11, numpy 2.4)
REFERENCE_S = {"python": 0.127, "array": 0.121}


def _python_kernel():
    acc = 0.0
    for i in range(1, 500_000):
        x = i * 1e-5
        acc += math.exp(-x) * math.log1p(x) / (1.0 + x * x)
    return acc


def _array_kernel():
    rng = np.random.default_rng(20200206)
    acc = 0.0
    # small chunks, so the kernel adds little to the run's peak RSS
    for _ in range(18):
        noise = (rng.standard_normal((5000, 31))
                 + 1j * rng.standard_normal((5000, 31)))
        acc += float(np.sum(np.abs(noise - 0.5) ** 2))
    return acc


_KERNELS = {"python": _python_kernel, "array": _array_kernel}


def kernel(kind):
    """Run the fixed kernel of this kind; return its wall seconds."""
    t0 = perf_counter()
    result = _KERNELS[kind]()
    seconds = perf_counter() - t0
    if not math.isfinite(result):
        raise RuntimeError(f"{kind} calibration kernel produced no result")
    return seconds


def speed(kind, before, after):
    """Reference seconds per measured second, from the kernel's wall seconds
    just before and just after the measured interval."""
    return REFERENCE_S[kind] / ((before + after) / 2)


def setup_speed(before, after):
    """Reference seconds per measured second of a set-up process, from
    {kind: kernel seconds} just before and just after it."""
    return math.sqrt(speed("python", before["python"], after["python"])
                     * speed("array", before["array"], after["array"]))
