"""Throughput models and Monte Carlo simulation for two-stage compressive
random access (CRA-1, CRA-2 and the multichannel ALOHA baseline)."""

from . import analytic, signals, sim, specfun

# The package re-exports every module's public names.
_exports = {name: getattr(module, name)
            for module in (analytic, signals, sim, specfun)
            for name in module.__all__}
globals().update(_exports)
__all__ = list(_exports)

__version__ = "0.1.0"
