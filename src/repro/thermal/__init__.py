"""Thermal substrate: RC networks, transient/periodic solvers, peak search.

``reference_simulate`` (the LSODA oracle, which loads
:mod:`scipy.integrate`) is imported on first access, so the closed-form
request path never loads the ODE solver.
"""

from repro import _lazy_exports
from repro.thermal.params import RCParams
from repro.thermal.rc import RCNetwork, build_rc_network, build_single_layer_network
from repro.thermal.stack3d import build_3d_network
from repro.thermal.model import ThermalModel
from repro.thermal.matex import IntervalSolution, interval_solution, interval_peak
from repro.thermal.transient import simulate_piecewise, TraceResult
from repro.thermal.periodic import (
    PeriodicSolution,
    periodic_steady_state,
    stable_trace,
)
from repro.thermal.peak import peak_temperature, stepup_peak_temperature
from repro.thermal.batch import (
    peak_temperature_batch,
    periodic_steady_state_batch,
    stepup_peak_temperature_batch,
)

__all__ = [
    "RCParams",
    "RCNetwork",
    "build_rc_network",
    "build_single_layer_network",
    "build_3d_network",
    "ThermalModel",
    "IntervalSolution",
    "interval_solution",
    "interval_peak",
    "simulate_piecewise",
    "TraceResult",
    "PeriodicSolution",
    "periodic_steady_state",
    "stable_trace",
    "peak_temperature",
    "stepup_peak_temperature",
    "peak_temperature_batch",
    "periodic_steady_state_batch",
    "stepup_peak_temperature_batch",
    "reference_simulate",
]

__getattr__ = _lazy_exports(
    globals(), {"reference_simulate": "repro.thermal.reference"}
)
