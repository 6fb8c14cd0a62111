"""Real-time workload layer: partitioning, EDF and thermal checks.

The tasks themselves are :class:`repro.realtime.RTTask` /
:class:`repro.realtime.TaskSet`.

Names are imported from their module on first access (PEP 562, as in
:mod:`repro`): :mod:`repro.sim` imports :mod:`~repro.workload.edf`
without loading the scheduler, which imports the solvers.
"""

from repro import _lazy_exports

_EXPORTS = {
    "Mapping": "repro.workload.mapping",
    "first_fit_decreasing": "repro.workload.mapping",
    "worst_fit_decreasing": "repro.workload.mapping",
    "thermal_aware_mapping": "repro.workload.mapping",
    "WorkloadResult": "repro.workload.scheduler",
    "schedule_taskset": "repro.workload.scheduler",
    "EDFReport": "repro.workload.edf",
    "simulate_edf": "repro.workload.edf",
    "supply_in_window": "repro.workload.edf",
}

__all__ = list(_EXPORTS)

__getattr__ = _lazy_exports(globals(), _EXPORTS)
