"""repro.safety — independent verification and graceful degradation.

Three pillars, wired through the registry, runner, sim and CLI:

* **certificates** (:func:`certify`, :class:`SafetyCertificate`) — every
  result the solver registry emits is re-verified through a numerical
  route different from the one the solver optimized with, and carries
  the structured verdict;
* **fallback chains** (:data:`FALLBACK_CHAIN`, consumed by
  :func:`repro.algorithms.registry.guarded_solve`) — a solver crash or a
  rejected certificate degrades AO -> neighbor rounding -> best constant
  -> lowest-mode floor instead of losing the cell;
* **fault injection** (:class:`FaultSpec`) — sensor noise/dropout, stuck
  DVFS modes and ambient drift for the reactive closed loop and the
  co-simulator, quantifying margin retained under perturbation.

See ``docs/ROBUSTNESS.md`` for the full story.

Names are imported from their module on first access (PEP 562, as in
:mod:`repro`), so importing one submodule loads only what that submodule
needs: :mod:`repro.sim` and the closed-loop solvers import
:mod:`~repro.safety.faults` without pulling in the fallback chain, which
imports solver modules itself.
"""

from repro import _lazy_exports

_EXPORTS = {
    "DEFAULT_TOLERANCE": "repro.safety.certificate",
    "SafetyCertificate": "repro.safety.certificate",
    "certify": "repro.safety.certificate",
    "claim_certificate": "repro.safety.certificate",
    "FALLBACK_CHAIN": "repro.safety.fallback",
    "run_fallback_hop": "repro.safety.fallback",
    "FaultSpec": "repro.safety.faults",
    "perturbed_peak": "repro.safety.faults",
    "stuck_schedule": "repro.safety.faults",
}

__all__ = list(_EXPORTS)

__getattr__ = _lazy_exports(globals(), _EXPORTS)
