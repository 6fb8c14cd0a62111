"""Every decision tolerance of the solvers and thermal code, by name.

The paper's one constraint is that the stable peak never exceeds
``T_max`` (section II); :func:`within_threshold` is that rule.  Each
other round-off allowance (voltage equality, ratio bounds, strict
improvement, ...) has one constant per concept here, and concepts that
share a value keep separate names.  A leaf module: it imports nothing
from :mod:`repro`.  ``tests/test_tolerances.py`` rejects bare ``1e-N``
literals elsewhere and checks the *Tolerances* table of ``docs/API.md``.
"""

from __future__ import annotations

#: K.  A peak this far above ``theta_max`` is feasible (peak round-off).
FEASIBILITY_SLACK = 1e-9
#: K.  AO/PCO fill headroom only when the peak is this far below ``theta_max``.
FILL_HEADROOM = 1e-6
#: A candidate must beat the incumbent by more than this (ties keep the first).
IMPROVEMENT_MARGIN = 1e-12

#: V.  Voltages closer than this are one mode.
VOLTAGE_ATOL = 1e-12
#: V.  Continuous solvers may spill this far past a supported voltage range.
VOLTAGE_SPILL = 1e-9
#: V.  A voltage this close to a ladder level is that level.
LEVEL_ATOL = 1e-9
#: High ratios may leave ``[0, 1]`` by this; closer to 0 or 1 they no longer move.
RATIO_ATOL = 1e-12
#: s.  Shorter durations are degenerate; times may leave an interval by this.
MIN_INTERVAL = 1e-12
#: Relative.  Per-core periods that agree to this are one period.
PERIOD_RTOL = 1e-9
#: V s.  Absolute slack on per-core work when comparing workloads.
WORK_ATOL = 1e-12

#: K.  Certificate routes this close agree (kernel round-off, not a disagreement).
ROUTE_AGREEMENT = 1e-12
#: A claimed throughput may exceed the raw one by this (overhead only subtracts).
THROUGHPUT_SLACK = 1e-6
#: K.  Smallest half-width of the threshold band EXS re-prices exactly.
BAND_FLOOR = 1e-9
#: V.  EXS re-sums feasible rows this close to the best superposed sum exactly.
TIE = 1e-9
#: K.  Floor of a TPT fill move's peak rise, so the gain per degree is finite.
RISE_FLOOR = 1e-15
#: K per quantum.  TPT extrapolates only from a larger one-quantum peak change.
SLOPE_FLOOR = 1e-12
#: A root of the power cubic with a smaller imaginary part is real.
ROOT_IMAG_ATOL = 1e-9


def within_threshold(peak, theta_max):
    """``peak <= theta_max + FEASIBILITY_SLACK``, elementwise for arrays."""
    return peak <= theta_max + FEASIBILITY_SLACK
