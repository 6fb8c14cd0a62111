"""Every decision tolerance of the solver, thermal, real-time and workload code.

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

#: Symmetry checks of conductance matrices allow this absolute asymmetry.
SYMMETRY_ATOL = 1e-9
#: A symmetric matrix whose least eigenvalue exceeds this share of the largest is
#: positive definite.
DEFINITENESS_RTOL = 1e-10
#: W.  A ladder level this far over the TSP per-core power budget still fits.
POWER_SLACK = 1e-12

#: Relative.  Backup windows and primaries may overfill a frame by this share.
CAPACITY_RTOL = 1e-9
#: s.  Admission lets primaries overrun the start of the backup window by this.
ADMISSION_ATOL = 1e-9
#: s.  Recovery lets backups overfill the window, and primaries the frame, by this.
CAPACITY_ATOL = 1e-12
#: A frame or sensor-step count this far above a whole number rounds up to it.
FRAME_SNAP = 1e-12
#: Packing may load a core past its capacity (``v_max``) by this much utilization.
UTILIZATION_SLACK = 1e-12

#: A horizon this many periods past a whole number of jobs releases no extra job.
RELEASE_SNAP = 1e-9
#: Relative to the period.  EDF steps across an interval boundary this close.
BOUNDARY_RTOL = 1e-9
#: V s.  A job with this much more work than its window runs finishes inside it.
JOB_WORK_ATOL = 1e-15
#: s.  A job that finishes this late or less meets its deadline.
LATENESS_ATOL = 1e-9
#: V s.  A job pending at the horizon with more work left than this missed.
RESIDUAL_WORK = 1e-9


def within_threshold(peak, theta_max):
    """``peak <= theta_max + FEASIBILITY_SLACK``, elementwise for arrays."""
    return peak <= theta_max + FEASIBILITY_SLACK
