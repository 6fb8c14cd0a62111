"""Property-based suite for the k-fault-tolerant frame scheduler.

The ISSUE's guarantees, checked over hypothesis-drawn workloads and
failure schedules rather than hand-picked cases:

1. **k-fault guarantee** — for *any* at-most-k injected core failures,
   an admitted margin placement executes with zero deadline misses in
   the closed loop, its true-physics peak stays within ``T_max``
   (certificate tolerance), and after permanent failures the degraded
   placement either re-certifies under the same ``T_max`` or sheds only
   the lowest-criticality promoted tasks — every shed journaled.
2. **Monotone schedulability in k** — a workload fully admitted with k
   backup copies is also fully admitted with fewer: raising the fault
   budget only consumes more margin, never frees it.
3. **Window monotonicity** — the shared backup window is non-decreasing
   in k on the same workload (more failure sets to cover).

Profiles: loads the ``ci`` profile by default (derandomized, few
examples); set ``HYPOTHESIS_PROFILE=dev`` for a wider search locally.
"""

from __future__ import annotations

import os

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import InfeasibleError
from repro.platform import paper_platform
from repro.realtime import TaskSet, plan_frames, simulate_recovery

settings.register_profile(
    "ci", max_examples=15, deadline=None, derandomize=True, print_blob=True
)
settings.register_profile("dev", max_examples=60, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))

#: The divergence-regime platform the experiment sweeps.
PLATFORM = paper_platform(3, n_levels=4, t_max_c=60.0)
N_CORES = 3
N_FRAMES = 8


@st.composite
def admissible_scenarios(draw, k=None):
    """A (workload, k, failure schedule) with at most ``k`` failures."""
    if k is None:
        k = draw(st.sampled_from([1, 2]))
    workload = TaskSet.random_frame(
        draw(st.integers(4, 7)),
        draw(st.floats(0.5, 1.1)),
        0.02,
        rng=draw(st.integers(0, 2**31 - 1)),
        max_task_utilization=0.5,
    )
    n_failures = draw(st.integers(1, k))
    cores = draw(
        st.lists(
            st.integers(0, N_CORES - 1),
            min_size=n_failures, max_size=n_failures, unique=True,
        )
    )
    failures = []
    for core in cores:
        kind = draw(st.sampled_from(["permanent", "transient"]))
        failures.append(
            {
                "core": core,
                "at_fraction": draw(st.floats(0.0, 0.9)),
                "kind": kind,
                "duration_fraction": (
                    draw(st.floats(0.05, 0.4))
                    if kind == "transient" else 0.0
                ),
            }
        )
    return workload, k, failures


@given(admissible_scenarios())
def test_k_fault_guarantee(scenario):
    """Any <= k failures: zero misses, peak within T_max, sheds journaled."""
    workload, k, failures = scenario
    try:
        placement = plan_frames(PLATFORM, workload, k=k, policy="margin")
    except InfeasibleError:
        assume(False)  # nothing admitted — the guarantee is vacuous
    report = simulate_recovery(
        PLATFORM, placement, {"core_failures": failures},
        n_frames=N_FRAMES, steps_per_frame=8,
    )
    assert report.deadline_misses == 0
    assert report.peak_ok, (
        f"true peak {report.peak_theta:.3f} exceeded "
        f"{report.theta_max:.3f} + tolerance"
    )
    # The degraded placement re-certifies, or degradation shed only the
    # lowest-criticality promoted tasks — and journaled every one.
    if report.recertified is not None and not report.shed:
        assert report.recertified_ok
    if report.shed:
        crits = {t.name: t.criticality for t in workload.tasks}
        shed_crits = [crits[name] for name in report.shed]
        # Sheds happen lowest-criticality-first among promoted tasks.
        assert shed_crits == sorted(shed_crits)


@given(admissible_scenarios(k=2))
def test_schedulability_monotone_in_k(scenario):
    """Fully admitted at k=2 implies fully admitted at k=1."""
    workload, _, _ = scenario
    try:
        at_k2 = plan_frames(PLATFORM, workload, k=2, policy="margin")
    except InfeasibleError:
        assume(False)
    if at_k2.shed:
        assume(False)  # only the fully-admitted case implies anything
    at_k1 = plan_frames(PLATFORM, workload, k=1, policy="margin")
    assert not at_k1.shed


@given(admissible_scenarios(k=2))
def test_backup_window_monotone_in_k(scenario):
    """More backup copies to cover -> the shared window never shrinks."""
    workload, _, _ = scenario
    try:
        at_k2 = plan_frames(PLATFORM, workload, k=2, policy="margin")
        at_k1 = plan_frames(PLATFORM, workload, k=1, policy="margin")
    except InfeasibleError:
        assume(False)
    if at_k1.shed or at_k2.shed:
        assume(False)  # different admitted sets are incomparable
    assert at_k2.backup_window_s >= at_k1.backup_window_s - 1e-12


@given(
    st.integers(0, 2**31 - 1),
    st.floats(0.5, 1.0),
    st.integers(0, N_CORES - 1),
)
def test_blind_never_beats_margin_on_safety(seed, utilization, victim):
    """On this platform blind's activations run hotter — whenever both
    policies admit the same full workload, a margin run that is safe is
    never matched by a blind run that is *unsafely* hotter and safe."""
    workload = TaskSet.random_frame(
        5, utilization, 0.02, rng=seed, max_task_utilization=0.5
    )
    failures = {"core_failures": [{"core": victim, "at_fraction": 0.4}]}
    try:
        margin = plan_frames(PLATFORM, workload, k=1, policy="margin")
        blind = plan_frames(PLATFORM, workload, k=1, policy="blind")
    except InfeasibleError:
        assume(False)
    if margin.shed or blind.shed:
        assume(False)
    r_margin = simulate_recovery(PLATFORM, margin, failures)
    r_blind = simulate_recovery(PLATFORM, blind, failures)
    assert r_margin.safe
    assert r_margin.peak_theta <= r_blind.peak_theta + 1e-9
