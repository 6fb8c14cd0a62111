"""Parity of the array-native constant-lattice searches with their oracles.

:func:`repro.algorithms.exs.exs` prices the lattice by superposition over
the model's ``core_response`` and re-prices rows near the threshold
exactly, and :func:`repro.algorithms.exs.pruned_lattice_search` replaces
two recursive depth-first searches (``exs_pruned`` and the AO/PCO floor
guard ``best_constant_above``) with one frontier-batched search.  The
code they replaced is kept below verbatim as the oracle: the
``itertools`` enumeration of Algorithm 1 and both recursive searches.
Every answer must match bit for bit — chosen voltages, peak, throughput
and (for the full enumeration) the evaluation count.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import load_platform
from repro.algorithms.ao import best_constant_above
from repro.algorithms.exs import (
    BATCH,
    _lattice_rows,
    exs,
    exs_pruned,
    pruned_lattice_search,
)
from repro.algorithms.oscillation import ModePlan, plan_modes
from repro.engine import ThermalEngine, as_platform, engine_entrypoint
from repro.errors import InfeasibleError, SolverError
from repro.platform import Platform, paper_platform
from repro.power.dvfs import VoltageLadder

settings.register_profile(
    "ci", max_examples=15, deadline=None, derandomize=True, print_blob=True
)
settings.register_profile("dev", max_examples=60, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))

EXS_MODULE = importlib.import_module("repro.algorithms.exs")


# ----------------------------------------------------------------------
# oracles: the replaced implementations, verbatim
# ----------------------------------------------------------------------


@engine_entrypoint()
def old_exs(engine: ThermalEngine):
    levels = np.asarray(engine.ladder.levels)
    n = engine.n_cores
    theta_max = engine.theta_max

    best_throughput = -np.inf
    best_voltages: np.ndarray | None = None
    best_peak = np.inf
    evaluations = 0

    combos = itertools.product(range(levels.size), repeat=n)
    while True:
        chunk = list(itertools.islice(combos, BATCH))
        if not chunk:
            break
        evaluations += len(chunk)
        volts = levels[np.asarray(chunk)]  # (batch, n)
        theta = engine.steady_state_batch(volts)  # (batch, n)
        peaks = theta.max(axis=1)
        feasible = peaks <= theta_max + 1e-9
        if not feasible.any():
            continue
        sums = volts.sum(axis=1)
        sums[~feasible] = -np.inf
        k = int(np.argmax(sums))
        if sums[k] > best_throughput:
            best_throughput = float(sums[k])
            best_voltages = volts[k]
            best_peak = float(peaks[k])

    if best_voltages is None:
        raise InfeasibleError(
            f"no constant assignment fits under theta_max={theta_max:.2f} K"
        )
    return best_voltages, best_peak, evaluations


@engine_entrypoint()
def old_exs_pruned(engine: ThermalEngine):
    levels = sorted(engine.ladder.levels, reverse=True)
    n = engine.n_cores
    theta_max = engine.theta_max
    v_min, v_max = engine.ladder.v_min, engine.ladder.v_max

    best = {"sum": -np.inf, "voltages": None, "peak": np.inf, "evals": 0}
    assignment = np.full(n, v_min)

    def peak_of(volts: np.ndarray) -> float:
        best["evals"] += 1
        return float(engine.steady_state_cores(volts).max())

    def dfs(core: int, partial_sum: float) -> None:
        if partial_sum + (n - core) * v_max <= best["sum"] + 1e-12:
            return
        if core == n:
            peak = peak_of(assignment.copy())
            if peak <= theta_max + 1e-9 and partial_sum > best["sum"]:
                best["sum"] = partial_sum
                best["voltages"] = assignment.copy()
                best["peak"] = peak
            return
        for lvl in levels:
            assignment[core] = lvl
            # Optimistic completion: all remaining cores at the lowest level.
            optimistic = assignment.copy()
            optimistic[core + 1 :] = v_min
            if peak_of(optimistic) > theta_max + 1e-9:
                assignment[core] = v_min
                continue  # even the coolest completion fails; try a lower level
            dfs(core + 1, partial_sum + lvl)
        assignment[core] = v_min

    dfs(0, 0.0)
    if best["voltages"] is None:
        raise InfeasibleError(
            f"no constant assignment fits under theta_max={theta_max:.2f} K"
        )
    return best["voltages"], best["peak"]


def old_best_constant_above(
    platform: Platform | ThermalEngine,
    plan: ModePlan,
    incumbent_sum: float,
) -> np.ndarray | None:
    platform = as_platform(platform)
    model = platform.model
    theta_max = platform.theta_max
    levels = sorted(float(v) for v in platform.ladder.levels)
    v_min = levels[0]
    active = np.where(plan.target_voltages > 0.0)[0]
    n_active = active.size

    best_sum = float(incumbent_sum)
    best_volts: np.ndarray | None = None

    floor = plan.v_low.astype(float)
    if (
        float(model.steady_state_cores(floor).max()) <= theta_max + 1e-9
        and float(floor.sum()) > best_sum + 1e-12
    ):
        best_sum = float(floor.sum())
        best_volts = floor.copy()

    assignment = np.zeros(plan.n_cores)
    assignment[active] = v_min

    def feasible(volts: np.ndarray) -> bool:
        return float(model.steady_state_cores(volts).max()) <= theta_max + 1e-9

    def dfs(pos: int, partial_sum: float) -> None:
        nonlocal best_sum, best_volts
        remaining = n_active - pos
        if partial_sum + remaining * levels[-1] <= best_sum + 1e-12:
            return
        if pos == n_active:
            if feasible(assignment):
                best_sum = partial_sum
                best_volts = assignment.copy()
            return
        core = active[pos]
        for lvl in reversed(levels):
            assignment[core] = lvl
            # Optimistic completion: all remaining active cores at v_min.
            optimistic = assignment.copy()
            optimistic[active[pos + 1 :]] = v_min
            if not feasible(optimistic):
                assignment[core] = v_min
                continue
            dfs(pos + 1, partial_sum + lvl)
        assignment[core] = v_min

    if n_active:
        dfs(0, 0.0)
    elif best_volts is None and feasible(assignment) and 0.0 > best_sum + 1e-12:
        best_volts = assignment.copy()
    return best_volts


# ----------------------------------------------------------------------
# platforms
# ----------------------------------------------------------------------

#: Exactly representable levels whose sums tie across assignments.
TIE_LADDER = VoltageLadder((0.625, 0.75, 1.0, 1.125))

_BUILDERS = {
    # L^N below BATCH.
    "paper-3x3": lambda: paper_platform(3, n_levels=3, t_max_c=55.0),
    "paper-6x4": lambda: paper_platform(6, n_levels=4, t_max_c=50.0),
    # L^N == BATCH (4^8).
    "stack-8x4": lambda: load_platform(
        "stack3d", n_layers=2, rows=2, cols=2, n_levels=4
    ),
    # L^N not a multiple of BATCH (3^11).
    "stack-11x3": lambda: load_platform(
        "stack3d", n_layers=1, rows=1, cols=11, n_levels=3
    ),
    # Heterogeneous power.
    "big_little-6x3": lambda: load_platform("big_little", n_cores=6, n_levels=3),
    # A 9-core x 4-level technology preset.
    "tech-45-io": lambda: load_platform("tech-45-io"),
    # Equal-sum ties.
    "paper-6-ties": lambda: paper_platform(6, t_max_c=55.0).with_ladder(TIE_LADDER),
}

#: Small lattices, cheap enough for the recursive oracles on every draw.
SMALL = ("paper-3x3", "paper-6x4", "big_little-6x3", "paper-6-ties")


@functools.lru_cache(maxsize=None)
def platform(name: str) -> Platform:
    return _BUILDERS[name]()


def lattice_size(p: Platform) -> int:
    return len(p.ladder.levels) ** p.n_cores


def assert_same_vector(new, old):
    if old is None:
        assert new is None
    else:
        assert new is not None and np.array_equal(new, old)


# ----------------------------------------------------------------------
# EXS: the full enumeration
# ----------------------------------------------------------------------


class TestEnumeration:
    @pytest.mark.parametrize(
        "radix,n", [(3, 3), (4, 8), (3, 11), (2, 17), (5, 1)]
    )
    def test_chunks_match_itertools(self, radix, n):
        # Index ranges of BATCH rows, as itertools hands them out.
        levels = np.linspace(0.6, 1.3, radix)
        combos = itertools.product(range(radix), repeat=n)
        total = radix**n
        for start in range(0, total, BATCH):
            index = np.arange(start, min(start + BATCH, total))
            volts = _lattice_rows(levels, n, index)
            expected = levels[np.asarray(list(itertools.islice(combos, BATCH)))]
            assert volts.flags.c_contiguous
            assert np.array_equal(volts, expected)
        assert next(combos, None) is None

    def test_large_lattice_indexes_exactly(self):
        levels = np.array([0.6, 1.3])
        first = _lattice_rows(levels, 62, np.arange(BATCH))
        assert first.shape == (BATCH, 62)
        assert np.all(first[0] == 0.6)
        digits = [int(c) for c in format(BATCH - 1, "062b")]
        assert np.array_equal(first[-1], levels[digits])
        assert np.all(_lattice_rows(levels, 62, [2**62 - 1]) == 1.3)

    @pytest.mark.parametrize("radix,n", [(2, 63), (4, 32), (5, 40)])
    def test_int64_overflow_raises(self, radix, n):
        p = load_platform("stack3d", n_layers=1, rows=1, cols=n, n_levels=radix)
        with pytest.raises(SolverError, match="overflows int64"):
            exs(p)


def assert_exs_parity(p: Platform) -> None:
    """``exs`` and the itertools oracle agree bit for bit (or both raise)."""
    try:
        volts, peak, evaluations = old_exs(p)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            exs(p)
        return
    result = exs(p)
    assert np.array_equal(result.schedule.voltage_matrix[0], volts)
    assert result.peak_theta == peak
    assert result.throughput == float(np.mean(volts))
    assert result.details["evaluations"] == evaluations == lattice_size(p)


def random_lattice(rng: np.random.Generator, p: Platform, n_levels: int) -> Platform:
    """``p`` on random levels of its voltage range, with a binding T_max.

    The levels are distinct points of a 71-point grid over the power
    model's voltage range, so their sums round.
    ``theta_max`` falls between the all-lowest and all-highest steady
    peaks, so the answer is neither corner of the lattice.
    """
    power = p.model.power
    grid = np.linspace(power.v_min, power.v_max, 71)
    levels = np.sort(rng.choice(grid, n_levels, replace=False))
    lo, hi = (
        float(p.model.steady_state_cores(np.full(p.n_cores, v)).max())
        for v in (levels[0], levels[-1])
    )
    theta = lo + rng.uniform(0.2, 0.8) * (hi - lo)
    return p.with_ladder(VoltageLadder(tuple(levels))).with_t_max(
        theta + p.model.t_ambient_c
    )


@functools.lru_cache(maxsize=None)
def sweep_platforms() -> tuple[Platform, ...]:
    """A seeded spread of lattices of 2-12 cores over every family."""
    rng = np.random.default_rng(2416)
    bases = [
        paper_platform(2), paper_platform(3), paper_platform(6),
        paper_platform(9), paper_platform(9), paper_platform(6),
        load_platform("big_little", n_cores=3),
        load_platform("big_little", n_cores=6),
        load_platform("stack3d", n_layers=1, rows=1, cols=12),
        load_platform("stack3d", n_layers=1, rows=1, cols=7),
        load_platform("stack3d", n_layers=2, rows=1, cols=3),
        load_platform("tech-32-o3", n_cores=6),
        load_platform("tech-8-io", n_cores=6),
    ]
    n_levels = [5, 4, 3, 2, 3, 5, 5, 3, 2, 4, 5, 4, 4]
    return tuple(random_lattice(rng, p, k) for p, k in zip(bases, n_levels))


#: Lattices at 0 C ambient: ``theta_max`` is then ``t_max_c`` itself, so
#: ``with_t_max`` can place the threshold at any representable kelvin.
_AMBIENT_ZERO = {
    "paper-3x3": lambda: paper_platform(3, n_levels=3, t_ambient_c=0.0),
    "paper-6x4": lambda: paper_platform(6, n_levels=4, t_ambient_c=0.0),
    "big_little-6x3": lambda: load_platform(
        "big_little", n_cores=6, n_levels=3, t_ambient_c=0.0
    ),
    "tech-45-io": lambda: load_platform("tech-45-io", t_ambient_c=0.0),
}


def threshold_copies(p: Platform, peak: float) -> tuple[Platform, Platform]:
    """Copies of ``p`` whose ``theta_max + 1e-9`` is within one ulp of ``peak``.

    In the first copy the threshold is the smallest one ``>= peak`` (a
    row with that peak is feasible), in the second the largest one
    ``< peak`` (it is not).
    """
    t_amb = p.model.t_ambient_c

    def threshold(t_max_c: float) -> float:
        return (t_max_c - t_amb) + 1e-9

    t = peak + t_amb - 1e-9
    while threshold(t) < peak:
        t = np.nextafter(t, np.inf)
    while threshold(np.nextafter(t, -np.inf)) >= peak:
        t = np.nextafter(t, -np.inf)
    below = np.nextafter(t, -np.inf)
    assert threshold(t) == peak
    assert threshold(below) == np.nextafter(peak, -np.inf)
    return p.with_t_max(float(t)), p.with_t_max(float(below))


class TestEXSParity:
    @pytest.mark.parametrize(
        "name",
        ["paper-3x3", "stack-8x4", "stack-11x3", "big_little-6x3",
         "tech-45-io", "paper-6-ties"],
    )
    def test_matches_itertools_oracle(self, name):
        assert_exs_parity(platform(name))

    def test_chunk_size_does_not_change_answer(self, monkeypatch):
        monkeypatch.setattr(EXS_MODULE, "BATCH", 1000)
        assert_exs_parity(platform("paper-6x4"))

    def test_infeasible_platform_raises(self):
        p = paper_platform(9, n_levels=2, t_max_c=37.0)
        with pytest.raises(InfeasibleError):
            old_exs(p)
        with pytest.raises(InfeasibleError):
            exs(p)

    @pytest.mark.parametrize("index", range(13))
    def test_seeded_sweep(self, index):
        assert_exs_parity(sweep_platforms()[index])

    @pytest.mark.parametrize("share", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("name", list(_AMBIENT_ZERO))
    def test_threshold_band_decides_by_the_exact_peak(self, name, share):
        # theta_max + 1e-9 at, and one ulp under, the exact peak of the
        # oracle's winner.  Superposition rounds a peak by an ulp or so,
        # so only the exact re-price gets both copies right.
        p = _AMBIENT_ZERO[name]()
        lo, hi = (
            float(p.model.steady_state_cores(np.full(p.n_cores, v)).max())
            for v in (p.ladder.v_min, p.ladder.v_max)
        )
        p = p.with_t_max(lo + share * (hi - lo))
        _, peak, _ = old_exs(p)
        feasible, infeasible = threshold_copies(p, peak)
        assert_exs_parity(feasible)
        assert_exs_parity(infeasible)
        assert exs(feasible).peak_theta == peak
        assert exs(infeasible).peak_theta < peak

    def test_counts_every_lattice_row_once(self):
        for name in ("paper-6x4", "stack-8x4"):
            model = platform(name).model
            solves, hits, rows = model.ss_solves, model.ss_cache_hits, model.ss_batch_rows
            result = exs(platform(name))
            assert (model.ss_solves, model.ss_cache_hits) == (solves, hits)
            assert model.ss_batch_rows - rows == lattice_size(platform(name))
            assert result.stats.steady_state_batch_rows == lattice_size(platform(name))

    def test_infeasible_run_counts_every_row(self):
        p = paper_platform(6, n_levels=3, t_max_c=37.0)
        rows = p.model.ss_batch_rows
        with pytest.raises(InfeasibleError):
            exs(p)
        assert p.model.ss_batch_rows - rows == lattice_size(p)


class TestCoreResponse:
    @pytest.mark.parametrize("name", list(_BUILDERS))
    def test_superposition_matches_the_solve(self, name):
        model = platform(name).model
        response = model.core_response
        assert model.core_response is response  # cached
        assert response.shape == (model.n_cores, model.n_cores)
        assert np.all(response >= 0.0)
        levels = np.asarray(platform(name).ladder.levels)
        rng = np.random.default_rng(5)
        rows = levels[rng.integers(0, levels.size, (64, model.n_cores))]
        superposed = np.asarray(model.power.psi(rows)) @ response.T
        exact = model.steady_state_batch(rows)
        assert np.max(np.abs(superposed - exact)) <= 1e-12


# ----------------------------------------------------------------------
# the frontier-batched pruned search
# ----------------------------------------------------------------------


class TestEXSPrunedParity:
    @pytest.mark.parametrize("name", list(_BUILDERS))
    def test_matches_recursive_oracle(self, name):
        p = platform(name)
        volts, peak = old_exs_pruned(p)
        result = exs_pruned(p)
        assert np.array_equal(result.schedule.voltage_matrix[0], volts)
        assert result.peak_theta == peak

    @pytest.mark.parametrize("t_max_c", [40.0, 45.0, 55.0, 65.0, 200.0])
    def test_thresholds(self, t_max_c):
        p = paper_platform(6, n_levels=4, t_max_c=t_max_c)
        try:
            volts, peak = old_exs_pruned(p)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                exs_pruned(p)
            return
        result = exs_pruned(p)
        assert np.array_equal(result.schedule.voltage_matrix[0], volts)
        assert result.peak_theta == peak

    def test_nothing_feasible_raises(self):
        p = paper_platform(9, n_levels=2, t_max_c=37.0)
        with pytest.raises(InfeasibleError):
            old_exs_pruned(p)
        with pytest.raises(InfeasibleError):
            exs_pruned(p)

    def test_matches_full_enumeration(self):
        p = platform("tech-45-io")
        assert np.array_equal(
            exs_pruned(p).schedule.voltage_matrix[0],
            exs(p).schedule.voltage_matrix[0],
        )

    def test_greedy_dive_bounds_the_frontier(self):
        # No incumbent, yet the 9x5 lattice (1,953,125 assignments) is
        # searched in a few thousand rows: the dive's leaf bounds the
        # frontier.  Without the dive it prices ~60,000.
        p = paper_platform(9, n_levels=5, t_max_c=55.0)
        volts, peak = old_exs_pruned(p)
        result = exs_pruned(p)
        assert np.array_equal(result.schedule.voltage_matrix[0], volts)
        assert result.peak_theta == peak
        assert result.details["evaluations"] < lattice_size(p) // 200

    def test_prices_rows_in_batches_without_the_lru(self):
        p = paper_platform(6, n_levels=4, t_max_c=50.0)
        model = p.model
        solves, hits, rows = model.ss_solves, model.ss_cache_hits, model.ss_batch_rows
        result = exs_pruned(p)
        assert (model.ss_solves, model.ss_cache_hits) == (solves, hits)
        assert model.ss_batch_rows - rows == result.details["evaluations"]


def random_plan(p: Platform, rng: np.random.Generator, gated: float) -> ModePlan:
    levels = np.asarray(p.ladder.levels)
    n = p.n_cores
    target = rng.uniform(levels[0], levels[-1], n)
    snap = rng.random(n) < 0.25
    target[snap] = rng.choice(levels, int(snap.sum()))
    target[rng.random(n) < gated] = 0.0
    return plan_modes(p, target)


def incumbents(p: Platform, plan: ModePlan) -> list[float]:
    """-inf, the fallback's -1, AO-like sums and exact lattice ties."""
    ao_like = float(plan.target_voltages.sum())
    out = [-np.inf, -1.0, ao_like, 0.97 * ao_like, 0.9 * ao_like]
    best = old_best_constant_above(p, plan, -np.inf)
    if best is not None:
        total = float(best.sum())
        out += [total, total - 1e-12, total - 2e-12, np.nextafter(total, -np.inf)]
    return out


def check_guard(p: Platform, plan: ModePlan, incumbent: float) -> None:
    old = old_best_constant_above(p, plan, incumbent)
    assert_same_vector(best_constant_above(p, plan, incumbent), old)


class TestFloorGuardParity:
    @pytest.mark.parametrize("name", SMALL)
    @pytest.mark.parametrize("gated", [0.0, 0.3])
    def test_random_plans(self, name, gated):
        p = platform(name)
        rng = np.random.default_rng(1604)
        for _ in range(4):
            plan = random_plan(p, rng, gated)
            for incumbent in incumbents(p, plan):
                check_guard(p, plan, incumbent)

    @pytest.mark.parametrize("t_max_c", [36.0, 45.0, 60.0, 300.0])
    def test_thresholds(self, t_max_c):
        # 36 C: nothing feasible; 300 C: every assignment feasible.
        p = platform("paper-6x4").with_t_max(t_max_c)
        rng = np.random.default_rng(7)
        for _ in range(3):
            plan = random_plan(p, rng, 0.2)
            for incumbent in (-np.inf, -1.0, float(plan.target_voltages.sum())):
                check_guard(p, plan, incumbent)

    @pytest.mark.parametrize("t_max_c", [36.0, 55.0])
    def test_all_cores_gated(self, t_max_c):
        p = platform("paper-6x4").with_t_max(t_max_c)
        plan = plan_modes(p, np.zeros(p.n_cores))
        for incumbent in (-np.inf, -1.0, 0.0, 1.0):
            check_guard(p, plan, incumbent)

    def test_ao_plans(self):
        from repro.algorithms.continuous import continuous_assignment

        for name in ("paper-6x4", "big_little-6x3", "tech-45-io"):
            p = platform(name)
            plan = plan_modes(p, continuous_assignment(p).voltages)
            for incumbent in incumbents(p, plan):
                check_guard(p, plan, incumbent)

    def test_engine_argument(self):
        p = platform("big_little-6x3")
        plan = random_plan(p, np.random.default_rng(3), 0.0)
        assert_same_vector(
            best_constant_above(ThermalEngine(p), plan, -1.0),
            old_best_constant_above(p, plan, -1.0),
        )

    def test_small_batches(self, monkeypatch):
        # Frontiers wider than BATCH are priced in several solves.
        monkeypatch.setattr(EXS_MODULE, "BATCH", 5)
        p = platform("paper-6x4")
        rng = np.random.default_rng(11)
        for _ in range(3):
            plan = random_plan(p, rng, 0.0)
            for incumbent in (-np.inf, 0.9 * float(plan.target_voltages.sum())):
                check_guard(p, plan, incumbent)
        volts, peak = old_exs_pruned(p)
        result = exs_pruned(p)
        assert np.array_equal(result.schedule.voltage_matrix[0], volts)
        assert result.peak_theta == peak


@st.composite
def guard_inputs(draw):
    name = draw(st.sampled_from(SMALL))
    p = platform(name)
    t_max_c = draw(st.sampled_from([None, 38.0, 48.0, 70.0, 300.0]))
    if t_max_c is not None:
        p = p.with_t_max(t_max_c)
    levels = p.ladder.levels
    core = st.one_of(
        st.just(0.0),
        st.sampled_from(levels),
        st.floats(levels[0], levels[-1]),
    )
    target = np.array(draw(st.lists(core, min_size=p.n_cores, max_size=p.n_cores)))
    plan = plan_modes(p, target)
    kind = draw(st.sampled_from(["-inf", "-1", "ao", "scaled", "tie"]))
    if kind == "-inf":
        incumbent = -np.inf
    elif kind == "-1":
        incumbent = -1.0
    elif kind == "ao":
        incumbent = float(target.sum())
    elif kind == "scaled":
        incumbent = float(target.sum()) * draw(st.floats(0.5, 1.0))
    else:
        best = old_best_constant_above(p, plan, -np.inf)
        total = 0.0 if best is None else float(best.sum())
        incumbent = total - draw(st.sampled_from([0.0, 1e-12, 2e-12, 0.25]))
    return p, plan, incumbent


class TestHypothesisParity:
    @given(guard_inputs())
    def test_best_constant_above(self, args):
        check_guard(*args)

    @given(
        st.sampled_from(SMALL),
        st.lists(st.integers(0, 5), min_size=0, max_size=6, unique=True),
        st.floats(0.0, 8.0),
    )
    def test_search_over_any_active_set(self, name, active, incumbent):
        # The search itself on an arbitrary active subset; a zero floor
        # never beats a non-negative incumbent, so the oracle adds nothing.
        p = platform(name)
        active = np.array([c for c in active if c < p.n_cores], dtype=int)
        target = np.zeros(p.n_cores)
        target[active] = p.ladder.v_max
        plan = plan_modes(p, target)
        volts, _, _ = pruned_lattice_search(p, np.sort(active), incumbent)
        floorless = ModePlan(
            v_low=np.zeros(p.n_cores), v_high=plan.v_high,
            high_ratio=plan.high_ratio, target_voltages=plan.target_voltages,
        )
        assert_same_vector(volts, old_best_constant_above(p, floorless, incumbent))
