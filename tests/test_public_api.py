"""Freezes the public API surface and the obs layering rule.

``repro.__all__`` is the supported API: names and call signatures in it
may not change within a major version.  These tests snapshot both, so an
accidental rename, removal, or parameter reshuffle fails CI instead of
silently breaking downstream users.  Additions are deliberate: extending
the snapshot here is the act of publishing a new name.
"""

import ast
import inspect
from pathlib import Path

import repro

SRC_OBS = Path(__file__).resolve().parents[1] / "src" / "repro" / "obs"
SRC_SCALING = Path(__file__).resolve().parents[1] / "src" / "repro" / "scaling"
SRC_REALTIME = (
    Path(__file__).resolve().parents[1] / "src" / "repro" / "realtime"
)

#: The frozen surface.  Edit ONLY when deliberately publishing/retiring
#: a public name (and say so in the changelog).
PUBLIC_SURFACE = sorted([
    "Platform",
    "paper_platform",
    "platform_3d",
    "PlatformSpec",
    "platform_names",
    "load_platform",
    "evaluate",
    "EvaluationResult",
    "ThermalEngine",
    "EngineStats",
    "engine_entrypoint",
    "span",
    "capture_spans",
    "METRICS",
    "SchedulerResult",
    "SolverSpec",
    "SOLVERS",
    "get_solver",
    "solve",
    "guarded_solve",
    "SafetyCertificate",
    "certify",
    "FaultSpec",
    "ao",
    "pco",
    "exs",
    "exs_pruned",
    "lns",
    "continuous_assignment",
    "integral_controller",
    "dark_silicon_ao",
    "PowerModel",
    "TransitionOverhead",
    "VoltageLadder",
    "paper_ladder",
    "PeriodicSchedule",
    "m_oscillate",
    "step_up",
    "throughput",
    "ThermalModel",
    "peak_temperature",
    "stepup_peak_temperature",
    "Floorplan",
    "grid_floorplan",
    "paper_floorplan",
    "minimize_peak",
    "TaskSet",
    "schedule_taskset",
    "RTTask",
    "plan_frames",
    "simulate_recovery",
    "cosimulate",
    "run_experiment",
    "ReproError",
    "SchedulerSession",
    "ScheduleCache",
    "default_session",
    "__version__",
])


class TestFrozenSurface:
    def test_all_matches_snapshot(self):
        assert sorted(repro.__all__) == PUBLIC_SURFACE

    def test_every_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def _params(self, func):
        return list(inspect.signature(func).parameters)

    def test_solve_signature(self):
        assert self._params(repro.solve)[:2] == ["name", "platform"]

    def test_evaluate_signature(self):
        assert self._params(repro.evaluate) == [
            "platform", "schedule", "general", "grid_per_interval",
        ]

    def test_periodic_schedule_signature(self):
        assert self._params(repro.PeriodicSchedule) == ["lengths", "voltage_matrix"]

    def test_load_platform_signature(self):
        assert self._params(repro.load_platform) == ["spec", "overrides"]

    def test_paper_platform_leading_params(self):
        assert self._params(repro.paper_platform)[:4] == [
            "n_cores", "n_levels", "t_max_c", "t_ambient_c",
        ]

    def test_plan_frames_signature(self):
        assert self._params(repro.plan_frames) == [
            "platform", "workload", "k", "policy",
        ]

    def test_simulate_recovery_signature(self):
        assert self._params(repro.simulate_recovery) == [
            "platform", "placement", "faults", "n_frames", "steps_per_frame",
        ]

    def test_throughput_signature(self):
        assert self._params(repro.throughput) == ["schedule"]

    def test_solver_entry_points_take_engine_first(self):
        """The union collapse: every solver entry point is engine-first
        (the decorator coerces a bare Platform at the boundary)."""
        for func in (repro.ao, repro.pco, repro.lns, repro.exs,
                     repro.exs_pruned, repro.dark_silicon_ao,
                     repro.minimize_peak):
            first = self._params(func)[0]
            assert first in ("platform", "engine"), func

    def test_solvers_accept_platform_and_engine(self):
        platform = repro.load_platform("paper", n_cores=2, n_levels=2)
        engine = repro.ThermalEngine(platform)
        a = repro.lns(platform)
        b = repro.lns(engine)
        assert a.throughput == b.throughput


class TestObsLayering:
    """repro.obs must sit below the solver and experiment layers.

    Mirrors the ruff TID ban (pyproject.toml) so the rule holds even
    where ruff isn't installed — and covers dynamic imports too.
    """

    BANNED_PREFIXES = ("repro.algorithms", "repro.experiments")

    def _imported_modules(self, tree: ast.AST):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                yield node.module

    def test_obs_never_imports_upper_layers(self):
        offenders = []
        for path in sorted(SRC_OBS.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for module in self._imported_modules(tree):
                if module.startswith(self.BANNED_PREFIXES):
                    offenders.append(f"{path.name}: {module}")
        assert not offenders, (
            "repro.obs must not import solver/experiment layers: "
            + ", ".join(offenders)
        )

    def test_obs_imports_standalone(self):
        """repro.obs must import cleanly without the upper layers.

        ``repro/__init__`` is lazy, so ``import repro.obs`` in a fresh
        interpreter executes only the package stub and obs's own imports,
        which must not touch repro.algorithms / repro.experiments.
        """
        import subprocess
        import sys

        code = (
            "import sys; "
            "import repro.obs; "
            "bad = [m for m in sys.modules "
            "if m.startswith(('repro.algorithms', 'repro.experiments'))]; "
            "assert not bad, bad"
        )
        src_dir = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": src_dir, "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr


class TestRealtimeLayering:
    """repro.realtime sits below the solver and experiment layers.

    The ``realtime`` experiment and the runner's ``realtime_cell``
    executor import the scheduler, never the other way round; mirrors
    the ruff TID ban (pyproject.toml) so the rule holds even where ruff
    isn't installed.
    """

    BANNED_PREFIXES = ("repro.algorithms", "repro.experiments")

    def test_realtime_never_imports_upper_layers(self):
        offenders = []
        for path in sorted(SRC_REALTIME.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                modules = []
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    modules = [node.module]
                for module in modules:
                    if module.startswith(self.BANNED_PREFIXES):
                        offenders.append(f"{path.name}: {module}")
        assert not offenders, (
            "repro.realtime must not import solver/experiment layers: "
            + ", ".join(offenders)
        )


class TestScalingLayering:
    """repro.scaling is a platform *generator*, below solvers/experiments.

    The ``scaling`` experiment imports the generator, never the other way
    round; mirrors the ruff TID ban (pyproject.toml) so the rule holds
    even where ruff isn't installed.
    """

    BANNED_PREFIXES = ("repro.algorithms", "repro.experiments")

    def test_scaling_never_imports_upper_layers(self):
        offenders = []
        for path in sorted(SRC_SCALING.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                modules = []
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    modules = [node.module]
                for module in modules:
                    if module.startswith(self.BANNED_PREFIXES):
                        offenders.append(f"{path.name}: {module}")
        assert not offenders, (
            "repro.scaling must not import solver/experiment layers: "
            + ", ".join(offenders)
        )
