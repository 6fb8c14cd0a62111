"""Experiment registry: artifact id -> :class:`ExperimentSpec`.

Each entry regenerates one table or figure of the paper (or an aggregate
claim) and carries its metadata — a one-line description for ``repro
list`` and the scale-reduced ``--quick`` parameter preset that used to
live in the CLI.  ``run_experiment(id, **kwargs)`` forwards keyword
arguments to the experiment function — every experiment accepts
scale-reducing parameters (see each module's docstring).
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from repro.experiments.comparison import comparison
from repro.experiments.control import control_experiment
from repro.experiments.faults import faults_experiment
from repro.experiments.fig2 import fig2
from repro.experiments.fig3 import fig3
from repro.experiments.fig4 import fig4
from repro.experiments.fig5 import fig5
from repro.experiments.fig6 import fig6
from repro.experiments.fig7 import fig7
from repro.experiments.headline import headline
from repro.experiments.motivation import table2, table3
from repro.experiments.realtime import realtime_experiment
from repro.experiments.scaling import scaling_experiment
from repro.experiments.table5 import table5
from repro.experiments.tsp_comparison import tsp_comparison
from repro.experiments.reactive_comparison import reactive_comparison
from repro.obs import span

__all__ = ["ExperimentSpec", "EXPERIMENTS", "get_experiment", "run_experiment"]


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered paper artifact.

    Attributes
    ----------
    name:
        The artifact id (``fig6``, ``table5``, ...).
    run:
        The experiment function; keyword arguments scale it.
    description:
        One-line summary for ``repro list``.
    quick:
        Keyword overrides for a seconds-scale smoke run (``--quick``).
    """

    name: str
    run: Callable
    description: str
    quick: Mapping[str, object] = field(default_factory=dict)

    @property
    def accepts_runner(self) -> bool:
        """Whether ``run`` takes the sharded-runner keyword arguments.

        Those are ``runner``, ``run_dir``, ``resume`` and ``progress``;
        the CLI's ``--parallel`` / ``--timeout`` / ``--retries`` /
        ``--run-dir`` / ``--resume`` flags apply only then.
        """
        return "runner" in inspect.signature(self.run).parameters


#: All registered experiments, keyed by artifact id.
EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in (
        ExperimentSpec(
            name="table2",
            run=table2,
            description="motivation: constant vs oscillating peak (Table II)",
        ),
        ExperimentSpec(
            name="table3",
            run=table3,
            description="motivation: oscillation period sweep (Table III)",
            quick={"periods": (0.020, 0.010)},
        ),
        ExperimentSpec(
            name="fig2",
            run=fig2,
            description="motivation: constant-assignment temperature traces",
        ),
        ExperimentSpec(
            name="fig3",
            run=fig3,
            description="motivation: oscillating-schedule temperature traces",
            quick={"step": 1.0, "grid_per_interval": 24},
        ),
        ExperimentSpec(
            name="fig4",
            run=fig4,
            description="stable-status convergence of the periodic schedule",
            quick={"warmup_periods": 4, "samples_per_interval": 8},
        ),
        ExperimentSpec(
            name="fig5",
            run=fig5,
            description="peak temperature vs oscillation count m",
            quick={"m_max": 5},
        ),
        ExperimentSpec(
            name="fig6",
            run=fig6,
            description="throughput comparison over cores x ladder levels",
            quick={"core_counts": (2, 3), "level_counts": (2, 3), "m_cap": 16},
        ),
        ExperimentSpec(
            name="fig7",
            run=fig7,
            description="throughput comparison over cores x T_max",
            quick={
                "core_counts": (2, 3),
                "t_max_values": (55.0, 65.0),
                "m_cap": 16,
            },
        ),
        ExperimentSpec(
            name="table5",
            run=table5,
            description="algorithm wall-clock cost comparison (Table V)",
            quick={"core_counts": (2, 3), "level_counts": (2, 3), "m_cap": 16},
        ),
        ExperimentSpec(
            name="headline",
            run=headline,
            description="aggregate AO-vs-EXS improvement claim",
            quick={
                "core_counts": (2, 3),
                "level_counts": (2, 3),
                "t_max_values": (55.0, 65.0),
                "m_cap": 16,
            },
        ),
        ExperimentSpec(
            name="comparison",
            run=comparison,
            description="bare AO/PCO/EXS/LNS sweep (sharded-runner native)",
            quick={
                "core_counts": (2, 3),
                "level_counts": (2,),
                "t_max_values": (55.0,),
                "approaches": ("LNS", "EXS", "AO"),
                "m_cap": 16,
            },
        ),
        ExperimentSpec(
            name="tsp",
            run=tsp_comparison,
            description="AO vs thermal-safe-power budgets",
            quick={"core_counts": (2, 3), "m_cap": 16},
        ),
        ExperimentSpec(
            name="reactive",
            run=reactive_comparison,
            description="AO vs reactive DTM guard-band sweep",
            quick={"guard_bands": (0.0, 3.0), "m_cap": 16},
        ),
        ExperimentSpec(
            name="faults",
            run=faults_experiment,
            description="fault injection: reactive loop vs AO certificate",
            quick={
                "n_cores": 2,
                "scenarios": (
                    ("clean", {}),
                    ("noise + dropout", {
                        "sensor_noise_sigma": 0.5,
                        "sensor_dropout_prob": 0.3,
                    }),
                    ("ambient +2 K", {"ambient_drift_k": 2.0}),
                ),
                "m_cap": 16,
            },
        ),
        ExperimentSpec(
            name="scaling",
            run=scaling_experiment,
            description="technology-scaling dark-silicon frontier "
            "(generated tech platforms, 45-8 nm)",
            quick={
                "nodes": (45, 16),
                "scenarios": ("itrs",),
                "styles": ("io", "o3"),
                "layer_counts": (1,),
                "approaches": ("AO",),
                "utilization_floors": (0.0,),
                "n_cores": 4,
                "n_levels": 3,
                "m_cap": 16,
            },
        ),
        ExperimentSpec(
            name="realtime",
            run=realtime_experiment,
            description="k-fault-tolerant real-time frames: margin-aware "
            "vs thermally-blind backup placement",
            quick={
                "k_values": (1,),
                "intensities": (1,),
                "utilizations": (0.9,),
                "n_sets": 2,
                "n_frames": 4,
                "steps_per_frame": 4,
            },
        ),
        ExperimentSpec(
            name="control",
            run=control_experiment,
            description="integral controller vs reactive vs certified AO "
            "under sensor faults",
            quick={
                "intensities": (0.0, 1.0),
                "horizon": 0.2,
                "m_cap": 16,
            },
        ),
    )
}


def get_experiment(name: str) -> Callable:
    """Look an experiment's run function up by id.

    Raises
    ------
    KeyError
        With the list of known ids when the name is unknown.
    """
    try:
        return EXPERIMENTS[name].run
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}"
        ) from None


def run_experiment(name: str, quick: bool = False, **kwargs):
    """Run an experiment by id and return its result object.

    With ``quick`` the spec's scale-reduced preset is applied first;
    explicit ``kwargs`` override preset entries.
    """
    spec = EXPERIMENTS.get(name)
    if spec is None:
        raise KeyError(
            f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}"
        )
    merged = {**spec.quick, **kwargs} if quick else kwargs
    with span(f"experiment/{name}", quick=bool(quick)):
        return spec.run(**merged)
