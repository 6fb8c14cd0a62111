"""Extension experiment: the technology-scaling / dark-silicon frontier.

The ROADMAP question made executable: *as nodes shrink and thermal
headroom collapses, when does frequency oscillation stop being enough —
when does dark silicon become mandatory?*  For every sweep cell
``(node, scenario, style, stack layers)`` the generated ``tech``
platform (:mod:`repro.scaling`) is attacked two ways:

* **full-chip oscillation** — the paper's contenders (LNS, AO, PCO by
  default) keep every core lit and oscillate around the thermal
  constraint.  Outcomes ride through
  :func:`~repro.algorithms.registry.guarded_solve`, so a cell where even
  all-``v_min`` operation overheats comes back as an honest
  ``feasible=False`` fallback row rather than a crash — feasibility
  flags, not raw throughput, decide the frontier;
* **dark silicon** — the greedy gating policy
  (:func:`~repro.algorithms.dark.dark_silicon_ao`) under utilization
  floors: a floor of 0.5 requires at least half the chip lit, bounding
  ``max_dark``.  With gating allowed down to one core, dark silicon is
  feasible long after full-chip operation dies.

The headline is the **crossover node** per series: the first node (in
shrink order) where full-chip oscillation is thermally infeasible and
cores must be gated dark.  Stacking layers pulls the frontier toward
older nodes — the 3D dark-silicon effect the motivation cites.

Chip speed is also reported in absolute terms: throughput (mean
normalized speed, the ``f = v`` convention) is rescaled by the node's
nominal frequency and vdd — ``chip GHz = thr * n_total / vdd * f_nom`` —
so the frontier table shows what scaling actually buys once thermals
take their cut.

Runner-native: each ``(cell, contender)`` pair is one ``solve_cell``
work unit whose payload carries the full platform-spec document and a
deterministic per-cell seed spawned from the experiment seed via
``numpy.random.SeedSequence`` — the journal doubles as the provenance
record and the result is bitwise reproducible from one integer.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.experiments.reporting import ascii_plot, ascii_table, to_csv
from repro.runner import (
    RunnerConfig,
    RunReport,
    WorkUnit,
    run as run_units,
    solve_cell_unit,
    spawn_seeds,
)
from repro.scaling.tables import TECH_NODES, frequency_ghz, vdd_v

__all__ = [
    "ScalingRow",
    "ScalingResult",
    "scaling_experiment",
    "scaling_units",
]

#: Default oscillation contenders (EXS enumerates ``levels^cores``
#: assignments — opt in via ``approaches`` on small cells only).
DEFAULT_APPROACHES: tuple[str, ...] = ("LNS", "AO", "PCO")

#: Default utilization floors for the dark-silicon policy: 0.0 gates
#: freely (down to one lit core), 0.5 keeps at least half the chip lit.
DEFAULT_UTILIZATION_FLOORS: tuple[float, ...] = (0.0, 0.5)


def _max_dark(n_total: int, floor: float) -> int:
    """Gating budget under a utilization floor (≥ ``floor`` of cores lit)."""
    min_lit = max(1, int(math.ceil(float(floor) * n_total)))
    return max(0, n_total - min_lit)


def scaling_units(
    cells: Sequence[tuple[int, str, str, int]],
    seeds: Sequence[int],
    n_cores: int,
    n_levels: int,
    t_max_c: float,
    approaches: Sequence[str],
    utilization_floors: Sequence[float],
    common_params: dict[str, Any],
) -> list[WorkUnit]:
    """One ``solve_cell`` unit per (cell, contender).

    Payloads carry the platform as a :class:`~repro.platforms.PlatformSpec`
    document plus the cell's spawned seed, so journal rows are
    self-describing and resumable across processes.  ``common_params``
    is filtered per solver by :func:`~repro.runner.solve_cell_unit`.
    """
    from repro.algorithms.registry import get_solver
    from repro.platforms import PlatformSpec

    units: list[WorkUnit] = []
    for (node, scenario, style, layers), cell_seed in zip(cells, seeds):
        spec_doc = PlatformSpec(
            "tech",
            {
                "node": int(node),
                "scenario": str(scenario),
                "style": str(style),
                "n_cores": int(n_cores),
                "n_levels": int(n_levels),
                "stack_layers": int(layers),
                "t_max_c": float(t_max_c),
            },
        ).as_dict()
        tag = f"{node}nm-{scenario}-{style}-L{layers}"
        n_total = int(n_cores) * int(layers)
        for name in approaches:
            name = get_solver(str(name)).name
            units.append(
                solve_cell_unit(
                    {"platform": spec_doc}, name, common_params,
                    f"{name}@{tag}", seed=int(cell_seed),
                )
            )
        for floor in utilization_floors:
            units.append(
                solve_cell_unit(
                    {"platform": spec_doc},
                    "dark",
                    {
                        **common_params,
                        "max_dark": _max_dark(n_total, float(floor)),
                    },
                    f"dark(u>={float(floor):g})@{tag}",
                    seed=int(cell_seed),
                )
            )
    return units


@dataclass(frozen=True)
class ScalingRow:
    """Every contender's outcome on one sweep cell.

    ``oscillation`` maps approach name to an outcome dict
    (``throughput`` / ``feasible`` / ``fallback`` / ``peak_theta``);
    ``dark`` maps the utilization-floor key (``"0"``, ``"0.5"``) to the
    same plus ``gated`` and ``max_dark``.  Infeasible contenders carry
    ``throughput: None``.
    """

    node: int
    scenario: str
    style: str
    layers: int
    seed: int
    frequency_ghz: float
    vdd_v: float
    oscillation: dict[str, dict[str, Any]]
    dark: dict[str, dict[str, Any]]

    @property
    def n_total(self) -> int:
        """Total cores implied by the dark policies' gating budgets."""
        budgets = [d["max_dark"] for d in self.dark.values()]
        return (max(budgets) + 1) if budgets else 0

    @property
    def best_oscillation(self) -> tuple[str, float] | None:
        """``(approach, throughput)`` of the best *feasible* full-chip run."""
        best = None
        for name, out in self.oscillation.items():
            if out["feasible"] and out["throughput"] is not None:
                if best is None or out["throughput"] > best[1]:
                    best = (name, float(out["throughput"]))
        return best

    @property
    def best_dark(self) -> tuple[str, float, int] | None:
        """``(floor_key, throughput, gated)`` of the best feasible policy."""
        best = None
        for key, out in self.dark.items():
            if out["feasible"] and out["throughput"] is not None:
                if best is None or out["throughput"] > best[1]:
                    best = (key, float(out["throughput"]), int(out["gated"]))
        return best

    @property
    def dark_silicon(self) -> bool:
        """Whether full-chip oscillation is thermally infeasible here."""
        return self.best_oscillation is None

    def chip_speed_ghz(self, throughput: float | None) -> float | None:
        """Mean-speed throughput rescaled to absolute chip GHz."""
        if throughput is None:
            return None
        return float(throughput) * self.n_total / self.vdd_v * self.frequency_ghz


@dataclass(frozen=True)
class ScalingResult:
    """Outcome of the technology-scaling sweep."""

    rows: tuple[ScalingRow, ...]
    nodes: tuple[int, ...]
    seed: int
    n_cores: int
    n_levels: int
    t_max_c: float
    report: RunReport | None = field(default=None, compare=False, repr=False)

    def series_keys(self) -> tuple[tuple[str, str, int], ...]:
        """``(scenario, style, layers)`` combinations, in sweep order."""
        keys: list[tuple[str, str, int]] = []
        for row in self.rows:
            key = (row.scenario, row.style, row.layers)
            if key not in keys:
                keys.append(key)
        return tuple(keys)

    def series_rows(self, key: tuple[str, str, int]) -> tuple[ScalingRow, ...]:
        """The series' rows in node order (largest feature size first)."""
        scenario, style, layers = key
        picked = [
            r for r in self.rows
            if (r.scenario, r.style, r.layers) == (scenario, style, layers)
        ]
        return tuple(sorted(picked, key=lambda r: -r.node))

    def crossover_node(self, key: tuple[str, str, int]) -> int | None:
        """First node (shrink order) where dark silicon is mandatory.

        ``None`` when full-chip oscillation stays feasible through the
        whole series.
        """
        for row in self.series_rows(key):
            if row.dark_silicon:
                return row.node
        return None

    @property
    def crossover_nodes(self) -> dict[str, int | None]:
        """Per-series crossover, keyed ``"scenario/style/L<layers>"``."""
        return {
            f"{s}/{st}/L{la}": self.crossover_node((s, st, la))
            for s, st, la in self.series_keys()
        }

    def headline(self) -> dict[str, Any]:
        """The committed JSON claim (bitwise reproducible from ``seed``)."""
        primary = self.series_keys()[0] if self.rows else None
        return {
            "experiment": "scaling",
            "seed": self.seed,
            "n_cores": self.n_cores,
            "n_levels": self.n_levels,
            "t_max_c": self.t_max_c,
            "crossover_node": (
                self.crossover_node(primary) if primary else None
            ),
            "crossover_nodes": self.crossover_nodes,
            "rows": [
                {
                    "node": row.node,
                    "scenario": row.scenario,
                    "style": row.style,
                    "layers": row.layers,
                    "seed": row.seed,
                    "frequency_ghz": row.frequency_ghz,
                    "vdd_v": row.vdd_v,
                    "dark_silicon": row.dark_silicon,
                    "oscillation": row.oscillation,
                    "dark": row.dark,
                }
                for row in self.rows
            ],
        }

    def _table_rows(self) -> list[tuple]:
        out = []
        for row in self.rows:
            osc = row.best_oscillation
            dark = row.best_dark
            winner_thr = osc[1] if osc else (dark[1] if dark else None)
            chip = row.chip_speed_ghz(winner_thr)
            out.append(
                (
                    f"{row.node}nm",
                    row.scenario,
                    row.style,
                    row.layers,
                    row.frequency_ghz,
                    (f"{osc[1]:.4f} ({osc[0]})" if osc else "infeasible"),
                    (f"{dark[1]:.4f}" if dark else "infeasible"),
                    (dark[2] if dark else "-"),
                    (f"{chip:.1f}" if chip is not None else "-"),
                    ("dark" if row.dark_silicon else "oscillation"),
                )
            )
        return out

    def to_csv(self) -> str:
        headers = [
            "node_nm", "scenario", "style", "layers", "frequency_ghz",
            "osc_throughput", "osc_approach", "dark_throughput",
            "dark_gated", "dark_silicon",
        ]
        rows = []
        for row in self.rows:
            osc = row.best_oscillation
            dark = row.best_dark
            rows.append(
                (
                    row.node, row.scenario, row.style, row.layers,
                    row.frequency_ghz,
                    osc[1] if osc else "", osc[0] if osc else "",
                    dark[1] if dark else "", dark[2] if dark else "",
                    int(row.dark_silicon),
                )
            )
        return to_csv(headers, rows)

    def format(self) -> str:
        table = ascii_table(
            [
                "node", "scenario", "style", "layers", "f (GHz)",
                "oscillation thr", "dark thr", "gated", "chip GHz",
                "regime",
            ],
            self._table_rows(),
            title=(
                "Technology scaling vs dark silicon — full-chip "
                "oscillation against gated operation "
                f"({self.n_cores} cores/layer, T_max {self.t_max_c:g} C)"
            ),
        )
        lines = [table]
        primary = self.series_keys()[0] if self.rows else None
        if primary is not None:
            rows = self.series_rows(primary)
            xs = [float(r.node) for r in rows]
            osc_chip = [
                (r.chip_speed_ghz(r.best_oscillation[1])
                 if r.best_oscillation else 0.0)
                for r in rows
            ]
            dark_chip = [
                (r.chip_speed_ghz(r.best_dark[1]) if r.best_dark else 0.0)
                for r in rows
            ]
            scenario, style, layers = primary
            lines += [
                "",
                ascii_plot(
                    xs,
                    {"oscillation (full chip)": osc_chip,
                     "dark (best policy)": dark_chip},
                    title=(
                        f"chip speed vs node — {scenario}/{style}, "
                        f"{layers} layer(s); 0 = thermally infeasible"
                    ),
                    y_label="chip GHz (throughput x n_cores x f_nom / vdd)",
                ),
            ]
        for key, node in self.crossover_nodes.items():
            lines.append(
                f"{key}: dark silicon mandatory from {node} nm"
                if node is not None
                else f"{key}: full-chip oscillation feasible at every node"
            )
        return "\n".join(lines)


def _contender_outcome(report: RunReport, unit: WorkUnit) -> dict[str, Any]:
    """One journal row -> the outcome dict a :class:`ScalingRow` stores."""
    status, result = report.outcome(unit, accept=("ok", "infeasible"))
    if status == "infeasible":
        return {
            "throughput": None,
            "feasible": False,
            "peak_theta": None,
            "fallback": None,
            "detail": report.records[unit.unit_id].get("detail"),
        }
    fallback = (result.details or {}).get("fallback")
    out: dict[str, Any] = {
        "throughput": float(result.throughput),
        "feasible": bool(result.feasible),
        "peak_theta": float(result.peak_theta),
        "fallback": str(fallback["hop"]) if fallback else None,
    }
    dark_cores = (result.details or {}).get("dark_cores")
    if dark_cores is not None:
        out["gated"] = len(dark_cores)
    return out


def scaling_experiment(
    nodes: Sequence[int] = TECH_NODES,
    scenarios: Sequence[str] = ("itrs", "cons"),
    styles: Sequence[str] = ("io",),
    layer_counts: Sequence[int] = (1, 2),
    n_cores: int = 9,
    n_levels: int = 4,
    t_max_c: float = 55.0,
    approaches: Sequence[str] = DEFAULT_APPROACHES,
    utilization_floors: Sequence[float] = DEFAULT_UTILIZATION_FLOORS,
    m_cap: int = 16,
    seed: int = 2016,
    runner: RunnerConfig | None = None,
    run_dir: str | os.PathLike | None = None,
    resume: bool = False,
    progress: Callable | None = None,
) -> ScalingResult:
    """Sweep generated platforms across nodes for the dark-silicon frontier.

    Parameters
    ----------
    nodes, scenarios, styles, layer_counts:
        The sweep axes (see :mod:`repro.scaling.tables`); every
        combination is one cell.
    approaches:
        Full-chip oscillation contenders (registry names).  ``EXS`` is
        valid but exhaustive — opt in only on small cells.
    utilization_floors:
        Dark-silicon policies: each floor ``u`` requires at least
        ``u * n_total`` cores lit and becomes one ``dark`` run with the
        matching ``max_dark`` budget.
    m_cap:
        Oscillation-count cap shared by every contender that takes it.
    seed:
        Master seed; per-cell seeds are spawned from it
        (:func:`~repro.runner.spawn_seeds`) and ride
        in the unit payloads, so journals are self-describing and the
        result is a pure function of this integer.
    """
    cells = [
        (int(node), str(scenario), str(style), int(layers))
        for scenario in scenarios
        for style in styles
        for layers in layer_counts
        for node in nodes
    ]
    seeds = spawn_seeds(int(seed), len(cells))
    units = scaling_units(
        cells, seeds, n_cores, n_levels, t_max_c,
        approaches, utilization_floors, {"m_cap": int(m_cap)},
    )
    report = run_units(
        units,
        config=runner,
        run_dir=run_dir,
        resume=resume,
        progress=progress,
        manifest_extra={
            "experiment": "scaling",
            "seed": int(seed),
            "cell_seeds": list(seeds),
            "nodes": [int(n) for n in nodes],
            "scenarios": [str(s) for s in scenarios],
            "styles": [str(s) for s in styles],
            "layer_counts": [int(la) for la in layer_counts],
            "utilization_floors": [float(u) for u in utilization_floors],
        },
    )

    n_contenders = len(tuple(approaches)) + len(tuple(utilization_floors))
    rows: list[ScalingRow] = []
    for i, ((node, scenario, style, layers), cell_seed) in enumerate(
        zip(cells, seeds)
    ):
        cell_units = units[i * n_contenders:(i + 1) * n_contenders]
        oscillation: dict[str, dict[str, Any]] = {}
        dark: dict[str, dict[str, Any]] = {}
        for unit, name in zip(cell_units, approaches):
            oscillation[str(name)] = _contender_outcome(report, unit)
        for unit, floor in zip(
            cell_units[len(tuple(approaches)):], utilization_floors
        ):
            out = _contender_outcome(report, unit)
            out.setdefault("gated", None)
            out["max_dark"] = _max_dark(int(n_cores) * int(layers), float(floor))
            dark[f"{float(floor):g}"] = out
        rows.append(
            ScalingRow(
                node=node,
                scenario=scenario,
                style=style,
                layers=layers,
                seed=int(cell_seed),
                frequency_ghz=frequency_ghz(node, scenario, style),
                vdd_v=vdd_v(node, scenario),
                oscillation=oscillation,
                dark=dark,
            )
        )
    return ScalingResult(
        rows=tuple(rows),
        nodes=tuple(int(n) for n in nodes),
        seed=int(seed),
        n_cores=int(n_cores),
        n_levels=int(n_levels),
        t_max_c=float(t_max_c),
        report=report,
    )
