"""Aggregation and human-readable reporting over recorded spans.

Two consumers:

* ``repro stats <run-dir>`` — summarize a (possibly resumed) sharded run
  from its journal: unit statuses, run-level
  :class:`~repro.engine.EngineStats`, and a per-span-name wall-time
  table aggregated over every unit's serialized spans
  (:func:`run_dir_summary`).
* trace-file post-processing — :func:`aggregate_spans` works on any
  iterable of span dicts (e.g. :meth:`repro.obs.sinks.JsonlSink.load`).

Imports of the heavier layers (:mod:`repro.engine`,
:mod:`repro.runner.journal`) are deferred into the functions that need
them so importing :mod:`repro.obs` stays dependency-free — the package
is banned from importing :mod:`repro.algorithms` / :mod:`repro.experiments`
entirely (enforced by ruff's TID rules and a layering test).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

__all__ = ["SpanAggregate", "aggregate_spans", "format_span_table", "run_dir_summary"]


@dataclass
class SpanAggregate:
    """Per-name rollup of many spans."""

    name: str
    count: int = 0
    total_s: float = 0.0
    min_s: float = float("inf")
    max_s: float = 0.0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def add(self, duration_s: float) -> None:
        self.count += 1
        self.total_s += duration_s
        self.min_s = min(self.min_s, duration_s)
        self.max_s = max(self.max_s, duration_s)


def aggregate_spans(
    span_docs: Iterable[Mapping[str, Any]],
) -> dict[str, SpanAggregate]:
    """Roll span dicts up by name (count, total/mean/min/max seconds)."""
    agg: dict[str, SpanAggregate] = {}
    for doc in span_docs:
        name = str(doc.get("name", ""))
        if not name:
            continue
        entry = agg.get(name)
        if entry is None:
            entry = agg[name] = SpanAggregate(name=name)
        entry.add(float(doc.get("duration_s", 0.0)))
    return agg


def format_span_table(agg: Mapping[str, SpanAggregate], title: str = "spans") -> str:
    """Fixed-width table of span rollups, widest total first."""
    if not agg:
        return f"{title}: none recorded"
    entries = sorted(agg.values(), key=lambda e: -e.total_s)
    width = max(len(e.name) for e in entries)
    width = max(width, 4)
    lines = [
        f"{title}:",
        f"  {'name':<{width}s} {'count':>7s} {'total ms':>10s} "
        f"{'mean ms':>9s} {'max ms':>9s}",
    ]
    for e in entries:
        lines.append(
            f"  {e.name:<{width}s} {e.count:>7d} {e.total_s * 1e3:>10.1f} "
            f"{e.mean_s * 1e3:>9.2f} {e.max_s * 1e3:>9.2f}"
        )
    return "\n".join(lines)


@dataclass
class RunDirSummary:
    """Everything ``repro stats`` prints about one run directory."""

    run_dir: str
    manifest: dict[str, Any]
    n_rows: int
    status_counts: dict[str, int]
    stats: Any  # repro.engine.EngineStats (typed loosely to keep obs light)
    span_agg: dict[str, SpanAggregate] = field(default_factory=dict)
    certificates_accepted: int = 0
    certificates_rejected: int = 0
    fallback_units: int = 0
    min_certified_margin: float | None = None
    #: The ``service_metrics`` row a ``repro serve --run-dir`` journal
    #: closes with (session/cache/coalescer counters); ``None`` for
    #: ordinary sweeps.
    service: dict[str, Any] | None = None

    @property
    def ratio_skipped_cells(self) -> int:
        """Units whose rows ratio summaries will drop as non-finite.

        Mirrors the ``comparison.ratio_cells_skipped`` obs counter the
        experiment layer increments in-process: any journaled unit that
        did not settle ``ok`` leaves a NaN in the comparison ratios.
        """
        return sum(
            n for s, n in self.status_counts.items() if s != "ok"
        )

    def format(self) -> str:
        created = self.manifest.get("created_at", "?")
        declared = self.manifest.get("n_units", "?")
        statuses = ", ".join(
            f"{n} {s}" for s, n in sorted(self.status_counts.items())
        ) or "none settled"
        lines = [
            f"run {self.run_dir}",
            f"  created {created}, {declared} unit(s) declared, "
            f"{self.n_rows} journaled ({statuses})",
        ]
        if self.certificates_accepted or self.certificates_rejected:
            cert_line = (
                f"  certificates: {self.certificates_accepted} accepted, "
                f"{self.certificates_rejected} rejected, "
                f"{self.fallback_units} unit(s) via fallback chain"
            )
            if self.min_certified_margin is not None:
                cert_line += (
                    f" (tightest margin {self.min_certified_margin:+.3f} K)"
                )
            lines.append(cert_line)
        if self.ratio_skipped_cells:
            lines.append(
                f"  ratio summaries skip {self.ratio_skipped_cells} "
                "non-ok unit(s) (counted, not silent)"
            )
        if self.service is not None:
            session = self.service.get("session") or {}
            cache = session.get("cache") or {}
            coalescer = self.service.get("coalescer") or {}
            lines.append(
                f"  service: {self.service.get('served', 0)} request(s) "
                f"served, {self.service.get('failed', 0)} failed, "
                f"{session.get('engines_built', 0)} engine(s) built; "
                f"schedule cache {cache.get('memory_hits', 0)} hit(s), "
                f"{cache.get('misses', 0)} miss(es)"
            )
            lines.append(
                f"  coalescing: "
                f"{coalescer.get('coalesced_batches', 0)} batched grid "
                f"call(s) covering "
                f"{coalescer.get('coalesced_requests', 0)} request(s), "
                f"largest batch {coalescer.get('largest_batch', 0)}"
            )
        lines += [
            self.stats.format(),
            format_span_table(self.span_agg, title="unit spans"),
        ]
        return "\n".join(lines)


def run_dir_summary(run_dir: str | os.PathLike) -> RunDirSummary:
    """Summarize a run directory from its manifest and journal.

    Aggregates correctly across resumed runs: the journal is the source
    of truth (last row per unit wins), so spans and stats from units
    finished before an interruption count exactly once.
    """
    from pathlib import Path

    from repro.engine import EngineStats
    from repro.runner.journal import JOURNAL_NAME, Journal, read_manifest

    run_dir = Path(run_dir)
    manifest = read_manifest(run_dir)
    rows = Journal.load(run_dir / JOURNAL_NAME)

    status_counts: dict[str, int] = {}
    span_docs: list[Mapping[str, Any]] = []
    accepted = rejected = fallbacks = 0
    min_margin: float | None = None
    service: dict[str, Any] | None = None
    for row in rows.values():
        if row.get("kind") == "service_metrics":
            # The closing counters row of a serve journal — metadata,
            # not a served unit; keep it out of the status tallies.
            service = dict(row.get("service") or {})
            continue
        status = str(row.get("status", "?"))
        status_counts[status] = status_counts.get(status, 0) + 1
        if row.get("fallback"):
            # Serve journals flag fallback outcomes directly (their rows
            # carry no result document).
            fallbacks += 1
        cert = row.get("certificate")
        if cert:
            if cert.get("accepted", False):
                accepted += 1
            else:
                rejected += 1
            margin = cert.get("margin")
            if margin is not None:
                margin = float(margin)
                min_margin = (
                    margin if min_margin is None else min(min_margin, margin)
                )
        result_doc = row.get("result")
        if result_doc and (result_doc.get("details") or {}).get("fallback"):
            fallbacks += 1
        for doc in row.get("spans") or ():
            span_docs.append(doc)

    return RunDirSummary(
        run_dir=str(run_dir),
        manifest=manifest,
        n_rows=len(rows),
        status_counts=status_counts,
        stats=EngineStats.sum(
            EngineStats.from_dict(row["stats"])
            for row in rows.values()
            if row.get("stats")
        ),
        span_agg=aggregate_spans(span_docs),
        certificates_accepted=accepted,
        certificates_rejected=rejected,
        fallback_units=fallbacks,
        min_certified_margin=min_margin,
        service=service,
    )
