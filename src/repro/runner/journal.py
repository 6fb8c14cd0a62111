"""On-disk run state: the JSONL unit journal and the run manifest.

A run directory holds two files:

``manifest.json``
    Written once when the run starts: experiment metadata, the runner
    configuration, the worker count, a best-effort git SHA, and the
    content hash of the unit set.  ``--resume`` refuses to continue a
    directory whose manifest does not match the units it is asked to run.

``journal.jsonl``
    One JSON object per *finished* unit (success, infeasible, or a
    structured error row), appended and flushed as soon as the unit
    settles.  Solve rows additionally carry the unit's
    :class:`~repro.safety.certificate.SafetyCertificate` under a
    ``"certificate"`` key (the independent peak re-derivation the
    guarded registry path attaches), which ``repro stats`` tallies.  A
    crash or Ctrl-C therefore loses at most the units that were in
    flight; everything journaled is skipped on resume.  A half-written
    trailing line (the process died mid-append) is tolerated and
    ignored by :meth:`Journal.load`.
"""

from __future__ import annotations

import json
import os
import subprocess
from pathlib import Path
from typing import Any

from repro.errors import RunnerError

__all__ = [
    "Journal",
    "MANIFEST_NAME",
    "JOURNAL_NAME",
    "write_manifest",
    "read_manifest",
    "git_sha",
]

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"
MANIFEST_FORMAT = "repro.run-manifest"
MANIFEST_VERSION = 1


def git_sha() -> str | None:
    """Best-effort git commit hash of the working tree (None outside git)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def write_manifest(run_dir: Path, manifest: dict[str, Any]) -> None:
    """Atomically write the run manifest."""
    run_dir.mkdir(parents=True, exist_ok=True)
    doc = {"format": MANIFEST_FORMAT, "version": MANIFEST_VERSION, **manifest}
    tmp = run_dir / (MANIFEST_NAME + ".tmp")
    tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, run_dir / MANIFEST_NAME)


def read_manifest(run_dir: Path) -> dict[str, Any]:
    """Load and validate the manifest of an existing run directory."""
    path = Path(run_dir) / MANIFEST_NAME
    if not path.exists():
        raise RunnerError(f"no run manifest at {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise RunnerError(f"corrupt run manifest at {path}: {exc}") from exc
    if doc.get("format") != MANIFEST_FORMAT:
        raise RunnerError(f"{path} is not a repro run manifest")
    if doc.get("version") != MANIFEST_VERSION:
        raise RunnerError(
            f"unsupported run-manifest version {doc.get('version')!r} at {path}"
        )
    return doc


class Journal:
    """Append-only JSONL journal of finished work units.

    The journal is the source of truth for resume: a unit id present in
    it (with any terminal status) is considered settled.  Rows are
    flushed and fsync'd per append so a hard kill of the parent loses at
    most one partially-written trailing line.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")

    def append(self, row: dict[str, Any]) -> None:
        """Durably append one finished-unit row."""
        self._fh.write(json.dumps(row, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def load(path: Path) -> dict[str, dict[str, Any]]:
        """Read a journal into ``{unit_id: row}`` (last write wins).

        Malformed lines — typically one truncated trailing line after a
        crash — are skipped rather than fatal.
        """
        path = Path(path)
        rows: dict[str, dict[str, Any]] = {}
        if not path.exists():
            return rows
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn write from a killed process
                unit_id = row.get("unit_id")
                if isinstance(unit_id, str):
                    rows[unit_id] = row
        return rows
