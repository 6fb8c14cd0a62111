"""Every environment variable the package reads is documented.

The ``Environment`` table in ``docs/API.md`` is the catalogue of
``REPRO_*`` variables; this test fails when a variable is read under
``src/repro`` without a row there, or a row outlives its variable.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENV_NAME = re.compile(r"REPRO_[A-Z_]+")


def _source_names() -> set[str]:
    names: set[str] = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        names.update(ENV_NAME.findall(path.read_text(encoding="utf-8")))
    return names


def _documented_names() -> set[str]:
    text = (ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    section = text.split("\n## Environment\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    return {name for row in rows for name in ENV_NAME.findall(row)}


def test_environment_table_matches_source():
    assert _documented_names() == _source_names()
