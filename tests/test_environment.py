"""The package reads no environment variable.

Nothing under ``src/repro`` names ``os.environ``, ``os.getenv`` or a
``REPRO_*`` variable, so a process behaves the same whatever its
environment holds, and the ``Environment`` section of ``docs/API.md``
lists no variable.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENV_READ = re.compile(r"environ|getenv|REPRO_")


def _source_hits() -> list[str]:
    hits = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, 1):
            if ENV_READ.search(line):
                hits.append(f"{path.relative_to(ROOT)}:{lineno}: {line.strip()}")
    return hits


def _documented_rows() -> list[str]:
    text = (ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    section = text.split("\n## Environment\n", 1)[1].split("\n## ", 1)[0]
    return [line for line in section.splitlines() if line.startswith("| `")]


def test_environment_table_matches_source():
    assert _source_hits() == []
    assert _documented_rows() == []
