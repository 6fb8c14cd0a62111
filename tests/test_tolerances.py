"""Every decision tolerance of the solver and thermal code is named.

``repro.tolerances`` holds one constant per concept (feasibility slack,
improvement margin, voltage equality, ...).  The first case fails when a
bare ``1e-N`` literal (6 <= N <= 15) appears in the solver, thermal,
safety, schedule, power, service, real-time or workload code (or the
closed-loop simulator, TSP and linear-algebra helpers) instead, so a
copy of a tolerance cannot drift from the named value.  Comments and docstrings
are not ``NUMBER`` tokens and do not count.  ``thermal/reference.py``
(the LSODA oracle, whose ``rtol``/``atol`` are integrator settings) is
exempt.  The second case keeps the *Tolerances* table of
``docs/API.md`` in step with the module, in the style of
``tests/test_environment.py``.  The scan itself imports nothing from
the package.
"""

import importlib
import re
import tokenize
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
SCOPE_DIRS = (
    "algorithms", "thermal", "safety", "schedule", "power", "service",
    "realtime", "workload",
)
SCOPE_FILES = (
    "api.py", "engine.py", "platform.py",
    "sim/engine.py", "analysis/tsp.py", "util/linalg.py",
)
EXEMPT = {PACKAGE / "thermal" / "reference.py"}
TOLERANCE_LITERAL = re.compile(r"^1(?:\.0*)?e-(\d+)$", re.IGNORECASE)


def _scoped_files() -> list[Path]:
    files = [p for d in SCOPE_DIRS for p in sorted((PACKAGE / d).rglob("*.py"))]
    files += [PACKAGE / name for name in SCOPE_FILES]
    return [p for p in files if p not in EXEMPT]


def _bare_tolerances(path: Path) -> list[str]:
    found = []
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type != tokenize.NUMBER:
                continue
            match = TOLERANCE_LITERAL.match(tok.string)
            if match and 6 <= int(match.group(1)) <= 15:
                rel = path.relative_to(PACKAGE)
                found.append(f"{rel}:{tok.start[0]}: {tok.string}")
    return found


def _documented_rows() -> dict[str, str]:
    text = (ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    section = text.split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) >= 2:
            rows[cells[0].strip("`")] = cells[1].strip("`")
    return rows


def _tolerances():
    return importlib.import_module("repro.tolerances")


def test_no_bare_tolerance_literals():
    found = [hit for path in _scoped_files() for hit in _bare_tolerances(path)]
    files = {hit.split(":")[0] for hit in found}
    assert not found, (
        f"{len(found)} bare tolerance literals in {len(files)} files; name them "
        "in repro/tolerances.py and import them:\n" + "\n".join(found)
    )


def test_tolerance_table_matches_module():
    tolerances = _tolerances()
    rows = _documented_rows()
    assert set(rows) == {name for name in vars(tolerances) if name.isupper()}
    for name, value in rows.items():
        assert float(value) == getattr(tolerances, name), name


def test_within_threshold_on_scalars_and_arrays():
    from repro.tolerances import FEASIBILITY_SLACK, within_threshold

    theta_max = 30.0
    assert within_threshold(theta_max + FEASIBILITY_SLACK, theta_max)
    assert not within_threshold(theta_max + 2 * FEASIBILITY_SLACK, theta_max)
    peaks = np.array([29.0, theta_max, theta_max + 1e-6])
    assert within_threshold(peaks, theta_max).tolist() == [True, True, False]


def test_public_names_re_export_the_named_values():
    tolerances = _tolerances()
    # ``repro.algorithms.exs`` the attribute is the solver function.
    exs = importlib.import_module("repro.algorithms.exs")
    from repro.safety import certificate
    from repro.schedule import periodic

    assert periodic.MIN_INTERVAL is tolerances.MIN_INTERVAL
    assert certificate.THROUGHPUT_SLACK is tolerances.THROUGHPUT_SLACK
    assert exs.BAND_FLOOR is tolerances.BAND_FLOOR
    assert exs.TIE is tolerances.TIE
