"""Every metric the package records is listed in the docs' metric catalogue.

The names are read from the source, not from a running process: every
``METRICS.<kind>(name)`` call under ``src/repro`` whose name is a string
literal must appear in the catalogue table of ``docs/API.md``.  A name
built by an f-string must belong to a known family, whose members are
all listed too.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.runner.runner import TERMINAL_STATUSES

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
API_DOC = ROOT / "docs" / "API.md"

#: Metric names built at run time, by the source text of their f-string.
FAMILIES = {
    'f"runner.units_{status}"': [f"runner.units_{s}" for s in TERMINAL_STATUSES],
}


def _metric_calls():
    """``(path, line, name)`` per ``METRICS.<kind>(...)`` call in the package.

    ``name`` is the literal string, or the f-string's source for a name
    built at run time.
    """
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if not (
                isinstance(node, ast.Call)
                and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "METRICS"
                and node.args
            ):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                yield path, node.lineno, arg.value
            else:
                yield path, node.lineno, ast.unparse(arg).replace("'", '"')


def _catalogue() -> set[str]:
    """The backticked names in the first column of the catalogue table."""
    text = API_DOC.read_text(encoding="utf-8")
    section = text.split("### Metric catalogue", 1)[1].split("\n#", 1)[0]
    names = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            names.add(line.split("`")[1])
    return names


def test_calls_are_found():
    names = {name for _, _, name in _metric_calls()}
    assert "service.cache_hits" in names
    assert 'f"runner.units_{status}"' in names


def test_every_metric_is_documented():
    catalogue = _catalogue()
    missing = []
    for path, line, name in _metric_calls():
        where = f"{path.relative_to(ROOT)}:{line}"
        if name.startswith('f"'):
            if name not in FAMILIES:
                missing.append(f"{where}: run-time name {name} has no family")
                continue
            members = FAMILIES[name]
        else:
            members = [name]
        missing += [f"{where}: {m}" for m in members if m not in catalogue]
    assert not missing, "undocumented metrics:\n" + "\n".join(missing)


@pytest.mark.parametrize("status", TERMINAL_STATUSES)
def test_unit_status_family_is_documented(status):
    assert f"runner.units_{status}" in _catalogue()
