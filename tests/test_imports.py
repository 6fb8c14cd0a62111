"""Import graph of the entry points: what each loads, and when.

``import repro`` is lazy (PEP 562), the request path needs neither
``scipy.optimize`` nor ``scipy.integrate``, and every entry point imports
the modules its first request runs before it reports ready, so no import
lands inside a timed request.  Each check runs in a fresh interpreter:
the test process has long since imported everything.  Nothing here is
timed.

``TestBannedApi`` mirrors the ruff ``flake8-tidy-imports.banned-api``
rule (pyproject.toml) and ``TestUnusedImports`` its F401 rule, so both
hold where ruff isn't installed.
"""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC_DIR = ROOT / "src"
SRC_REPRO = SRC_DIR / "repro"

#: Loaded only by the calibration fit and the LSODA reference oracle.
OFF_PATH = ("scipy.optimize", "scipy.integrate")


def _modules_after(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON document."""
    prelude = (
        "import json, sys\n"
        "def loaded(prefixes):\n"
        "    return sorted(m for m in sys.modules if m.startswith(prefixes))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", prelude + code],
        env={"PYTHONPATH": str(SRC_DIR), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _is_under(module: str, prefixes) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


class TestLazyPackage:
    def test_import_repro_loads_no_submodule(self):
        doc = _modules_after(
            "import repro\n"
            "print(json.dumps({'repro': loaded('repro'), 'scipy': loaded('scipy')}))"
        )
        assert doc["repro"] == ["repro"]
        assert doc["scipy"] == []

    def test_star_import_binds_exactly_all(self):
        doc = _modules_after(
            "before = set(globals())\n"
            "from repro import *\n"
            "import repro\n"
            "bound = sorted(set(globals()) - before - {'before', 'repro'})\n"
            "print(json.dumps({'bound': bound, 'all': sorted(repro.__all__),"
            " 'dir': sorted(dir(repro))}))"
        )
        assert doc["bound"] == doc["all"]
        assert set(doc["all"]) <= set(doc["dir"])
        assert {"__name__", "__doc__", "__file__", "__path__"} <= set(doc["dir"])

    def test_unknown_attribute_raises(self):
        import repro

        with pytest.raises(AttributeError):
            getattr(repro, "no_such_name")
        assert not hasattr(repro, "no_such_name")


def _first_imports() -> list[str]:
    """Every ``repro`` subpackage and every module ``repro._EXPORTS`` names."""
    import repro

    subpackages = {f"repro.{p.parent.name}" for p in SRC_REPRO.glob("*/__init__.py")}
    return sorted(subpackages | set(repro._EXPORTS.values()))


class TestFirstImport:
    """Each module imports as the first one in a fresh interpreter.

    An import cycle hides while some other import happens to load its
    modules in a working order; with lazy packages nothing does.  The
    public names a module provides are then resolved through ``repro``.
    """

    @pytest.mark.parametrize("module", _first_imports())
    def test_module_imports_first(self, module):
        doc = _modules_after(
            f"import {module}\n"
            "import repro\n"
            f"names = [n for n, m in repro._EXPORTS.items() if m == {module!r}]\n"
            "print(json.dumps([getattr(repro, n) is not None for n in names]))"
        )
        assert all(doc)


class TestEntryPointImports:
    @pytest.mark.parametrize(
        "module",
        ["repro.service.session", "repro.experiments.registry", "repro.cli"],
    )
    def test_no_off_path_scipy(self, module):
        doc = _modules_after(
            f"import {module}\n"
            "print(json.dumps(loaded(('scipy.optimize', 'scipy.integrate'))))"
        )
        assert doc == []

    def test_session_loads_no_event_loop_or_pool(self):
        doc = _modules_after(
            "import repro.service.session\n"
            "print(json.dumps(loaded(('asyncio', 'repro.runner.runner',"
            " 'repro.experiments', 'repro.realtime', 'repro.thermal.reference'))))"
        )
        assert doc == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "LNS", "-o", "n_cores=2"],
            ["certify", "LNS", "--quick", "-o", "core_counts=2",
             "-o", "t_max_values=65"],
        ],
        ids=["solve", "certify"],
    )
    def test_cli_commands_skip_experiment_registry(self, argv):
        doc = _modules_after(
            "import contextlib, io\n"
            "from repro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv!r})\n"
            "print(json.dumps({'code': code, 'bad': loaded(('repro.experiments',"
            " 'scipy.optimize', 'scipy.integrate'))}))"
        )
        assert doc == {"code": 0, "bad": []}


class TestFirstRequestImportsNothing:
    """After set-up, the first requests import no ``repro``/``scipy`` module."""

    def test_session_first_requests(self):
        doc = _modules_after(
            "from repro.algorithms.registry import SOLVERS\n"
            "from repro.service.session import SchedulerSession\n"
            "session = SchedulerSession()\n"
            "before = set(loaded(('repro', 'scipy')))\n"
            "spec = {'family': 'paper', 'n_cores': 2, 'n_levels': 2}\n"
            "schedule = None\n"
            "for name, solver in SOLVERS.items():\n"
            "    out = session.solve(spec, name, dict(solver.quick))\n"
            "    out.as_doc()\n"
            "    if schedule is None and out.result is not None:\n"
            "        schedule = out.result.schedule\n"
            "session.evaluate(spec, schedule)\n"
            "session.certify_schedule(spec, schedule)\n"
            "new = sorted(set(loaded(('repro', 'scipy'))) - before)\n"
            "print(json.dumps({'solvers': len(SOLVERS), 'new': new}))"
        )
        assert doc["solvers"] >= 9
        assert doc["new"] == []

    def test_served_first_requests(self):
        doc = _modules_after(
            "import asyncio\n"
            "from repro.service import ScheduleServer, send_requests\n"
            "spec = {'family': 'paper', 'n_cores': 2, 'n_levels': 2}\n"
            "async def scenario():\n"
            "    server = ScheduleServer()\n"
            "    host, port = await server.start()\n"
            "    task = asyncio.ensure_future(server.serve_until_shutdown())\n"
            "    before = set(loaded(('repro', 'scipy')))\n"
            "    (solved,) = await send_requests(host, port, [\n"
            "        {'op': 'solve', 'platform': spec, 'solver': 'AO',"
            " 'params': {'m_cap': 8}}])\n"
            "    schedule = solved['result']['schedule']\n"
            "    work = await send_requests(host, port, [\n"
            "        {'op': 'evaluate', 'platform': spec, 'schedule': schedule},\n"
            "        {'op': 'certify', 'platform': spec, 'schedule': schedule}])\n"
            "    new = sorted(set(loaded(('repro', 'scipy'))) - before)\n"
            "    await send_requests(host, port, [{'op': 'shutdown'}])\n"
            "    await task\n"
            "    return [solved, *work], new\n"
            "work, new = asyncio.run(scenario())\n"
            "print(json.dumps({'ok': [r['ok'] for r in work], 'new': new,"
            " 'bad': loaded(('repro.experiments',))}))"
        )
        assert doc == {"ok": [True, True, True], "new": [], "bad": []}


class TestBannedApi:
    """``scipy.optimize``/``scipy.integrate`` stay off the request path.

    Only the calibration fit and the LSODA reference oracle may import
    them (the ruff ``banned-api`` per-file ignores).
    """

    ALLOWED = {"thermal/calibration.py", "thermal/reference.py"}

    def _banned(self, tree: ast.AST):
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            yield from (n for n in names if _is_under(n, OFF_PATH))

    def test_only_calibration_and_reference_import_them(self):
        offenders = []
        for path in sorted(SRC_REPRO.rglob("*.py")):
            rel = path.relative_to(SRC_REPRO).as_posix()
            if rel in self.ALLOWED:
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            offenders += [f"{rel}: {name}" for name in self._banned(tree)]
        assert not offenders, offenders

    def test_rule_sees_both_import_forms(self):
        tree = ast.parse(
            "from scipy import optimize\nimport scipy.integrate\n"
            "from scipy.optimize import brentq\nimport scipy.linalg\n"
        )
        assert sorted(set(self._banned(tree))) == [
            "scipy.integrate", "scipy.optimize", "scipy.optimize.brentq",
        ]


#: A ``# noqa`` comment, bare or naming the rules it silences.
_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


def _silences_f401(line: str) -> bool:
    match = _NOQA.search(line)
    if match is None:
        return False
    codes = match.group("codes")
    return codes is None or "F401" in {
        c.strip().upper() for c in codes.split(",")
    }


def _annotation_names(tree: ast.AST):
    """Names inside string annotations (``"Platform | None"``)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations.append(node.returns)
            annotations += [
                arg.annotation
                for arg in (
                    *args.posonlyargs, *args.args, *args.kwonlyargs,
                    args.vararg, args.kwarg,
                )
                if arg is not None
            ]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    inner = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                yield from (
                    n.id for n in ast.walk(inner) if isinstance(n, ast.Name)
                )


def _exported_names(tree: ast.AST):
    """String entries of ``__all__`` (re-exports count as uses)."""
    for node in ast.walk(tree):
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, ast.AugAssign)
            else []
        )
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            yield from (
                n.value for n in ast.walk(node.value)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
            )


def _unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every import binding the module never reads.

    One scope per module: a name read anywhere counts as a use of every
    import binding it.  ``from __future__`` imports, star imports and
    dotted ``import a.b`` (loaded for the submodule attribute it sets on
    ``a``) are out of scope.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= set(_annotation_names(tree)) | set(_exported_names(tree))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if alias.name == "*" or (
                isinstance(node, ast.Import) and alias.asname is None
                and "." in alias.name
            ):
                continue
            bound = alias.asname or alias.name
            if bound in used or any(
                _silences_f401(lines[n - 1]) for n in (alias.lineno, node.lineno)
            ):
                continue
            unused.append((alias.lineno, bound))
    return unused


class TestUnusedImports:
    """Every import is read, as ruff's F401 rule (pyproject.toml) asks.

    ``__init__.py`` files are exempt (they import to re-export), as is a
    line carrying ``# noqa: F401`` or a bare ``# noqa``.
    """

    def test_src_tests_and_scripts_have_none(self):
        offenders = []
        for top in ("src", "tests", "scripts"):
            for path in sorted((ROOT / top).rglob("*.py")):
                if path.name == "__init__.py":
                    continue
                rel = path.relative_to(ROOT).as_posix()
                offenders += [
                    f"{rel}:{line}: {name}"
                    for line, name in _unused_imports(path.read_text())
                ]
        assert not offenders, offenders

    def test_rule_sees_uses_and_honours_noqa(self):
        source = (
            "from __future__ import annotations\n"
            "import os\n"
            "import numpy as np\n"
            "import json  # noqa: F401\n"
            "import sys  # noqa\n"
            "import re  # noqa: E402\n"
            "import xml.dom\n"
            "from typing import (\n"
            "    Any,\n"
            "    Mapping,  # noqa: F401\n"
            "    Sequence,\n"
            ")\n"
            "from pathlib import Path\n"
            "__all__ = ['Path']\n"
            "def f(x: 'Sequence[int]') -> Any:\n"
            "    return np.zeros(3)\n"
        )
        assert _unused_imports(source) == [(2, "os"), (6, "re")]
