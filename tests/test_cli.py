"""Tests for the command-line interface."""

import shlex
from pathlib import Path

import pytest

from repro.cli import PLATFORM_KEYS, _parse_option, build_parser, main
from repro.experiments.registry import EXPERIMENTS


class TestParseOption:
    def test_int(self):
        assert _parse_option("m_max=5") == ("m_max", 5)

    def test_float(self):
        assert _parse_option("step=0.5") == ("step", 0.5)

    def test_bool(self):
        assert _parse_option("flag=true") == ("flag", True)
        assert _parse_option("flag=False") == ("flag", False)

    def test_string(self):
        assert _parse_option("name=abc") == ("name", "abc")

    def test_tuple_of_ints(self):
        assert _parse_option("core_counts=2,3") == ("core_counts", (2, 3))

    def test_tuple_of_floats(self):
        assert _parse_option("t_max_values=55.0,65.0") == (
            "t_max_values",
            (55.0, 65.0),
        )

    def test_trailing_comma_singleton(self):
        assert _parse_option("core_counts=9,") == ("core_counts", (9,))

    def test_mixed_tuple(self):
        assert _parse_option("x=1,2.5,abc") == ("x", (1, 2.5, "abc"))

    def test_missing_equals(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_option("oops")


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out
        # The solver registry is enumerated alongside the experiments.
        assert "AO" in out and "PCO" in out

    def test_bare_experiment_form_is_retired(self, capsys):
        # The historical `repro fig2` shim is gone: argparse rejects the
        # unknown subcommand with its usage error (exit code 2).
        with pytest.raises(SystemExit) as exc:
            main(["fig2", "--quick"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_experiment_via_run(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_quick_fig2(self, capsys):
        assert main(["run", "fig2", "--quick"]) == 0
        captured = capsys.readouterr()
        assert "Fig. 2" in captured.out
        assert "finished in" in captured.err
        assert "finished in" not in captured.out

    def test_run_subcommand(self, capsys):
        assert main(["run", "table2", "--quick"]) == 0
        assert "Table II" in capsys.readouterr().out

    def test_option_override(self, capsys):
        assert main(["run", "fig5", "--quick", "-o", "m_max=2"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n1 ") or "1 " in out

    def test_quick_presets_reference_valid_experiments(self):
        with_quick = {n for n, spec in EXPERIMENTS.items() if spec.quick}
        assert with_quick <= set(EXPERIMENTS)
        assert "fig6" in with_quick

    def test_csv_export(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert main(["run", "fig7", "--quick", "--csv", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("cores,levels,t_max_c")
        assert len(text.splitlines()) > 1

    def test_csv_ignored_without_grid(self, tmp_path, capsys):
        out = tmp_path / "nope.csv"
        assert main(["run", "fig2", "--csv", str(out)]) == 0
        assert not out.exists()
        assert "ignored" in capsys.readouterr().err


REGENERATE = (
    Path(__file__).resolve().parents[1] / "scripts" / "regenerate_results.sh"
)


def _regenerate_calls() -> list[tuple[str, list[str]]]:
    """``("cli", argv)`` / ``("experiment", [id])`` per script invocation.

    Reads ``scripts/regenerate_results.sh`` line by line: ``repro ...``
    lines are CLI calls, ``$exp`` expands over the enclosing ``for exp
    in ...`` list, and a loop that feeds ``$exp`` to an inline program
    calls ``run_experiment(exp)``.  Inline program bodies are skipped.
    """
    calls: list[tuple[str, list[str]]] = []
    loop: list[str] = []
    heredoc = None
    for line in REGENERATE.read_text().splitlines():
        if heredoc is not None:
            if line.strip() == heredoc:
                heredoc = None
            continue
        words = shlex.split(line, comments=True)
        if words[:3] == ["for", "exp", "in"]:
            loop = [w.rstrip(";") for w in words[3:] if w != "do"]
        elif words == ["done"]:
            loop = []
        elif words[:1] == ["repro"]:
            argv = words[1:words.index("|")] if "|" in words else words[1:]
            for exp in loop or [None]:
                calls.append(
                    ("cli", [exp if w == "$exp" else w for w in argv])
                )
        elif any(w.startswith("<<") for w in words):
            heredoc = words[-1].lstrip("<")
            if "$exp" in words:
                calls.extend(("experiment", [exp]) for exp in loop)
    return calls


class TestRegenerateScript:
    def test_every_call_parses(self):
        calls = _regenerate_calls()
        cli = [argv for kind, argv in calls if kind == "cli"]
        experiments = [argv[0] for kind, argv in calls if kind == "experiment"]
        assert ["run", "table2"] in cli
        assert ["run", "fig3", "-o", "step=0.2"] in cli
        assert experiments == ["control", "realtime", "scaling"]
        parser = build_parser()
        for argv in cli:
            args = parser.parse_args(argv)
            assert args.command == "run", argv
            assert args.experiment in EXPERIMENTS, argv
        for name in experiments:
            assert name in EXPERIMENTS
        covered = {argv[1] for argv in cli} | set(experiments)
        assert not {"fig6", "headline", "control"} - covered


class TestTraceAndStats:
    def test_run_trace_reconciles_with_journal(self, tmp_path, capsys):
        """Acceptance: the trace file's per-unit root spans must agree
        with the journal's EngineStats, counter for counter."""
        import json

        trace = tmp_path / "t.jsonl"
        run_dir = tmp_path / "rd"
        assert main([
            "run", "comparison", "--quick",
            "--trace", str(trace), "--run-dir", str(run_dir),
        ]) == 0
        assert "trace written" in capsys.readouterr().out

        rows = [json.loads(line) for line in trace.read_text().splitlines()]
        spans = [r for r in rows if "name" in r]
        roots = [s for s in spans if s["name"] == "unit/solve_cell"]
        assert roots, "trace holds no per-unit root spans"
        assert all("unit_id" in s for s in roots)

        journal = [
            json.loads(line)
            for line in (run_dir / "journal.jsonl").read_text().splitlines()
        ]
        assert len(roots) == len(journal)
        for key_trace, key_journal in (
            ("ss_solves", "steady_state_solves"),
            ("expm_applications", "expm_applications"),
        ):
            trace_total = sum(s["attrs"][key_trace] for s in roots)
            journal_total = sum(r["stats"][key_journal] for r in journal)
            assert trace_total == journal_total

        # Live (non-unit) spans cover the experiment and runner layers,
        # and the file ends with a metrics snapshot document.
        live = {s["name"] for s in spans if "unit_id" not in s}
        assert {"experiment/comparison", "runner/run", "runner/unit"} <= live
        assert any("metrics" in r for r in rows)

    def test_solve_trace_has_solver_phase_spans(self, tmp_path, capsys):
        import json

        trace = tmp_path / "solve.jsonl"
        assert main([
            "solve", "AO", "-o", "n_cores=2", "-o", "m_cap=8",
            "--trace", str(trace),
        ]) == 0
        names = {
            json.loads(line)["name"]
            for line in trace.read_text().splitlines()
            if "name" in json.loads(line)
        }
        assert "solve/AO" in names
        assert "ao/choose_m" in names

    def test_trace_sink_detached_after_run(self, tmp_path):
        from repro.obs import TRACER

        trace = tmp_path / "t.jsonl"
        main(["run", "table2", "--trace", str(trace)])
        assert not TRACER.enabled

    def test_stats_summarizes_run_dir(self, tmp_path, capsys):
        run_dir = tmp_path / "rd"
        assert main(["run", "comparison", "--quick", "--run-dir", str(run_dir)]) == 0
        capsys.readouterr()
        assert main(["stats", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "unit spans" in out
        assert "unit/solve_cell" in out
        assert "engine stats:" in out

    def test_stats_missing_run_dir_exits_2(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope")]) == 2
        assert "no run manifest" in capsys.readouterr().err


class TestSolve:
    def test_solve_ao_prints_engine_stats(self, capsys):
        assert main(["solve", "AO", "-o", "n_cores=3", "-o", "m_cap=8"]) == 0
        out = capsys.readouterr().out
        assert "AO: THR=" in out
        assert "engine stats:" in out
        assert "steady-state solves" in out

    def test_solve_case_insensitive(self, capsys):
        assert main(["solve", "lns", "-o", "n_cores=2"]) == 0
        assert "LNS: THR=" in capsys.readouterr().out

    def test_solve_unknown_solver(self, capsys):
        assert main(["solve", "nope"]) == 2
        assert "unknown solver" in capsys.readouterr().err

    def test_solve_rejects_bad_param(self, capsys):
        assert main(["solve", "EXS", "-o", "m_cap=8"]) == 1
        assert "does not accept" in capsys.readouterr().err

    def test_platform_keys_match_paper_family(self):
        from repro.platforms import get_family

        params = set(get_family("paper").params) | {"platform"}
        assert set(PLATFORM_KEYS) <= params
