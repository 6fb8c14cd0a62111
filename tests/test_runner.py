"""Tests for the fault-tolerant sharded experiment runner.

Covers the tentpole guarantees: content-addressed unit identity, the
JSONL journal round-trip (including torn trailing lines), per-unit
failure isolation (raise / timeout / killed worker), bounded retry with
backoff, resume that re-runs only the missing units, and run-level
EngineStats aggregation.  The kill-mid-sweep acceptance test drives the
real ``repro run comparison`` CLI, SIGKILLs it mid-run, resumes with
``--resume``, and checks the result rows are byte-identical to an
uninterrupted run modulo timing fields.
"""

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.runner.runner as runner_module
from repro.engine import EngineStats
from repro.errors import RunnerError
from repro.experiments.comparison import build_grid
from repro.runner import (
    Journal,
    RunnerConfig,
    RunReport,
    WorkUnit,
    comparison_units,
    git_sha,
    read_manifest,
    run,
    solve_cell_unit,
    spawn_seeds,
    units_hash,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")


def probe(behavior="ok", **extra) -> WorkUnit:
    payload = {"behavior": behavior, **extra}
    return WorkUnit(kind="probe", payload=payload, label=f"probe-{behavior}")


#: Timing fields a resumed run may legitimately differ in.
TIMING_KEYS = ("runtime_s", "stats", "spans", "elapsed_s", "attempts")


def strip_timing(row: dict) -> dict:
    """A journal row with every timing-dependent field removed."""
    row = {k: v for k, v in row.items() if k not in TIMING_KEYS}
    result = row.get("result")
    if isinstance(result, dict):
        row["result"] = {
            k: v for k, v in result.items() if k not in TIMING_KEYS
        }
    return row


class TestWorkUnit:
    def test_unit_id_is_content_hash(self):
        a = probe("ok", value=1)
        b = WorkUnit(kind="probe", payload={"value": 1, "behavior": "ok"},
                     label="different label")
        assert a.unit_id == b.unit_id  # identity ignores label, key order
        assert a.unit_id != probe("ok", value=2).unit_id

    def test_units_hash_order_insensitive(self):
        u1, u2 = probe("ok", value=1), probe("ok", value=2)
        assert units_hash([u1, u2]) == units_hash([u2, u1])
        assert units_hash([u1]) != units_hash([u1, u2])

    def test_comparison_units_filter_params_per_solver(self):
        units = comparison_units(
            (2,), (2,), (55.0,), ("LNS", "AO"),
            {"period": 0.02, "m_cap": 8, "m_step": 1, "shift_grid": 8},
        )
        by_algo = {u.payload["algo"]: u for u in units}
        assert set(by_algo) == {"LNS", "AO"}
        assert "m_cap" not in by_algo["LNS"].payload["params"]
        assert by_algo["AO"].payload["params"]["m_cap"] == 8

    def test_comparison_units_reject_unknown_approach(self):
        with pytest.raises(ValueError, match="unknown approach 'XYZ'"):
            comparison_units((2,), (2,), (55.0,), ("AO", "XYZ"), {})

    def test_solve_cell_unit_filters_params_and_keeps_extra_keys(self):
        unit = solve_cell_unit(
            {"platform": "paper"}, "ao",
            {"m_cap": 8, "guard_band": 2.0}, "AO@paper", seed=3,
        )
        assert unit.kind == "solve_cell"
        assert unit.label == "AO@paper"
        assert dict(unit.payload) == {
            "platform": "paper",
            "algo": "AO",
            "params": {"m_cap": 8},
            "seed": 3,
        }


class TestSweepHelpers:
    def test_spawn_seeds_is_pinned(self):
        assert spawn_seeds(2016, 4) == (
            2882448306, 2728114380, 490678385, 2571254172,
        )
        assert spawn_seeds(2016, 2) == spawn_seeds(2016, 4)[:2]

    def test_outcome_returns_status_and_result(self):
        unit = probe("ok", value=7)
        report = run([unit])
        assert report.outcome(unit) == ("ok", {"value": 7})

    def test_outcome_decodes_solve_cell_results(self):
        unit = solve_cell_unit(
            {"n_cores": 2, "n_levels": 2, "t_max_c": 55.0}, "LNS", {},
            "LNS@cores=2",
        )
        status, result = run([unit]).outcome(unit)
        assert status == "ok"
        assert result.name == "LNS" and result.feasible

    def test_outcome_enforces_the_accepted_statuses(self):
        settled = probe("raise")
        report = run([settled], RunnerConfig(retries=0))
        with pytest.raises(RunnerError, match="did not complete: error"):
            report.outcome(settled)
        assert report.outcome(settled, accept=("error",)) == ("error", None)
        missing = probe("ok", value=1)
        with pytest.raises(RunnerError, match="did not complete: None"):
            RunReport(run_dir=None, total=0).outcome(missing)


class TestJournal:
    def test_round_trip_last_wins(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as j:
            j.append({"unit_id": "a", "status": "error"})
            j.append({"unit_id": "b", "status": "ok"})
            j.append({"unit_id": "a", "status": "ok"})
        rows = Journal.load(path)
        assert rows["a"]["status"] == "ok"
        assert rows["b"]["status"] == "ok"

    def test_tolerates_torn_trailing_line(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as j:
            j.append({"unit_id": "a", "status": "ok"})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"unit_id": "b", "stat')  # killed mid-append
        rows = Journal.load(path)
        assert set(rows) == {"a"}

    def test_missing_file_is_empty(self, tmp_path):
        assert Journal.load(tmp_path / "nope.jsonl") == {}


class TestFaultInjection:
    """A failing unit records an error row; the sweep always completes."""

    def test_raising_unit_never_aborts_sweep(self):
        report = run(
            [probe("ok", value=1), probe("raise"), probe("ok", value=2)],
            RunnerConfig(retries=0),
        )
        assert report.total == 3 and report.ok == 2 and report.errors == 1
        row = next(
            r for r in report.records.values() if r["status"] == "error"
        )
        assert row["error"]["type"] == "RuntimeError"
        assert "injected" in row["error"]["message"]

    def test_raising_unit_parallel(self):
        report = run(
            [probe("ok", value=1), probe("raise"), probe("ok", value=2)],
            RunnerConfig(parallel=True, max_workers=2, retries=0),
        )
        assert report.ok == 2 and report.errors == 1

    def test_timeout_terminates_hung_unit(self):
        t0 = time.monotonic()
        report = run(
            [probe("sleep", seconds=60.0), probe("ok", value=1)],
            RunnerConfig(parallel=True, max_workers=2, timeout_s=1.0,
                         retries=0),
        )
        assert time.monotonic() - t0 < 30.0  # nowhere near the 60 s sleep
        assert report.ok == 1 and report.errors == 1
        row = next(
            r for r in report.records.values() if r["status"] == "error"
        )
        assert row["error"]["type"] == "TimeoutError"

    def test_killed_worker_is_recorded_not_fatal(self):
        report = run(
            [probe("kill"), probe("ok", value=1)],
            RunnerConfig(parallel=True, max_workers=2, retries=0),
        )
        assert report.ok == 1 and report.errors == 1
        row = next(
            r for r in report.records.values() if r["status"] == "error"
        )
        assert row["error"]["type"] == "WorkerCrashed"
        assert "-9" in row["error"]["message"]

    @pytest.mark.parametrize("parallel", [False, True])
    def test_flaky_unit_recovers_via_retry(self, tmp_path, parallel,
                                           monkeypatch):
        monkeypatch.setattr(runner_module, "BACKOFF_S", 0.01)
        marker = tmp_path / f"marker-{parallel}"
        unit = probe("flaky", marker=str(marker))
        config = RunnerConfig(parallel=parallel, max_workers=1, retries=2)
        report = run([unit], config)
        assert report.ok == 1 and report.errors == 0
        assert report.records[unit.unit_id]["attempts"] == 2

    def test_retries_are_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner_module, "BACKOFF_S", 0.0)
        report = run([probe("raise")], RunnerConfig(retries=2))
        assert report.errors == 1
        (row,) = report.records.values()
        assert row["attempts"] == 3  # 1 attempt + 2 retries, then final


class TestResume:
    def test_resume_runs_only_missing_units(self, tmp_path):
        units = [probe("ok", value=i) for i in range(4)]
        run_dir = tmp_path / "run"
        run(units, RunnerConfig(), run_dir=run_dir)

        # Simulate a crash that lost the last two rows.
        journal_path = run_dir / "journal.jsonl"
        lines = journal_path.read_text().splitlines()
        journal_path.write_text("\n".join(lines[:2]) + "\n")

        report = run(units, RunnerConfig(), run_dir=run_dir, resume=True)
        assert report.skipped == 2
        assert report.ok == 4  # skipped rows still count toward totals
        appended = journal_path.read_text().splitlines()
        assert len(appended) == 4  # exactly the two missing rows re-ran

    def test_resume_skips_error_rows_by_default(self, tmp_path):
        units = [probe("raise"), probe("ok", value=1)]
        run_dir = tmp_path / "run"
        first = run(units, RunnerConfig(retries=0), run_dir=run_dir)
        assert first.errors == 1
        report = run(units, RunnerConfig(retries=0), run_dir=run_dir,
                     resume=True)
        assert report.skipped == 2 and report.errors == 1

    def test_resume_rejects_mismatched_unit_set(self, tmp_path):
        run_dir = tmp_path / "run"
        run([probe("ok", value=1)], RunnerConfig(), run_dir=run_dir)
        with pytest.raises(RunnerError, match="different.*unit set"):
            run([probe("ok", value=2)], RunnerConfig(), run_dir=run_dir,
                resume=True)

    def test_fresh_run_refuses_existing_run_dir(self, tmp_path):
        run_dir = tmp_path / "run"
        run([probe("ok", value=1)], RunnerConfig(), run_dir=run_dir)
        with pytest.raises(RunnerError, match="already holds a run"):
            run([probe("ok", value=1)], RunnerConfig(), run_dir=run_dir)

    def test_resume_without_manifest_fails(self, tmp_path):
        with pytest.raises(RunnerError, match="no run manifest"):
            run([probe("ok", value=1)], RunnerConfig(),
                run_dir=tmp_path / "missing", resume=True)


class TestManifest:
    def test_manifest_captures_run_provenance(self, tmp_path):
        units = [probe("ok", value=1), probe("ok", value=2)]
        run_dir = tmp_path / "run"
        run(units, RunnerConfig(parallel=True, max_workers=3, timeout_s=5.0),
            run_dir=run_dir)
        manifest = read_manifest(run_dir)
        assert manifest["n_units"] == 2
        assert manifest["units_hash"] == units_hash(units)
        assert manifest["workers"] == 3
        assert manifest["config"]["timeout_s"] == 5.0
        # None outside a git checkout (e.g. a `git archive` export).
        sha = git_sha()
        assert manifest["git_sha"] == sha
        if sha is not None:
            assert re.fullmatch(r"[0-9a-f]{40}", sha)
        assert sorted(manifest["unit_ids"]) == sorted(
            u.unit_id for u in units
        )


class TestGridThroughRunner:
    """build_grid semantics are preserved across execution modes."""

    def test_sequential_equals_parallel(self, tmp_path):
        kwargs = dict(
            core_counts=(2,), level_counts=(2,), t_max_values=(55.0, 65.0),
            approaches=("LNS", "EXS"),
        )
        seq = build_grid(**kwargs)
        par = build_grid(
            **kwargs,
            runner=RunnerConfig(parallel=True, max_workers=2),
        )
        assert len(seq.cells) == len(par.cells) == 2
        for a, b in zip(seq.cells, par.cells):
            assert (a.n_cores, a.n_levels, a.t_max_c) == (
                b.n_cores, b.n_levels, b.t_max_c
            )
            for name in ("LNS", "EXS"):
                assert a.throughput(name) == pytest.approx(
                    b.throughput(name), abs=0
                )

    def test_infeasible_cell_records_infeasible_not_error(self):
        # 37 C is below the all-low steady state: EXS has no feasible point.
        grid = build_grid(
            core_counts=(3,), level_counts=(2,), t_max_values=(37.0,),
            approaches=("EXS",),
        )
        assert grid.report.infeasible == 1 and grid.report.errors == 0
        assert "EXS" not in grid.cells[0].results

    def test_aggregated_stats_equal_sum_of_unit_stats(self, tmp_path):
        run_dir = tmp_path / "run"
        grid = build_grid(
            core_counts=(2, 3), level_counts=(2,), t_max_values=(55.0,),
            approaches=("LNS", "EXS", "AO"), m_cap=8, run_dir=run_dir,
        )
        rows = Journal.load(run_dir / "journal.jsonl")
        assert len(rows) == 6
        expected = EngineStats.sum(
            EngineStats.from_dict(row["stats"]) for row in rows.values()
        )
        assert grid.report.stats == expected
        # Units share session-scoped engines, so a warm process may serve
        # every steady state from cache — count both forms of work.
        assert expected.peak_evals > 0
        assert expected.steady_state_solves + expected.steady_state_cache_hits > 0


def _wait_for_journal_rows(path: Path, n: int, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.exists() and len(path.read_text().splitlines()) >= n:
            return
        time.sleep(0.02)
    raise AssertionError(f"journal {path} never reached {n} rows")


class TestUnitSpanJournal:
    """Per-unit observability spans ride in the journal rows."""

    def _unit(self, algo="LNS"):
        return WorkUnit(
            kind="solve_cell",
            payload={
                "n_cores": 2, "n_levels": 2, "t_max_c": 55.0, "tau": 5e-6,
                "algo": algo, "params": {},
            },
            label=f"{algo}@2x2",
        )

    def test_spans_round_trip_through_journal(self, tmp_path):
        from repro.obs import Span

        rd = tmp_path / "rd"
        report = run([self._unit()], run_dir=rd)
        row = next(iter(report.records.values()))
        spans = row["spans"]
        assert spans, "solve_cell row carries no spans"

        roots = [s for s in spans if s["parent_id"] is None]
        assert [r["name"] for r in roots] == ["unit/solve_cell"]
        # The root span's attrs are derived from the same stats dict the
        # row stores — the invariant `repro run --trace` reconciles on.
        assert roots[0]["attrs"]["ss_solves"] == row["stats"]["steady_state_solves"]
        assert (
            roots[0]["attrs"]["expm_applications"]
            == row["stats"]["expm_applications"]
        )

        reloaded = Journal.load(rd / "journal.jsonl")[row["unit_id"]]
        assert reloaded["spans"] == spans
        rebuilt = [Span.from_dict(d) for d in reloaded["spans"]]
        assert any(s.name == "solve/LNS" for s in rebuilt)

    def test_parallel_worker_ships_spans_home(self, tmp_path):
        report = run(
            [self._unit()],
            config=RunnerConfig(parallel=True, max_workers=1),
            run_dir=tmp_path / "rd",
        )
        row = next(iter(report.records.values()))
        assert any(s["name"] == "unit/solve_cell" for s in row["spans"])

    def test_resume_counts_spans_exactly_once(self, tmp_path):
        from repro.obs import run_dir_summary

        rd = tmp_path / "rd"
        run([self._unit()], run_dir=rd)
        report = run([self._unit()], run_dir=rd, resume=True)
        assert report.skipped == 1
        summary = run_dir_summary(rd)
        assert summary.span_agg["unit/solve_cell"].count == 1
        assert summary.span_agg["solve/LNS"].count == 1

    def test_unit_spans_stay_out_of_live_sinks(self, tmp_path):
        """A live sink during a sequential run sees runner spans but not
        the unit-internal ones (those travel via the journal only)."""
        from repro.obs import TRACER, MemorySink

        sink = MemorySink()
        TRACER.add_sink(sink)
        try:
            run([self._unit()], run_dir=tmp_path / "rd")
        finally:
            TRACER.remove_sink(sink)
        names = {s.name for s in sink.spans}
        assert "runner/run" in names
        assert "runner/unit" in names
        assert "unit/solve_cell" not in names
        assert "solve/LNS" not in names


class TestKillAndResumeCLI:
    """Acceptance: SIGKILL a parallel `repro run comparison` mid-sweep,
    resume it, and get byte-identical result rows to an uninterrupted run
    (modulo timing fields)."""

    CLI_OPTS = [
        "run", "comparison",
        "-o", "core_counts=2,3",
        "-o", "level_counts=2,",
        "-o", "t_max_values=55.0,",
        # With PCO: the sequential baseline reuses each cell's memoized AO
        # core, while a one-unit worker builds its own; rows must agree.
        "-o", "approaches=LNS,EXS,AO,PCO",
        "-o", "m_cap=12",
    ]

    def _cli(self, *extra, check=True):
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *self.CLI_OPTS, *extra],
            cwd=REPO_ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        if not check:
            return proc
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err.decode()
        return proc

    def test_kill_mid_sweep_then_resume_is_byte_identical(self, tmp_path):
        baseline_dir = tmp_path / "baseline"
        victim_dir = tmp_path / "victim"

        # Uninterrupted reference run.
        self._cli("--run-dir", str(baseline_dir))

        # Start the same sweep, then SIGKILL it as soon as the journal
        # holds its first finished unit (one worker => still mid-sweep).
        proc = self._cli(
            "--parallel", "--workers", "1", "--run-dir", str(victim_dir),
            check=False,
        )
        try:
            _wait_for_journal_rows(victim_dir / "journal.jsonl", 1)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.communicate(timeout=60)

        interrupted = Journal.load(victim_dir / "journal.jsonl")
        assert len(interrupted) >= 1  # something settled before the kill

        # Resume re-runs only the missing units and completes the sweep.
        self._cli("--resume", str(victim_dir))

        base_rows = Journal.load(baseline_dir / "journal.jsonl")
        resumed_rows = Journal.load(victim_dir / "journal.jsonl")
        assert set(base_rows) == set(resumed_rows) and len(base_rows) == 8
        for uid in base_rows:
            assert strip_timing(resumed_rows[uid]) == strip_timing(
                base_rows[uid]
            ), f"unit {uid} diverged after resume"

    def test_all_units_failing_yields_exit_status_3(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "run", "comparison",
                "-o", "core_counts=3,", "-o", "approaches=PCO,",
                "-o", "m_cap=128",
                "--parallel", "--workers", "1",
                "--timeout", "0.01", "--retries", "0",
                "--run-dir", str(tmp_path / "run"),
            ],
            cwd=REPO_ROOT, env=env, capture_output=True, timeout=300,
        )
        assert proc.returncode == 3
        # The runner summary, error rows included, goes to stderr.
        assert b"FAILED" in proc.stderr
        rows = Journal.load(tmp_path / "run" / "journal.jsonl")
        assert all(r["status"] == "error" for r in rows.values())

