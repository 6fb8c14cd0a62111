"""Command-line entry point with subcommands.

::

    repro run <experiment> [--quick] [-o key=value] [--csv PATH]
                           [--trace PATH]
                           [--parallel] [--workers N] [--timeout S]
                           [--retries N] [--run-dir DIR | --resume DIR]
    repro solve <solver> [-o key=value] [--trace PATH]
    repro certify [solvers...] [--quick] [-o key=value] [--tolerance K]
                  [--reference] [--faults key=value]
    repro serve [--host H] [--port P | --stdio] [--run-dir DIR]
    repro stats <run-dir>
    repro list [experiments|solvers|platforms]

``repro run`` regenerates a table/figure of the paper; ``repro solve``
runs one registered scheduler on a freshly built paper platform and
prints its result plus the thermal-engine instrumentation; ``repro
certify`` sweeps solvers over a small platform grid through the guarded
registry path (:func:`repro.algorithms.registry.guarded_solve`) and
prints every :class:`~repro.safety.certificate.SafetyCertificate` —
exiting 4 if any certificate is rejected, which makes it a CI gate —
``-o platforms=...`` takes any named :class:`~repro.platforms.PlatformSpec`
presets (``paper``, ``big_little``, ``stack3d``, ``tech-16-io``, ...;
see ``repro list platforms``); ``repro serve`` runs the scheduling service
(:mod:`repro.service`): newline-delimited JSON requests over TCP or
stdio, answered through the session-scoped engine LRU, the
content-addressed schedule cache, and the request coalescer;
``repro stats`` summarizes a journaled run directory (unit statuses,
run-level engine counters, certificate tallies, per-span wall-time
table); ``repro list`` enumerates the experiment, solver and platform
registries.  The historical single-positional form
(``repro fig6 --quick``) is retired: a bare experiment id is an error.

``--trace PATH`` streams observability spans (:mod:`repro.obs`) as JSON
Lines: every traced region of the process (experiment, runner, solver
phases) plus — for journaled sweeps — the per-unit span trees recovered
from the journal rows, each tagged with its ``unit_id``.  The per-unit
spans are captured inside the workers and travel in the journal, so the
trace reconciles with ``repro stats`` even across ``--resume``.

Grid experiments (``comparison``, ``fig6``, ``fig7``, ``table5``,
``headline``) execute through the fault-tolerant sharded runner: with
``--parallel`` their work units fan out over worker processes with a
per-unit ``--timeout`` and bounded ``--retries``; with ``--run-dir``
every finished unit is journaled so a crashed or interrupted sweep
continues via ``--resume DIR``, re-running only the missing units.  A
sweep whose units failed terminally still completes (structured error
rows) but exits with status 3.

Option values parse as int, float, bool, or string, and comma-separated
values become tuples (``-o core_counts=2,3``), so grid experiments are
fully drivable from the command line.
"""

from __future__ import annotations

import argparse
import sys
import time

__all__ = ["build_parser", "main"]

#: ``repro solve`` option keys consumed by the platform builder rather
#: than the solver.  ``platform`` names a
#: :class:`~repro.platforms.PlatformSpec` preset (default ``paper``);
#: the rest are overrides layered on that spec.
PLATFORM_KEYS = (
    "platform", "n_cores", "n_levels", "t_max_c", "t_ambient_c", "tau",
    "topology",
)


def _parse_scalar(raw: str):
    """Best-effort typed scalar: int, then float, then bool, then str."""
    for caster in (int, float):
        try:
            return caster(raw)
        except ValueError:
            continue
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    return raw


def _parse_option(text: str):
    """Parse a ``key=value`` option with a best-effort typed value.

    Comma-separated values become tuples: ``core_counts=2,3`` ->
    ``("core_counts", (2, 3))``.  A trailing comma forces a 1-tuple
    (``core_counts=9,``).
    """
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"option must be key=value, got {text!r}")
    key, raw = text.split("=", 1)
    if "," in raw:
        parts = [p for p in raw.split(",") if p != ""]
        return key, tuple(_parse_scalar(p) for p in parts)
    return key, _parse_scalar(raw)


def _add_option_argument(parser: argparse.ArgumentParser, target: str) -> None:
    parser.add_argument(
        "--option",
        "-o",
        action="append",
        default=[],
        type=_parse_option,
        metavar="KEY=VALUE",
        help=(
            f"override a {target} keyword argument (repeatable; "
            "comma-separated values become tuples, e.g. -o core_counts=2,3)"
        ),
    )


def _cmd_list(args: argparse.Namespace) -> int:
    what = getattr(args, "what", None)
    if what in (None, "experiments"):
        from repro.experiments.registry import EXPERIMENTS

        print("experiments:")
        for name in sorted(EXPERIMENTS):
            print(f"  {name:<10s} {EXPERIMENTS[name].description}")
    if what in (None, "solvers"):
        from repro.algorithms.registry import SOLVERS

        print("solvers:")
        for name, spec in SOLVERS.items():
            print(f"  {name:<11s} {spec.description}")
    if what in (None, "platforms"):
        from repro.platforms import get_preset, platform_names

        print("platforms:")
        for name in platform_names():
            print(f"  {name:<12s} {get_preset(name)[1]}")
    return 0


def _runner_kwargs(args: argparse.Namespace) -> dict:
    """Translate the runner CLI flags into experiment keyword arguments."""
    from repro.runner import RunnerConfig, print_progress

    kwargs: dict = {
        "runner": RunnerConfig(
            parallel=bool(args.parallel or args.workers),
            max_workers=args.workers,
            timeout_s=args.timeout,
            retries=args.retries if args.retries is not None else 1,
        ),
        "progress": print_progress,
    }
    if args.resume:
        kwargs["run_dir"] = args.resume
        kwargs["resume"] = True
    elif args.run_dir:
        kwargs["run_dir"] = args.run_dir
    return kwargs


def _collect_reports(result) -> list:
    """Find the sharded-runner report(s) attached to an experiment result.

    A report hangs off the result itself (``control``, ``realtime``,
    ``scaling``) or off its comparison grid(s).
    """
    holders = [result, getattr(result, "grid", None), *getattr(result, "grids", ())]
    return [h.report for h in holders if getattr(h, "report", None) is not None]


def _open_trace(path: str):
    """Attach a JSONL trace sink to the process tracer (enables tracing)."""
    from repro.obs import TRACER, JsonlSink

    sink = JsonlSink(path)
    TRACER.add_sink(sink)
    return sink


def _close_trace(sink, reports=()) -> int:
    """Detach the sink, splice journaled per-unit spans, snapshot metrics.

    Per-unit spans are captured in isolation inside the workers and travel
    in the journal rows, so this is the single place they reach the trace
    file — tagged with their ``unit_id`` (their span ids are local to the
    emitting unit).  Returns the number of spliced per-unit spans.
    """
    from repro.obs import METRICS, TRACER

    TRACER.remove_sink(sink)
    n_unit_spans = 0
    for report in reports:
        for row in report.records.values():
            for doc in row.get("spans") or ():
                sink.write_doc(
                    dict(
                        doc,
                        unit_id=row.get("unit_id"),
                        unit_label=row.get("label"),
                    )
                )
                n_unit_spans += 1
    sink.write_doc({"metrics": METRICS.snapshot()})
    sink.close()
    return n_unit_spans


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.registry import EXPERIMENTS, run_experiment

    if args.experiment not in EXPERIMENTS:
        print(
            f"unknown experiment {args.experiment!r}; known: "
            f"{', '.join(sorted(EXPERIMENTS))} (or 'list')",
            file=sys.stderr,
        )
        return 2

    kwargs = dict(args.option)
    spec = EXPERIMENTS[args.experiment]
    runner_flags = (
        args.parallel or args.workers or args.timeout is not None
        or args.retries is not None or args.run_dir or args.resume
    )
    if runner_flags:
        if not spec.accepts_runner:
            runner_capable = sorted(
                n for n, s in EXPERIMENTS.items() if s.accepts_runner
            )
            print(
                f"{args.experiment!r} does not run through the sharded "
                f"runner; runner flags apply to: {', '.join(runner_capable)}",
                file=sys.stderr,
            )
            return 2
        kwargs.update(_runner_kwargs(args))

    t0 = time.perf_counter()
    trace_sink = _open_trace(args.trace) if args.trace else None
    try:
        result = run_experiment(args.experiment, quick=args.quick, **kwargs)
    except BaseException:
        if trace_sink is not None:
            _close_trace(trace_sink)
        raise
    elapsed = time.perf_counter() - t0

    if hasattr(result, "format"):
        print(result.format())
    else:  # pragma: no cover - all experiments define format()
        print(result)

    if args.csv:
        grid = getattr(result, "grid", None)
        source = grid if (grid is not None and hasattr(grid, "to_csv")) else result
        if hasattr(source, "to_csv"):
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(source.to_csv())
            print(f"[data written to {args.csv}]")
        else:
            print(
                f"[--csv ignored: {args.experiment} exposes no tabular data]",
                file=sys.stderr,
            )

    # Runner summaries and the wall clock go to stderr, so the stdout of
    # a plain run is the experiment's output alone (results/<exp>.txt).
    reports = _collect_reports(result)
    for report in reports:
        print(report.summary(), file=sys.stderr)

    if trace_sink is not None:
        n_unit_spans = _close_trace(trace_sink, reports)
        print(f"[trace written to {args.trace} ({n_unit_spans} per-unit spans)]")

    print(f"\n[{args.experiment} finished in {elapsed:.1f} s]", file=sys.stderr)
    if any(report.failures for report in reports):
        print(
            "[sweep completed with failed units — see error rows above]",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.algorithms.registry import SOLVERS, get_solver
    from repro.service.session import default_session

    try:
        spec = get_solver(args.solver)
    except KeyError:
        print(
            f"unknown solver {args.solver!r}; known: {', '.join(SOLVERS)}",
            file=sys.stderr,
        )
        return 2

    from repro.errors import ConfigurationError
    from repro.platforms import PlatformSpec

    options = dict(args.option)
    platform_kwargs = {k: options.pop(k) for k in PLATFORM_KEYS if k in options}
    preset = str(platform_kwargs.pop("platform", "paper"))
    try:
        platform_spec = PlatformSpec.named(preset, **platform_kwargs)
    except ConfigurationError as exc:
        print(f"solve: {exc}", file=sys.stderr)
        return 2
    if args.quick:
        for key, value in spec.quick.items():
            options.setdefault(key, value)

    session = default_session()
    trace_sink = _open_trace(args.trace) if args.trace else None
    try:
        outcome = session.solve(
            platform_spec, spec, options,
            margin_policy=getattr(args, "margin_policy", None),
        )
    except Exception as exc:  # surface solver errors as a clean exit code
        print(f"{spec.name} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if trace_sink is not None:
            _close_trace(trace_sink)

    if outcome.status == "infeasible":
        print(f"{spec.name} failed: {outcome.detail}", file=sys.stderr)
        return 1
    print(outcome.result.summary())
    policy = (outcome.result.details or {}).get("margin_policy")
    if policy:
        applied = "applied" if policy.get("applied") else (
            f"not applied ({policy.get('reason', 'n/a')})"
        )
        print(
            f"margin policy {policy.get('policy')}: {applied}, "
            f"cond={policy.get('condition_number'):.3g}, "
            f"shrink={policy.get('shrink_theta'):.3g} K"
        )
    if outcome.cached:
        print(f"[served from schedule cache {outcome.cache_key}]")
    if outcome.stats is not None:
        print(outcome.stats.format())
    if trace_sink is not None:
        print(f"[trace written to {args.trace}]")
    return 0


#: Default solver set for ``repro certify``: the paper's four
#: comparison approaches.
CERTIFY_DEFAULT_SOLVERS = ("LNS", "EXS", "AO", "PCO")


def _as_tuple(value) -> tuple:
    """Grid options accept a scalar (-o core_counts=3) or a tuple."""
    return value if isinstance(value, tuple) else (value,)


def _cmd_certify(args: argparse.Namespace) -> int:
    from repro.algorithms.registry import SOLVERS, get_solver, guarded_solve
    from repro.errors import ConfigurationError, InfeasibleError
    from repro.safety.certificate import certify_grid
    from repro.safety.faults import FaultSpec, perturbed_peak
    from repro.service.session import default_session

    names = args.solvers or list(CERTIFY_DEFAULT_SOLVERS)
    specs = []
    for name in names:
        try:
            specs.append(get_solver(name))
        except KeyError:
            print(
                f"unknown solver {name!r}; known: {', '.join(SOLVERS)}",
                file=sys.stderr,
            )
            return 2

    options = dict(args.option)
    core_counts = _as_tuple(options.pop("core_counts", (2, 3)))
    level_counts = _as_tuple(options.pop("level_counts", (2,)))
    t_max_values = _as_tuple(options.pop("t_max_values", (65.0,)))
    platforms = _as_tuple(options.pop("platforms", ("paper",)))
    from repro.platforms import PlatformSpec, preset_on_axes

    for flavor in platforms:
        try:
            PlatformSpec.named(str(flavor))
        except ConfigurationError as exc:
            print(
                f"certify: unknown platform flavor {flavor!r}: {exc}",
                file=sys.stderr,
            )
            return 2
    platform_kwargs = {
        k: options.pop(k)
        for k in ("t_ambient_c", "tau", "topology")
        if k in options
    }
    session = default_session()

    faults = None
    if args.faults:
        try:
            faults = FaultSpec.from_dict(dict(args.faults))
        except ConfigurationError as exc:
            print(f"certify: {exc}", file=sys.stderr)
            return 2

    # Pass 1 — solve the whole sweep, collecting rows; the expensive
    # re-derivations (--reference recertification, --faults perturbed
    # peaks) are deferred to the passes below.
    cells = [
        (n, lv, tm, str(flavor))
        for n in core_counts
        for lv in level_counts
        for tm in t_max_values
        for flavor in platforms
    ]
    entries: list[dict] = []
    for n, lv, tm, flavor in cells:
        engine = session.engine_for(
            preset_on_axes(
                flavor, n_cores=int(n), n_levels=int(lv), t_max_c=float(tm),
                **platform_kwargs,
            ).build()
        )
        suffix = "" if flavor == "paper" else f" [{flavor}]"
        header = f"platform: {n} cores, {lv} levels, T_max {tm} C{suffix}"
        for spec in specs:
            kwargs = {
                k: v for k, v in options.items() if k in spec.params
            }
            if args.quick:
                for key, value in spec.quick.items():
                    kwargs.setdefault(key, value)
            entry: dict = {
                "header": header, "engine": engine, "spec": spec,
            }
            try:
                result = guarded_solve(
                    spec, engine,
                    certify_tolerance=args.tolerance, **kwargs,
                )
            except InfeasibleError as exc:
                entry["infeasible"] = str(exc)
            else:
                entry["result"] = result
                entry["cert"] = result.certificate
            entries.append(entry)

    solved = [e for e in entries if "result" in e]

    # Pass 2 — LSODA-backed recertification of every real schedule in one
    # certify_grid call (the analytic routes evaluate as a single grid;
    # the oracle runs scalar with adaptive density).
    if args.reference:
        recert = [
            e for e in solved if e["spec"].schedule_is_artifact
        ]
        cert_kwargs = (
            {} if args.tolerance is None else {"tolerance": args.tolerance}
        )
        certs = certify_grid(
            [
                (
                    e["engine"],
                    e["result"].schedule,
                    {
                        "claimed_peak": e["result"].peak_theta,
                        "claimed_feasible": e["result"].feasible,
                        "claimed_throughput": e["result"].throughput,
                    },
                )
                for e in recert
            ],
            reference=True,
            **cert_kwargs,
        )
        for e, cert in zip(recert, certs):
            e["cert"] = cert

    # Pass 3 — the perturbed peak of every real schedule.
    if faults is not None:
        for e in solved:
            if e["spec"].schedule_is_artifact:
                e["faulted_peak"] = perturbed_peak(
                    e["engine"], e["result"].schedule, faults
                )

    # Pass 4 — report in sweep order.
    certified = rejected = fallbacks = 0
    last_header = None
    for entry in entries:
        if entry["header"] != last_header:
            print(entry["header"])
            last_header = entry["header"]
        spec = entry["spec"]
        if "infeasible" in entry:
            print(f"  {spec.name}: infeasible ({entry['infeasible']})")
            continue
        result, cert = entry["result"], entry["cert"]
        certified += 1
        print(f"  {spec.name}: {cert.summary()}")
        fallback = (result.details or {}).get("fallback")
        if fallback:
            fallbacks += 1
            print(
                f"    degraded via fallback hop "
                f"{fallback['hop']!r} ({fallback['failure']})"
            )
        if not cert.accepted:
            rejected += 1
        if "faulted_peak" in entry:
            peak = entry["faulted_peak"]
            margin = entry["engine"].theta_max - peak
            print(
                f"    under faults: peak {peak:.4f} K, "
                f"margin {margin:+.4f} K"
            )
    print(
        f"\n[{certified} certificate(s): {certified - rejected} accepted, "
        f"{rejected} rejected, {fallbacks} via fallback]"
    )
    return 4 if rejected else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import ScheduleServer

    server = ScheduleServer(
        host=args.host,
        port=args.port,
        run_dir=args.run_dir,
    )
    if args.stdio:
        asyncio.run(server.serve_stdio())
    else:

        async def _run() -> None:
            host, port = await server.start()
            # Machine-readable first line: smoke scripts parse the port.
            print(f"serving on {host}:{port}", flush=True)
            await server.serve_until_shutdown()

        try:
            asyncio.run(_run())
        except KeyboardInterrupt:
            pass
    stats = server.service_stats()
    print(
        f"[served {stats['served']} request(s), {stats['failed']} failed, "
        f"{stats['coalescer']['coalesced_batches']} coalesced batch(es)]"
    )
    if args.run_dir:
        print(f"[journal written to {args.run_dir} — see 'repro stats']")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.errors import RunnerError
    from repro.obs import run_dir_summary

    try:
        summary = run_dir_summary(args.run_dir)
    except RunnerError as exc:
        print(f"stats: {exc}", file=sys.stderr)
        return 2
    print(summary.format())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (subcommands bound to handlers)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the tables and figures of 'Performance Maximization "
            "via Frequency Oscillation on Temperature Constrained Multi-core "
            "Processors' (ICPP 2016)."
        ),
    )
    sub = parser.add_subparsers(dest="command")

    def add_run_arguments(p_run: argparse.ArgumentParser) -> None:
        p_run.add_argument("experiment", help="experiment id (see 'repro list')")
        p_run.add_argument(
            "--quick",
            action="store_true",
            help="run a scale-reduced version (seconds instead of minutes)",
        )
        _add_option_argument(p_run, "experiment")
        p_run.add_argument(
            "--csv",
            metavar="PATH",
            help=(
                "additionally write the result grid as CSV "
                "(experiments exposing a grid only)"
            ),
        )
        p_run.add_argument(
            "--trace",
            metavar="PATH",
            help=(
                "stream observability spans to PATH as JSON Lines "
                "(includes per-unit spans recovered from the journal)"
            ),
        )
        runner_group = p_run.add_argument_group(
            "sharded runner (grid experiments only)"
        )
        runner_group.add_argument(
            "--parallel",
            action="store_true",
            help="fan work units out over worker processes",
        )
        runner_group.add_argument(
            "--workers",
            type=int,
            metavar="N",
            help="worker process count (implies --parallel; default: CPU count)",
        )
        runner_group.add_argument(
            "--timeout",
            type=float,
            metavar="S",
            help="per-unit wall-clock deadline in seconds (parallel mode)",
        )
        runner_group.add_argument(
            "--retries",
            type=int,
            metavar="N",
            help="retries per failed unit before its error row is final (default 1)",
        )
        runner_group.add_argument(
            "--run-dir",
            metavar="DIR",
            help="journal finished units into DIR (enables later --resume)",
        )
        runner_group.add_argument(
            "--resume",
            metavar="DIR",
            help="continue an interrupted run from DIR, re-running only missing units",
        )

    p_run = sub.add_parser("run", help="regenerate one table/figure of the paper")
    add_run_arguments(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_solve = sub.add_parser(
        "solve", help="run one registered scheduler on a paper platform"
    )
    p_solve.add_argument("solver", help="solver name (see 'repro list')")
    p_solve.add_argument(
        "--quick",
        action="store_true",
        help="apply the solver's scale-reduced preset",
    )
    _add_option_argument(p_solve, "solver or platform")
    p_solve.add_argument(
        "--trace",
        metavar="PATH",
        help="stream the solver's observability spans to PATH as JSON Lines",
    )
    p_solve.add_argument(
        "--margin-policy",
        choices=("off", "shrink"),
        default="off",
        help=(
            "'shrink' re-solves against a T_max tightened by the "
            "certificate's reference-route disagreement on "
            "ill-conditioned platforms"
        ),
    )
    p_solve.set_defaults(func=_cmd_solve)

    p_cert = sub.add_parser(
        "certify",
        help="independently certify solver schedules over a platform grid",
    )
    p_cert.add_argument(
        "solvers",
        nargs="*",
        help=(
            "solver names to certify "
            f"(default: {' '.join(CERTIFY_DEFAULT_SOLVERS)})"
        ),
    )
    p_cert.add_argument(
        "--quick",
        action="store_true",
        help="apply each solver's scale-reduced preset",
    )
    _add_option_argument(p_cert, "solver, platform, or grid")
    p_cert.add_argument(
        "--tolerance",
        type=float,
        metavar="K",
        help="max disagreement (K) between certification routes before rejection",
    )
    p_cert.add_argument(
        "--reference",
        action="store_true",
        help="add the LSODA ODE reference oracle as a certification route (slow)",
    )
    p_cert.add_argument(
        "--faults",
        action="append",
        default=[],
        type=_parse_option,
        metavar="KEY=VALUE",
        help=(
            "also report each certified schedule's margin under an injected "
            "fault scenario (repeatable; e.g. --faults stuck_core=0 "
            "--faults ambient_drift_k=2)"
        ),
    )
    p_cert.set_defaults(func=_cmd_certify)

    p_serve = sub.add_parser(
        "serve",
        help=(
            "serve solve/evaluate/certify requests as newline-delimited "
            "JSON (TCP or --stdio), with request coalescing and the "
            "schedule cache"
        ),
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    p_serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0 = ephemeral; the bound port is printed)",
    )
    p_serve.add_argument(
        "--stdio",
        action="store_true",
        help="serve stdin/stdout instead of TCP (one request per line)",
    )
    p_serve.add_argument(
        "--run-dir",
        metavar="DIR",
        help="journal served requests into DIR (readable by 'repro stats')",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_stats = sub.add_parser(
        "stats", help="summarize a journaled run directory (spans + counters)"
    )
    p_stats.add_argument("run_dir", help="run directory (the --run-dir of a sweep)")
    p_stats.set_defaults(func=_cmd_stats)

    p_list = sub.add_parser(
        "list", help="enumerate the experiment, solver and platform registries"
    )
    p_list.add_argument(
        "what",
        nargs="?",
        choices=("experiments", "solvers", "platforms"),
        help="restrict the listing to one registry (default: all)",
    )
    p_list.set_defaults(func=_cmd_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(sys.argv[1:] if argv is None else argv))
    if getattr(args, "func", None) is None:
        parser.print_help()
        return 2
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
