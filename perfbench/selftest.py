"""Fast self-test of the benchmark (``run.py --selftest``).

Runs every workload at a tiny size, untraced and traced, and checks:

* every metric named in ``BENCHMARK.json`` is emitted, with its unit,
  as a finite number, and the catalogues in ``BENCHMARK.json`` and the
  code agree;
* the outputs were correct;
* the per-layer counts (``*.calls``, ``*.rows``, ``engine.*`` and the
  other counters ``layers.repeatable`` names) repeat exactly between two
  traced runs on one seed.
"""

from __future__ import annotations

import json
import math

import layers
from common import ROOT

SEED = 7


def _check_metrics(doc: dict, expect: dict, where: str, problems: list) -> None:
    for name, unit in expect.items():
        got = doc["metrics"].get(name)
        if got is None:
            problems.append(f"{where}: metric {name} missing")
        elif got["unit"] != unit:
            problems.append(f"{where}: {name} unit {got['unit']} != {unit}")
        elif not (isinstance(got["value"], (int, float)) and math.isfinite(got["value"])):
            problems.append(f"{where}: {name} = {got['value']!r}")
    extra = set(doc["metrics"]) - set(expect)
    if extra:
        problems.append(f"{where}: unexpected metrics {sorted(extra)}")
    if not doc["correct"] or doc["attempted"] < 1:
        problems.append(f"{where}: correct={doc['correct']} attempted={doc['attempted']}")


def selftest() -> int:
    from run import END_TO_END, WORKLOADS, Run, execute

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems: list[str] = []
    if e2e != dict(END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if per_layer != dict(layers.catalogue()):
        problems.append("BENCHMARK.json per_layer differs from layers.catalogue()")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")

    for workload in WORKLOADS:
        docs = []
        for trace in (False, True, True):
            run = Run(workload, SEED, 20.0, trace, tiny=True)
            doc = execute(run)
            where = f"{workload} trace={int(trace)}"
            _check_metrics(doc, per_layer if trace else e2e, where, problems)
            problems.extend(f"{where}: {p}" for p in run.problems)
            docs.append(doc)
            print(f"selftest: {where}: {len(doc['metrics'])} metrics, "
                  f"attempted={doc['attempted']} failed={doc['failed']}")
        first, second = docs[1]["metrics"], docs[2]["metrics"]
        for name in per_layer:
            if layers.repeatable(name, workload) and first[name]["value"] != second[name]["value"]:
                problems.append(
                    f"{workload}: count {name} differs between runs "
                    f"({first[name]['value']} vs {second[name]['value']})"
                )
    for problem in problems:
        print(f"selftest FAIL: {problem}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1
