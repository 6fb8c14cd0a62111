"""Replay a sample of served requests directly on a fresh session.

Usage::

    python perfbench/check_direct.py SAMPLE.json OUT.json

``SAMPLE.json`` holds ``[request, response]`` pairs captured by the
``serve-mixed`` client.  Each request is repeated on a
``SchedulerSession`` in this process; the served numbers must match the
direct ones within 1e-9.  ``OUT.json`` lists every mismatch.
"""

from __future__ import annotations

import json
import sys

TOL = 1e-9


def _close(a, b) -> bool:
    return a is not None and b is not None and abs(a - b) <= TOL * max(1.0, abs(b))


def check(session, request, response) -> str | None:
    from repro.schedule.serialization import schedule_from_dict

    if not response.get("ok"):
        return f"served error: {response.get('error')}"
    op = request["op"]
    if op == "solve":
        direct = session.solve(request["platform"], request["solver"], request["params"])
        if direct.status != response["status"]:
            return f"status {response['status']} != direct {direct.status}"
        if direct.result is None:
            return None
        served = response["result"]["throughput"]
        if not _close(served, direct.result.throughput):
            return f"throughput {served} != direct {direct.result.throughput}"
        peak = (response.get("certificate") or {}).get("peak_theta")
        if not _close(peak, direct.certificate.peak_theta):
            return f"certified peak {peak} != direct {direct.certificate.peak_theta}"
        return None
    schedule = schedule_from_dict(request["schedule"])
    if op == "evaluate":
        (direct,) = session.evaluate_many([(request["platform"], schedule)])
        served = response["evaluation"]
        for key in ("peak_theta", "throughput"):
            if not _close(served[key], getattr(direct, key)):
                return f"evaluate {key} {served[key]} != direct {getattr(direct, key)}"
        return None
    if op == "certify":
        direct = session.certify_schedule(request["platform"], schedule)
        served = response["certificate"]
        if bool(served["accepted"]) != bool(direct.accepted):
            return "certificate verdict differs from direct"
        if not _close(served["peak_theta"], direct.peak_theta):
            return f"certify peak {served['peak_theta']} != direct {direct.peak_theta}"
        return None
    return f"unexpected op {op!r}"


def main() -> int:
    from repro.service.session import SchedulerSession

    with open(sys.argv[1], encoding="utf-8") as fh:
        sample = json.load(fh)
    session = SchedulerSession()
    mismatches = []
    for request, response in sample:
        problem = check(session, request, response)
        if problem is not None:
            mismatches.append({"op": request["op"], "problem": problem})
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump({"checked": len(sample), "mismatches": mismatches}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
