"""``repro serve`` under the benchmark: the real CLI plus speed samples.

Usage::

    python perfbench/serve_boot.py OUT.json [--trace] serve --port 0 --run-dir DIR

Everything after ``OUT.json`` (and ``--trace``) is passed to
``repro.cli.main`` unchanged.  Untraced, speed calibration samples run in
the server's main thread from process start to shutdown
(``common.SpeedSampler``), so the client can normalize each request by
the server's speed while it was in flight.  With ``--trace`` the tracer
is installed instead.  At shutdown ``OUT.json`` receives the samples
and their timestamps, or the per-layer aggregate of the server lifetime.
"""

from __future__ import annotations

import json
import sys
import time

from common import SpeedSampler


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    traced = argv[:1] == ["--trace"]
    if traced:
        argv = argv[1:]
    sampler = SpeedSampler()
    if traced:
        from repro.cli import main as cli_main
        from tracer import Tracer, install, install_server

        tracer = Tracer()
        install(tracer)
        install_server(tracer)
        t0 = time.perf_counter()
        code = cli_main(argv)
        wall = time.perf_counter() - t0
        tracer.uninstall()
        doc = {"trace": tracer.report(wall)}
    else:
        with sampler:
            from repro.cli import main as cli_main

            code = cli_main(argv)
        doc = {"samples": sampler.samples, "stamps": sampler.stamps}
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
