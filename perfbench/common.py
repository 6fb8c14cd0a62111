"""Shared helpers of the benchmark: paths, child environments, statistics.

The orchestrator (``run.py``) never imports the program; every process
that does is a child started through :func:`child_env`, so each run gets
fresh interpreter state, a private eigenbasis-cache directory and no
shared schedule-cache directory.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Thread pools are pinned to one thread: results stay bit-reproducible
#: and a run does not compete with itself for the machine's cores.
_PINNED_THREADS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def check_checkout() -> None:
    """Fail fast when the program's sources are not next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program sources at {SRC / 'repro'}; run from a "
            "full checkout"
        )


def child_env(work: Path, eig_dir: Path) -> dict[str, str]:
    """Environment of a child process that imports the program.

    Every ``REPRO_*`` variable of the caller is dropped (no shared
    schedule-cache directory, no disabled caches), the eigenbasis cache
    points at ``eig_dir`` (private to one process) and temporary files
    land in ``work``.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(work)
    env["REPRO_EIG_CACHE_DIR"] = str(eig_dir)
    for name in _PINNED_THREADS:
        env[name] = "1"
    return env


def python_cmd(script: str, *args: str) -> list[str]:
    """Command line running one of the benchmark's own scripts."""
    return [sys.executable, str(BENCH_DIR / script), *args]


def start_until_line(cmd, env, prefix: str, timeout: float = 60.0):
    """Start ``cmd`` and wait for its first stdout line.

    Returns ``(proc, line, seconds)``: the seconds from process start to
    that line are the set-up time of the process.  The line must start
    with ``prefix``; otherwise the process is killed and an error raised.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, env=env, cwd=str(ROOT), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline().strip()
    elapsed = time.perf_counter() - t0
    if not line.startswith(prefix):
        proc.kill()
        _, err = proc.communicate(timeout=timeout)
        raise RuntimeError(
            f"{' '.join(cmd[:3])}: expected {prefix!r}, got {line!r}\n{err[-2000:]}"
        )
    return proc, line, elapsed


def finish(proc: subprocess.Popen, timeout: float = 170.0) -> str:
    """Wait for a child started by :func:`start_until_line`; raise on failure."""
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}:\n{err[-3000:]}")
    return out


def median(values) -> float:
    values = sorted(values)
    if not values:
        return float("nan")
    mid = len(values) // 2
    if len(values) % 2:
        return float(values[mid])
    return 0.5 * (values[mid - 1] + values[mid])


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    values = sorted(values)
    if not values:
        return float("nan")
    rank = max(1, math.ceil(q / 100.0 * len(values)))
    return float(values[rank - 1])


def throughput_digest(values) -> str:
    """Digest of per-request schedule throughputs, in request order.

    Twelve significant digits: a pure speed change leaves every value
    bit-identical, and the rounding keeps the digest independent of the
    last bit of a float's decimal representation.
    """
    text = ",".join("none" if v is None else f"{v:.12g}" for v in values)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:24]


def load_digests() -> dict[str, str]:
    path = BENCH_DIR / "digests.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


def record_digest(key: str, digest: str) -> None:
    """Store one digest in ``digests.json`` (``run.py --record-digest``)."""
    digests = load_digests()
    digests[key] = digest
    path = BENCH_DIR / "digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


#: Seconds one :func:`calibration_sample` takes on the reference box
#: (about the median on a 2-core x86 VM).  Times are reported in
#: seconds of that machine (see :func:`speed_factor`).
CAL_REF_S = 3.5e-4


def _cal_step(i: int, table: dict, items: list) -> float:
    key = f"k{i & 127}"
    table[key] = table.get(key, 0) + i
    items.append(i * 0.5)
    if len(items) > 64:
        items.clear()
    return (i % 13) * 1.25


def calibration_sample() -> float:
    """Time a fixed mix of interpreter work: calls, dicts, lists, floats.

    The benchmark's host runs at a speed that drifts by 10-30 % over
    seconds to minutes (frequency scaling, busy neighbours).  Samples
    taken in the process doing the work, between its requests, measure
    that drift; dividing it out makes runs at different moments
    comparable.
    """
    t0 = time.perf_counter()
    table: dict = {}
    items: list = []
    acc = 0.0
    for i in range(400):
        acc += _cal_step(i, table, items)
    return time.perf_counter() - t0


class SpeedSampler:
    """Calibration samples every ``interval`` seconds, in the main thread.

    A ``SIGALRM`` handler runs between bytecodes of the thread doing the
    work, so the samples see the same core at the same moments as the
    work does.  Each sample costs about 0.35 ms, under 1 % at the default
    interval; ``spent`` is their total, to take out of a wall time.
    """

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.stamps: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.samples.append(calibration_sample())
        self.stamps.append(time.perf_counter())

    @property
    def spent(self) -> float:
        return sum(self.samples)

    def factor(self) -> float:
        """The speed factor over all samples (1.0 without any)."""
        return speed_factor(self.samples) if self.samples else 1.0

    def attribute(self, windows, pad: float = 0.0) -> tuple[list[float], list[float]]:
        """Per ``(start, end)`` window: its seconds without the samples
        taken inside it, and the speed factor of the samples within
        ``pad`` seconds of it (of the nearest sample when there are none;
        1.0 without any samples)."""
        import bisect

        seconds, factors = [], []
        for t0, t1 in windows:
            lo = bisect.bisect_left(self.stamps, t0)
            hi = bisect.bisect_right(self.stamps, t1)
            seconds.append(t1 - t0 - sum(self.samples[lo:hi]))
            lo = bisect.bisect_left(self.stamps, t0 - pad)
            hi = bisect.bisect_right(self.stamps, t1 + pad)
            inside = self.samples[lo:hi]
            if not inside and self.samples:
                near = min(
                    (j for j in (lo - 1, lo) if 0 <= j < len(self.samples)),
                    key=lambda j: abs(self.stamps[j] - t1),
                )
                inside = [self.samples[near]]
            factors.append(speed_factor(inside) if inside else 1.0)
        return seconds, factors

    def __enter__(self) -> "SpeedSampler":
        import signal

        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def speed_factor(samples) -> float:
    """Mean of ``CAL_REF_S / sample``: multiply a time, divide a rate.

    A mean of per-sample speeds, not the speed of the median sample: with
    samples evenly spread over a window, it weights the fast and the slow
    stretches of the window by how long they lasted.
    """
    return sum(CAL_REF_S / s for s in samples) / len(samples)


def peak_child_rss_mb() -> float:
    """Largest resident set of any child process waited for so far."""
    import resource

    kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0
