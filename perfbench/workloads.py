"""Seeded input generators of the three workloads.

Everything here is plain data: the program only ever sees the requests
these functions return.  The same ``(seed, size)`` always yields the
same inputs, and the mix of platform and solver classes is stratified
(every class appears the same number of times in every run), so seeds
change the keys and the order, not the kind of work.
"""

from __future__ import annotations

import random

SOLVE_COLD_SOLVERS = ("AO", "PCO", "EXS", "LNS", "integral")

#: Platform classes of ``solve-cold``: the paper platform over
#: cores x levels x T_max, plus the heterogeneous, stacked and
#: generated-technology presets.  22 classes > the session's 8-engine LRU.
SOLVE_COLD_PLATFORMS = tuple(
    {"name": "paper", "n_cores": n, "n_levels": lv, "t_max_c": t}
    for n in (2, 3, 6, 9)
    for lv in (2, 3)
    for t in (55.0, 65.0)
) + tuple(
    {"name": name}
    for name in (
        "big_little", "stack3d", "tech-45-io", "tech-22-o3", "tech-16-io",
        "tech-8-o3",
    )
)

#: Nominal cost of one ``solve-cold`` pass (every platform class with
#: every solver once) on a 2-core x86 box; sizes the work to --seconds.
SOLVE_COLD_PASS_S = 6.5

BASE_TAU = 5e-6


def _tau(rng: random.Random, used: set) -> float:
    """A DVFS overhead within 0.1 % of the default, unique per call site.

    Varying tau makes every platform a distinct cache key (it is part of
    the platform hash) while leaving the RC network, and so the kind of
    thermal work, unchanged.
    """
    while True:
        tau = BASE_TAU * (1.0 + rng.randrange(1, 1_000_000) * 1e-9)
        if tau not in used:
            used.add(tau)
            return tau


def _solver_params(solver: str, k: int) -> dict:
    """Parameters of the ``k``-th pass: cycled, so every run of a given
    size asks for the same solver work whatever the seed."""
    if solver == "AO":
        return {"m_cap": (12, 16, 20)[k % 3]}
    if solver == "PCO":
        return {"m_cap": (12, 16, 14)[k % 3], "shift_grid": 4}
    if solver == "LNS":
        return {"period": (0.01, 0.02, 0.04)[k % 3]}
    if solver == "integral":
        return {"horizon": 0.02, "gain_scale": (0.8, 0.9, 1.0)[k % 3]}
    return {}


def solve_cold_passes(seconds: float) -> int:
    return max(1, round(seconds / SOLVE_COLD_PASS_S))


def solve_cold_requests(seed: int, passes: int) -> list[dict]:
    """``passes`` shuffled passes of distinct ``(platform, solver, params)``.

    In each pass every platform class gets one fresh DVFS overhead, shared
    by its five solver requests, so engines are reused only when the
    shuffled order brings a platform back while it is still in the LRU.
    """
    rng = random.Random(f"solve-cold/{seed}")
    used: set = set()
    requests = []
    for k in range(passes):
        batch = []
        for cls in SOLVE_COLD_PLATFORMS:
            platform = dict(cls, tau=_tau(rng, used))
            for solver in SOLVE_COLD_SOLVERS:
                batch.append(
                    {
                        "platform": platform,
                        "solver": solver,
                        "params": _solver_params(solver, k),
                    }
                )
        rng.shuffle(batch)
        requests.extend(batch)
    return requests


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------

#: Offered request rates (requests/second) of the three open-loop phases.
SERVE_RATES = {"low": 100.0, "mid": 200.0, "high": 400.0}

#: Largest p99 latency (ms) a rate may show and still count as met.
SERVE_P99_LIMIT_MS = 250.0

#: Request mix of the timed phases.
SERVE_MIX = (("hit", 0.79), ("evaluate", 0.085), ("certify", 0.085), ("miss", 0.04))

_HIT_PLATFORMS = tuple(
    {"name": "paper", "n_cores": n, "n_levels": lv, "t_max_c": 55.0}
    for n in (2, 3) for lv in (2, 3)
) + ({"name": "big_little"},)

_HIT_SOLVERS = (
    ("AO", {"m_cap": 16}),
    ("PCO", {"m_cap": 16, "shift_grid": 4}),
    ("EXS", {}),
    ("LNS", {}),
)

#: Fresh-key solves, cycled: half are the same AO class (tens of ms
#: inline, so the p99 lands inside one homogeneous group of blocking
#: misses), half cheap solvers of a millisecond or a few.
_AO_MISS = ({"name": "paper", "n_cores": 2, "n_levels": 2, "t_max_c": 65.0}, "AO", {"m_cap": 8})
_MISS_CLASSES = (
    _AO_MISS,
    ({"name": "paper", "n_cores": 2, "n_levels": 2, "t_max_c": 55.0}, "LNS", {}),
    _AO_MISS,
    ({"name": "paper", "n_cores": 3, "n_levels": 2, "t_max_c": 55.0}, "EXS", {}),
    _AO_MISS,
    ({"name": "paper", "n_cores": 2, "n_levels": 3, "t_max_c": 65.0}, "integral",
     {"horizon": 0.02}),
)


def serve_phase_sizes(seconds: float) -> dict[str, int]:
    """Requests per rate phase: 1000 at the low and high rates and 2000 at
    the mid rate (whose p50 and p99 are reported) in a 20-second run."""
    n = max(20, round(1000 * seconds / 20.0))
    return {"low": n, "mid": 2 * n, "high": n}


def serve_hit_keys() -> list[dict]:
    """The solve requests the server answers from its cache once warm."""
    return [
        {"op": "solve", "platform": p, "solver": s, "params": dict(params)}
        for p in _HIT_PLATFORMS
        for s, params in _HIT_SOLVERS
    ]


def serve_phase_requests(
    seed: int, phase: str, n: int, schedules: list[tuple[dict, dict]]
) -> list[dict]:
    """``n`` requests of one rate phase in a seeded, stratified order.

    ``schedules`` are ``(platform, schedule_doc)`` pairs taken from the
    warm-up responses; evaluate and certify requests price them.
    """
    rng = random.Random(f"serve-mixed/{seed}/{phase}")
    hits = serve_hit_keys()
    used: set = set()
    counts = {kind: round(share * n) for kind, share in SERVE_MIX}
    counts["hit"] = n - sum(v for k, v in counts.items() if k != "hit")
    requests = []
    for i in range(counts["hit"]):
        requests.append(dict(hits[rng.randrange(len(hits))]))
    for i in range(counts["evaluate"]):
        platform, schedule = schedules[rng.randrange(len(schedules))]
        requests.append({"op": "evaluate", "platform": platform, "schedule": schedule})
    for i in range(counts["certify"]):
        platform, schedule = schedules[rng.randrange(len(schedules))]
        requests.append({"op": "certify", "platform": platform, "schedule": schedule})
    for i in range(counts["miss"]):
        platform, solver, params = _MISS_CLASSES[i % len(_MISS_CLASSES)]
        requests.append(
            {
                "op": "solve",
                "platform": dict(platform, tau=_tau(rng, used)),
                "solver": solver,
                "params": dict(params),
            }
        )
    rng.shuffle(requests)
    return requests


# ----------------------------------------------------------------------
# sweep-grid
# ----------------------------------------------------------------------

#: Nominal cost of one sweep process (set-up included).
SWEEP_NOMINAL_S = 7.0


def sweeps_per_run(seconds: float) -> int:
    return max(2, round(seconds / SWEEP_NOMINAL_S))


def sweep_grid(seed: int, small: bool = False) -> dict:
    """Keyword arguments of one ``comparison`` sweep.

    The seed picks the DVFS overhead within 0.1 % of the default, so
    seeds give different inputs (and schedules) of the same cost.
    """
    tau = _tau(random.Random(f"sweep-grid/{seed}"), set())
    if small:
        return {
            "core_counts": [2, 3],
            "level_counts": [2],
            "t_max_values": [55.0],
            "m_cap": 16,
            "tau": tau,
        }
    return {
        "core_counts": [2, 3, 6, 9],
        "level_counts": [2, 3],
        "t_max_values": [55.0, 65.0],
        "m_cap": 64,
        "tau": tau,
    }
