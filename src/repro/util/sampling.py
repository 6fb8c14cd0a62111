"""Random task-set sampling shared by the workload and real-time models."""

from __future__ import annotations

import numpy as np

__all__ = ["uunifast"]


def uunifast(
    n_tasks: int,
    total: float,
    rng: np.random.Generator,
    cap: float = np.inf,
    max_draws: int = 1,
) -> np.ndarray | None:
    """UUniFast (Bini & Buttazzo): an unbiased split of ``total`` in ``n_tasks``.

    Draws up to ``max_draws`` splits and returns the first whose largest
    share is at most ``cap``, or ``None`` once the budget is spent.  Each
    draw consumes ``n_tasks - 1`` uniforms from ``rng``.
    """
    for _ in range(max_draws):
        shares = []
        remaining = total
        for i in range(n_tasks - 1):
            nxt = remaining * rng.random() ** (1.0 / (n_tasks - 1 - i))
            shares.append(remaining - nxt)
            remaining = nxt
        shares.append(remaining)
        if max(shares) <= cap:
            return np.asarray(shares)
    return None
