"""Discrete DVFS machinery: voltage ladders and transition overhead.

A :class:`VoltageLadder` is the per-core set of discrete running modes
(each mode being a supply voltage; the paper uses ``v`` and ``f``
interchangeably as normalized speed).  :class:`TransitionOverhead` models
the clock-halt ``tau`` per DVFS switch and the derived quantities the AO
algorithm needs (section V):

* throughput compensation ``delta_i = (v_H + v_L) * tau / (v_H - v_L)``
  — the extra high-voltage time per oscillation cycle that restores the
  work lost to two transitions,
* the per-core oscillation bound ``M_i = floor(t_L / (delta_i + tau))``
  — the low-voltage interval must stay long enough to host the switches.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor

import numpy as np

from repro.errors import ModeError, PowerModelError
from repro.tolerances import LEVEL_ATOL

__all__ = [
    "VoltageLadder",
    "TransitionOverhead",
    "PAPER_LADDERS",
    "paper_ladder",
    "full_ladder",
]


@dataclass(frozen=True)
class VoltageLadder:
    """An ordered set of discrete supply-voltage levels.

    Attributes
    ----------
    levels:
        Strictly increasing tuple of available voltages in volts.
    """

    levels: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.levels) < 1:
            raise ModeError("a voltage ladder needs at least one level")
        levels = tuple(float(v) for v in self.levels)
        if any(v <= 0 for v in levels):
            raise ModeError(f"voltage levels must be positive, got {levels}")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ModeError(f"voltage levels must be strictly increasing, got {levels}")
        object.__setattr__(self, "levels", levels)

    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self):
        return iter(self.levels)

    @property
    def v_min(self) -> float:
        """Lowest available voltage."""
        return self.levels[0]

    @property
    def v_max(self) -> float:
        """Highest available voltage."""
        return self.levels[-1]

    def contains(self, v: float) -> bool:
        """Whether ``v`` is one of the discrete levels (within tolerance)."""
        return any(abs(v - lvl) <= LEVEL_ATOL for lvl in self.levels)

    def index_of(self, v: float) -> int:
        """Index of level ``v``; raises :class:`ModeError` if absent."""
        for i, lvl in enumerate(self.levels):
            if abs(v - lvl) <= LEVEL_ATOL:
                return i
        raise ModeError(f"voltage {v} is not a ladder level {self.levels}")

    def lower_neighbor(self, v: float) -> float:
        """Largest level ``<= v`` (the LNS rounding).

        Raises
        ------
        ModeError
            If ``v`` is below the lowest level — no feasible rounding exists.
        """
        candidates = [lvl for lvl in self.levels if lvl <= v + LEVEL_ATOL]
        if not candidates:
            raise ModeError(
                f"no ladder level at or below {v} (lowest is {self.v_min})"
            )
        return candidates[-1]

    def upper_neighbor(self, v: float) -> float:
        """Smallest level ``>= v``."""
        candidates = [lvl for lvl in self.levels if lvl >= v - LEVEL_ATOL]
        if not candidates:
            raise ModeError(
                f"no ladder level at or above {v} (highest is {self.v_max})"
            )
        return candidates[0]

    def neighbors(self, v: float) -> tuple[float, float]:
        """The two neighboring levels bracketing ``v`` (Theorem 4's choice).

        Returns ``(v_L, v_H)`` with ``v_L <= v <= v_H``.  When ``v`` is
        itself a level, both equal ``v`` (a constant-mode schedule).
        Values outside the ladder range are clamped to the nearest end.
        """
        if v <= self.v_min:
            return self.v_min, self.v_min
        if v >= self.v_max:
            return self.v_max, self.v_max
        if self.contains(v):
            lvl = self.levels[self.index_of(v)]
            return lvl, lvl
        return self.lower_neighbor(v), self.upper_neighbor(v)

    def split_ratios(self, v: float) -> tuple[float, float, float, float]:
        """Two-neighboring-mode decomposition of a continuous speed ``v``.

        Solves eq. (11): find ``(v_L, v_H, r_L, r_H)`` with
        ``r_L * v_L + r_H * v_H = v`` and ``r_L + r_H = 1``.

        Returns
        -------
        (v_L, v_H, r_L, r_H)
            ``r_H = 0`` or ``1`` when ``v`` clamps to a ladder end or hits a
            level exactly.
        """
        v_lo, v_hi = self.neighbors(v)
        if v_hi == v_lo:
            return v_lo, v_hi, 0.0, 1.0
        r_h = (v - v_lo) / (v_hi - v_lo)
        r_h = float(np.clip(r_h, 0.0, 1.0))
        return v_lo, v_hi, 1.0 - r_h, r_h


@dataclass(frozen=True)
class TransitionOverhead:
    """DVFS transition model: the clock halts for ``tau`` per switch.

    Attributes
    ----------
    tau:
        Clock-halt duration per voltage transition in seconds
        (the paper's evaluation uses 5 microseconds).
    """

    tau: float = 5e-6

    def __post_init__(self) -> None:
        if self.tau < 0:
            raise PowerModelError(f"tau must be >= 0, got {self.tau}")

    def delta(self, v_low: float, v_high: float) -> float:
        """Extra high-voltage time restoring the throughput lost per cycle.

        Each oscillation cycle performs two transitions, losing
        ``(v_H + v_L) * tau`` work; extending the high interval by
        ``delta = (v_H + v_L) * tau / (v_H - v_L)`` (and shrinking the low
        interval equally) restores it.
        """
        if v_high <= v_low:
            raise PowerModelError(
                f"delta needs v_high > v_low, got v_low={v_low}, v_high={v_high}"
            )
        return (v_high + v_low) * self.tau / (v_high - v_low)

    def max_m_for_core(self, t_low: float, v_low: float, v_high: float) -> int:
        """Per-core oscillation-count bound ``M_i`` (section V).

        ``t_low`` is the full-period low-voltage time.  Each of the ``m``
        cycles consumes ``delta + tau`` of it, so
        ``M_i = floor(t_low / (delta + tau))``.

        With ``tau == 0`` there is no bound; we return a large sentinel.
        """
        if t_low < 0:
            raise PowerModelError(f"t_low must be >= 0, got {t_low}")
        if self.tau == 0:
            return 10**9
        if t_low == 0:
            return 0
        return int(floor(t_low / (self.delta(v_low, v_high) + self.tau)))

    def max_m(self, cores: list[tuple[float, float, float]]) -> int:
        """Chip-wide bound ``M = min_i M_i`` over oscillating cores.

        Parameters
        ----------
        cores:
            One ``(t_low, v_low, v_high)`` tuple per core that actually uses
            two modes.  Cores running a single constant mode impose no bound
            and must be omitted.
        """
        if not cores:
            return 10**9
        return min(self.max_m_for_core(t, lo, hi) for t, lo, hi in cores)


#: The paper's Table IV: number of available levels -> voltage set.
PAPER_LADDERS: dict[int, tuple[float, ...]] = {
    2: (0.6, 1.3),
    3: (0.6, 0.8, 1.3),
    4: (0.6, 0.8, 1.0, 1.3),
    5: (0.6, 0.8, 1.0, 1.2, 1.3),
}


def paper_ladder(n_levels: int) -> VoltageLadder:
    """Table IV ladder for the given level count (2-5)."""
    try:
        levels = PAPER_LADDERS[n_levels]
    except KeyError:
        raise ModeError(
            f"Table IV defines 2-5 levels, got {n_levels}; "
            "use VoltageLadder(levels=...) for custom ladders"
        ) from None
    return VoltageLadder(levels)


def full_ladder(step: float = 0.05, v_min: float = 0.6, v_max: float = 1.3) -> VoltageLadder:
    """The platform's full ladder: ``[v_min, v_max]`` with the given step.

    The paper's platform exposes [0.6 V, 1.3 V] in 0.05 V steps (15 levels).
    """
    n = int(round((v_max - v_min) / step)) + 1
    levels = tuple(round(v_min + i * step, 10) for i in range(n))
    if abs(levels[-1] - v_max) > LEVEL_ATOL:
        raise ModeError(
            f"step {step} does not evenly divide [{v_min}, {v_max}]"
        )
    return VoltageLadder(levels)
