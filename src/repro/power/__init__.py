"""Power models: voltage-cubic dynamic power + temperature-dependent leakage."""

from repro.power.model import PowerModel, big_little_power_model
from repro.power.dvfs import (
    VoltageLadder,
    TransitionOverhead,
    PAPER_LADDERS,
    paper_ladder,
    full_ladder,
)

__all__ = [
    "PowerModel",
    "big_little_power_model",
    "VoltageLadder",
    "TransitionOverhead",
    "PAPER_LADDERS",
    "paper_ladder",
    "full_ladder",
]
