"""Power models: voltage-cubic dynamic power + temperature-dependent leakage."""

from repro.power.model import PowerModel
from repro.power.heterogeneous import HeterogeneousPowerModel, big_little_power_model
from repro.power.dvfs import (
    VoltageLadder,
    TransitionOverhead,
    PAPER_LADDERS,
    paper_ladder,
    full_ladder,
)

__all__ = [
    "PowerModel",
    "HeterogeneousPowerModel",
    "big_little_power_model",
    "VoltageLadder",
    "TransitionOverhead",
    "PAPER_LADDERS",
    "paper_ladder",
    "full_ladder",
]
