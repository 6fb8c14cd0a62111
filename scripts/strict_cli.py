#!/usr/bin/env python3
"""Run one ``repro`` CLI command with floating-point events as errors.

Overflow, invalid operations and division by zero raise
``FloatingPointError`` (``np.errstate``), and every ``RuntimeWarning``
is raised as an exception, so a smoke run that silently produced NaN or
inf fails instead of printing a table.  Underflow keeps numpy's default:
gradual underflow of ``exp(lam * t)`` for large ``t`` is expected in the
thermal propagators.  The exit status is the CLI's.

Usage: PYTHONPATH=src python scripts/strict_cli.py run control --quick
"""

from __future__ import annotations

import sys
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            from repro.cli import main as repro_main

            return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
