"""Scalar root finding: Brent's method, ported from SciPy's C ``brentq``.

The thermal kernels refine each bracketed temperature extremum with one
Brent solve on the derivative (:mod:`repro.thermal.matex`,
:mod:`repro.thermal.batch`).  That is the only root finding the request
path needs, and importing :mod:`scipy.optimize` for it costs more start-up
time and resident memory than every solve that follows.  :func:`brentq`
is a line-for-line port of ``scipy/optimize/Zeros/brentq.c`` together
with the checks of its Python wrapper: the same defaults, the same
floating-point operations in the same order, the same errors.  It returns
what ``scipy.optimize.brentq`` returns, compared with ``==``
(``tests/test_roots.py`` holds it to that).

Python floats are IEEE doubles like C's, with two differences the port
spells out: a division by zero raises in Python (:func:`_div` gives
IEEE's infinity or NaN instead), and ``min`` picks its first argument on
ties and NaNs where C's ``MIN`` macro picks its second.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable

__all__ = ["brentq"]

#: SciPy's defaults, which every caller uses: absolute and relative
#: tolerance, iteration cap.
XTOL = 2e-12
RTOL = 4 * sys.float_info.epsilon
MAXITER = 100


def _div(num: float, den: float) -> float:
    """``num / den`` with IEEE semantics at ``den == 0``."""
    if den != 0.0:
        return num / den
    if num != num or num == 0.0:
        return math.nan
    return math.copysign(math.inf, num) * math.copysign(1.0, den)


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0.0


def brentq(f: Callable[..., float], a: float, b: float, args: tuple = ()) -> float:
    """A root of ``f`` in ``[a, b]``; ``f(a)`` and ``f(b)`` differ in sign.

    Converges when the bracket's half-width falls below
    ``(XTOL + RTOL * |x|) / 2`` or ``f(x) == 0``.

    Raises
    ------
    ValueError
        ``f(a)`` and ``f(b)`` have the same sign, or ``f`` returned NaN.
    RuntimeError
        No convergence within ``MAXITER`` iterations.
    """
    if not isinstance(args, tuple):
        args = (args,)

    def call(x: float) -> float:
        fx = float(f(x, *args))
        if fx != fx:
            raise ValueError(
                f"The function value at x={x} is NaN; solver cannot continue."
            )
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(MAXITER):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (XTOL + RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = _div(-fcur * (xcur - xpre), fcur - fpre)
            else:
                # extrapolate
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(
                    -fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre)
                )
            bound = 3 * abs(sbis) - delta
            if abs(spre) < bound:
                bound = abs(spre)
            if 2 * abs(stry) < bound:
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta

        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {MAXITER} iterations.")
