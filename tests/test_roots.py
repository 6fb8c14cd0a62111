"""``repro.util.roots.brentq`` against ``scipy.optimize.brentq`` as oracle.

The port replaces SciPy's C routine on the thermal request path, so it
must return the same double, compared with ``==``, and probe ``f`` at the
same points in the same order.  The brackets are shaped like the two
callers: one node's derivative ``sum_k r_k * lam_k * exp(lam_k * t)``
(``matex._derivative``, and the ``batch`` refine lambda), with 1-9
modes, ``lam`` in ``[-e^8, -1]`` and interval lengths 1e-4 to 0.1 s,
bracketed the way the kernels bracket them: between adjacent samples of
a uniform grid where the sign changes.  Cubics with random roots cover
polynomial shapes.  The error paths raise the same exception types with
the same messages.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from repro.thermal.matex import _derivative
from repro.util import roots
from repro.util.roots import brentq

N_EXP_BRACKETS = 10_000
N_CUBIC_BRACKETS = 2_000


def _exp_sum_brackets(seed: int, count: int):
    """``(row, lambdas, lo, hi)`` with a sign change of the slope in ``[lo, hi]``."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(1, 10))
        lambdas = -np.exp(rng.uniform(0.0, 8.0, n))
        row = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 2.0, n)
        length = 10.0 ** rng.uniform(-4.0, -1.0)
        grid = int(rng.choice([2, 8, 64]))
        times = np.linspace(0.0, length, grid)
        slope = np.sum(
            row * lambdas * np.exp(lambdas * times[:, None]), axis=1
        )
        change = np.nonzero(np.signbit(slope[:-1]) != np.signbit(slope[1:]))[0]
        for i in change[:2]:
            if slope[i] != 0 and slope[i + 1] != 0:
                out.append((row, lambdas, times[i], times[i + 1]))
    return out[:count]


def _cubic_brackets(seed: int, count: int):
    """``(coeffs, lo, hi)`` around one root of a cubic with three real roots."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        roots = np.sort(rng.uniform(-10.0, 10.0, 3))
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        coeffs = scale * np.poly(roots)
        k = int(rng.integers(0, 3))
        left = roots[k - 1] if k > 0 else roots[0] - 5.0
        right = roots[k + 1] if k < 2 else roots[2] + 5.0
        lo = float(rng.uniform(left, roots[k]))
        hi = float(rng.uniform(roots[k], right))
        c = tuple(float(x) for x in coeffs)

        def f(x, c=c):
            return ((c[0] * x + c[1]) * x + c[2]) * x + c[3]

        if math.copysign(1.0, f(lo)) != math.copysign(1.0, f(hi)):
            out.append((f, lo, hi))
    return out


def _probed(solver, f, a, b, **kw):
    """The root and every point ``f`` was evaluated at."""
    xs = []

    def g(x, *args):
        xs.append(x)
        return f(x, *args)

    return solver(g, a, b, **kw), xs


def _outcome(solver, f, a, b, **kw):
    try:
        return ("ok", solver(f, a, b, **kw))
    except (ValueError, RuntimeError) as exc:
        return (type(exc).__name__, str(exc))


class TestOracleParity:
    def test_matex_derivative_brackets(self):
        brackets = _exp_sum_brackets(1, N_EXP_BRACKETS // 2)
        mismatches = []
        for row, lambdas, lo, hi in brackets:
            args = (row, lambdas)
            ours = _probed(brentq, _derivative, lo, hi, args=args)
            theirs = _probed(scipy_brentq, _derivative, lo, hi, args=args)
            if ours != theirs:
                mismatches.append((row, lambdas, lo, hi, ours[0], theirs[0]))
        assert len(brackets) == N_EXP_BRACKETS // 2
        assert not mismatches, mismatches[:3]

    def test_batch_refine_brackets(self):
        brackets = _exp_sum_brackets(2, N_EXP_BRACKETS // 2)
        mismatches = []
        for coeffs, lam, lo, hi in brackets:

            def slope(t):
                return float(np.sum(coeffs * lam * np.exp(lam * t)))

            ours = _probed(brentq, slope, lo, hi)
            theirs = _probed(scipy_brentq, slope, lo, hi)
            if ours != theirs:
                mismatches.append((coeffs, lam, lo, hi, ours[0], theirs[0]))
        assert len(brackets) == N_EXP_BRACKETS // 2
        assert not mismatches, mismatches[:3]

    def test_cubics(self):
        brackets = _cubic_brackets(3, N_CUBIC_BRACKETS)
        mismatches = [
            (lo, hi)
            for f, lo, hi in brackets
            if _probed(brentq, f, lo, hi) != _probed(scipy_brentq, f, lo, hi)
        ]
        assert not mismatches, mismatches[:3]

    def test_returns_python_float(self):
        root = brentq(lambda x: np.float64(x) - 0.25, 0, 1)
        assert type(root) is float and root == scipy_brentq(
            lambda x: np.float64(x) - 0.25, 0, 1
        )


class TestEdgeParity:
    @pytest.mark.parametrize(
        "f, a, b",
        [
            (lambda x: x, 0.0, 1.0),  # root at a
            (lambda x: x, -1.0, 0.0),  # root at b
            (lambda x: -0.0 if x == 0 else x - 0.1, 0.0, 1.0),
            # Products of these values underflow to zero: the sign test
            # must read sign bits, not the sign of fa * fb.
            (lambda x: math.copysign(1e-200, x - 0.3), 0.0, 1.0),
            (lambda x: 1e-200 * (x - 0.3), 0.0, 1.0),
            (lambda x: (x - 0.3) * 1e300, 0.0, 1.0),
            (lambda x: math.inf if x > 0.5 else -1.0, 0.0, 1.0),
            (lambda x: 1.0 if x > 0.5 else -1.0, 0.0, 1.0),
            (math.tan, 1.0, 2.0),
        ],
    )
    def test_same_result(self, f, a, b):
        assert _outcome(brentq, f, a, b) == _outcome(scipy_brentq, f, a, b)


class TestErrorParity:
    @pytest.mark.parametrize(
        "f, a, b",
        [
            (lambda x: x * x + 1.0, 0.0, 1.0),  # same sign
            (lambda x: -1.0, 0.0, 1.0),
            (lambda x: math.nan, 0.0, 1.0),  # NaN at a
            (lambda x: x - 0.3 if x < 0.5 else math.nan, 0.0, 1.0),  # at b
            (lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5, 0.0, 1.0),
        ],
    )
    def test_same_error(self, f, a, b):
        ours = _outcome(brentq, f, a, b)
        assert ours[0] != "ok"
        assert ours == _outcome(scipy_brentq, f, a, b)

    @pytest.mark.parametrize(
        "f, maxiter",
        [
            (lambda x: x - 0.3, 0),
            (lambda x: x - 0.3, 1),
            (lambda x: math.cbrt(x - 0.3), 3),
        ],
    )
    def test_same_non_convergence(self, monkeypatch, f, maxiter):
        monkeypatch.setattr(roots, "MAXITER", maxiter)
        ours = _outcome(brentq, f, 0.0, 1.0)
        assert ours[0] == "RuntimeError"
        assert ours == _outcome(scipy_brentq, f, 0.0, 1.0, maxiter=maxiter)
