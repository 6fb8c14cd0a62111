"""Unit tests for the eigendecomposition/expm helpers."""

import numpy as np
import pytest
import scipy.linalg

from repro.errors import ThermalModelError
from repro.util.linalg import (
    EigenExpm,
    is_positive_definite,
    is_symmetric,
    solve_linear,
    spectral_abscissa,
)


def random_rc_system(rng, n=5):
    """Random C-symmetrizable Hurwitz matrix A = -C^{-1} S."""
    m = rng.normal(size=(n, n))
    s = m @ m.T + n * np.eye(n)  # SPD
    c = rng.uniform(0.5, 2.0, size=n)
    return -s / c[:, None], c, s


class TestPredicates:
    def test_is_symmetric(self):
        a = np.array([[1.0, 2.0], [2.0, 3.0]])
        assert is_symmetric(a)
        a[0, 1] = 2.1
        assert not is_symmetric(a)

    def test_is_symmetric_non_square(self):
        assert not is_symmetric(np.ones((2, 3)))

    def test_is_positive_definite(self):
        assert is_positive_definite(np.eye(3))
        assert not is_positive_definite(-np.eye(3))
        assert not is_positive_definite(np.zeros((2, 2)))

    def test_spectral_abscissa(self):
        a = np.diag([-3.0, -1.0, -2.0])
        assert spectral_abscissa(a) == pytest.approx(-1.0)


class TestSolveLinear:
    def test_matches_scipy(self, rng):
        a = rng.normal(size=(4, 4)) + 4 * np.eye(4)
        b = rng.normal(size=4)
        assert np.allclose(solve_linear(a, b), scipy.linalg.solve(a, b))

    def test_singular_raises(self):
        with pytest.raises(ThermalModelError):
            solve_linear(np.zeros((2, 2)), np.ones(2))

    def test_rank_deficient_raises_chained(self):
        # A deliberately defective system: rank-1, so LAPACK's LU hits a
        # zero pivot.  The ThermalModelError must chain from scipy's
        # LinAlgError (the except branch, not a pre-check).
        rank1 = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(ThermalModelError, match="singular") as excinfo:
            solve_linear(rank1, np.ones(2))
        assert isinstance(excinfo.value.__cause__, scipy.linalg.LinAlgError)

    def test_near_singular_raises(self):
        # Identical columns up to float64 resolution: scipy's LU flags
        # the zero pivot, we translate the exception type.
        near = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-17]])
        with pytest.raises(ThermalModelError, match="singular"):
            solve_linear(near, np.ones(2))


class TestEigenExpm:
    def test_matches_scipy_expm(self, rng):
        a, c, _ = random_rc_system(rng)
        ee = EigenExpm(a, c_diag=c)
        for t in (0.0, 0.01, 0.5, 3.0):
            assert np.allclose(ee.expm(t), scipy.linalg.expm(a * t), atol=1e-9)

    def test_apply_expm_consistency(self, rng):
        a, c, _ = random_rc_system(rng)
        ee = EigenExpm(a, c_diag=c)
        x = rng.normal(size=a.shape[0])
        assert np.allclose(ee.apply_expm(0.7, x), ee.expm(0.7) @ x)

    def test_eigenvalues_negative_real(self, rng):
        a, c, _ = random_rc_system(rng)
        ee = EigenExpm(a, c_diag=c)
        assert np.all(ee.eigenvalues < 0)
        assert np.isrealobj(ee.eigenvalues)

    def test_modal_coefficients_reconstruct(self, rng):
        a, c, _ = random_rc_system(rng)
        ee = EigenExpm(a, c_diag=c)
        x = rng.normal(size=a.shape[0])
        r = ee.modal_coefficients(x)
        t = 0.42
        reconstructed = (r * np.exp(ee.eigenvalues * t)[None, :]).sum(axis=1)
        assert np.allclose(reconstructed, ee.apply_expm(t, x))

    def test_propagate_batch(self, rng):
        a, c, _ = random_rc_system(rng)
        ee = EigenExpm(a, c_diag=c)
        x = rng.normal(size=a.shape[0])
        times = np.array([0.0, 0.1, 0.5])
        batch = ee.propagate_batch(times, x)
        for k, t in enumerate(times):
            assert np.allclose(batch[k], ee.apply_expm(t, x))

    def test_negative_time_rejected(self, rng):
        a, c, _ = random_rc_system(rng)
        ee = EigenExpm(a, c_diag=c)
        with pytest.raises(ValueError):
            ee.expm(-1.0)
        with pytest.raises(ValueError):
            ee.apply_expm(-0.1, np.zeros(a.shape[0]))

    def test_non_hurwitz_rejected(self):
        with pytest.raises(ThermalModelError):
            EigenExpm(np.diag([-1.0, 0.5]), c_diag=np.ones(2))

    def test_non_square_rejected(self):
        with pytest.raises(ThermalModelError):
            EigenExpm(np.ones((2, 3)), c_diag=np.ones(2))

    def test_bad_c_diag_rejected(self):
        a = -np.eye(3)
        with pytest.raises(ThermalModelError):
            EigenExpm(a, c_diag=np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ThermalModelError):
            EigenExpm(a, c_diag=np.ones(2))
