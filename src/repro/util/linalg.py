"""Linear-algebra helpers for the thermal engine.

The thermal system matrix ``A = -C^{-1} (G - E_beta)`` is similar to a
symmetric negative-definite matrix via the congruence ``C^{1/2}``, so its
eigenvalues are real and negative and it admits a well-conditioned real
eigendecomposition.  :class:`EigenExpm` exploits this: one O(n^3)
symmetric eigendecomposition at construction, then every
``expm(A * t) @ x`` costs two dense mat-vecs.

Dense solves go through :func:`solve_linear` (``scipy.linalg.solve`` with
a singularity check) — we never form explicit inverses, per standard
numerical practice.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.errors import ThermalModelError
from repro.tolerances import DEFINITENESS_RTOL, SYMMETRY_ATOL

__all__ = [
    "EigenExpm",
    "solve_linear",
    "spectral_abscissa",
    "is_symmetric",
    "is_positive_definite",
]


def is_symmetric(mat: np.ndarray) -> bool:
    """Return True when ``mat`` equals its transpose within ``SYMMETRY_ATOL``."""
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        return False
    return bool(np.allclose(mat, mat.T, atol=SYMMETRY_ATOL, rtol=0.0))


def is_positive_definite(mat: np.ndarray) -> bool:
    """Return True when symmetric ``mat`` is (robustly) positive definite.

    Uses the symmetric eigenvalues with a relative floor
    (``DEFINITENESS_RTOL``): LAPACK's Cholesky can slip through
    exactly-singular matrices on rounding fuzz, and a numerically
    singular conductance matrix means an ungrounded network.
    """
    mat = np.asarray(mat, dtype=float)
    eigs = scipy.linalg.eigvalsh(mat)
    scale = float(np.abs(eigs).max()) if eigs.size else 0.0
    return bool(eigs.size and eigs.min() > DEFINITENESS_RTOL * max(scale, 1e-300))


def solve_linear(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``mat @ x = rhs`` with ``scipy.linalg.solve``.

    ``scipy.linalg.solve`` (SciPy 1.17) detects the matrix structure
    before it factors: an exactly symmetric ``mat`` goes through the
    symmetric-indefinite ``sysv`` routine, a general one through LU
    (``gesv``).  The two differ in the last bits, so replacing this call
    by a fixed factorization moves results.  An ill-conditioned system
    at most emits a ``LinAlgWarning``; only an exactly singular one
    fails.

    Raises
    ------
    ThermalModelError
        If the factorization finds the matrix exactly singular.
    """
    mat = np.asarray(mat, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    try:
        return scipy.linalg.solve(mat, rhs)
    except scipy.linalg.LinAlgError as exc:
        raise ThermalModelError(f"singular linear system: {exc}") from exc


def spectral_abscissa(mat: np.ndarray) -> float:
    """Largest real part among the eigenvalues of ``mat``.

    Negative spectral abscissa <=> the LTI system ``dx/dt = mat @ x`` is
    asymptotically stable.
    """
    return float(np.max(np.real(np.linalg.eigvals(np.asarray(mat, dtype=float)))))


class EigenExpm:
    """Cached eigendecomposition of a C-symmetrizable Hurwitz matrix.

    Parameters
    ----------
    a:
        System matrix, ``a = -C^{-1} S`` with ``C`` diagonal positive and
        ``S`` symmetric positive definite.  Such a matrix has real negative
        eigenvalues.
    c_diag:
        The diagonal of ``C``.  The decomposition is computed through the
        symmetric matrix ``C^{-1/2} S C^{-1/2}`` (via ``eigh``), which is
        both faster and numerically far better conditioned than a general
        eigensolve.

    Notes
    -----
    With ``A = W diag(lam) W^{-1}``::

        expm(A t) @ x = W @ (exp(lam * t) * (W^{-1} @ x))

    so after the one-time O(n^3) setup, each propagation costs O(n^2).
    """

    def __init__(self, a: np.ndarray, c_diag: np.ndarray) -> None:
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ThermalModelError(f"system matrix must be square, got {a.shape}")
        self.a = a
        n = a.shape[0]

        c_diag = np.asarray(c_diag, dtype=float)
        if c_diag.shape != (n,) or np.any(c_diag <= 0):
            raise ThermalModelError("c_diag must be positive with length n")
        # A = -C^{-1} S  =>  C^{1/2} A C^{-1/2} = -C^{-1/2} S C^{-1/2} (symmetric)
        sqrt_c = np.sqrt(c_diag)
        sym = a * sqrt_c[:, None] / sqrt_c[None, :]
        sym = 0.5 * (sym + sym.T)
        lam, q = scipy.linalg.eigh(sym)
        self.eigenvalues = lam
        self.w = q / sqrt_c[:, None]
        self.w_inv = q.T * sqrt_c[None, :]

        if np.any(self.eigenvalues >= 0):
            raise ThermalModelError(
                "system matrix is not Hurwitz "
                f"(max eigenvalue {np.max(self.eigenvalues):.3e} >= 0)"
            )

        #: Instrumentation: vector propagations through ``expm(A t)``
        #: (scalar applications count 1, batched ones count per row).
        self.expm_applications = 0

    def factors(self) -> dict[str, np.ndarray]:
        """The serializable decomposition factors ``(A, lam, W, W^{-1})``.

        This is what the process-wide eigenbasis memo keeps
        (:mod:`repro.util.eigcache`); :meth:`from_factors` is the inverse.
        """
        return {
            "a": self.a,
            "eigenvalues": self.eigenvalues,
            "w": self.w,
            "w_inv": self.w_inv,
        }

    @classmethod
    def from_factors(
        cls,
        a: np.ndarray,
        eigenvalues: np.ndarray,
        w: np.ndarray,
        w_inv: np.ndarray,
    ) -> "EigenExpm":
        """Rebuild an instance from cached factors, skipping the O(n^3) eigh.

        Shapes and the Hurwitz property are re-validated (cheap), but the
        factorization itself is trusted — callers must only feed factors
        produced by :meth:`factors` for the *same* matrix (the eigenbasis
        cache guarantees this by content-hashing ``a``).  The returned
        instance has fresh counters; the factor arrays themselves may be
        shared read-only across instances.
        """
        a = np.asarray(a, dtype=float)
        eigenvalues = np.asarray(eigenvalues, dtype=float)
        w = np.asarray(w, dtype=float)
        w_inv = np.asarray(w_inv, dtype=float)
        n = a.shape[0] if a.ndim == 2 else -1
        if a.ndim != 2 or a.shape != (n, n):
            raise ThermalModelError(f"system matrix must be square, got {a.shape}")
        if eigenvalues.shape != (n,) or w.shape != (n, n) or w_inv.shape != (n, n):
            raise ThermalModelError(
                "inconsistent eigen factors: "
                f"lam {eigenvalues.shape}, W {w.shape}, W^-1 {w_inv.shape} "
                f"for an {n}x{n} system"
            )
        if eigenvalues.size and np.max(eigenvalues) >= 0:
            raise ThermalModelError(
                "cached factors are not Hurwitz "
                f"(max eigenvalue {np.max(eigenvalues):.3e} >= 0)"
            )
        obj = cls.__new__(cls)
        obj.a = a
        obj.eigenvalues = eigenvalues
        obj.w = w
        obj.w_inv = w_inv
        obj.expm_applications = 0
        return obj

    @property
    def n(self) -> int:
        """Dimension of the system."""
        return self.a.shape[0]

    def expm(self, t: float) -> np.ndarray:
        """Dense ``expm(A t)`` (O(n^2) given the cached decomposition)."""
        if t < 0:
            raise ValueError(f"time must be non-negative, got {t}")
        self.expm_applications += 1
        return (self.w * np.exp(self.eigenvalues * t)[None, :]) @ self.w_inv

    def apply_expm(self, t: float, x: np.ndarray) -> np.ndarray:
        """Compute ``expm(A t) @ x`` without forming the matrix."""
        if t < 0:
            raise ValueError(f"time must be non-negative, got {t}")
        self.expm_applications += 1
        coeff = self.w_inv @ np.asarray(x, dtype=float)
        return self.w @ (np.exp(self.eigenvalues * t) * coeff)

    def modal_coefficients(self, x: np.ndarray) -> np.ndarray:
        """Return ``R`` with ``(expm(A t) x)_i = sum_k R[i,k] exp(lam_k t)``."""
        coeff = self.w_inv @ np.asarray(x, dtype=float)
        return self.w * coeff[None, :]

    def propagate_batch(self, times: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Evaluate ``expm(A t) @ x`` for every t in ``times``.

        Returns an array of shape ``(len(times), n)``.  Vectorized over the
        time grid — this is the hot path of dense peak searches.
        """
        times = np.asarray(times, dtype=float)
        self.expm_applications += times.shape[0] if times.ndim else 1
        coeff = self.w_inv @ np.asarray(x, dtype=float)
        # exp_matrix[t, k] = exp(lam_k * times[t])
        exp_matrix = np.exp(np.outer(times, self.eigenvalues))
        return (exp_matrix * coeff[None, :]) @ self.w.T
