"""Core numeric vocabulary: 3-vectors, 3x3 complex tensors, polarization
triads, transverse projectors and Hermitian PSD square roots.

Vectors are plain numpy arrays of shape (3,), tensors arrays of shape (3, 3).
Everything here is pure and reentrant; values are never mutated after
construction, so concurrent evaluation over grids of wave vectors is safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, NotPSD, ZeroWaveVector

IDENTITY3 = np.eye(3)

_Y = np.array([0.0, 1.0, 0.0])
_Z = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class PolarizationTriad:
    """Orthonormal decomposition attached to a wave vector.

    e1, e2 are transverse unit polarizations, s_lam = unit x e_lam, and the
    third (longitudinal) member of both sectors is unit = k/|k|.
    """

    unit: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    s1: np.ndarray
    s2: np.ndarray

    def e(self, nu: int) -> np.ndarray:
        """Electric-sector contraction vector v_nu (e1, e2, k-hat)."""
        return (self.e1, self.e2, self.unit)[nu - 1]

    def s(self, nu: int) -> np.ndarray:
        """Magnetic-sector contraction vector s_nu (s1, s2, k-hat)."""
        return (self.s1, self.s2, self.unit)[nu - 1]


def norm(k) -> float:
    return float(np.linalg.norm(k))


def triad(k) -> PolarizationTriad:
    """Deterministic polarization triad for a nonzero wave vector.

    Construction rule: e1 = normalize(a x k-hat) with a = z-hat, switching to
    a = y-hat when |k-hat . z-hat| > 0.9, then e2 = k-hat x e1. The rule is
    continuous away from the switching cone and reproducible; for k along z
    it yields the axis-aligned triad e1 = x-hat, e2 = y-hat.
    """
    k = np.asarray(k, dtype=float)
    kn = norm(k)
    if kn == 0.0:
        raise ZeroWaveVector("triad undefined for k = 0")
    unit = k / kn
    a = _Z if abs(unit @ _Z) <= 0.9 else _Y
    e1 = np.cross(a, unit)
    e1 = e1 / np.linalg.norm(e1)
    e2 = np.cross(unit, e1)
    s1 = np.cross(unit, e1)
    s2 = np.cross(unit, e2)
    return PolarizationTriad(unit=unit, e1=e1, e2=e2, s1=s1, s2=s2)


def curl_symbol(k) -> np.ndarray:
    """k-space curl matrix O(k) with O(k) v = i k x v.

    Antisymmetric (O^T = -O), Hermitian for real k, and O(-k) = conj(O(k)).
    """
    k = np.asarray(k, dtype=float)
    k1, k2, k3 = k
    return np.array(
        [
            [0.0, -1j * k3, 1j * k2],
            [1j * k3, 0.0, -1j * k1],
            [-1j * k2, 1j * k1, 0.0],
        ]
    )


def transverse_projector(k) -> np.ndarray:
    """Symbol of the transverse delta function: I - k k^T / |k|^2."""
    k = np.asarray(k, dtype=float)
    kn2 = k @ k
    if kn2 == 0.0:
        raise ZeroWaveVector("transverse projector undefined for k = 0")
    return IDENTITY3 - np.outer(k, k) / kn2


def longitudinal_projector(k) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    kn2 = k @ k
    if kn2 == 0.0:
        raise ZeroWaveVector("longitudinal projector undefined for k = 0")
    return np.outer(k, k) / kn2


def hermitian_sqrt(T, tol=1e-12) -> np.ndarray:
    """Principal Hermitian PSD square root via eigendecomposition, of one
    matrix or of each matrix of a stack (..., 3, 3).

    Eigenvalues in [-tol, 0) are clipped to zero; anything below -tol raises
    NotPSD, whose `index` is the first such matrix's. The input must be
    Hermitian to tol. Both tests are relative to each matrix's magnitude.
    """
    T = np.asarray(T, dtype=complex)
    scale = np.maximum(1.0, np.max(np.abs(T), axis=(-2, -1)))
    adjoint = np.swapaxes(T.conj(), -2, -1)
    if np.any(np.max(np.abs(T - adjoint), axis=(-2, -1)) > tol * scale):
        raise NotHermitian("matrix is not hermitian within tolerance")
    w, v = np.linalg.eigh(0.5 * (T + adjoint))
    low = np.min(w, axis=-1)
    failing = low < -tol * scale
    if np.any(failing):
        index = np.unravel_index(np.argmax(failing), failing.shape)
        raise NotPSD(f"negative eigenvalue {low[index]:g} below -tol", index=index)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v.conj(), -2, -1)
