"""Core numeric vocabulary: 3-vectors, 3x3 complex tensors, polarization
triads, transverse projectors, Hermitian PSD square roots and the
reciprocal condition of a matrix (or of each member of a stack).

Vectors are plain numpy arrays of shape (3,), tensors arrays of shape (3, 3).
Everything here is pure and reentrant; values are never mutated after
construction, so concurrent evaluation over grids of wave vectors is safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, NotPSD, ZeroWaveVector

IDENTITY3 = np.eye(3)

_X = np.array([1.0, 0.0, 0.0])
_Y = np.array([0.0, 1.0, 0.0])
_Z = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class PhysicalConstants:
    """hbar, c, eps0, mu0 with the vacuum relation eps0*mu0*c**2 = 1.

    Defaults are natural units. Use :meth:`si` for SI values (eps0 derived
    from mu0 and c so the relation holds to rounding).
    """

    hbar: float = 1.0
    c: float = 1.0
    eps0: float = 1.0
    mu0: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "c", "eps0", "mu0"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if abs(self.eps0 * self.mu0 * self.c**2 - 1.0) > 1e-12:
            raise ValueError("eps0 * mu0 * c^2 must equal 1")

    @classmethod
    def si(cls) -> "PhysicalConstants":
        c = 299792458.0
        mu0 = 4.0e-7 * np.pi
        return cls(hbar=1.054571817e-34, c=c, eps0=1.0 / (mu0 * c**2), mu0=mu0)


NATURAL = PhysicalConstants()


@dataclass(frozen=True)
class PolarizationTriad:
    """Orthonormal decomposition attached to a wave vector.

    e1, e2 are transverse unit polarizations, s_lam = unit x e_lam, and the
    third (longitudinal) member is v3 = s3 = unit = k/|k|.
    """

    unit: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    s1: np.ndarray
    s2: np.ndarray

    @property
    def v3(self) -> np.ndarray:
        return self.unit

    @property
    def s3(self) -> np.ndarray:
        return self.unit

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


def hermiticity_defect(T) -> float:
    T = np.asarray(T)
    return float(np.max(np.abs(T - T.conj().T)))


def hermitian_sqrt(T, tol=1e-12) -> np.ndarray:
    """Principal Hermitian PSD square root via eigendecomposition.

    Eigenvalues in [-tol, 0) are clipped to zero; anything below -tol raises
    NotPSD. The input must be Hermitian to tol (relative to its magnitude).
    """
    T = np.asarray(T, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(T))))
    if hermiticity_defect(T) > tol * scale:
        raise NotHermitian("matrix is not hermitian within tolerance")
    w, v = np.linalg.eigh(0.5 * (T + T.conj().T))
    if np.min(w) < -tol * scale:
        raise NotPSD(f"negative eigenvalue {np.min(w):g} below -tol")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def reciprocal_condition(M):
    """Reciprocal 2-norm condition estimate (sigma_min / sigma_max): a float
    for one matrix, an array with one value per member for a stack."""
    s = np.linalg.svd(np.asarray(M), compute_uv=False)
    top = s[..., 0]
    rc = np.divide(s[..., -1], top, out=np.zeros_like(top), where=top != 0.0)
    return float(rc) if rc.ndim == 0 else rc
