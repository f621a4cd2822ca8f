"""Parametric families of the coupling tensors that define the medium.

A coupling model evaluates the spatially Fourier-transformed coupling tensor
f(omega, k) (electric sector) or g(omega, k) (magnetic sector) as a 3x3
array. The families are normalized so that the susceptibility they generate
has a simple closed form:

* lorentz_isotropic: chi_hat(omega) = strength^2 / (res^2 - omega^2 - i*width*omega)
* drude:             the resonance -> 0 limit of the above (conductor-like)
* gaussian_anisotropic: per-axis strengths, Im chi_hat_ii proportional to
  omega^4 exp(-omega^2/center^2), spatially nonlocal through a Gaussian of
  correlation length ell (k-space factor exp(-ell^2 |k|^2 / 2))
* tabulated: bilinear interpolation of sampled tensors over (omega, |k|)

All models are immutable; evaluators are pure.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    NotOrthogonal,
    NotPSD,
    OutOfTableRange,
    ValidationError,
    ZeroFrequency,
)
from .tensors import IDENTITY3, NATURAL, PhysicalConstants, hermitian_sqrt

ELECTRIC = "electric"
MAGNETIC = "magnetic"

_KINDS = ("zero", "lorentz_isotropic", "drude", "gaussian_anisotropic", "tabulated")


def _sector_scale(which: str, constants: PhysicalConstants) -> float:
    """Amplitude that maps coupling strength to unit-normalized chi.

    Chosen so that Im chi_hat = (4 pi^2 omega^2 / (hbar c^3 eps0)) f f^dag
    (electric; mu0 variant magnetic) comes out with the closed forms above.
    """
    if which == ELECTRIC:
        return float(np.sqrt(constants.hbar * constants.c**3 * constants.eps0 / (4.0 * np.pi**2)))
    if which == MAGNETIC:
        return float(np.sqrt(constants.hbar * constants.c**3 / (4.0 * np.pi**2 * constants.mu0)))
    raise ValidationError(f"unknown sector '{which}'", key="which")


@dataclass(frozen=True)
class TabulatedTable:
    """Sampled coupling tensors on an (omega, |k|) grid.

    Entries are interpolated bilinearly and independently; evaluation outside
    the grid raises OutOfTableRange (never extrapolates). Tables compare and
    hash by their contents, so models holding them can key caches by value.
    """

    omegas: np.ndarray
    kmags: np.ndarray
    values: np.ndarray  # (n_omega, n_k, 3, 3) complex

    def __post_init__(self):
        if self.omegas.ndim != 1 or np.any(np.diff(self.omegas) <= 0):
            raise ValidationError("table omega grid must be strictly increasing")
        if self.kmags.ndim != 1 or np.any(np.diff(self.kmags) <= 0):
            raise ValidationError("table |k| grid must be strictly increasing")
        if self.values.shape != (self.omegas.size, self.kmags.size, 3, 3):
            raise ValidationError("table values must have shape (n_omega, n_k, 3, 3)")

    def _contents(self):
        return tuple(
            (a.dtype.str, a.shape, a.tobytes()) for a in (self.omegas, self.kmags, self.values)
        )

    def __eq__(self, other):
        if not isinstance(other, TabulatedTable):
            return NotImplemented
        return self is other or self._contents() == other._contents()

    @cached_property
    def _hash(self) -> int:
        return hash(self._contents())

    def __hash__(self):
        return self._hash

    def interpolate(self, omegas, kmag: float) -> np.ndarray:
        omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
        slack_w = 1e-12 * max(1.0, abs(self.omegas[-1]))
        slack_k = 1e-12 * max(1.0, abs(self.kmags[-1]))
        if np.any(omegas < self.omegas[0] - slack_w) or np.any(omegas > self.omegas[-1] + slack_w):
            raise OutOfTableRange(
                f"omega outside table range [{self.omegas[0]:g}, {self.omegas[-1]:g}]"
            )
        if kmag < self.kmags[0] - slack_k or kmag > self.kmags[-1] + slack_k:
            raise OutOfTableRange(
                f"|k|={kmag:g} outside table range [{self.kmags[0]:g}, {self.kmags[-1]:g}]"
            )
        omegas = np.clip(omegas, self.omegas[0], self.omegas[-1])
        kmag = float(np.clip(kmag, self.kmags[0], self.kmags[-1]))
        io = np.clip(np.searchsorted(self.omegas, omegas) - 1, 0, self.omegas.size - 2)
        to = (omegas - self.omegas[io]) / (self.omegas[io + 1] - self.omegas[io])
        ik = min(int(np.searchsorted(self.kmags, kmag)) - 1, self.kmags.size - 2)
        ik = max(ik, 0)
        dk = self.kmags[ik + 1] - self.kmags[ik]
        tk = (kmag - self.kmags[ik]) / dk
        v = self.values
        row = (1.0 - tk) * v[:, ik] + tk * v[:, ik + 1]  # (n_omega, 3, 3)
        out = (1.0 - to)[:, None, None] * row[io] + to[:, None, None] * row[io + 1]
        return out


@dataclass(frozen=True)
class CouplingModel:
    """Immutable description of one coupling-tensor family member."""

    kind: str
    which: str
    strength: float = 0.0
    resonance: float = 0.0
    width: float = 0.0
    center: float = 0.0
    axis_strengths: tuple = (0.0, 0.0, 0.0)
    correlation_length: float = 0.0
    omega_max: float | None = None  # optional Gaussian envelope exp(-w^2/omega_max^2)
    amplitude: float = 0.0  # sector scale, fixed at construction
    table: TabulatedTable | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown coupling kind '{self.kind}'", key="kind")
        if self.which not in (ELECTRIC, MAGNETIC):
            raise ValidationError(f"unknown sector '{self.which}'", key="which")

    @property
    def is_zero(self) -> bool:
        if self.kind == "zero":
            return True
        if self.kind in ("lorentz_isotropic", "drude"):
            return self.strength == 0.0
        if self.kind == "gaussian_anisotropic":
            return all(s == 0.0 for s in self.axis_strengths)
        return False

    @property
    def is_rational(self) -> bool:
        """True when chi_hat(rho) is a rational function of rho."""
        return self.kind in ("zero", "lorentz_isotropic", "drude") and self.omega_max is None

    @property
    def frequency_scale(self) -> float:
        if self.kind in ("lorentz_isotropic", "drude"):
            return max(self.resonance, self.width, 1e-30)
        if self.kind == "gaussian_anisotropic":
            return max(self.center, 1e-30)
        if self.kind == "tabulated":
            return float(self.table.omegas[-1])
        return 1.0

    @property
    def hard_cutoff(self) -> float | None:
        if self.kind == "tabulated":
            return float(self.table.omegas[-1])
        return None

    def suggested_t_max(self, tail: float = 1e-8) -> float:
        """Time horizon after which the memory kernel has decayed to `tail`
        of its peak (the plateau subtracted for conductor-like media)."""
        lo = np.log(1.0 / tail)
        if self.kind == "lorentz_isotropic" and self.width > 0.0:
            return 2.0 * lo / self.width
        if self.kind == "drude" and self.width > 0.0:
            return lo / self.width
        if self.kind == "gaussian_anisotropic":
            # the sine transform of the omega^4-vanishing profile decays only
            # algebraically (~t^-6 from the omega = 0 endpoint)
            return 4.5 * tail ** (-1.0 / 6.0) / self.frequency_scale
        return 50.0 / self.frequency_scale

    def parameters(self) -> dict:
        out = {"kind": self.kind, "which": self.which}
        if self.kind in ("lorentz_isotropic", "drude"):
            out.update(strength=self.strength, resonance=self.resonance, width=self.width)
        elif self.kind == "gaussian_anisotropic":
            out.update(
                axis_strengths=list(self.axis_strengths),
                center=self.center,
                correlation_length=self.correlation_length,
            )
        elif self.kind == "tabulated":
            out.update(
                n_omega=int(self.table.omegas.size),
                n_k=int(self.table.kmags.size),
                omega_range=[float(self.table.omegas[0]), float(self.table.omegas[-1])],
            )
        if self.omega_max is not None:
            out["omega_max"] = self.omega_max
        return out


@dataclass(frozen=True)
class GaugedCouplingModel:
    """A coupling model right-multiplied by an orthogonal gauge tensor."""

    base: CouplingModel
    gauge: "GaugeTransform"

    def __getattr__(self, name):
        return getattr(self.base, name)


def zero_coupling(which: str = ELECTRIC) -> CouplingModel:
    return CouplingModel(kind="zero", which=which)


def lorentz_isotropic(
    strength: float,
    resonance: float,
    width: float,
    which: str = ELECTRIC,
    omega_max: float | None = None,
    constants: PhysicalConstants = NATURAL,
) -> CouplingModel:
    """Coupling whose susceptibility is the damped-oscillator form
    strength^2 / (resonance^2 - omega^2 - i width omega)."""
    if resonance <= 0.0 or width <= 0.0:
        raise ValidationError("lorentz_isotropic requires resonance > 0 and width > 0")
    return CouplingModel(
        kind="lorentz_isotropic",
        which=which,
        strength=float(strength),
        resonance=float(resonance),
        width=float(width),
        omega_max=omega_max,
        amplitude=_sector_scale(which, constants),
    )


def drude(
    strength: float,
    width: float,
    which: str = ELECTRIC,
    omega_max: float | None = None,
    constants: PhysicalConstants = NATURAL,
) -> CouplingModel:
    """Zero-resonance (free-carrier) limit: chi_hat = strength^2/(rho^2 + width rho)."""
    if width <= 0.0:
        raise ValidationError("drude requires width > 0")
    return CouplingModel(
        kind="drude",
        which=which,
        strength=float(strength),
        resonance=0.0,
        width=float(width),
        omega_max=omega_max,
        amplitude=_sector_scale(which, constants),
    )


def gaussian_anisotropic(
    axis_strengths,
    center: float,
    correlation_length: float = 0.0,
    which: str = ELECTRIC,
    omega_max: float | None = None,
    constants: PhysicalConstants = NATURAL,
) -> CouplingModel:
    """Diagonal anisotropic family with a Gaussian frequency profile and an
    optional Gaussian spatial correlation (ell = 0 is spatially local)."""
    if center <= 0.0:
        raise ValidationError("gaussian_anisotropic requires center > 0")
    ax = tuple(float(s) for s in axis_strengths)
    if len(ax) != 3:
        raise ValidationError("axis_strengths must have three entries")
    return CouplingModel(
        kind="gaussian_anisotropic",
        which=which,
        axis_strengths=ax,
        center=float(center),
        correlation_length=float(correlation_length),
        omega_max=omega_max,
        amplitude=_sector_scale(which, constants),
    )


def tabulated(table: TabulatedTable, which: str = ELECTRIC) -> CouplingModel:
    return CouplingModel(kind="tabulated", which=which, table=table)


def tabulated_from_csv(path, which: str = ELECTRIC) -> CouplingModel:
    """Load a tabulated model from CSV: header row, then columns
    omega, |k|, and 18 Re/Im entries of the 3x3 tensor in row-major order,
    one row for each (omega, |k|) pair of a full grid."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) != 20:
            raise ValidationError("tabulated CSV needs a header row and 20 columns")
        for row in reader:
            rows.append([float(x) for x in row])
    if not rows:
        raise ValidationError("tabulated CSV has no data rows")
    data = np.asarray(rows)
    if np.unique(data[:, :2], axis=0).shape[0] != data.shape[0]:
        raise ValidationError("tabulated CSV repeats an (omega, |k|) pair")
    omegas = np.unique(data[:, 0])
    kmags = np.unique(data[:, 1])
    if omegas.size * kmags.size != data.shape[0]:
        raise ValidationError("tabulated CSV must be a full (omega, |k|) grid")
    values = np.empty((omegas.size, kmags.size, 3, 3), dtype=complex)
    io = np.searchsorted(omegas, data[:, 0])
    ik = np.searchsorted(kmags, data[:, 1])
    flat = data[:, 2::2] + 1j * data[:, 3::2]
    values[io, ik] = flat.reshape(-1, 3, 3)
    return tabulated(TabulatedTable(omegas=omegas, kmags=kmags, values=values), which=which)


def _scalar_profile(model: CouplingModel, omegas: np.ndarray) -> np.ndarray:
    """Isotropic frequency profile F(omega) for the lorentz/drude kinds."""
    w = np.asarray(omegas, dtype=float)
    d = (model.resonance**2 - w**2) ** 2 + (model.width * w) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        f2 = model.width / (w * d)
    prof = model.strength * model.amplitude * np.sqrt(np.where(w > 0.0, f2, 0.0))
    return np.where(w > 0.0, prof, 0.0)


def eval_coupling_batch(model, omegas, k) -> np.ndarray:
    """Vectorized coupling evaluation: returns (n_omega, 3, 3) complex."""
    if hasattr(model, "eval_batch"):
        return model.eval_batch(omegas, k)
    if isinstance(model, GaugedCouplingModel):
        base = eval_coupling_batch(model.base, omegas, k)
        a = np.stack([model.gauge(w) for w in np.atleast_1d(omegas)])
        return base @ np.transpose(a, (0, 2, 1))
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    if np.any(omegas < 0.0):
        raise ValidationError("coupling evaluation requires omega >= 0")
    k = np.asarray(k, dtype=float)
    if model.kind == "zero":
        return np.zeros((omegas.size, 3, 3), dtype=complex)
    if model.kind in ("lorentz_isotropic", "drude"):
        prof = _scalar_profile(model, omegas)
        out = prof[:, None, None] * IDENTITY3[None, :, :].astype(complex)
    elif model.kind == "gaussian_anisotropic":
        c = model.center
        prof = (omegas / c**2) * np.exp(-(omegas**2) / (2.0 * c**2))
        spatial = np.exp(-0.5 * model.correlation_length**2 * float(k @ k))
        diag = np.diag(model.axis_strengths).astype(complex)
        out = (model.amplitude * spatial * prof)[:, None, None] * diag[None, :, :]
    elif model.kind == "tabulated":
        out = model.table.interpolate(omegas, float(np.linalg.norm(k)))
    else:  # pragma: no cover - guarded by __post_init__
        raise ValidationError(f"unknown coupling kind '{model.kind}'")
    if model.omega_max is not None:
        out = out * np.exp(-(omegas**2) / model.omega_max**2)[:, None, None]
    return out


def eval_coupling(model, omega: float, k) -> np.ndarray:
    """Coupling tensor f(omega, k) (or g for magnetic models) as 3x3 complex."""
    return eval_coupling_batch(model, [float(omega)], k)[0]


def coupling_product(model, omegas, k) -> np.ndarray:
    """f f^dagger at each omega: (n, 3, 3) Hermitian PSD."""
    f = eval_coupling_batch(model, omegas, k)
    return f @ np.conj(np.transpose(f, (0, 2, 1)))


@dataclass(frozen=True)
class CombinedElectric:
    """Bound + free electric coupling acting as one model.

    The two parts live on disjoint oscillator families, so their spectral
    densities f f^dag add; the single-tensor representative is the principal
    PSD square root of the sum, equivalent to any two-family representation
    by the gauge freedom of the couplings."""

    bound: CouplingModel
    free: CouplingModel

    @property
    def which(self) -> str:
        return ELECTRIC

    def eval_batch(self, omegas, k) -> np.ndarray:
        total = coupling_product(self.bound, omegas, k) + coupling_product(self.free, omegas, k)
        diag_defect = float(np.max(np.abs(total - total * np.eye(3)))) if total.size else 0.0
        if diag_defect == 0.0:
            return np.sqrt(total.real).astype(complex)
        return np.stack([hermitian_sqrt(m, tol=1e-10) for m in total])

    @property
    def is_zero(self) -> bool:
        return self.bound.is_zero and self.free.is_zero

    @property
    def is_rational(self) -> bool:
        return self.bound.is_rational and self.free.is_rational

    @property
    def frequency_scale(self) -> float:
        return max(self.bound.frequency_scale, self.free.frequency_scale)

    @property
    def hard_cutoff(self):
        cuts = [m.hard_cutoff for m in (self.bound, self.free) if m.hard_cutoff is not None]
        return min(cuts) if cuts else None

    def suggested_t_max(self, tail: float = 1e-8) -> float:
        return max(self.bound.suggested_t_max(tail), self.free.suggested_t_max(tail))

    def parameters(self) -> dict:
        return {"bound": self.bound.parameters(), "free": self.free.parameters()}


def combined_electric(bound, free=None):
    """The electric coupling of bound plus free carriers: either part alone
    when the other is absent or zero."""
    if free is None or free.is_zero:
        return bound
    if bound.is_zero:
        return free
    return CombinedElectric(bound=bound, free=free)


def coupling_from_target(
    im_chi,
    omega: float,
    k,
    which: str = ELECTRIC,
    constants: PhysicalConstants = NATURAL,
    tol: float = 1e-12,
) -> np.ndarray:
    """Recover the coupling tensor from a target Im chi_hat at one (omega, k).

    Inverts the structural identity Im chi_hat = (4 pi^2 omega^2 / hbar c^3
    eps0) f f^dag (mu0 variant for the magnetic sector) through the principal
    Hermitian PSD square root. Feeding the result back through the kernel and
    spectrum pipeline reproduces Im chi_hat.
    """
    if omega <= 0.0:
        raise ZeroFrequency("target inversion requires omega > 0")
    scale = _sector_scale(which, constants) ** 2 / omega**2
    target = scale * np.asarray(im_chi, dtype=complex)
    try:
        return hermitian_sqrt(target, tol=tol)
    except NotPSD as exc:
        raise NotPSD(f"Im chi target at omega={omega:g} is not PSD: {exc}") from exc


@dataclass(frozen=True)
class GaugeTransform:
    """Frequency-dependent real orthogonal tensor A(omega).

    Right-multiplying a coupling by A^T(omega) leaves f f^dag, hence the
    susceptibilities and every commutator coefficient, unchanged.
    """

    evaluator: Callable[[float], np.ndarray]
    tol: float = 1e-12

    def __call__(self, omega: float) -> np.ndarray:
        a = np.asarray(self.evaluator(float(omega)), dtype=float)
        if a.shape != (3, 3):
            raise NotOrthogonal("gauge tensor must be 3x3")
        if np.max(np.abs(a @ a.T - IDENTITY3)) > self.tol:
            raise NotOrthogonal(f"gauge tensor at omega={omega:g} is not orthogonal")
        return a


def apply_gauge(model: CouplingModel, gauge: GaugeTransform) -> GaugedCouplingModel:
    """Return the gauge-transformed model omega, k -> f(omega, k) A^T(omega)."""
    return GaugedCouplingModel(base=model, gauge=gauge)


def rotation_gauge(axis, angle_fn: Callable[[float], float]) -> GaugeTransform:
    """Gauge built from rotations about a fixed axis by an angle angle_fn(omega)."""
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    kx = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])

    def evaluator(omega: float) -> np.ndarray:
        th = float(angle_fn(omega))
        return IDENTITY3 + np.sin(th) * kx + (1.0 - np.cos(th)) * (kx @ kx)

    return GaugeTransform(evaluator=evaluator)


def random_orthogonal_gauge(rng: np.random.Generator) -> GaugeTransform:
    """Reproducible frequency-dependent orthogonal gauge for invariance tests."""
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    axis = rng.standard_normal(3)
    th0, th1 = rng.uniform(0.0, np.pi, size=2)
    base = rotation_gauge(axis, lambda w: th0 + th1 * np.tanh(w))

    def evaluator(omega: float) -> np.ndarray:
        return q @ base.evaluator(omega)

    return GaugeTransform(evaluator=evaluator)
