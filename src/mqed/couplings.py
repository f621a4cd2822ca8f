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
* tabulated: bilinear interpolation of sampled tensors over (omega, |k|),
  zero above the table's top omega

Each kind is declared once, as a row of `_KINDS`: its config parameters and
constructor, its profile f, frequency scale, hard cutoff, horizon, closed
form, nonzero test, manifest record and whether the sign flips of k are its
symmetry. `CouplingModel`'s properties and
`eval_coupling_batch` read the part's row, and no module branches on a kind.

A medium is a tuple of parts, each in the sector its `which` names; a
sector's parts add their f f^dag (`sector_coupling`). A part's orthogonal
gauge f -> f A^T(omega) (`apply_gauge`) leaves f f^dag unchanged.

All models are immutable; evaluators are pure.
"""

from __future__ import annotations

import csv
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable

import numpy as np

from .errors import (
    NotOrthogonal,
    NotPSD,
    OutOfTableRange,
    ValidationError,
    ZeroFrequency,
)
from .rational import Rational
from .tensors import IDENTITY3, hermitian_sqrt

ELECTRIC = "electric"
MAGNETIC = "magnetic"

# The amplitude that maps a coupling strength to a unit-normalized chi: with
# it Im chi_hat = 4 pi^2 omega^2 f f^dag (natural units, either sector) comes
# out with the closed forms above.
_SECTOR_SCALE = float(np.sqrt(1.0 / (4.0 * np.pi**2)))


@dataclass(frozen=True, eq=False)
class TabulatedTable:
    """Sampled coupling tensors on an (omega, |k|) grid.

    Entries are interpolated bilinearly and independently; evaluation outside
    the grid raises OutOfTableRange (never extrapolates). Tables compare and
    hash by identity: a run builds each table once, so a model holding one
    keys a cache by that table.
    """

    omegas: np.ndarray
    kmags: np.ndarray
    values: np.ndarray  # (n_omega, n_k, 3, 3) complex

    def __post_init__(self):
        for axis, grid in (("omega", self.omegas), ("|k|", self.kmags)):
            if grid.ndim != 1 or np.any(np.diff(grid) <= 0):
                raise ValidationError(f"table {axis} grid must be strictly increasing")
            if grid.size < 2:
                # bilinear interpolation needs two points on each axis
                raise ValidationError(f"table {axis} grid needs at least two points")
        if self.values.shape != (self.omegas.size, self.kmags.size, 3, 3):
            raise ValidationError("table values must have shape (n_omega, n_k, 3, 3)")

    def interpolate(self, omegas, kmag: float) -> np.ndarray:
        omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
        slack_w = 1e-12 * max(abs(self.omegas[0]), abs(self.omegas[-1]))
        slack_k = 1e-12 * max(abs(self.kmags[0]), abs(self.kmags[-1]))
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
    """Immutable description of one coupling-tensor family member; what its
    kind means is the kind's row of `_KINDS`."""

    kind: str
    which: str
    strength: float = 0.0
    resonance: float = 0.0
    width: float = 0.0
    center: float = 0.0
    axis_strengths: tuple = (0.0, 0.0, 0.0)
    correlation_length: float = 0.0
    omega_max: float | None = None  # optional Gaussian envelope exp(-w^2/omega_max^2)
    table: TabulatedTable | None = None
    gauge: GaugeTransform | None = None  # f -> f A^T(omega) (`apply_gauge`)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown coupling kind '{self.kind}'", key="kind")
        if self.which not in (ELECTRIC, MAGNETIC):
            raise ValidationError(f"unknown sector '{self.which}'", key="which")

    @property
    def _row(self) -> _Kind:
        return _KINDS[self.kind]

    @property
    def is_zero(self) -> bool:
        return not self._row.nonzero(self)

    @property
    def closed_form(self) -> Rational | None:
        """chi_hat(rho) = s^2 / (rho^2 + gamma rho + omega_0^2) of the
        damped-oscillator kinds; None when not rational, and for the zero
        kind, which joins no sector."""
        return None if self.omega_max is not None else self._row.closed(self)

    @property
    def is_rational(self) -> bool:
        """True when the part carries chi_hat(rho) as a rational function of
        rho (`closed_form`)."""
        return self.closed_form is not None

    @property
    def even_entire_density(self) -> bool:
        """True when omega^2 f f^dag is even and entire in omega (gaussian)."""
        return self._row.even_entire

    @property
    def sign_flip_symmetric(self) -> bool:
        """True when R f(omega, R k) R = f(omega, k) for the eight sign flips
        R = diag(+-1, +-1, +-1): the kind declares it, and no gauge, which
        may mix the axes, is applied."""
        return self._row.sign_flips and self.gauge is None

    @property
    def frequency_scale(self) -> float:
        return self._row.scale(self)

    @property
    def hard_cutoff(self) -> float | None:
        return self._row.cutoff(self)

    def suggested_t_max(self, tail: float = 1e-8) -> float:
        """Time horizon after which the memory kernel has decayed to `tail`
        of its peak (the plateau subtracted for conductor-like media)."""
        return self._row.horizon(self, tail)

    def parameters(self) -> dict:
        out = {"kind": self.kind, "which": self.which, **self._row.record(self)}
        if self.omega_max is not None:
            out["omega_max"] = self.omega_max
        return out


def zero_coupling(which: str = ELECTRIC) -> CouplingModel:
    return CouplingModel(kind="zero", which=which)


def lorentz_isotropic(strength: float, resonance: float, width: float, which: str = ELECTRIC,
                      omega_max: float | None = None) -> CouplingModel:
    """Coupling whose susceptibility is the damped-oscillator form
    strength^2 / (resonance^2 - omega^2 - i width omega)."""
    if resonance <= 0.0 or width <= 0.0:
        raise ValidationError("lorentz_isotropic requires resonance > 0 and width > 0")
    return CouplingModel(kind="lorentz_isotropic", which=which, strength=float(strength),
                         resonance=float(resonance), width=float(width), omega_max=omega_max)


def drude(strength: float, width: float, which: str = ELECTRIC,
          omega_max: float | None = None) -> CouplingModel:
    """Zero-resonance (free-carrier) limit: chi_hat = strength^2/(rho^2 + width rho)."""
    if width <= 0.0:
        raise ValidationError("drude requires width > 0")
    return CouplingModel(kind="drude", which=which, strength=float(strength), resonance=0.0,
                         width=float(width), omega_max=omega_max)


def gaussian_anisotropic(axis_strengths, center: float, correlation_length: float = 0.0,
                         which: str = ELECTRIC, omega_max: float | None = None) -> CouplingModel:
    """Diagonal anisotropic family with a Gaussian frequency profile and an
    optional Gaussian spatial correlation (ell = 0 is spatially local)."""
    if center <= 0.0:
        raise ValidationError("gaussian_anisotropic requires center > 0")
    ax = tuple(float(s) for s in axis_strengths)
    if len(ax) != 3:
        raise ValidationError("axis_strengths must have three entries")
    return CouplingModel(kind="gaussian_anisotropic", which=which, axis_strengths=ax,
                         center=float(center), correlation_length=float(correlation_length),
                         omega_max=omega_max)


def tabulated(table: TabulatedTable, which: str = ELECTRIC) -> CouplingModel:
    return CouplingModel(kind="tabulated", which=which, table=table)


def tabulated_from_csv(path, which: str = ELECTRIC) -> CouplingModel:
    """Load a tabulated model from CSV: header row, then columns
    omega, |k|, and 18 Re/Im entries of the 3x3 tensor in row-major order,
    one row for each (omega, |k|) pair of a full grid."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) != 20:
            raise ValidationError("tabulated CSV needs a header row and 20 columns")
        rows = [[float(x) for x in row] for row in reader]
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


def _oscillator_profile(model: CouplingModel, w: np.ndarray, kk: float) -> np.ndarray:
    """Isotropic profile F(omega) I of the damped-oscillator kinds."""
    d = (model.resonance**2 - w**2) ** 2 + (model.width * w) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        f2 = model.width / (w * d)
    prof = model.strength * _SECTOR_SCALE * np.sqrt(np.where(w > 0.0, f2, 0.0))
    prof = np.where(w > 0.0, prof, 0.0)
    return prof[:, None, None] * IDENTITY3[None, :, :].astype(complex)


def _lorentz_horizon(model: CouplingModel, tail: float) -> float:
    # the slower pole of rho^2 + width rho + resonance^2: Re = -width / 2
    # when underdamped, -resonance^2 / (width / 2 + root) when overdamped
    lo = np.log(1.0 / tail)
    root = np.sqrt(max(0.25 * model.width**2 - model.resonance**2, 0.0))
    if root > 0.0:
        return lo * (0.5 * model.width + root) / model.resonance**2
    return 2.0 * lo / model.width


def _gaussian_profile(model: CouplingModel, omegas: np.ndarray, kk: float) -> np.ndarray:
    c = model.center
    prof = (omegas / c**2) * np.exp(-(omegas**2) / (2.0 * c**2))
    spatial = np.exp(-0.5 * model.correlation_length**2 * kk)
    diag = np.diag(model.axis_strengths).astype(complex)
    return (_SECTOR_SCALE * spatial * prof)[:, None, None] * diag[None, :, :]


def _table_top(model: CouplingModel) -> float:
    return float(model.table.omegas[-1])


# A coupling kind, declared once. `build` is its constructor, called with
# which= and the config parameters named in `required` and
# `optional`. The rest are functions of a model of the kind:
# - profile(model, omegas, kk): f, (n_omega, 3, 3) complex, before the
#   omega_max envelope and the gauge; it reads k only through kk = k . k;
# - nonzero(model): whether it couples at all;
# - scale(model): its frequency scale; cutoff(model): the top of its
#   support, None when unbounded;
# - horizon(model, tail): the time after which its kernel has decayed to
#   `tail` of its peak (the plateau subtracted for conductor-like media);
# - closed(model): chi_hat(rho) when rational without an envelope, else None;
# - record(model): its parameters in the run manifest.
# even_entire: omega^2 f f^dag is even and entire in omega.
# sign_flips: R f(omega, R k) R = f(omega, k) for the eight sign flips
# R = diag(+-1, +-1, +-1), whatever the parameters (`sign_flip_symmetric`).
_Kind = namedtuple("_Kind", "build profile nonzero scale record required optional horizon "
                            "closed cutoff even_entire sign_flips",
                   defaults=((), (), lambda model, tail: 50.0 / model.frequency_scale,
                             lambda model: None, lambda model: None, False, False))
# the damped-oscillator kinds: lorentz_isotropic and its resonance -> 0 limit
_OSCILLATOR = dict(
    profile=_oscillator_profile, nonzero=lambda model: model.strength != 0.0,
    scale=lambda model: max(model.resonance, model.width, 1e-30),
    record=lambda model: {"strength": model.strength, "resonance": model.resonance,
                          "width": model.width},
    optional=("omega_max",), sign_flips=True,
    closed=lambda model: Rational.make([model.strength**2],
                                       [model.resonance**2, model.width, 1.0]))
_KINDS = {
    "zero": _Kind(
        zero_coupling,
        lambda model, omegas, kk: np.zeros((omegas.size, 3, 3), dtype=complex),
        nonzero=lambda model: False, scale=lambda model: 1.0, record=lambda model: {},
        sign_flips=True),
    "lorentz_isotropic": _Kind(
        lorentz_isotropic, required=("strength", "resonance", "width"),
        horizon=_lorentz_horizon, **_OSCILLATOR),
    "drude": _Kind(
        drude, required=("strength", "width"),
        horizon=lambda model, tail: np.log(1.0 / tail) / model.width, **_OSCILLATOR),
    "gaussian_anisotropic": _Kind(
        gaussian_anisotropic, _gaussian_profile,
        nonzero=lambda model: any(s != 0.0 for s in model.axis_strengths),
        scale=lambda model: max(model.center, 1e-30),
        record=lambda model: {"axis_strengths": list(model.axis_strengths),
                              "center": model.center,
                              "correlation_length": model.correlation_length},
        required=("axis_strengths", "center"), optional=("correlation_length", "omega_max"),
        # the sine transform of the omega^4-vanishing profile decays only
        # algebraically (~t^-6 from the omega = 0 endpoint)
        horizon=lambda model, tail: 4.5 * tail ** (-1.0 / 6.0) / model.frequency_scale,
        even_entire=True, sign_flips=True),
    # a table may hold off-diagonal tensors: it declares no symmetry
    "tabulated": _Kind(
        lambda which, table: tabulated_from_csv(table, which=which),
        lambda model, omegas, kk: model.table.interpolate(omegas, np.sqrt(kk)),
        nonzero=lambda model: True, scale=_table_top,
        record=lambda model: {"n_omega": int(model.table.omegas.size),
                              "n_k": int(model.table.kmags.size),
                              "omega_range": [float(model.table.omegas[0]), _table_top(model)]},
        required=("table",), cutoff=_table_top),
}


def eval_coupling_batch(model: CouplingModel, omegas, k) -> np.ndarray:
    """Vectorized coupling evaluation, the part's gauge applied last, and 0
    above its hard cutoff, where its support ends: returns (n_omega, 3, 3)
    complex."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    if np.any(omegas < 0.0):
        raise ValidationError("coupling evaluation requires omega >= 0")
    kk = float(np.dot(k, k))
    top = model.hard_cutoff
    if top is None:
        out = model._row.profile(model, omegas, kk)
    else:
        inside = omegas <= top
        out = np.zeros((omegas.size, 3, 3), dtype=complex)
        out[inside] = model._row.profile(model, omegas[inside], kk)
    if model.omega_max is not None:
        out = out * np.exp(-(omegas**2) / model.omega_max**2)[:, None, None]
    if model.gauge is not None and omegas.size:
        a = np.stack([model.gauge(w) for w in omegas])
        out = out @ np.transpose(a, (0, 2, 1))
    return out


def coupling_product(model: CouplingModel, omegas, k) -> np.ndarray:
    """f f^dagger at each omega: (n, 3, 3) Hermitian PSD."""
    f = eval_coupling_batch(model, omegas, k)
    return f @ np.conj(np.transpose(f, (0, 2, 1)))


def sector_coupling(parts, omegas, k) -> np.ndarray:
    """One coupling tensor for the independent parts of a sector: a lone
    part's own f, zero for no part, and otherwise the principal PSD square
    root of the summed f f^dag, which stands for the parts' joint couplings
    by the gauge freedom: (n_omega, 3, 3) complex."""
    if len(parts) == 1:
        return eval_coupling_batch(parts[0], omegas, k)
    if not parts:
        return np.zeros((np.size(omegas), 3, 3), dtype=complex)
    total = reduce(np.add, [coupling_product(part, omegas, k) for part in parts])
    if not np.any(total - total * np.eye(3)):
        return np.sqrt(total.real).astype(complex)
    return hermitian_sqrt(total, tol=1e-10)


def coupling_from_target(im_chi, omega, k) -> np.ndarray:
    """Recover the coupling tensor from a target Im chi_hat at one (omega, k),
    or the tensors of a stack (n, 3, 3) at their n frequencies, in either
    sector.

    Inverts the structural identity Im chi_hat = 4 pi^2 omega^2 f f^dag
    through the principal Hermitian PSD square root. Feeding the result back
    through the kernel and spectrum pipeline reproduces Im chi_hat.
    """
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0.0):
        raise ZeroFrequency("target inversion requires omega > 0")
    # libm's pow, as a lone omega**2 takes it: a stack recovers each tensor bit for bit
    scale = _SECTOR_SCALE ** 2 / np.float_power(omega, 2)
    target = scale[..., None, None] * np.asarray(im_chi, dtype=complex)
    try:
        return hermitian_sqrt(target)
    except NotPSD as exc:
        first = np.broadcast_to(omega, target.shape[:-2])[exc.index]
        raise NotPSD(f"Im chi target at omega={first:g} is not PSD: {exc}",
                     index=exc.index) from exc


@dataclass(frozen=True)
class GaugeTransform:
    """Frequency-dependent real orthogonal tensor A(omega).

    Right-multiplying a coupling by A^T(omega) leaves f f^dag, hence the
    susceptibilities and every commutator coefficient, unchanged. A A^T
    must lie within 1e-12 of the identity.
    """

    evaluator: Callable[[float], np.ndarray]

    def __call__(self, omega: float) -> np.ndarray:
        a = np.asarray(self.evaluator(float(omega)), dtype=float)
        if a.shape != (3, 3):
            raise NotOrthogonal("gauge tensor must be 3x3")
        if np.max(np.abs(a @ a.T - IDENTITY3)) > 1e-12:
            raise NotOrthogonal(f"gauge tensor at omega={omega:g} is not orthogonal")
        return a


def apply_gauge(model: CouplingModel, gauge: GaugeTransform) -> CouplingModel:
    """Return the gauge-transformed model omega, k -> f(omega, k) A^T(omega),
    after any gauge the model already carries."""
    if model.gauge is not None:
        inner, outer = model.gauge, gauge
        gauge = GaugeTransform(lambda w: outer(w) @ inner(w))
    return replace(model, gauge=gauge)
