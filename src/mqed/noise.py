"""Delta-normalized commutator coefficients of the noise polarization
densities and the noise current, plus the t = 0 continuity probe.

The equal-frequency commutator of the noise polarization reduces, after the
reservoir continuum is collapsed onto its radial frequency label (angular
measure 4 pi, radial Jacobian omega^2 / c^3), to

    lhs(omega, k) = (4 pi omega^2 / c^3) sum_nu (f v_nu)(f v_nu)^dag,

which the fluctuation-dissipation relation equates to (hbar eps0 / pi)
Im chi_hat_e (magnetic analog with hbar / (mu0 pi)). The two sides are
computed by disjoint numerical routes: direct coefficient assembly on the
left, the kernel-quadrature + half-line transform pipeline on the right.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .couplings import ELECTRIC, MAGNETIC, eval_coupling_batch
from .errors import ValidationError
from .quadrature import QuadratureSpec, gauss_legendre
from .response import _TABLE_ELEMENTS, KernelStore, block_tensors, chi_kernel, chi_spectrum
from .tensors import NATURAL, PhysicalConstants, triad


@dataclass(frozen=True)
class CommutatorReport:
    """Computed vs target commutator coefficient tensors on a grid.

    For noise kinds both sides are Hermitian PSD densities of
    delta(omega - omega'); max_rel_err is normalized by the largest target
    tensor on the grid and never clipped.
    """

    kind: str  # noise_P | noise_M | noise_J | field_equal_time
    k: np.ndarray
    grid: np.ndarray
    lhs: np.ndarray  # (n, 3, 3)
    rhs: np.ndarray
    max_rel_err: float
    details: dict = field(default_factory=dict)


def _relative_deviation(lhs: np.ndarray, rhs: np.ndarray) -> float:
    scale = float(np.max(np.linalg.norm(rhs, axis=(1, 2))))
    if scale == 0.0:
        return float(np.max(np.linalg.norm(lhs, axis=(1, 2))))
    return float(np.max(np.linalg.norm(lhs - rhs, axis=(1, 2)))) / scale


def _default_t_grid(model) -> np.ndarray:
    """The kernel grid of the noise checks: 1200 points to the 1e-9 tail."""
    return np.linspace(0.0, model.suggested_t_max(1e-9), 1200)


def _kernel(model, k, t_grid, constants, quad, kernels: KernelStore | None):
    """The susceptibility kernel on t_grid, from the run's store when one is
    given."""
    if kernels is None:
        return chi_kernel(model, k, t_grid, constants=constants, quad=quad)
    return kernels.kernel(model, k, t_grid, constants=constants, quad=quad)


def noise_coefficient_density(model, k, omega_grid, constants: PhysicalConstants):
    """Direct assembly of the noise commutator density from the coupling
    tensors and the polarization triad at k (no susceptibility involved)."""
    omega = np.asarray(omega_grid, dtype=float)
    tr = triad(k)
    f = eval_coupling_batch(model, omega, k)
    vs = [tr.e(1), tr.e(2), tr.v3] if model.which == ELECTRIC else [tr.s(1), tr.s(2), tr.s3]
    acc = np.zeros((omega.size, 3, 3), dtype=complex)
    for v in vs:
        fv = f @ v.astype(complex)  # (n, 3)
        acc += fv[:, :, None] * np.conj(fv)[:, None, :]
    radial = 4.0 * np.pi * omega**2 / constants.c**3
    return radial[:, None, None] * acc


def noise_commutator(
    model,
    which: str,
    k,
    omega_grid,
    constants: PhysicalConstants = NATURAL,
    quad: QuadratureSpec = QuadratureSpec(),
    kernels: KernelStore | None = None,
) -> CommutatorReport:
    """Fluctuation-dissipation check for the noise polarization densities.

    which selects the sector: "P" pairs an electric model with
    (hbar eps0 / pi) Im chi_hat_e, "M" a magnetic model with
    (hbar / (mu0 pi)) Im chi_hat_m.
    """
    if which not in ("P", "M"):
        raise ValidationError("which must be 'P' or 'M'")
    expected_sector = ELECTRIC if which == "P" else MAGNETIC
    if model.which != expected_sector:
        raise ValidationError(f"'{which}' commutator needs a {expected_sector} model")
    omega = np.asarray(omega_grid, dtype=float)
    k = np.asarray(k, dtype=float)
    lhs = noise_coefficient_density(model, k, omega, constants)
    kernel = _kernel(model, k, _default_t_grid(model), constants, quad, kernels)
    spectrum = chi_spectrum(kernel, omega)
    if which == "P":
        factor = constants.hbar * constants.eps0 / np.pi
    else:
        factor = constants.hbar / (constants.mu0 * np.pi)
    rhs = factor * spectrum.imag_hermitian()
    return CommutatorReport(
        kind="noise_P" if which == "P" else "noise_M",
        k=k,
        grid=omega,
        lhs=lhs,
        rhs=rhs,
        max_rel_err=_relative_deviation(lhs, rhs),
        details={"quadrature": kernel.quad.metadata()},
    )


def noise_current_coefficient(
    model,
    k,
    omega_grid,
    constants: PhysicalConstants = NATURAL,
    quad: QuadratureSpec = QuadratureSpec(),
    kernels: KernelStore | None = None,
) -> CommutatorReport:
    """Commutator coefficient of the noise current density.

    The current picks up one power of the reservoir frequency relative to the
    noise polarization, so its coefficient density is omega^2 times the
    polarization one, matching (hbar eps0 / pi) omega^2 Im chi_hat_e.
    """
    if model.which != ELECTRIC:
        raise ValidationError("the noise current pairs with an electric model")
    omega = np.asarray(omega_grid, dtype=float)
    k = np.asarray(k, dtype=float)
    lhs = (omega**2)[:, None, None] * noise_coefficient_density(model, k, omega, constants)
    kernel = _kernel(model, k, _default_t_grid(model), constants, quad, kernels)
    spectrum = chi_spectrum(kernel, omega)
    factor = constants.hbar * constants.eps0 / np.pi
    rhs = factor * (omega**2)[:, None, None] * spectrum.imag_hermitian()
    return CommutatorReport(
        kind="noise_J",
        k=k,
        grid=omega,
        lhs=lhs,
        rhs=rhs,
        max_rel_err=_relative_deviation(lhs, rhs),
        details={"quadrature": kernel.quad.metadata()},
    )


@dataclass(frozen=True)
class ContinuityReport:
    dt: float
    jump: float
    peak_rate: float

    @property
    def relative_jump(self) -> float:
        return self.jump / self.peak_rate if self.peak_rate > 0.0 else self.jump


def _gaussian_probe(tau: float):
    return lambda s: np.exp(-((s / tau) ** 2))


def _convolution_at(rep, probe, t: float, order: int = 24) -> np.ndarray:
    """integral_0^t chi(t - s) E(s) ds with the quadrature-representation
    kernel, the inner time integral done by fixed-order Gauss-Legendre."""
    if t == 0.0:
        return np.zeros((3, 3), dtype=complex)
    s, w = gauss_legendre(order, 0.0, t)
    sin_block = np.sin(np.outer(t - s, rep.nodes))  # (m, n)
    return rep.contract(((w * probe(s)) @ sin_block)[None, :])[0]


def _running_trapezoid(f: np.ndarray, h: float) -> np.ndarray:
    """Cumulative trapezoid integral of each row of f from its first sample."""
    out = np.zeros_like(f)
    np.add(f[:, 1:], f[:, :-1], out=out[:, 1:])
    out[:, 1:] *= 0.5 * h
    np.cumsum(out[:, 1:], axis=1, out=out[:, 1:])
    return out


def pdot_continuity(
    model,
    k,
    constants: PhysicalConstants = NATURAL,
    dt: float = 1e-3,
    quad: QuadratureSpec = QuadratureSpec(),
    kernels: KernelStore | None = None,
) -> ContinuityReport:
    """Jump of the one-sided limits of dP/dt at t = 0 under a smooth probe.

    The polarization is driven through the two-branch constitutive form (the
    |t| convolution over a Gaussian probe pulse of width 5 / frequency_scale,
    with the negative-time branch reconstructed from the |t| symmetry). The
    kernel vanishing at t = 0+ forces both one-sided limits to zero; the
    estimator uses second-order one-sided stencils and must shrink as dt does.
    """
    k = np.asarray(k, dtype=float)
    dt = float(dt)
    tau = 5.0 / model.frequency_scale
    probe = _gaussian_probe(tau)
    kernel = _kernel(model, k, _default_t_grid(model), constants, quad, kernels)
    rep = kernel.rep
    eps0 = constants.eps0 if model.which == ELECTRIC else 1.0

    def p_plus(t):
        return eps0 * _convolution_at(rep, probe, t)

    def p_minus(t):  # P(-t) branch: probe sampled at negative times
        return eps0 * _convolution_at(rep, lambda s: probe(-s), t)

    p0 = p_plus(0.0)
    right = (-3.0 * p0 + 4.0 * p_plus(dt) - p_plus(2.0 * dt)) / (2.0 * dt)
    left = (3.0 * p0 - 4.0 * p_minus(dt) + p_minus(2.0 * dt)) / (2.0 * dt)
    jump = float(np.max(np.abs(right - left)))

    # peak |dP/dt| over the pulse for normalization: P(s) = eps0 sum_n
    # [sin(w_n s) C_n(s) - cos(w_n s) S_n(s)] c_n, with C_n, S_n the running
    # trapezoid integrals of cos(w_n s') E(s') and sin(w_n s') E(s'),
    # accumulated over node chunks of bounded size
    wide = np.linspace(0.0, 4.0 * tau, 801)
    h = wide[1] - wide[0]
    ew = probe(wide)
    acc = np.zeros((wide.size, rep.block.shape[1]))
    step = max(1, _TABLE_ELEMENTS // wide.size)
    for lo in range(0, rep.nodes.size, step):
        phase = np.multiply.outer(rep.nodes[lo : lo + step], wide)
        cos_t = np.cos(phase)
        sin_t = np.sin(phase, out=phase)
        inner = _running_trapezoid(cos_t * ew, h)
        inner *= sin_t
        run_s = _running_trapezoid(sin_t * ew, h)
        run_s *= cos_t
        inner -= run_s
        acc += inner.T @ rep.block[lo : lo + step]
    p_wide = eps0 * block_tensors(acc)
    rate = np.abs(np.diff(p_wide, axis=0)) / h
    peak = float(np.max(rate)) if rate.size else 0.0
    return ContinuityReport(dt=dt, jump=jump, peak_rate=peak)
