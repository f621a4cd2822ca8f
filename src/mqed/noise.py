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

from .couplings import ELECTRIC, eval_coupling_batch
from .errors import ValidationError
from .quadrature import QuadratureSpec, gauss_legendre
from .response import _TABLE_ELEMENTS, KernelStore, block_tensors, chi_spectrum
from .response import chi_kernel  # noqa: F401  (perfbench's tracer test reads noise.chi_kernel)
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
    k,
    omega_grid,
    constants: PhysicalConstants = NATURAL,
    quad: QuadratureSpec = QuadratureSpec(),
    kernels: KernelStore | None = None,
) -> CommutatorReport:
    """Fluctuation-dissipation check for the noise polarization densities.

    The model's sector selects the pairing: an electric model gives the P
    report against (hbar eps0 / pi) Im chi_hat_e, a magnetic one the M report
    against (hbar / (mu0 pi)) Im chi_hat_m.
    """
    omega = np.asarray(omega_grid, dtype=float)
    k = np.asarray(k, dtype=float)
    lhs = noise_coefficient_density(model, k, omega, constants)
    kernel = (kernels or KernelStore()).kernel(model, k, _default_t_grid(model),
                                               constants=constants, quad=quad)
    spectrum = chi_spectrum(kernel, omega)
    if model.which == ELECTRIC:
        factor = constants.hbar * constants.eps0 / np.pi
    else:
        factor = constants.hbar / (constants.mu0 * np.pi)
    rhs = factor * spectrum.imag_hermitian()
    return CommutatorReport(
        kind="noise_P" if model.which == ELECTRIC else "noise_M",
        k=k,
        grid=omega,
        lhs=lhs,
        rhs=rhs,
        max_rel_err=_relative_deviation(lhs, rhs),
        details={"quadrature": kernel.quad.metadata()},
    )


def noise_current_coefficient(report: CommutatorReport) -> CommutatorReport:
    """Commutator coefficient of the noise current density from the noise
    polarization report of an electric model.

    The current picks up one power of the reservoir frequency relative to the
    noise polarization, so both sides are omega^2 times the polarization
    ones: the coefficient density against (hbar eps0 / pi) omega^2 Im chi_hat_e.
    """
    if report.kind != "noise_P":
        raise ValidationError("the noise current pairs with an electric (noise_P) report")
    w2 = (report.grid**2)[:, None, None]
    lhs, rhs = w2 * report.lhs, w2 * report.rhs
    return CommutatorReport(
        kind="noise_J",
        k=report.k,
        grid=report.grid,
        lhs=lhs,
        rhs=rhs,
        max_rel_err=_relative_deviation(lhs, rhs),
        details=report.details,
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


def _oscillator_responses(
    omega: np.ndarray, drive: np.ndarray, t: np.ndarray, block: np.ndarray
) -> np.ndarray:
    """int_0^t sin(w (t - s)) drive(s) ds for every frequency, by the exact
    one-step exponential propagator with the drive piecewise linear,
    contracted against the (n_w, m) coefficient block: (n_t, m).

    The responses of consecutive steps fill a (steps, n_w) table within
    `_TABLE_ELEMENTS`, one contiguous row per step, and each full table is
    contracted at once. The steps stay a loop: a cumulative-sum form of the
    same recurrence over such tables moves far more memory per step."""
    h = float(t[1] - t[0])
    wh = omega * h
    phi = np.exp(1j * wh)
    iw = 1j * omega
    small = np.abs(wh) < 1e-3
    with np.errstate(divide="ignore", invalid="ignore"):
        j0 = np.where(small, h * (1.0 + 0.5j * wh - wh**2 / 6.0), (phi - 1.0) / iw)
        j1 = np.where(
            small,
            h**2 * (0.5 + 1j * wh / 6.0 - wh**2 / 24.0),
            h * (phi - 1.0) / iw - (phi * (1.0 - 1j * wh) - 1.0) / omega**2,
        )
    coeff_old = j0 - j1 / h  # weight of drive(t_m)
    coeff_new = j1 / h  # weight of drive(t_{m+1})
    rows = max(1, _TABLE_ELEMENTS // max(1, omega.size))
    out = np.zeros((t.size, block.shape[1]))
    state = np.zeros(omega.size, dtype=complex)
    for start in range(1, t.size, rows):
        table = np.empty((min(rows, t.size - start), omega.size))
        for i, m in enumerate(range(start - 1, start - 1 + table.shape[0])):
            state = phi * state + coeff_old * drive[m] + coeff_new * drive[m + 1]
            table[i] = state.imag
        out[start : start + table.shape[0]] = table @ block
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
    kernel = (kernels or KernelStore()).kernel(model, k, _default_t_grid(model),
                                               constants=constants, quad=quad)
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

    # peak |dP/dt| over the pulse for normalization, from the oscillator
    # responses of the quadrature nodes to the probe on a uniform grid
    wide = np.linspace(0.0, 4.0 * tau, 801)
    h = wide[1] - wide[0]
    p_wide = eps0 * block_tensors(_oscillator_responses(rep.nodes, probe(wide), wide, rep.block))
    rate = np.abs(np.diff(p_wide, axis=0)) / h
    peak = float(np.max(rate)) if rate.size else 0.0
    return ContinuityReport(dt=dt, jump=jump, peak_rate=peak)
