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
from .response import KernelStore, _angle_table, _fft_size, block_tensors, chi_spectrum
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
    """int_0^t sin(w (t - s)) drive(s) ds for every frequency, contracted
    against the (n_w, m) coefficient block: (n_t, m), on a uniform grid from
    t[0], where every oscillator is at rest.

    Each node takes the exact one-step propagator with the drive linear on
    each step, s_{j+1} = phi s_j + alpha d_j + beta d_{j+1} with phi = e^{iwh}.
    Unrolled and contracted, the responses are one causal convolution,

        out[j] = sum_l K_alpha[j - 1 - l] d_l + K_beta[j - 1 - l] d_{l+1},
        K_c[i] = Im sum_n block_n c_n phi_n^i
               = sum_n sin(i h w_n) block_n Re c_n + cos(i h w_n) block_n Im c_n,

    whose impulse responses K are one angle-addition table
    (`response._angle_table`) on the lags i h, and whose sum is one real FFT
    product."""
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
    m = block.shape[1]
    # alpha, the weight of drive(t_l), then beta, the weight of drive(t_{l+1})
    coeff = np.concatenate([block * (j0 - j1 / h)[:, None], block * (j1 / h)[:, None]], axis=1)
    lags = t.size - 1
    kern = _angle_table(h * np.arange(lags), omega, coeff.real, coeff.imag)  # (lags, 2m)
    size = _fft_size(2 * lags - 1)  # no wrap-around into the first `lags` samples
    spectra = np.fft.rfft(kern, size, axis=0)
    product = spectra[:, :m] * np.fft.rfft(drive[:-1], size)[:, None]
    product += spectra[:, m:] * np.fft.rfft(drive[1:], size)[:, None]
    out = np.zeros((t.size, m))
    out[1:] = np.fft.irfft(product, size, axis=0)[:lags]
    return out


def pdot_continuity(
    model,
    k,
    constants: PhysicalConstants = NATURAL,
    dt: float = 1e-3,
    quad: QuadratureSpec = QuadratureSpec(),
    kernels: KernelStore | None = None,
) -> ContinuityReport:
    """dP/dt at t = 0+ under a smooth probe, against its peak over the pulse.

    The polarization is the convolution of the kernel with a Gaussian probe
    pulse of width 5 / frequency_scale. The kernel vanishing at t = 0+
    forces dP/dt(0+) to zero. The probe is even and P(0) = 0, so the
    negative-time branch is the mirror image and the jump of the one-sided
    limits is exactly twice the right-hand rate, which a second-order
    one-sided stencil estimates; it must shrink as dt does.
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

    right = (-3.0 * p_plus(0.0) + 4.0 * p_plus(dt) - p_plus(2.0 * dt)) / (2.0 * dt)
    jump = 2.0 * float(np.max(np.abs(right)))

    # peak |dP/dt| over the pulse for normalization, from the oscillator
    # responses of the quadrature nodes to the probe on a uniform grid
    wide = np.linspace(0.0, 4.0 * tau, 801)
    h = wide[1] - wide[0]
    responses = _oscillator_responses(rep.nodes, probe(wide), wide, rep.block)
    p_wide = eps0 * block_tensors(responses, rep.basis)
    rate = np.abs(np.diff(p_wide, axis=0)) / h
    peak = float(np.max(rate)) if rate.size else 0.0
    return ContinuityReport(dt=dt, jump=jump, peak_rate=peak)
