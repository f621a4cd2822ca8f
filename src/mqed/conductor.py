"""Conducting-medium pathway: the free-carrier part of the electric coupling
is routed through a conductivity tensor sigma_hat instead of the bound
susceptibility, and the Laplace system gets the block substitution
rho eps_hat -> rho eps_hat + sigma_hat.

sigma_hat is derived from the same coupling data via the kernel
decomposition Q = eps0 d(chi)/dt + sigma, i.e. sigma_hat(k, rho) =
eps0 rho chi_hat_drude(k, rho), which keeps the fluctuation-dissipation
bookkeeping closed and makes the substitution exactly equivalent to the
dielectric pipeline run on the combined coupling. The outputs of this path
are response-function channels; for a conductor the polarization and
displacement no longer carry their dielectric interpretation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .couplings import CouplingModel, ELECTRIC, zero_coupling
from .errors import ValidationError
from .modes import InverseLaplaceSpec, ModeCoefficients, mode_coefficients
from .quadrature import QuadratureSpec
from .rational import Rational
from .response import (
    LaplaceResponse,
    QKernelReport,
    chi_hat_rational,
    conductor_Q,
    finite_difference_time,
    laplace_response,
)
from .tensors import NATURAL, PhysicalConstants


@dataclass(frozen=True)
class SigmaFromCoupling:
    """Conductivity evaluator sigma_hat(k, rho) = eps0 rho chi_hat(k, rho)
    built from the free-carrier coupling component."""

    model: CouplingModel
    constants: PhysicalConstants
    quad: QuadratureSpec
    _response: LaplaceResponse = field(init=False, repr=False)

    def __post_init__(self):
        helper = laplace_response(
            self.model, zero_coupling("magnetic"), constants=self.constants, quad=self.quad
        )
        object.__setattr__(self, "_response", helper)

    @property
    def is_rational(self) -> bool:
        return self.model.is_rational

    @property
    def is_zero(self) -> bool:
        return self.model.is_zero

    def __call__(self, k, rho, continued=False) -> np.ndarray:
        chi = self._response.chi(self.model, k, rho, continued=continued)
        if np.isscalar(rho) or np.asarray(rho).ndim == 0:
            return self.constants.eps0 * complex(rho) * chi
        return self.constants.eps0 * np.asarray(rho, dtype=complex)[:, None, None] * chi

    def as_rational(self) -> Rational:
        if not self.model.is_rational:
            raise ValidationError("free-carrier coupling is not rational")
        return Rational.variable() * chi_hat_rational(self.model) * self.constants.eps0


@dataclass(frozen=True)
class ConductorScenario:
    """Electric coupling split into a bound part (enters eps_hat) and a
    free-carrier part (enters sigma_hat), plus the magnetic model."""

    bound_electric: CouplingModel
    free_electric: CouplingModel
    magnetic: CouplingModel
    constants: PhysicalConstants = NATURAL
    quad: QuadratureSpec = QuadratureSpec()

    def __post_init__(self):
        for m, name in ((self.bound_electric, "bound"), (self.free_electric, "free")):
            if m.which != ELECTRIC:
                raise ValidationError(f"{name} coupling must be electric")

    def sigma_evaluator(self) -> SigmaFromCoupling:
        return SigmaFromCoupling(model=self.free_electric, constants=self.constants, quad=self.quad)

    def response(self) -> LaplaceResponse:
        sigma = None if self.free_electric.is_zero else self.sigma_evaluator()
        return laplace_response(
            self.bound_electric,
            self.magnetic,
            sigma_evaluator=sigma,
            constants=self.constants,
            quad=self.quad,
        )


def conductor_modes(
    scenario: ConductorScenario,
    k,
    t_grid,
    omega_q_grid,
    spec: InverseLaplaceSpec | None = None,
    constants: PhysicalConstants | None = None,
) -> ModeCoefficients:
    """Mode coefficients through the substituted Lambda block.

    With a vanishing free-carrier part this reduces to the dielectric
    pipeline identically. The reservoir columns contract against the full
    electric coupling (bound + free share the same noise current)."""
    constants = constants or scenario.constants
    response = scenario.response()
    model_f = _combined_electric(scenario)
    coeffs = mode_coefficients(
        response,
        model_f,
        scenario.magnetic,
        k,
        t_grid,
        omega_q_grid,
        spec=spec,
        constants=constants,
        conductor=not scenario.free_electric.is_zero,
    )
    return replace(coeffs, metadata={
        **coeffs.metadata,
        "conductor": True,
        "channel_interpretation": "response-function (not polarization) channels",
    })


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
        from .couplings import coupling_product
        from .tensors import hermitian_sqrt

        total = coupling_product(self.bound, omegas, k) + coupling_product(self.free, omegas, k)
        diag_defect = float(np.max(np.abs(total - total * np.eye(3)))) if total.size else 0.0
        if diag_defect == 0.0:
            return np.sqrt(total.real).astype(complex)
        return np.stack([hermitian_sqrt(m, tol=1e-10) for m in total])

    def chi_rational(self) -> Rational:
        return chi_hat_rational(self.bound) + chi_hat_rational(self.free)

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


def _combined_electric(scenario: ConductorScenario):
    if scenario.free_electric.is_zero:
        return scenario.bound_electric
    if scenario.bound_electric.is_zero:
        return scenario.free_electric
    return CombinedElectric(bound=scenario.bound_electric, free=scenario.free_electric)


@dataclass(frozen=True)
class QConsistencyReport:
    k: np.ndarray
    q_report: QKernelReport
    bound_sigma_residual: float  # Q_bound - eps0 dchi_bound/dt, relative
    implied_sigma: np.ndarray  # (n_t, 3, 3) Q_total - eps0 dchi_bound/dt
    sigma_initial_psd: bool
    current_ratio_residual: float


def q_kernel_consistency(
    scenario: ConductorScenario,
    k,
    t_grid,
    constants: PhysicalConstants | None = None,
) -> QConsistencyReport:
    """Verify the Q = eps0 d(chi)/dt + sigma decomposition.

    For the bound part alone the implied sigma must vanish to finite
    difference accuracy; with a free-carrier part present the implied sigma
    kernel is eps0 d(chi_free)/dt, positive at t -> 0+. The noise-current
    coefficient consistency (omega^2 ratio against the polarization
    coefficient) is checked on the combined coupling.
    """
    constants = constants or scenario.constants
    k = np.asarray(k, dtype=float)
    t = np.asarray(t_grid, dtype=float)
    combined = _combined_electric(scenario)
    q_total = conductor_Q(combined, k, t, constants=constants, quad=scenario.quad)
    if scenario.bound_electric.is_zero:
        bound_resid = 0.0
        dchi_bound = np.zeros((t.size, 3, 3), dtype=complex)
    else:
        q_bound = conductor_Q(scenario.bound_electric, k, t, constants=constants, quad=scenario.quad)
        bound_resid = q_bound.sigma_residual
        dchi_bound = finite_difference_time(q_bound.chi_values, t)
    implied = q_total.q_values - constants.eps0 * dchi_bound
    sig0 = implied[0]
    eigs = np.linalg.eigvalsh(0.5 * (sig0 + sig0.conj().T))
    scale = float(np.max(np.abs(q_total.q_values))) or 1.0
    psd0 = bool(np.min(eigs) >= -1e-8 * scale)

    # noise-current check: J coefficient / P coefficient = omega^2 per entry
    from .noise import noise_coefficient_density

    omega = np.linspace(0.2, 3.0, 8) * combined.frequency_scale
    dens = noise_coefficient_density(combined, k, omega, constants)
    dens_j = (omega**2)[:, None, None] * dens
    mask = np.abs(dens) > 1e-14 * float(np.max(np.abs(dens)))
    ratio = np.where(mask, dens_j / np.where(mask, dens, 1.0), (omega**2)[:, None, None])
    ratio_res = float(np.max(np.abs(ratio - (omega**2)[:, None, None]) / (omega**2)[:, None, None]))
    return QConsistencyReport(
        k=k,
        q_report=q_total,
        bound_sigma_residual=bound_resid,
        implied_sigma=implied,
        sigma_initial_psd=psd0,
        current_ratio_residual=ratio_res,
    )
