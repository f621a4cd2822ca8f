"""Conducting-medium pathway: the free-carrier part of the electric coupling
(`LaplaceResponse.model_free`) is routed through a conductivity tensor
sigma_hat instead of the bound susceptibility, and the Laplace system gets
the block substitution rho eps_hat -> rho eps_hat + sigma_hat.

sigma_hat is derived from the same coupling data via the kernel
decomposition Q = eps0 d(chi)/dt + sigma, i.e. sigma_hat(k, rho) =
eps0 rho chi_hat_free(k, rho) (`LaplaceResponse.sigma`), which keeps the
fluctuation-dissipation bookkeeping closed and makes the substitution
exactly equivalent to the dielectric pipeline run on the combined coupling.
The outputs of this path are response-function channels; for a conductor
the polarization and displacement no longer carry their dielectric
interpretation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .modes import ModeCoefficients, mode_coefficients
from .response import LaplaceResponse, QKernelReport, conductor_Q, finite_difference_time


def conductor_modes(
    response: LaplaceResponse,
    k,
    t_grid,
    omega_q_grid,
    method: str = "auto",
) -> ModeCoefficients:
    """Mode coefficients through the substituted Lambda block.

    With no free-carrier part this is the dielectric pipeline identically.
    The reservoir columns contract against the full electric coupling
    (bound + free share the same noise current)."""
    coeffs = mode_coefficients(response, k, t_grid, omega_q_grid, method=method)
    return replace(coeffs, metadata={
        **coeffs.metadata,
        "conductor": True,
        "channel_interpretation": "response-function (not polarization) channels",
    })


@dataclass(frozen=True)
class QConsistencyReport:
    k: np.ndarray
    q_report: QKernelReport
    bound_sigma_residual: float  # Q_bound - eps0 dchi_bound/dt, relative
    implied_sigma: np.ndarray  # (n_t, 3, 3) Q_total - eps0 dchi_bound/dt
    sigma_initial_psd: bool


def q_kernel_consistency(response: LaplaceResponse, k, t_grid) -> QConsistencyReport:
    """Verify the Q = eps0 d(chi)/dt + sigma decomposition.

    For the bound part alone the implied sigma must vanish to finite
    difference accuracy; with a free-carrier part present the implied sigma
    kernel is eps0 d(chi_free)/dt, positive at t -> 0+.
    """
    constants, quad = response.constants, response.quad
    k = np.asarray(k, dtype=float)
    t = np.asarray(t_grid, dtype=float)
    q_total = conductor_Q(response.reservoir_electric, k, t, constants=constants, quad=quad)
    if response.model_e.is_zero:
        bound_resid = 0.0
        dchi_bound = np.zeros((t.size, 3, 3), dtype=complex)
    else:
        q_bound = conductor_Q(response.model_e, k, t, constants=constants, quad=quad)
        bound_resid = q_bound.sigma_residual
        dchi_bound = finite_difference_time(q_bound.chi_values, t)
    implied = q_total.q_values - constants.eps0 * dchi_bound
    sig0 = implied[0]
    eigs = np.linalg.eigvalsh(0.5 * (sig0 + sig0.conj().T))
    scale = float(np.max(np.abs(q_total.q_values))) or 1.0
    psd0 = bool(np.min(eigs) >= -1e-8 * scale)
    return QConsistencyReport(
        k=k,
        q_report=q_total,
        bound_sigma_residual=bound_resid,
        implied_sigma=implied,
        sigma_initial_psd=psd0,
    )
