"""Conducting-medium pathway: free carriers are one more oscillator family of
the electric polarization, so a conductor is the medium whose electric
coupling is `combined_electric(bound, free)`. Their spectral densities add,
chi_hat is the sum of the parts, and the mode solver runs on that medium
unchanged.

The conductivity appears only in the kernel decomposition
Q = eps0 d(chi)/dt + sigma, which `q_kernel_consistency` checks on the
coupling data: the Q of the combined coupling less the bound part's
eps0 d(chi)/dt leaves sigma = eps0 d(chi_free)/dt, whose transform is
sigma_hat = eps0 rho chi_hat_free.
The outputs of this path are response-function channels; for a conductor
the polarization and displacement no longer carry their dielectric
interpretation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .couplings import combined_electric
from .modes import ModeCoefficients, mode_coefficients
from .quadrature import QuadratureSpec
from .response import LaplaceResponse, QKernelReport, conductor_Q, finite_difference_time
from .tensors import NATURAL, PhysicalConstants


def conductor_modes(
    response: LaplaceResponse,
    k,
    t_grid,
    omega_q_grid,
    method: str = "auto",
) -> ModeCoefficients:
    """Mode coefficients of a conducting medium, whose electric coupling
    holds the bound and free carriers together: `mode_coefficients` on the
    same response, with its channels marked as response functions."""
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


def q_kernel_consistency(
    bound,
    free,
    k,
    t_grid,
    constants: PhysicalConstants = NATURAL,
    quad: QuadratureSpec = QuadratureSpec(),
) -> QConsistencyReport:
    """Verify the Q = eps0 d(chi)/dt + sigma decomposition for the bound and
    free electric couplings.

    For the bound part alone the implied sigma must vanish to finite
    difference accuracy; with a free-carrier part present the implied sigma
    kernel is eps0 d(chi_free)/dt, positive at t -> 0+.
    """
    k = np.asarray(k, dtype=float)
    t = np.asarray(t_grid, dtype=float)
    q_total = conductor_Q(combined_electric(bound, free), k, t, constants=constants, quad=quad)
    if bound.is_zero:
        bound_resid = 0.0
        dchi_bound = np.zeros((t.size, 3, 3), dtype=complex)
    else:
        q_bound = conductor_Q(bound, k, t, constants=constants, quad=quad)
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
