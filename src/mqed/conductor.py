"""Conducting-medium pathway: free carriers are one more oscillator family of
the electric polarization, so a conductor is the medium that holds them as
one more electric part, `laplace_response(bound, free, magnetic)`. Their
spectral densities add, chi_hat is the sum of the parts, and the mode solver
runs on that medium unchanged.

The conductivity appears only in the kernel decomposition
Q = d(chi)/dt + sigma (natural units), which `q_kernel_consistency` checks
on the coupling data: the medium's Q, linear in f f^dag and so Q_bound +
Q_free, less the bound part's d(chi)/dt leaves sigma = d(chi_free)/dt,
whose transform is sigma_hat = rho chi_hat_free.
The outputs of this path are response-function channels; for a conductor
the polarization and displacement no longer carry their dielectric
interpretation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .modes import ModeCoefficients, mode_coefficients
from .quadrature import QuadratureSpec
from .response import LaplaceResponse, conductor_Q, finite_difference_time


def conductor_modes(
    response: LaplaceResponse,
    k,
    t_grid,
    omega_q_grid,
) -> ModeCoefficients:
    """Mode coefficients of a conducting medium, whose electric sector holds
    the bound and free carriers as two parts: `mode_coefficients` on the
    same response, with its channels marked as response functions."""
    coeffs = mode_coefficients(response, k, t_grid, omega_q_grid)
    return replace(coeffs, metadata={
        **coeffs.metadata,
        "conductor": True,
        "channel_interpretation": "response-function (not polarization) channels",
    })


@dataclass(frozen=True)
class QConsistencyReport:
    k: np.ndarray
    q_values: np.ndarray  # (n_t, 3, 3) the medium's Q, Q_bound + Q_free
    bound_sigma_residual: float  # Q_bound - dchi_bound/dt, relative
    implied_sigma: np.ndarray  # (n_t, 3, 3) q_values - dchi_bound/dt
    sigma_initial_psd: bool


def q_kernel_consistency(
    bound,
    free,
    k,
    t_grid,
    quad: QuadratureSpec = QuadratureSpec(),
) -> QConsistencyReport:
    """Verify the Q = d(chi)/dt + sigma decomposition for the bound and free
    electric couplings.

    For the bound part alone the implied sigma must vanish to finite
    difference accuracy; with a free-carrier part present the implied sigma
    kernel is d(chi_free)/dt, positive at t -> 0+.
    """
    k = np.asarray(k, dtype=float)
    t = np.asarray(t_grid, dtype=float)
    q_bound = conductor_Q(bound, k, t, quad=quad)
    q_values = q_bound.q_values + conductor_Q(free, k, t, quad=quad).q_values
    implied = q_values - finite_difference_time(q_bound.chi_values, t)
    sig0 = implied[0]
    eigs = np.linalg.eigvalsh(0.5 * (sig0 + sig0.conj().T))
    scale = float(np.max(np.abs(q_values))) or 1.0
    psd0 = bool(np.min(eigs) >= -1e-8 * scale)
    return QConsistencyReport(
        k=k,
        q_values=q_values,
        bound_sigma_residual=q_bound.sigma_richardson()[1],
        implied_sigma=implied,
        sigma_initial_psd=psd0,
    )
