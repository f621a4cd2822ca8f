import numpy as np
import pytest

from mqed.conductor import ConductorScenario, conductor_modes, q_kernel_consistency
from mqed.couplings import drude, lorentz_isotropic, zero_coupling
from mqed.errors import ValidationError
from mqed.modes import mode_coefficients
from mqed.response import laplace_response

K = np.array([0.4, -0.3, 1.1])
T = np.linspace(0.0, 6.0, 13)
WQ = np.array([0.7, 2.1])


def test_scenario_validates_sectors():
    with pytest.raises(ValidationError):
        ConductorScenario(
            bound_electric=lorentz_isotropic(1.0, 1.0, 0.5, which="magnetic"),
            free_electric=zero_coupling("electric"),
            magnetic=zero_coupling("magnetic"),
        )


def test_sigma_zero_reduces_to_dielectric_exactly():
    me = lorentz_isotropic(1.3, 1.0, 0.5)
    mm = lorentz_isotropic(0.8, 1.4, 0.6, which="magnetic")
    scenario = ConductorScenario(
        bound_electric=me, free_electric=zero_coupling("electric"), magnetic=mm
    )
    mc_c = conductor_modes(scenario, K, T, WQ)
    mc_d = mode_coefficients(laplace_response(me, mm), me, mm, K, T, WQ)
    for name in ("gamma", "xi", "gamma_tilde", "xi_tilde", "zeta", "eta",
                 "zeta_tilde", "eta_tilde"):
        assert np.max(np.abs(getattr(mc_c, name) - getattr(mc_d, name))) < 1e-12


def test_drude_substitution_equals_full_dielectric_pipeline():
    # routing the free-carrier part through sigma_hat is exactly the
    # dielectric pipeline run on the full susceptibility
    md = drude(1.1, 0.5)
    scenario = ConductorScenario(
        bound_electric=zero_coupling("electric"), free_electric=md,
        magnetic=zero_coupling("magnetic"),
    )
    mc_c = conductor_modes(scenario, K, T, WQ)
    resp = laplace_response(md, zero_coupling("magnetic"))
    mc_d = mode_coefficients(resp, md, zero_coupling("magnetic"), K, T, WQ)
    for name in ("gamma", "xi", "zeta", "eta"):
        assert np.max(np.abs(getattr(mc_c, name) - getattr(mc_d, name))) < 1e-12
    assert mc_c.metadata["conductor"] is True


def test_drude_poles_stable_and_transverse_decay():
    scenario = ConductorScenario(
        bound_electric=zero_coupling("electric"), free_electric=drude(1.1, 0.5),
        magnetic=zero_coupling("magnetic"),
    )
    t = np.linspace(0.0, 30.0, 61)
    mc = conductor_modes(scenario, K, t, [])
    assert mc.metadata["unstable_poles"] == 0
    assert mc.metadata["max_re_pole"] <= 1e-10
    from mqed.tensors import transverse_projector

    p_t = transverse_projector(K)
    norms = [np.linalg.norm(p_t @ mc.gamma[i] @ p_t) for i in (10, 30, 60)]
    assert norms[-1] < norms[0]


def test_q_consistency_pure_lorentz():
    scenario = ConductorScenario(
        bound_electric=lorentz_isotropic(1.3, 1.0, 0.5),
        free_electric=zero_coupling("electric"),
        magnetic=zero_coupling("magnetic"),
    )
    report = q_kernel_consistency(scenario, K, np.linspace(0.0, 10.0, 10001))
    assert report.bound_sigma_residual < 1e-5


def test_q_consistency_pure_drude():
    scenario = ConductorScenario(
        bound_electric=zero_coupling("electric"), free_electric=drude(1.1, 0.5),
        magnetic=zero_coupling("magnetic"),
    )
    report = q_kernel_consistency(scenario, K, np.linspace(0.0, 10.0, 2001))
    assert report.sigma_initial_psd
    sigma0 = report.implied_sigma[0].real
    assert np.min(np.linalg.eigvalsh(0.5 * (sigma0 + sigma0.T))) > 0.0
    q0 = report.q_report.q_values[0].real
    assert np.min(np.linalg.eigvalsh(q0)) > 0.0


def test_q_consistency_zero_coupling():
    scenario = ConductorScenario(
        bound_electric=zero_coupling("electric"),
        free_electric=zero_coupling("electric"),
        magnetic=zero_coupling("magnetic"),
    )
    report = q_kernel_consistency(scenario, K, np.linspace(0.0, 5.0, 101))
    assert np.allclose(report.q_report.q_values, 0.0)
    assert np.allclose(report.implied_sigma, 0.0)


def test_mixed_bound_free_scenario_runs():
    scenario = ConductorScenario(
        bound_electric=lorentz_isotropic(1.0, 1.0, 0.4),
        free_electric=drude(0.9, 0.5),
        magnetic=zero_coupling("magnetic"),
    )
    mc = conductor_modes(scenario, K, T, WQ)
    assert mc.metadata["unstable_poles"] == 0
    # combined coupling at t = 0 initial-data identity
    from mqed.conductor import _combined_electric
    from mqed.couplings import eval_coupling_batch

    f_q = eval_coupling_batch(_combined_electric(scenario), WQ, K)
    assert np.max(np.abs(mc.eta[:, 0] + f_q)) < 1e-10
