import numpy as np
import pytest

from mqed.couplings import (
    TabulatedTable,
    combined_electric,
    drude,
    eval_coupling_batch,
    gaussian_anisotropic,
    lorentz_isotropic,
    tabulated,
    zero_coupling,
)
from mqed.errors import (
    LeftHalfPlane,
    PoleFindingFailed,
    SingularLambda,
    ValidationError,
)
from mqed import modes
from mqed.modes import (
    assemble_lambda,
    invert_lambda,
    lambda_reality_scan,
    mode_coefficients,
)
from mqed.rational import Rational, ilt_rational, partial_fractions
from mqed.response import laplace_response
from mqed.tensors import NATURAL
from mqed.tensors import (
    curl_symbol,
    longitudinal_projector,
    transverse_projector,
)

K = np.array([0.0, 0.0, 1.3])
WK = float(np.linalg.norm(K))


def vacuum_response():
    return laplace_response(zero_coupling("electric"), zero_coupling("magnetic"))


def lorentz_pair():
    me = lorentz_isotropic(1.3, 1.0, 0.5)
    mm = lorentz_isotropic(0.8, 1.4, 0.6, which="magnetic")
    return me, mm, laplace_response(me, mm)


def test_spec_validation():
    me, mm, resp = lorentz_pair()
    with pytest.raises(ValidationError):
        mode_coefficients(resp, K, [0.0, 1.0], [], method="bogus")


def _talbot_sum(transform, t, n):
    """The contour rule of the mode solver at one t > 0 and n nodes."""
    rho, weights = modes._talbot_nodes(t, n)
    return np.sum(weights * transform(rho))


def test_inverse_laplace_textbook_exponential():
    got = _talbot_sum(lambda r: 1.0 / (r + 1.0), 1.0, 32)
    assert abs(got - np.exp(-1.0)) < 1e-12


def test_inverse_laplace_textbook_cosine():
    # t * |Im pole| reaches 6, which takes about 50 nodes
    t = np.linspace(0.0, 3.0, 13)[1:]
    got = np.array([_talbot_sum(lambda r: r / (r**2 + 4.0), ti, 52) for ti in t])
    assert np.max(np.abs(got - np.cos(2.0 * t))) < 1e-10


def test_inverse_laplace_rational_exact():
    t = np.linspace(0.0, 6.0, 25)
    got, _, _ = ilt_rational(Rational.make([0.0, 1.0], [4.0, 0.0, 1.0]), t)
    assert np.max(np.abs(got - np.cos(2.0 * t))) < 1e-12


def test_partial_fractions_zero_residue_at_shared_simple_roots():
    # (rho * (rho + 2)) / (rho * (rho + 2) * (rho + 1)) == 1 / (rho + 1):
    # the shared simple roots survive with zero residue
    num = np.array([0.0, 2.0, 1.0])
    den = np.array([0.0, 2.0, 3.0, 1.0])
    t = np.linspace(0.0, 4.0, 9)
    values, poles, residues = ilt_rational(Rational.make(num, den), t)
    assert np.max(np.abs(values - np.exp(-t))) < 1e-12
    res_at = {round(p.real, 6): r for p, r in zip(poles, residues)}
    assert abs(res_at[0.0]) < 1e-12 and abs(res_at[-2.0]) < 1e-12


def test_partial_fractions_cancels_removable_repeated_root():
    # rho / (rho^2 (rho + 1)) == 1 / (rho (rho + 1)): the doubled root at 0
    # is removable and must be deflated, not rejected
    num = np.array([0.0, 1.0])
    den = np.array([0.0, 0.0, 1.0, 1.0])
    t = np.linspace(0.0, 4.0, 9)
    values, poles, _ = ilt_rational(Rational.make(num, den), t)
    assert poles.size == 2
    assert np.max(np.abs(values - (1.0 - np.exp(-t)))) < 1e-12


def test_partial_fractions_rejects_true_double_pole():
    with pytest.raises(PoleFindingFailed):
        partial_fractions(Rational.make([1.0], [1.0, 2.0, 1.0]))  # 1/(1+rho)^2


def test_assemble_lambda_vacuum_blocks():
    lam = assemble_lambda(vacuum_response(), K, 1.0)
    o = curl_symbol(K)
    assert np.allclose(lam.value[:3, :3], o)
    assert np.allclose(lam.value[3:, 3:], o)
    assert np.allclose(lam.value[:3, 3:], -np.eye(3))
    assert np.allclose(lam.value[3:, :3], np.eye(3))


def test_assemble_lambda_left_half_plane():
    with pytest.raises(LeftHalfPlane):
        assemble_lambda(vacuum_response(), K, -0.5)


def test_assemble_lambda_reality_identity():
    _, _, resp = lorentz_pair()
    rng = np.random.default_rng(17)
    for _ in range(20):
        k = rng.standard_normal(3)
        rho = rng.uniform(0.1, 4.0)
        a = assemble_lambda(resp, k, rho).value
        b = assemble_lambda(resp, -k, rho).value
        assert np.max(np.abs(b - np.conj(a))) < 1e-14


def test_invert_lambda_vacuum_transverse_block():
    rho = 0.8
    lam = assemble_lambda(vacuum_response(), K, rho)
    inv = invert_lambda(lam)
    p_t = transverse_projector(K)
    expected = rho / (rho**2 + WK**2) * p_t
    assert np.max(np.abs(inv[:3, 3:] @ p_t - expected)) < 1e-12
    assert np.max(np.abs(lam.value @ inv - np.eye(6))) < 1e-11


def test_invert_lambda_multiply_back_random_medium():
    _, _, resp = lorentz_pair()
    rng = np.random.default_rng(23)
    for _ in range(10):
        lam = assemble_lambda(resp, rng.standard_normal(3), rng.uniform(0.2, 3.0))
        inv = invert_lambda(lam)
        assert np.max(np.abs(lam.value @ inv - np.eye(6))) < 1e-11


def test_invert_lambda_singular_on_dispersion_shell():
    rho = 1e-14 + 1j * WK  # vacuum pole at rho = i c |k|
    lam = assemble_lambda(vacuum_response(), K, rho)
    with pytest.raises(SingularLambda):
        invert_lambda(lam)


def _conductor_response():
    return laplace_response(combined_electric(lorentz_isotropic(1.0, 1.0, 0.4), drude(1.1, 0.5)),
                            zero_coupling("magnetic"))


_BATCH_RESPONSES = {
    "lorentz": lambda: lorentz_pair()[2],
    "gaussian": lambda: laplace_response(gaussian_anisotropic((1.0, 0.7, 0.4), 1.0, 0.5),
                                         zero_coupling("magnetic")),
    "conductor": _conductor_response,
}


@pytest.mark.parametrize("medium", sorted(_BATCH_RESPONSES))
def test_batched_lambda_equals_stacked_scalar_calls(medium):
    resp = _BATCH_RESPONSES[medium]()
    rng = np.random.default_rng(41)
    k = rng.standard_normal(3)
    rho = rng.uniform(0.1, 4.0, 9) + 1j * rng.uniform(-6.0, 6.0, 9)
    for sign in (+1, -1):
        lam = assemble_lambda(resp, k, rho, curl_sign=sign)
        one = np.stack([assemble_lambda(resp, k, r, curl_sign=sign).value for r in rho])
        assert lam.value.shape == (9, 6, 6)
        assert np.array_equal(lam.rho, rho)
        assert np.array_equal(lam.value, one)


def test_batched_lambda_left_half_plane_member():
    _, _, resp = lorentz_pair()
    rho = np.array([0.5, 1.0 + 2.0j, -0.2 + 1.0j, 3.0])
    with pytest.raises(LeftHalfPlane, match=r"-0\.2"):
        assemble_lambda(resp, K, rho)
    # the continued (contour) variant accepts the same stack
    assert assemble_lambda(resp, K, rho, continued=True).value.shape == (4, 6, 6)


def test_invert_lambda_stack_names_singular_member():
    shell = 1e-14 + 1j * WK  # vacuum pole at rho = i c |k|
    rho = np.array([0.8, 0.3 + 2.0j, shell, 1.5 - 0.4j])
    lam = assemble_lambda(vacuum_response(), K, rho)
    with pytest.raises(SingularLambda) as err:
        invert_lambda(lam)
    assert err.value.rho == shell
    # the regular members invert to the scalar inverses
    keep = np.array([0, 1, 3])
    inv = invert_lambda(assemble_lambda(vacuum_response(), K, rho[keep]))
    for i, r in zip(range(3), rho[keep]):
        assert np.array_equal(inv[i], invert_lambda(assemble_lambda(vacuum_response(), K, r)))


def test_lambda_reality_scan_one_batched_call_per_k_sign(monkeypatch):
    _, _, resp = lorentz_pair()
    calls = []

    def counted(response, k, rho, *args, **kwargs):
        calls.append(np.shape(rho))
        return assemble_lambda(response, k, rho, *args, **kwargs)

    monkeypatch.setattr(modes, "assemble_lambda", counted)
    rng = np.random.default_rng(31)
    report = lambda_reality_scan(resp, rng.standard_normal((3, 3)), rng.uniform(0.1, 5.0, 7))
    assert calls == [(7,)] * 6
    assert report.n_samples == 21


def test_conductor_block_substitution():
    # free carriers joined to a continuum bound part add their closed-form
    # Drude term rho eps0 s^2 / (rho^2 + gamma rho) to the lower-left block
    # and touch nothing else, for one rho and for a stack
    k = np.array([0.4, -0.3, 1.1])
    bound = gaussian_anisotropic((1.0, 0.7, 0.4), 1.0, 0.5)
    strength, width = 1.1, 0.5
    mm = zero_coupling("magnetic")
    cond = laplace_response(combined_electric(bound, drude(strength, width)), mm)
    for rho in (0.9, np.array([0.9, 1.5 + 2.0j])):
        lam_b = assemble_lambda(laplace_response(bound, mm), k, rho).value
        lam_c = assemble_lambda(cond, k, rho).value
        r = np.asarray(rho)[..., None, None]
        drude_term = NATURAL.eps0 * r * strength**2 / (r**2 + width * r) * np.eye(3)
        want = lam_b[..., 3:, :3] + drude_term
        err = np.max(np.abs(lam_c[..., 3:, :3] - want)) / np.max(np.abs(want))
        assert err <= 1e-13, err
        lam_c[..., 3:, :3] = lam_b[..., 3:, :3]
        assert np.array_equal(lam_c, lam_b)


def test_lambda_reality_scan_media():
    _, _, resp = lorentz_pair()
    rng = np.random.default_rng(29)
    report = lambda_reality_scan(resp, rng.standard_normal((100, 3)),
                                 rng.uniform(0.1, 5.0, 100))
    assert report.max_deviation < 1e-13
    assert report.n_samples == 10_000


def test_lambda_reality_scan_flags_violation():
    # tabulated coupling with complex entries: |k|-only dependence cannot
    # satisfy f(-k) = conj(f(k)), so Lambda reality fails and is reported
    omegas = np.linspace(1e-4, 30.0, 50)
    kmags = np.array([0.1, 5.0])
    values = np.zeros((50, 2, 3, 3), dtype=complex)
    values[:, :, 0, 1] = 0.3j
    values[:, :, 1, 0] = 0.3
    values[:, :, 0, 0] = values[:, :, 1, 1] = values[:, :, 2, 2] = 0.4
    model = tabulated(TabulatedTable(omegas=omegas, kmags=kmags, values=values))
    resp = laplace_response(model, zero_coupling("magnetic"))
    report = lambda_reality_scan(resp, [np.array([0.0, 0.0, 1.0])], [0.7])
    assert report.max_deviation > 1e-3


def test_vacuum_mode_coefficients_closed_forms():
    resp = vacuum_response()
    t = np.linspace(0.0, 10.0, 41)
    mc = mode_coefficients(resp, K, t, [])
    p_t = transverse_projector(K)
    p_l = longitudinal_projector(K)
    o = curl_symbol(K)
    cos = np.cos(WK * t)[:, None, None]
    sin = (np.sin(WK * t) / WK)[:, None, None]
    ones = np.ones_like(t)[:, None, None]
    assert np.max(np.abs(mc.gamma - (cos * p_t + ones * p_l))) < 1e-9
    assert np.max(np.abs(mc.xi - sin * o)) < 1e-9
    assert np.max(np.abs(mc.gamma_tilde - (-sin * o))) < 1e-9
    assert np.max(np.abs(mc.xi_tilde - (cos * p_t + ones * p_l))) < 1e-9
    assert mc.zeta.size == 0 or np.max(np.abs(mc.zeta)) == 0.0


def test_vacuum_reservoir_coefficients_vanish():
    resp = vacuum_response()
    t = np.linspace(0.0, 5.0, 11)
    mc = mode_coefficients(resp, K, t, [0.5, 1.5])
    for name in ("zeta", "eta", "zeta_tilde", "eta_tilde"):
        assert np.max(np.abs(getattr(mc, name))) == 0.0


def test_medium_initial_values():
    me, mm, resp = lorentz_pair()
    t = np.linspace(0.0, 6.0, 7)
    wq = np.array([0.6, 2.3, 20.0])
    mc = mode_coefficients(resp, K, t, wq)
    f_q = eval_coupling_batch(me, wq, K)
    g_q = eval_coupling_batch(mm, wq, K)
    assert np.max(np.abs(mc.gamma[0] - np.eye(3))) < 1e-12
    assert np.max(np.abs(mc.xi[0])) < 1e-12
    assert np.max(np.abs(mc.zeta[:, 0])) < 1e-12
    assert np.max(np.abs(mc.eta_tilde[:, 0])) < 1e-12
    assert np.max(np.abs(mc.eta[:, 0] + f_q)) < 1e-12
    assert np.max(np.abs(mc.zeta_tilde[:, 0] + g_q)) < 1e-12


def test_initial_value_theorem_vs_small_time():
    me, mm, resp = lorentz_pair()
    rho_big = 1e6
    lam1 = np.linalg.inv(assemble_lambda(resp, K, rho_big, curl_sign=-1).value)
    lam2 = np.linalg.inv(assemble_lambda(resp, K, 2.0 * rho_big, curl_sign=-1).value)
    limit = 2.0 * (2.0 * rho_big * lam2) - rho_big * lam1
    t = np.array([0.0, 1e-6])
    mc = mode_coefficients(resp, K, t, [])
    assert np.max(np.abs(mc.gamma[1] - limit[:3, 3:])) < 1e-6
    # xi has a vanishing t -> 0 limit; the comparison floor is its O(t) slope
    assert np.max(np.abs(mc.xi[1] + limit[:3, :3])) < 2e-6


def test_dual_method_agreement_lorentz():
    me, mm, resp = lorentz_pair()
    t = np.linspace(0.0, 6.0, 7)
    wq = np.array([0.6, 2.3, 20.0])
    a = mode_coefficients(resp, K, t, wq)
    b = mode_coefficients(resp, K, t, wq, method="talbot")
    for name in ("gamma", "xi", "gamma_tilde", "xi_tilde", "zeta", "eta",
                 "zeta_tilde", "eta_tilde"):
        x, y = getattr(a, name), getattr(b, name)
        scale = max(float(np.max(np.abs(x))), 1e-30)
        assert np.max(np.abs(x - y)) / scale < 1e-8, name


def test_talbot_matches_rational_on_conductor():
    from mqed.conductor import conductor_modes

    resp = _conductor_response()
    t = np.linspace(0.0, 6.0, 7)
    wq = np.array([0.6, 2.3, 20.0])
    a = conductor_modes(resp, K, t, wq)
    b = conductor_modes(resp, K, t, wq, method="talbot")
    c = conductor_modes(resp, K, t, wq, method="bromwich_line")
    assert a.metadata["method"] == "rational_exact" and b.metadata["method"] == "talbot"
    assert b.metadata["conductor"] and b.metadata["worst_rcond"] > 0.0
    for name in ("gamma", "xi", "gamma_tilde", "xi_tilde", "eta", "eta_tilde"):
        x, y = getattr(a, name), getattr(b, name)
        scale = float(np.max(np.abs(x)))
        assert scale > 0.0, name
        assert np.max(np.abs(x - y)) / scale < 1e-8, name
    # no magnetic coupling: every path leaves the zeta families at zero
    for name in ("zeta", "zeta_tilde"):
        for mc in (a, b, c):
            assert getattr(mc, name).shape == (3, 7, 3, 3), name
            assert not np.any(getattr(mc, name)), (name, mc.metadata["method"])


def test_talbot_rejects_continuum_absorption():
    mg = gaussian_anisotropic((1.0, 0.7, 0.4), 1.0, 0.5)
    resp = laplace_response(mg, zero_coupling("magnetic"))
    with pytest.raises(ValidationError):
        mode_coefficients(resp, K,
                          np.linspace(0.0, 2.0, 3), [], method="talbot")


@pytest.mark.parametrize("medium", ["conductor", "lorentz"])
def test_line_method_matches_rational_on_rational_medium(medium):
    resp = _BATCH_RESPONSES[medium]()
    t = np.linspace(0.0, 6.0, 7)
    wq = np.array([0.6, 2.3])
    a = mode_coefficients(resp, K, t, wq)
    b = mode_coefficients(resp, K, t, wq, method="bromwich_line")
    for name in ("gamma", "xi", "gamma_tilde", "xi_tilde", "zeta", "eta",
                 "zeta_tilde", "eta_tilde"):
        x, y = getattr(a, name), getattr(b, name)
        scale = max(float(np.max(np.abs(x))), 1e-30)
        assert np.max(np.abs(x - y)) / scale < 1e-6, name


@pytest.mark.parametrize("medium", sorted(_BATCH_RESPONSES))
def test_line_tail_coefficients_match_the_large_rho_difference(medium):
    # Lambda_med^-1 - Lambda_vac^-1 less C3 rho^-3 and C4 rho^-4 leaves an
    # O(rho^-5) remainder: relative to the difference it falls 4x per
    # doubling of |rho|, which a wrong C3 (no fall) or C4 (2x) would not
    resp = _BATCH_RESPONSES[medium]()
    vac = vacuum_response()
    c3, c4 = modes._line_tail(resp, K, 0.0)
    rel = []
    for y in (200.0, 400.0, 800.0):
        rho = 0.4 + 1j * y
        diff = (np.linalg.inv(assemble_lambda(resp, K, rho, curl_sign=-1).value)
                - np.linalg.inv(assemble_lambda(vac, K, rho, curl_sign=-1).value))
        rel.append(np.max(np.abs(diff - c3 / rho**3 - c4 / rho**4)) / np.max(np.abs(diff)))
    assert rel[0] < 3e-4
    for coarse, fine in zip(rel, rel[1:]):
        assert 3.5 < coarse / fine < 4.5


def test_line_tail_shift_keeps_the_two_leading_terms():
    # C3 (rho + a)^-3 + C4' (rho + a)^-4 and C3 rho^-3 + C4 rho^-4 differ by
    # O(rho^-5): 32x less per doubling of |rho|
    resp = _BATCH_RESPONSES["gaussian"]()
    c3, c4 = modes._line_tail(resp, K, 0.0)
    a = 0.7
    s3, s4 = modes._line_tail(resp, K, a)
    assert np.array_equal(s3, c3)
    gaps = [np.max(np.abs(c3 / r**3 + c4 / r**4 - s3 / (r + a)**3 - s4 / (r + a)**4))
            for r in (0.3 + 100j, 0.3 + 200j)]
    assert 28.0 < gaps[0] / gaps[1] < 36.0


def test_phi_functions_against_their_integral():
    # phi_n(z) = int_0^1 e^((1 - s) z) s^(n - 1) / (n - 1)! ds by a 64-point
    # Gauss-Legendre rule, on both sides of the series branch at |z| = 1
    from math import factorial

    x, w = np.polynomial.legendre.leggauss(64)
    s_, w_ = 0.5 * (x + 1.0), 0.5 * w
    z = np.array([0.0, 1e-3 - 2e-3j, 0.5j, 0.99, 1.01j, 3.0 - 0.2j, 0.375 - 40.0j])
    for n in (3, 4):
        want = (np.exp(np.outer(z, 1.0 - s_)) * s_ ** (n - 1) / factorial(n - 1)) @ w_
        assert np.max(np.abs(modes._phi(n, z) - want) / np.abs(want)) < 1e-13


@pytest.mark.parametrize("medium", ["gaussian", "lorentz"])
def test_line_transforms_match_a_wider_line(monkeypatch, medium):
    # the bundled gaussian medium at its k, and the Lorentz pair, with 96
    # reservoir nodes, on the modes grid and at the commutator times: the
    # same solve on a line at least 4x as wide moves no family by 1e-7 of
    # its peak, and the larger of the line's two estimates bounds the error
    # of the base transforms. A response keeps its line, so the wider line
    # is built on a fresh response
    from mqed.quadrature import gauss_legendre

    if medium == "gaussian":
        models = (gaussian_anisotropic((1.0, 0.7, 0.4), 1.0, 0.8), zero_coupling("magnetic"))
        k = np.array([0.4, -0.3, 1.1])
    else:
        models, k = lorentz_pair()[:2], K
    resp = laplace_response(*models, horizon=8.0)
    halfwidth = modes.bromwich_line(resp, k).metadata["line_halfwidth"]
    wide = laplace_response(*models, horizon=8.0)
    with monkeypatch.context() as m:
        # the frequency scale the factor multiplies is at least 1
        m.setattr(modes, "_LINE_HALFWIDTH_FACTOR", 4.0 * halfwidth)
        assert modes.bromwich_line(wide, k).metadata["line_halfwidth"] >= 4.0 * halfwidth
    wq, _ = gauss_legendre(96, 0.0, 50.0)
    for t in (np.linspace(0.0, 8.0, 81), np.array([0.0, 1.0, 5.0])):
        mc = mode_coefficients(resp, k, t, wq, method="bromwich_line")
        ref = mode_coefficients(wide, k, t, wq, method="bromwich_line")
        for name in ("gamma", "xi", "gamma_tilde", "xi_tilde", "zeta", "eta",
                     "zeta_tilde", "eta_tilde"):
            x, y = getattr(mc, name), getattr(ref, name)
            assert np.max(np.abs(x - y)) <= 1e-7 * np.max(np.abs(y)), name
        vac = mode_coefficients(vacuum_response(), k, t, [])
        scale = np.max(np.abs(ref.gamma - vac.gamma))
        err = max(np.max(np.abs(getattr(mc, n) - getattr(ref, n)))
                  for n in ("gamma", "xi", "gamma_tilde", "xi_tilde")) / scale
        assert err <= max(mc.metadata["est_rel_error"], mc.metadata["est_truncation"])


def test_line_coefficients_do_not_depend_on_the_request():
    # the gaussian config's medium, k, horizon and top reservoir frequency:
    # gamma, xi, zeta and eta (and the tilde partners) at t = 1 and 5 and at
    # three reservoir nodes where the coupling is not negligible (w_q = 0.1,
    # 1.25 and 3.2) agree to 1e-12 of each family's peak between the modes
    # grid with all 96 nodes, the commutator times with those three nodes
    # alone, and a long uniform grid (chirp-z sums) with two of them
    from mqed.quadrature import gauss_legendre

    resp = laplace_response(gaussian_anisotropic((1.0, 0.7, 0.4), 1.0, 0.8),
                            zero_coupling("magnetic"), horizon=8.0, omega_top=50.0)
    k = np.array([0.4, -0.3, 1.1])
    wq, _ = gauss_legendre(96, 0.0, 50.0)
    full = mode_coefficients(resp, k, np.linspace(0.0, 8.0, 81), wq)
    picks = [2, 9, 15]
    requests = [
        (full.t_grid[[0, 10, 50]], picks, [10, 50], [1, 2], [0, 1, 2]),
        (np.linspace(0.0, 4.0, 4097), picks[1:], [10], [1024], [0, 1]),
    ]
    for t, q, at_full, at_other, q_other in requests:
        other = mode_coefficients(resp, k, t, wq[q])
        assert other.metadata == full.metadata
        for name in ("gamma", "xi", "gamma_tilde", "xi_tilde"):
            want = getattr(full, name)
            got = getattr(other, name)[at_other]
            assert np.max(np.abs(got - want[at_full])) <= 1e-12 * np.max(np.abs(want)), name
        for name in ("zeta", "eta", "zeta_tilde", "eta_tilde"):
            want = getattr(full, name)
            got = getattr(other, name)[q_other][:, at_other]
            err = np.max(np.abs(got - want[q][:, at_full]))
            assert err <= 1e-12 * max(np.max(np.abs(want)), 1e-300), name
    # one line at k served all three requests
    assert list(resp.lines) == [tuple(k)]


def test_line_request_past_the_horizon_or_top_frequency_raises():
    resp = laplace_response(gaussian_anisotropic((1.0, 0.7, 0.4), 1.0, 0.5),
                            zero_coupling("magnetic"), horizon=4.0, omega_top=10.0)
    with pytest.raises(ValidationError, match="horizon"):
        mode_coefficients(resp, K, [0.0, 4.5], [1.0])
    with pytest.raises(ValidationError, match="omega_top"):
        mode_coefficients(resp, K, [0.0, 4.0], [1.0, 10.5])
    assert not resp.lines  # a rejected request builds no line
    mc = mode_coefficients(resp, K, [0.0, 4.0], [10.0])
    assert mc.metadata["line_horizon"] == 4.0 and mc.metadata["line_omega_top"] == 10.0


def test_gaussian_medium_line_path_initial_data():
    mg = gaussian_anisotropic((1.0, 0.7, 0.4), 1.0, 0.5)
    resp = laplace_response(mg, zero_coupling("magnetic"))
    t = np.linspace(0.0, 6.0, 7)
    wq = np.array([0.6, 2.3, 20.0])
    mc = mode_coefficients(resp, K, t, wq)
    assert mc.metadata["method"] == "bromwich_line"
    f_q = eval_coupling_batch(mg, wq, K)
    assert np.max(np.abs(mc.gamma[0] - np.eye(3))) < 1e-5
    assert np.max(np.abs(mc.eta[:, 0] + f_q)) < 1e-6


def test_drude_poles_flagged_stable():
    md = drude(1.1, 0.5)
    resp = laplace_response(md, zero_coupling("magnetic"))
    mc = mode_coefficients(resp, K,
                           np.linspace(0.0, 5.0, 6), [0.9])
    assert mc.metadata["unstable_poles"] == 0
    assert mc.metadata["max_re_pole"] <= 1e-10


def _dense_line_reference(resp, me, mm, k, t, wq, meta):
    """The Bromwich-line inversion with the whole (n_t, n_y) phase table at
    once, Lambda assembled point by point, and the grid-halving and
    truncation estimates from a strided and a cut copy of the table on the
    line's own uniform grid over [0, horizon]. The
    closed-form tail C3 (rho + a)^-3 + C4' (rho + a)^-4 is subtracted on the
    line and its transforms added in their exponential form,
    L^-1[(rho + a)^-n / (rho + i w)] = (e^-iwt - e^-at sum_(j<n) (ct)^j / j!)
    / c^n with c = a - i w; the vacuum transforms are added before the
    reference's own block-to-family map."""
    from math import factorial

    vac = vacuum_response()
    v_base, v_res, _ = modes._rational_mode_path(vac, ("ee", "he", "eh", "hh"), k, t, wq)
    y_top, n_y, a = meta["line_halfwidth"], meta["line_points"], meta["line_abscissa"]
    y = np.linspace(-y_top, y_top, n_y)
    rho = a + 1j * y

    def inverse(r):
        return np.linalg.inv(np.stack(
            [assemble_lambda(r, k, x, curl_sign=-1).value for x in rho]))

    c3, c4 = modes._line_tail(resp, k, a)
    u = 1.0 / (rho + a)
    diff = (inverse(resp) - inverse(vac) - np.multiply.outer(u**3, c3)
            - np.multiply.outer(u**4, c4))

    def phase_table(tt):
        return (y[1] - y[0]) * np.exp(np.outer(tt, rho)) / (2.0 * np.pi)

    def with_tail(tt, line):
        decay = np.exp(-a * tt)
        return line + np.multiply.outer(decay * tt**2 / 2.0, c3) + np.multiply.outer(
            decay * tt**3 / 6.0, c4)

    t_est = np.linspace(0.0, meta["line_horizon"], meta["estimate_points"])
    phases = phase_table(t_est)
    line = np.einsum("tj,jab->tab", phases, diff)
    coarse = np.einsum("tj,jab->tab", 2.0 * phases[:, ::2], diff[::2])
    inner = np.abs(y) <= 0.5 * y_top
    cut = np.einsum("tj,jab->tab", phases[:, inner], diff[inner])
    scale = float(np.max(np.abs(with_tail(t_est, line)[:, :3, 3:])))
    est = float(np.max(np.abs(line - coarse))) / scale
    trunc = float(np.max(np.abs(line - cut))) / scale
    phases = phase_table(t)
    decay = np.exp(-a * t)
    base = with_tail(t, np.einsum("tj,jab->tab", phases, diff))
    fac = 1.0 / (rho[:, None] + 1j * wq[None, :])
    conv = np.einsum("tj,jq,jab->qtab", phases, fac, diff)
    c = (a - 1j * wq)[:, None]
    for n, coeff in ((3, c3), (4, c4)):
        partial = sum((c * t) ** j / factorial(j) for j in range(n))
        conv += np.multiply.outer((np.exp(-1j * np.outer(wq, t)) - decay * partial) / c**n,
                                  coeff)
    e, h = slice(0, 3), slice(3, 6)
    # L^-1[rho/(rho + i w_q) Lambda^-1 block], medium = vacuum + difference
    res = {name: v_res[name] + base[None, :, rows, cols] - 1j * wq[:, None, None, None]
           * conv[:, :, rows, cols]
           for name, rows, cols in (("ee", e, e), ("eh", e, h), ("he", h, e), ("hh", h, h))}
    base = base + v_base
    f_q, g_q = eval_coupling_batch(me, wq, k), eval_coupling_batch(mm, wq, k)
    ref = {
        "gamma": base[:, e, h],
        "xi": -base[:, e, e],
        "gamma_tilde": base[:, h, h],
        "xi_tilde": -base[:, h, e],
        "zeta": NATURAL.mu0 * res["ee"] @ g_q[:, None],
        "zeta_tilde": NATURAL.mu0 * res["he"] @ g_q[:, None],
        "eta": -res["eh"] @ f_q[:, None],
        "eta_tilde": -res["hh"] @ f_q[:, None],
    }
    return ref, est, trunc


def _check_line_chunks_against_dense(monkeypatch, t):
    import mqed.response

    # electric plus magnetic medium, so all four reservoir blocks are summed
    me, mm, _ = lorentz_pair()
    wq = np.array([0.6, 1.7, 2.3])

    def response():
        # the shortest line these t and wq allow
        return laplace_response(me, mm, horizon=float(np.max(t)), omega_top=float(np.max(wq)))

    n_y = modes.bromwich_line(response(), K).metadata["line_points"]
    # 18 t rows per table chunk (18, 18, 5) and 2 reservoir nodes per column
    # chunk (2, 1): both last chunks ragged. A uniform grid of 41 > 18 rows
    # goes through chirp-z instead, whose column blocks end ragged on the
    # 36 base columns and on the 18 columns of two reservoir nodes. A fresh
    # response builds its line, and the line's estimates, under this budget
    monkeypatch.setattr(mqed.response, "_TABLE_ELEMENTS", 18 * n_y + 3)
    step = mqed.response._TABLE_ELEMENTS // modes._fft_size(t.size + n_y - 1)
    assert 36 % step and 18 % step
    resp = response()
    mc = mode_coefficients(resp, K, t, wq, method="bromwich_line")
    assert mc.metadata["line_points"] == n_y
    ref, est, trunc = _dense_line_reference(resp, me, mm, K, t, wq, mc.metadata)
    for name, want in ref.items():
        got = getattr(mc, name)
        scale = float(np.max(np.abs(want)))
        assert scale > 0.0, name
        assert np.max(np.abs(got - want)) <= 1e-12 * scale, name
    # the estimates are already relative to the peak of the eh block, over
    # the line's grid on [0, horizon] whatever t the call asked for
    assert abs(mc.metadata["est_rel_error"] - est) <= 1e-12
    assert abs(mc.metadata["est_truncation"] - trunc) <= 1e-12


def test_line_path_chunks_match_dense_reference(monkeypatch):
    # uniform grid: every line sum by chirp-z
    _check_line_chunks_against_dense(monkeypatch, np.linspace(0.0, 6.0, 41))


@pytest.mark.parametrize(
    "t",
    [np.linspace(1.5, 7.5, 41), 6.0 * np.linspace(0.0, 1.0, 41) ** 1.5],
    ids=["uniform_offset", "nonuniform"],
)
def test_line_path_chunks_match_dense_reference_other_grids(monkeypatch, t):
    # a uniform grid that starts at t > 0 (chirp-z with the t_0 fold), and
    # a non-uniform one (a phase table per chunk)
    _check_line_chunks_against_dense(monkeypatch, t)
