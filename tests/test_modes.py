import numpy as np
import pytest

from helpers import gaussian_response
from mqed.couplings import (
    TabulatedTable,
    drude,
    eval_coupling_batch,
    gaussian_anisotropic,
    lorentz_isotropic,
    tabulated,
    zero_coupling,
)
from mqed.errors import LeftHalfPlane, PoleFindingFailed, ValidationError
from mqed import modes
from mqed.modes import (
    assemble_lambda,
    lambda_reality_scan,
    line_mode_coefficients,
    mode_coefficients,
)
from mqed.rational import Rational, ilt_rational, lambda_scalars, partial_fractions
from mqed.response import laplace_response
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
    # the medium picks the inverse transform: no method is passed or named
    resp = lorentz_pair()[2]
    with pytest.raises(ValidationError, match="t_grid"):
        mode_coefficients(resp, K, [], [])
    with pytest.raises(TypeError):
        mode_coefficients(resp, K, [0.0, 1.0], [], method="bromwich_line")
    assert not hasattr(modes, "METHODS") and not hasattr(modes, "resolve_method")


def test_inverse_laplace_rational_exact():
    t = np.linspace(0.0, 6.0, 25)
    got, _, _ = ilt_rational(Rational.make([0.0, 1.0], [4.0, 0.0, 1.0]), t)
    assert np.max(np.abs(got - np.cos(2.0 * t))) < 1e-12


def test_partial_fractions_zero_residue_at_shared_simple_roots():
    # (rho * (rho + 2)) / (rho * (rho + 2) * (rho + 1)) == 1 / (rho + 1):
    # the shared power of rho is cancelled when the function is made, and
    # the shared simple root at -2 survives with zero residue
    num = np.array([0.0, 2.0, 1.0])
    den = np.array([0.0, 2.0, 3.0, 1.0])
    t = np.linspace(0.0, 4.0, 9)
    values, poles, residues = ilt_rational(Rational.make(num, den), t)
    assert np.max(np.abs(values - np.exp(-t))) < 1e-12
    res_at = {round(p.real, 6): r for p, r in zip(poles, residues)}
    assert sorted(res_at) == [-2.0, -1.0] and abs(res_at[-2.0]) < 1e-12


def test_partial_fractions_cancels_removable_repeated_root():
    # rho / (rho^2 (rho + 1)) == 1 / (rho (rho + 1)): the doubled root at 0
    # is removable, and the shared power of rho is cancelled, not rejected
    num = np.array([0.0, 1.0])
    den = np.array([0.0, 0.0, 1.0, 1.0])
    t = np.linspace(0.0, 4.0, 9)
    values, poles, _ = ilt_rational(Rational.make(num, den), t)
    assert poles.size == 2
    assert np.max(np.abs(values - (1.0 - np.exp(-t)))) < 1e-12


def test_partial_fractions_rejects_true_double_pole():
    # 1/(1+rho)^2, and a critically damped part (resonance = width / 2),
    # chi_hat = s^2 / (rho + width / 2)^2: the error names the pole
    for rat, pole in ((Rational.make([1.0], [1.0, 2.0, 1.0]), "-1"),
                      (lorentz_isotropic(1.1, 0.25, 0.5).closed_form, "-0.25")):
        with pytest.raises(PoleFindingFailed, match=f"repeated pole near {pole}"):
            partial_fractions(rat)


_EXACT_MEDIA = {
    "lorentz.cfg": lorentz_pair()[:2],
    "conductor.cfg bound": (lorentz_isotropic(1.0, 1.0, 0.4),),
    "conductor.cfg conductor": (lorentz_isotropic(1.0, 1.0, 0.4), drude(1.1, 0.5)),
    # two Drude parts of one width share their denominator rho (rho + 0.5)
    "electric and conductor Drude": (drude(0.7, 0.5), drude(1.1, 0.5)),
}


@pytest.mark.parametrize("kmag", [1e-6, 1.3, 1e3, 1e6])
@pytest.mark.parametrize("medium", sorted(_EXACT_MEDIA))
def test_exact_path_scalars_hold_only_their_own_poles(medium, kmag):
    # each scalar of Lambda^-1 is formed from the sectors' polynomials, so
    # none lists a pole that its numerator shares (a pole of eps_hat or
    # mu_hat, or a Drude part's rho = 0): at every listed pole p the
    # numerator stands 10 times above what a shared root would leave of it,
    # eps (|num|(|p|) + |num'(p) / den'(p)| |den|(|p|)), the rounding of num
    # at p and of p as a root of den. Scalars formed by rational-function
    # arithmetic, which cancels nothing, fail this at |k| = 1e-6, 1.3 and
    # 1e3 (margins of 8 and less); at 1e6 and 1e-6 a genuine pole lies
    # |k|^-2 or |k|^2 from a root of its numerator, which leaves margins of
    # 40 and more
    from numpy.polynomial import polynomial as P

    parts = _EXACT_MEDIA[medium]
    forms = [[p.closed_form for p in parts if p.which == which] for which in ("electric",
                                                                             "magnetic")]
    for name, rat in lambda_scalars(*forms, kmag**2).items():
        poles, _ = partial_fractions(rat)
        size = np.abs(poles)
        slope = np.abs(P.polyval(poles, P.polyder(rat.num)) / P.polyval(poles, P.polyder(rat.den)))
        rounding = np.finfo(float).eps * (P.polyval(size, np.abs(rat.num))
                                          + slope * P.polyval(size, np.abs(rat.den)))
        assert np.all(np.abs(P.polyval(poles, rat.num)) > 10.0 * rounding), (name, poles)


def test_assemble_lambda_vacuum_blocks():
    # the curl blocks hold the commutator-conserving orientation -O(k)
    lam = assemble_lambda(vacuum_response(), K, 1.0)
    o = curl_symbol(K)
    assert np.allclose(lam.value[:3, :3], -o)
    assert np.allclose(lam.value[3:, 3:], -o)
    assert np.allclose(lam.value[:3, 3:], -np.eye(3))
    assert np.allclose(lam.value[3:, :3], np.eye(3))


def _lorentz_pair_lambda(rho):
    """Lambda of `lorentz_pair` at a scalar rho in closed form."""
    eps = 1.0 + 1.3**2 / (1.0 + 0.5 * rho + rho**2)
    mu = 1.0 + 0.8**2 / (1.4**2 + 0.6 * rho + rho**2)
    lam = np.zeros((6, 6), dtype=complex)
    lam[:3, :3] = lam[3:, 3:] = -curl_symbol(K)
    lam[:3, 3:], lam[3:, :3] = -rho * mu * np.eye(3), rho * eps * np.eye(3)
    return lam


def test_assemble_lambda_left_half_plane():
    # every medium refuses Re rho <= 0, a rational one as well as a
    # continuum one (branch cut on the imaginary axis); a rational Lambda at
    # Re rho > 0 equals its closed form
    _, _, resp = lorentz_pair()
    for medium in (_BATCH_RESPONSES["gaussian"](), resp):
        with pytest.raises(LeftHalfPlane, match=r"-0\.5"):
            assemble_lambda(medium, K, -0.5)
        for rho in (-0.3 + 2.0j, 1.7j):
            with pytest.raises(LeftHalfPlane):
                assemble_lambda(medium, K, rho)
    for rho in (0.5, 0.3 + 2.0j, 1e-3 - 1.7j):
        want = _lorentz_pair_lambda(rho)
        got = assemble_lambda(resp, K, rho).value
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_assemble_lambda_reality_identity():
    _, _, resp = lorentz_pair()
    rng = np.random.default_rng(17)
    for _ in range(20):
        k = rng.standard_normal(3)
        rho = rng.uniform(0.1, 4.0)
        a = assemble_lambda(resp, k, rho).value
        b = assemble_lambda(resp, -k, rho).value
        assert np.max(np.abs(b - np.conj(a))) < 1e-14


def test_lambda_inverse_vacuum_transverse_block():
    rho = 0.8
    lam = assemble_lambda(vacuum_response(), K, rho)
    inv = np.linalg.inv(lam.value)
    p_t = transverse_projector(K)
    expected = rho / (rho**2 + WK**2) * p_t
    assert np.max(np.abs(inv[:3, 3:] @ p_t - expected)) < 1e-12
    assert np.max(np.abs(lam.value @ inv - np.eye(6))) < 1e-11


def test_lambda_inverse_multiply_back_random_medium():
    _, _, resp = lorentz_pair()
    rng = np.random.default_rng(23)
    for _ in range(10):
        lam = assemble_lambda(resp, rng.standard_normal(3), rng.uniform(0.2, 3.0))
        inv = np.linalg.inv(lam.value)
        assert np.max(np.abs(lam.value @ inv - np.eye(6))) < 1e-11


def _conductor_response():
    return laplace_response(lorentz_isotropic(1.0, 1.0, 0.4), drude(1.1, 0.5),
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
    lam = assemble_lambda(resp, k, rho)
    one = np.stack([assemble_lambda(resp, k, r).value for r in rho])
    assert lam.value.shape == (9, 6, 6)
    assert np.array_equal(lam.rho, rho)
    assert np.array_equal(lam.value, one)


def test_batched_lambda_left_half_plane_member():
    # one left-half-plane member refuses the whole stack, on every medium
    rho = np.array([0.5, 1.0 + 2.0j, -0.2 + 1.0j, 3.0])
    _, _, resp = lorentz_pair()
    for medium in (_BATCH_RESPONSES["gaussian"](), resp):
        with pytest.raises(LeftHalfPlane, match=r"-0\.2"):
            assemble_lambda(medium, K, rho)
    # the right-half-plane members take one stack, each in closed form
    keep = rho[np.real(rho) > 0.0]
    lam = assemble_lambda(resp, K, keep).value
    for got, r in zip(lam, keep):
        want = _lorentz_pair_lambda(r)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


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
    cond = laplace_response(bound, drude(strength, width), mm)
    for rho in (0.9, np.array([0.9, 1.5 + 2.0j])):
        lam_b = assemble_lambda(laplace_response(bound, mm), k, rho).value
        lam_c = assemble_lambda(cond, k, rho).value
        r = np.asarray(rho)[..., None, None]
        drude_term = r * strength**2 / (r**2 + width * r) * np.eye(3)
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
    # rho Lambda^-1 -> A^-1 as rho -> inf, so the transforms start there
    me, mm, resp = lorentz_pair()
    limit = modes._INITIAL_DATA
    t = np.array([0.0, 1e-6])
    mc = mode_coefficients(resp, K, t, [])
    assert np.max(np.abs(mc.gamma[1] - limit[:3, 3:])) < 1e-6
    # xi has a vanishing t -> 0 limit; the comparison floor is its O(t) slope
    assert np.max(np.abs(mc.xi[1] + limit[:3, :3])) < 2e-6


_INITIAL_DATA_MEDIA = {
    "lorentz": lambda: lorentz_pair()[:2],
    # t_he has a removable double root at rho = 0 here
    "drude": lambda: (drude(1.1, 0.5), lorentz_isotropic(0.6, 1.5, 0.3, which="magnetic")),
    "gaussian": lambda: (gaussian_anisotropic((1.0, 0.7, 0.4), 1.0, 0.5),
                         zero_coupling("magnetic")),
}


@pytest.mark.parametrize("medium", sorted(_INITIAL_DATA_MEDIA))
def test_every_method_starts_from_the_initial_data(medium):
    # at t = 0 every transform is A^-1 = [[0, I], [-I, 0]]: gamma = I,
    # xi~ = I, eta = -f_q, zeta~ = -g_q, and xi, gamma~, zeta and eta~
    # vanish. The exact path and the line reach it from their own transforms
    me, mm = _INITIAL_DATA_MEDIA[medium]()
    resp = laplace_response(me, mm)
    a_inv = modes._INITIAL_DATA
    eye = np.eye(3)
    assert np.array_equal(a_inv[:3, 3:], eye) and np.array_equal(a_inv[3:, :3], -eye)
    assert not np.any(a_inv[:3, :3]) and not np.any(a_inv[3:, 3:])
    t = np.linspace(0.0, 6.0, 7)
    wq = np.array([0.6, 2.3, 20.0])
    f_q, g_q = eval_coupling_batch(me, wq, K), eval_coupling_batch(mm, wq, K)
    zero = np.zeros((3, 3))
    want = {"gamma": eye, "xi": zero, "gamma_tilde": zero, "xi_tilde": eye,
            "eta": -f_q, "zeta_tilde": -g_q, "zeta": zero, "eta_tilde": zero}
    tolerances = {"rational_exact": 1e-13, "bromwich_line": 1e-9}
    solvers = {"bromwich_line": line_mode_coefficients}
    if medium != "gaussian":
        solvers["rational_exact"] = mode_coefficients
    for method, solve in solvers.items():
        mc = solve(resp, K, t, wq)
        assert mc.metadata["method"] == method
        for name, value in want.items():
            got = getattr(mc, name)
            got = got[0] if got.ndim == 3 else got[:, 0]
            assert np.max(np.abs(got - value)) <= tolerances[method], (method, name)


def test_reservoir_transform_at_removable_repeated_root():
    # rho / (rho^2 (rho + 1)) == 1 / (rho (rho + 1)): with the reservoir
    # factor rho / (rho + i w) the transform is (e^{-i w t} - e^{-t}) / (1 - i w);
    # the residues come from the cancelled form, not 0/0 at the doubled root
    rat = Rational.make([0.0, 1.0], [0.0, 0.0, 1.0, 1.0])
    t = np.linspace(0.0, 6.0, 7)
    wq = np.array([0.6, 2.3, 20.0])
    got = modes._ilt_with_reservoir(rat, *partial_fractions(rat), wq, t)
    ref = (np.exp(np.outer(-1j * wq, t)) - np.exp(-t)) / (1.0 - 1j * wq)[:, None]
    assert np.max(np.abs(got - ref)) < 1e-12


def test_drude_with_magnetic_part_rational_matches_line():
    # with a Drude electric part and a magnetic part, the exact path's
    # t_he = rho E D_m / Q shares a power of rho with Q, cancelled exactly
    resp = laplace_response(drude(1.1, 0.5), lorentz_isotropic(0.6, 1.5, 0.3, which="magnetic"))
    t = np.linspace(0.0, 6.0, 7)
    wq = np.array([0.6, 2.3, 20.0])
    a = mode_coefficients(resp, K, t, wq)
    b = line_mode_coefficients(resp, K, t, wq)
    assert a.metadata["method"] == "rational_exact"
    for name in ("gamma", "xi", "gamma_tilde", "xi_tilde", "zeta", "eta",
                 "zeta_tilde", "eta_tilde"):
        x, y = getattr(a, name), getattr(b, name)
        assert np.all(np.isfinite(x)), name
        assert np.max(np.abs(x - y)) / float(np.max(np.abs(x))) < 1e-8, name


def test_dual_method_agreement_lorentz():
    me, mm, resp = lorentz_pair()
    t = np.linspace(0.0, 6.0, 7)
    wq = np.array([0.6, 2.3, 20.0])
    a = mode_coefficients(resp, K, t, wq)
    b = line_mode_coefficients(resp, K, t, wq)
    for name in ("gamma", "xi", "gamma_tilde", "xi_tilde", "zeta", "eta",
                 "zeta_tilde", "eta_tilde"):
        x, y = getattr(a, name), getattr(b, name)
        scale = max(float(np.max(np.abs(x))), 1e-30)
        assert np.max(np.abs(x - y)) / scale < 1e-8, name


def test_line_matches_rational_on_conductor():
    from mqed.conductor import conductor_modes

    resp = _conductor_response()
    t = np.linspace(0.0, 6.0, 7)
    wq = np.array([0.6, 2.3, 20.0])
    a = conductor_modes(resp, K, t, wq)
    b = line_mode_coefficients(resp, K, t, wq)
    assert a.metadata["method"] == "rational_exact" and b.metadata["method"] == "bromwich_line"
    assert a.metadata["conductor"]
    for name in ("gamma", "xi", "gamma_tilde", "xi_tilde", "eta", "eta_tilde"):
        x, y = getattr(a, name), getattr(b, name)
        scale = float(np.max(np.abs(x)))
        assert scale > 0.0, name
        assert np.max(np.abs(x - y)) / scale < 1e-8, name
    # no magnetic coupling: every path leaves the zeta families at zero
    for name in ("zeta", "zeta_tilde"):
        for mc in (a, b):
            assert getattr(mc, name).shape == (3, 7, 3, 3), name
            assert not np.any(getattr(mc, name)), (name, mc.metadata["method"])


@pytest.mark.parametrize("medium", ["conductor", "lorentz"])
def test_line_method_matches_rational_on_rational_medium(medium):
    resp = _BATCH_RESPONSES[medium]()
    t = np.linspace(0.0, 6.0, 7)
    wq = np.array([0.6, 2.3])
    a = mode_coefficients(resp, K, t, wq)
    b = line_mode_coefficients(resp, K, t, wq)
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
        diff = (np.linalg.inv(assemble_lambda(resp, K, rho).value)
                - np.linalg.inv(assemble_lambda(vac, K, rho).value))
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
        mc = line_mode_coefficients(resp, k, t, wq)
        ref = line_mode_coefficients(wide, k, t, wq)
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
        # the line's own keys; the route of the reservoir sums is the request's
        line_keys = modes.bromwich_line(resp, k).metadata
        assert {key: other.metadata[key] for key in line_keys} == line_keys
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


def test_reservoir_sums_route_follows_the_grid():
    # the gaussian config's medium: the modes grid (81 uniform times from 0)
    # with all 96 reservoir nodes takes panels of order 11; with 3 nodes
    # (order 8) and on a 4,097-point grid with 2 (order 3) the order is not
    # below the node count, and the commutator times are not uniform
    from mqed.quadrature import gauss_legendre

    resp = laplace_response(gaussian_anisotropic((1.0, 0.7, 0.4), 1.0, 0.8),
                            zero_coupling("magnetic"), horizon=8.0, omega_top=50.0)
    k = np.array([0.4, -0.3, 1.1])
    wq, _ = gauss_legendre(96, 0.0, 50.0)
    modes_grid = np.linspace(0.0, 8.0, 81)
    requests = [
        (modes_grid, wq, "panels", 11),
        (modes_grid, wq[[2, 9, 15]], "direct", 8),
        (modes_grid[[0, 10, 50]], wq, "direct", None),
        (np.linspace(0.0, 4.0, 4097), wq[[9, 15]], "direct", 3),
    ]
    for t, nodes, route, order in requests:
        meta = mode_coefficients(resp, k, t, nodes).metadata
        assert (meta["reservoir_sums"], meta["panel_order"]) == (route, order), (t.size, nodes.size)


def test_panel_sums_match_dense_reference(monkeypatch):
    # electric plus magnetic medium (all four blocks), 41 uniform times from
    # 0 and 24 reservoir nodes, so the reservoir sums take panels of order
    # 9. Three budgets: the default (one phase table, one node group per
    # block), a block's columns of 7 nodes per group (7, 2), and 40 rows
    # per table, which sends the 41 rows through chirp-z in groups of 4
    import mqed.response
    from mqed.quadrature import gauss_legendre

    me, mm, _ = lorentz_pair()
    t = np.linspace(0.0, 6.0, 41)
    wq, _ = gauss_legendre(24, 0.0, 2.4)
    resp = laplace_response(me, mm, horizon=6.0, omega_top=2.4)
    n_y = modes.bromwich_line(resp, K).metadata["line_points"]
    ref = None
    for budget in (mqed.response._TABLE_ELEMENTS, 7 * 9 * n_y + 3, 40 * n_y):
        with monkeypatch.context() as m:
            m.setattr(mqed.response, "_TABLE_ELEMENTS", budget)
            mc = line_mode_coefficients(resp, K, t, wq)
        assert (mc.metadata["reservoir_sums"], mc.metadata["panel_order"]) == ("panels", 9)
        if ref is None:
            ref, _, _ = _dense_line_reference(resp, me, mm, K, t, wq, mc.metadata)
        for name, want in ref.items():
            scale = float(np.max(np.abs(want)))
            assert scale > 0.0, name
            assert np.max(np.abs(getattr(mc, name) - want)) <= 1e-12 * scale, (budget, name)


def test_panel_order_follows_the_weighted_line_columns(monkeypatch):
    # gaussian.cfg's medium on its modes grid (81 times, 96 reservoir
    # nodes): the line's columns fall like |rho|^-5, so weighting each by its
    # share of its block's peak takes order 11 where the top frequency on
    # every column took 21, and the panels still give the direct sums to
    # 1e-14 of each family's peak
    from mqed.quadrature import gauss_legendre

    resp = laplace_response(gaussian_anisotropic((1.0, 0.7, 0.4), 1.0, 0.8),
                            zero_coupling("magnetic"), horizon=8.0, omega_top=50.0)
    k = np.array([0.4, -0.3, 1.1])
    wq, _ = gauss_legendre(96, 0.0, 50.0)
    t = np.linspace(0.0, 8.0, 81)
    panels = mode_coefficients(resp, k, t, wq)
    assert panels.metadata["reservoir_sums"] == "panels"
    assert panels.metadata["panel_order"] <= 11
    monkeypatch.setattr(modes, "_panel_order", lambda *args: None)
    direct = mode_coefficients(resp, k, t, wq)
    assert direct.metadata["reservoir_sums"] == "direct"
    for name in ("eta", "eta_tilde"):  # the families the reservoir sums form
        want = getattr(direct, name)
        scale = float(np.max(np.abs(want)))
        assert scale > 0.0, name
        assert np.max(np.abs(getattr(panels, name) - want)) <= 1e-14 * scale, name


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
            [assemble_lambda(r, k, x).value for x in rho]))

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
        "zeta": res["ee"] @ g_q[:, None],
        "zeta_tilde": res["he"] @ g_q[:, None],
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
    mc = line_mode_coefficients(resp, K, t, wq)
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


@pytest.mark.parametrize("line_sum_kind", ["phase_table", "chirp_z"])
@pytest.mark.parametrize("n_t, n_q, nodes_per_table", [(5, 17, None), (101, 7, 3)],
                         ids=["times_below_line", "times_above_line"])
def test_direct_sums_by_node_group_match_one_table(monkeypatch, line_sum_kind, n_t, n_q,
                                                   nodes_per_table):
    # 5 times below the line's 40 points: groups of 2 of the 17 nodes, the
    # last one alone. 101 times above it: a group would take every node,
    # and the table of 3 nodes per chunk cuts it (3, 3, 1). Against every
    # node's factors and scaled columns formed in one table and summed by
    # the same line sums
    import mqed.response

    n_y = 40
    if nodes_per_table is not None:
        monkeypatch.setattr(mqed.response, "_TABLE_ELEMENTS", 9 * n_y * nodes_per_table)
    rng = np.random.default_rng(12)
    rho = 0.3 + 1j * np.linspace(-20.0, 20.0, n_y)
    cols = rng.normal(size=(n_y, 18)) + 1j * rng.normal(size=(n_y, 18))
    omega_q = np.linspace(0.1, 10.0, n_q)
    t = np.linspace(0.0, 2.0, n_t)
    group = min(max(1, n_t * n_q // n_y), nodes_per_table or n_q)
    assert n_q % group
    if line_sum_kind == "chirp_z":
        line_sum = modes._chirp_z(t, t[1], rho)
    else:
        def line_sum(c, out):
            np.copyto(out, np.exp(np.multiply.outer(t, rho)) @ c)
    fac = 1.0 / (rho[:, None] + 1j * omega_q[None, :])
    got = list(modes._direct_sums(line_sum, n_t, rho, cols, omega_q))
    assert len(got) == 2
    for b, block in enumerate(got):
        want = np.empty((n_t, n_q * 9), dtype=complex)
        line_sum((fac[:, :, None] * cols[:, None, 9 * b : 9 * b + 9]).reshape(n_y, -1), want)
        want = want.reshape(n_t, n_q, 9).swapaxes(0, 1)
        assert block.shape == (n_q, n_t, 9)
        assert np.max(np.abs(block - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("medium", ["gaussian", "lorentz"])
def test_line_estimates_match_one_pass_over_all_columns(medium):
    # the two estimates, summed one column group at a time, against all 81
    # columns (the eh block, the alternating-sign and the outer-point
    # copies of the 36) in one chirp-z call: each column is summed on its
    # own, so the two agree bit for bit
    if medium == "gaussian":
        resp = laplace_response(gaussian_anisotropic((1.0, 0.7, 0.4), 1.0, 0.8),
                                zero_coupling("magnetic"), horizon=2.0)
        k = np.array([0.4, -0.3, 1.1])
    else:
        me, mm, _ = lorentz_pair()
        resp, k = laplace_response(me, mm, horizon=6.0, omega_top=2.4), K
    line = modes.bromwich_line(resp, k)
    meta, rho, n_y = line.metadata, line.rho, line.rho.size
    t_est = np.linspace(0.0, meta["line_horizon"], meta["estimate_points"])
    sign = np.where(np.arange(n_y) % 2, 1.0, -1.0)
    outer = np.abs(rho.imag) > 0.5 * meta["line_halfwidth"]
    cols = np.concatenate([line.stack.reshape(n_y, 6, 6)[:, :3, 3:].reshape(n_y, 9),
                           sign[:, None] * line.stack, outer[:, None] * line.stack], axis=1)
    sums = np.empty((t_est.size, 81), dtype=complex)
    modes._chirp_z(t_est, t_est[1], rho)(cols, sums)
    tail = modes._tail_transform(t_est, float(rho[0].real), line.c3, line.c4)
    scale = max(float(np.max(np.abs(sums[:, :9].reshape(-1, 3, 3) + tail[:, :3, 3:]))), 1e-30)
    assert meta["est_rel_error"] == float(np.max(np.abs(sums[:, 9:45]))) / scale
    assert meta["est_truncation"] == float(np.max(np.abs(sums[:, 45:]))) / scale


_FAMILIES = ("gamma", "xi", "gamma_tilde", "xi_tilde", "zeta", "eta", "zeta_tilde", "eta_tilde")


@pytest.mark.parametrize("medium", ["lorentz", "gaussian_electric", "gaussian_magnetic"])
def test_mode_families_are_covariant_under_a_symmetry_rotation(medium):
    # R = diag(-1, -1, 1) is a proper rotation in both kinds' symmetry
    # groups (any rotation for the isotropic kinds, the sign flips for
    # gaussian_anisotropic), so X(Rk) = R X(k) R^T for every family X: on
    # the rational route (lorentz.cfg's parts) and the line (gaussian.cfg's
    # part in either sector)
    rot = np.diag([-1.0, -1.0, 1.0])
    if medium == "lorentz":
        response, k = lorentz_pair()[2], np.array([0.3, 0.4, 1.2])
    else:
        response, k = gaussian_response(medium.split("_")[1]), np.array([0.4, -0.3, 1.1])
    t = np.linspace(0.0, 8.0, 81)
    nodes = np.linspace(0.5, 40.0, 6)
    at_k, at_rk = (mode_coefficients(response, kk, t, nodes) for kk in (k, rot @ k))
    assert at_rk.metadata["method"] == ("rational_exact" if medium == "lorentz"
                                        else "bromwich_line")
    for name in _FAMILIES:
        want = rot @ getattr(at_k, name) @ rot.T
        assert np.max(np.abs(getattr(at_rk, name) - want)) <= 1e-14 * np.max(np.abs(want)), name


@pytest.mark.parametrize("kmag", [1e3, 1e4])
def test_lorentz_medium_builds_its_modes_far_past_its_resonances(kmag):
    # lorentz.cfg's medium at c|k| >> omega_0: a transverse root of Q lies
    # close to a root of mu_hat's denominator D_m (about 4e-7 apart at |k| =
    # 1e3), which no scalar holds as a pole, each being formed from the
    # sectors' polynomials, so no near pair forms; the commutators keep their
    # free-space value
    from mqed.observables import equal_time_commutators, field_representation
    from mqed.quadrature import gauss_legendre

    t = np.linspace(0.0, 10.0, 81)
    nodes, weights = gauss_legendre(256, 0.0, 50.0)
    rep = field_representation(lorentz_pair()[2], np.array([0.0, 0.0, kmag]), t, nodes, weights)
    assert rep.coeffs.metadata["method"] == "rational_exact"
    assert equal_time_commutators(rep, t[[0, 8, 40]]).max_rel_err < 1e-4


def test_longitudinal_scalars_do_not_depend_on_k():
    # l_e = 1 / (rho eps_hat) and l_h = 1 / (rho mu_hat) hold no k: along z
    # they are gamma_zz and xi~_zz of the exact path, the same bit for bit
    # from |k| = 1e-6 to 1e6, where every |k| builds its modes
    resp = lorentz_pair()[2]
    t = np.linspace(0.0, 10.0, 81)
    got = {}
    for kmag in (1e-6, 1e-3, 1.3, 30.0, 1e3, 1e4, 1e6):
        mc = mode_coefficients(resp, np.array([0.0, 0.0, kmag]), t, np.array([0.5, 2.0]))
        got[kmag] = mc.gamma[:, 2, 2], mc.xi_tilde[:, 2, 2]
    l_e, l_h = got[1.3]
    assert np.max(np.abs(l_e)) > 0.1 and np.max(np.abs(l_h)) > 0.1
    for kmag, (e, h) in got.items():
        assert np.array_equal(e, l_e) and np.array_equal(h, l_h), kmag


def test_a_pole_is_unstable_only_past_the_rounding_of_its_own_size(tmp_path):
    # at |k| = 1e6 a photon pole of lorentz.cfg's medium reads Re p =
    # +1.25e-11, rounding for a root of size 1e6: it counts as marginal
    # against MARGINAL_POLE_TOL max(1, |p|), not as unstable
    from pathlib import Path
    from mqed.scenario import parse_scenario, run_scenario

    mc = mode_coefficients(lorentz_pair()[2], np.array([0.0, 0.0, 1e6]),
                           np.linspace(0.0, 10.0, 81), np.array([0.5, 2.0]))
    assert mc.metadata["max_re_pole"] > modes.MARGINAL_POLE_TOL
    assert mc.metadata["unstable_poles"] == 0
    # the flags of the bundled configs count only the poles each scalar has:
    # no pole of eps_hat or mu_hat is formed where it cancels, and a Drude
    # part's rho = 0 only where it is a pole (conductor_k0's l_h = 1 / rho)
    configs = Path(__file__).resolve().parent.parent / "configs"
    flags = {}
    for name in ("lorentz", "gaussian", "conductor"):
        config = parse_scenario((configs / f"{name}.cfg").read_text(encoding="utf-8"))
        manifest = run_scenario(config, out_dir=str(tmp_path / name), stages=("modes", "conductor"))
        for key, record in manifest.quadrature.items():
            flags[name, key] = tuple(record.get(flag) for flag in (
                "n_poles", "marginal_poles", "unstable_poles"))
    assert flags == {("lorentz", "modes_k0"): (24, 2, 0),
                     ("gaussian", "modes_k0"): (None, None, None),
                     ("conductor", "modes_k0"): (16, 2, 0),
                     ("conductor", "conductor_k0"): (20, 1, 0)}
