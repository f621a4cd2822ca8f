import re

import numpy as np
import pytest

from helpers import random_orthogonal_gauge, rotation_gauge, write_table_csv
from mqed.couplings import (
    _SECTOR_SCALE,
    GaugeTransform,
    TabulatedTable,
    apply_gauge,
    coupling_from_target,
    coupling_product,
    drude,
    eval_coupling_batch,
    gaussian_anisotropic,
    lorentz_isotropic,
    sector_coupling,
    tabulated,
    tabulated_from_csv,
    zero_coupling,
)
from mqed.errors import NotOrthogonal, NotPSD, OutOfTableRange, ValidationError, ZeroFrequency
from mqed.quadrature import gauss_legendre
from mqed.tensors import hermitian_sqrt

K = np.array([0.3, -0.2, 0.9])


def test_zero_model_evaluates_to_zero():
    model = zero_coupling()
    assert np.allclose(eval_coupling_batch(model, [1.3], K)[0], 0.0)
    assert lorentz_isotropic(0.0, 1.0, 0.5).is_zero


def test_gaussian_local_limit_is_k_independent():
    model = gaussian_anisotropic((1.0, 0.5, 0.2), center=1.0, correlation_length=0.0)
    a = eval_coupling_batch(model, [0.7], K)[0]
    b = eval_coupling_batch(model, [0.7], 10.0 * K)[0]
    assert np.allclose(a, b)


def test_lorentz_profile_matches_target_susceptibility():
    # the family is normalized so Im chi = s^2 w omega / D(omega)
    s, w0, g = 1.3, 1.0, 0.5
    model = lorentz_isotropic(s, w0, g)
    omega = np.linspace(0.1, 5.0, 40)
    ff = coupling_product(model, omega, K)
    prefactor = 4.0 * np.pi**2 * omega**2  # natural units
    im_chi = prefactor * ff[:, 0, 0].real
    target = s**2 * g * omega / ((w0**2 - omega**2) ** 2 + (g * omega) ** 2)
    assert np.max(np.abs(im_chi - target)) < 1e-12 * np.max(target)


def test_gaussian_spatial_profile_against_fft():
    # k-space Gaussian factor versus the numerical spatial transform of the
    # real-space kernel on a 32^3 grid
    ell = 0.8
    model = gaussian_anisotropic((1.0, 0.0, 0.0), center=1.0, correlation_length=ell)
    n, box = 32, 12.0 * ell
    h = box / n
    x = (np.arange(n) - n // 2) * h
    xx, yy, zz = np.meshgrid(x, x, x, indexing="ij")
    r2 = xx**2 + yy**2 + zz**2
    real_space = np.exp(-r2 / (2.0 * ell**2)) / (2.0 * np.pi * ell**2) ** 1.5
    ft = np.fft.fftn(np.fft.ifftshift(real_space)) * h**3
    kvec = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    idx = 3
    k_test = np.array([kvec[idx], 0.0, 0.0])
    got = ft[idx, 0, 0].real
    expected = np.exp(-0.5 * ell**2 * (k_test @ k_test))
    assert abs(got - expected) < 1e-6
    # and the model uses exactly that factor
    base = eval_coupling_batch(model, [1.0], np.zeros(3) + 1e-12)[0][0, 0].real
    assert eval_coupling_batch(model, [1.0], k_test)[0][0, 0].real == pytest.approx(
        base * expected, rel=1e-12
    )


@pytest.mark.parametrize(
    "model",
    [
        lorentz_isotropic(1.3, 1.0, 0.5),
        drude(1.1, 0.5),
        gaussian_anisotropic((1.0, 0.7, 0.4), 1.0, 0.8),
        lorentz_isotropic(0.9, 1.2, 0.4, omega_max=30.0),
    ],
)
def test_reality_constraint(model):
    rng = np.random.default_rng(11)
    omegas = rng.uniform(0.0, 6.0, 12)
    ks = rng.standard_normal((6, 3))
    # real-space reality: f(omega, -k) = conj(f(omega, k))
    for k in ks:
        a = eval_coupling_batch(model, omegas, k)
        b = eval_coupling_batch(model, omegas, -k)
        assert np.max(np.abs(b - np.conj(a))) < 1e-14


def test_convergence_integral_finite():
    # the kernel moment integral must converge for every analytic family
    for model in (lorentz_isotropic(1.3, 1.0, 0.5), gaussian_anisotropic((1.0, 0.5, 0.2), 1.0)):
        x, w = gauss_legendre(2048, 0.0, 400.0 * model.frequency_scale)
        moment = np.einsum("n,nij->ij", w * x**2, coupling_product(model, x, K))
        assert np.all(np.isfinite(moment))
        tail = np.einsum(
            "n,nij->ij",
            (w * x**2)[x > 200.0],
            coupling_product(model, x[x > 200.0], K),
        )
        assert np.max(np.abs(tail)) < 1e-4 * max(1.0, np.max(np.abs(moment)))


@pytest.mark.parametrize("resonance, width", [(1.0, 0.5), (1.0, 2.0), (1.0, 2.5), (0.1, 3.0)])
def test_lorentz_horizon_follows_the_slow_pole(resonance, width):
    # underdamped, critical and overdamped: ln(1 / tail) / horizon is the
    # decay rate of the slowest pole of chi_hat, -max Re p
    from numpy.polynomial import polynomial as P

    model = lorentz_isotropic(1.0, resonance, width)
    rate = -float(np.max(P.polyroots(model.closed_form.den).real))
    tail = 1e-11
    assert abs(np.log(1.0 / tail) / model.suggested_t_max(tail) - rate) <= 1e-7 * rate


def test_coupling_from_target_zero():
    assert np.allclose(coupling_from_target(np.zeros((3, 3)), 1.0, K), 0.0)


def test_coupling_from_target_recovers_lorentz_profile():
    s, w0, g = 1.3, 1.0, 0.5
    model = lorentz_isotropic(s, w0, g)
    im_chi = s**2 * g * w0 / ((w0**2 - w0**2) ** 2 + (g * w0) ** 2) * np.eye(3)
    rec = coupling_from_target(im_chi, w0, K)
    direct = eval_coupling_batch(model, [w0], K)[0]
    assert np.max(np.abs(rec - direct)) < 1e-12
    assert np.min(np.diag(rec.real)) > 0.0


def test_coupling_from_target_diagonal_case():
    a, b = 0.4, 0.09
    omega = 1.7
    out = coupling_from_target(np.diag([a, b, 0.0]), omega, K)
    alpha = 1.0 / (4.0 * np.pi**2 * omega**2)
    assert np.allclose(np.diag(out.real), np.sqrt(alpha * np.array([a, b, 0.0])))


def test_coupling_from_target_errors():
    with pytest.raises(NotPSD):
        coupling_from_target(np.diag([1.0, -1.0, 0.0]), 1.0, K)
    with pytest.raises(ZeroFrequency):
        coupling_from_target(np.eye(3), 0.0, K)


def test_coupling_from_target_on_a_stack_is_the_per_omega_recovery():
    # one call on 240 targets, each at its own omega, gives bit for bit the
    # root of each target scaled as a lone float omega scales it (this grid
    # has an omega whose square a vectorized omega**2 rounds otherwise)
    omega = np.linspace(0.1, 8.0, 240)
    rng = np.random.default_rng(3)
    m = rng.standard_normal((240, 3, 3)) + 1j * rng.standard_normal((240, 3, 3))
    targets = m @ np.conj(np.transpose(m, (0, 2, 1)))
    got = coupling_from_target(targets, omega, K)
    scale = _SECTOR_SCALE ** 2
    assert np.array_equal(got, np.stack([hermitian_sqrt(scale / float(w)**2 * t, tol=1e-12)
                                         for t, w in zip(targets, omega)]))
    assert np.array_equal(got[17], coupling_from_target(targets[17], float(omega[17]), K))
    # the error names the first omega whose target is not PSD
    targets[[5, 9]] = np.diag([1.0, -1.0, 0.0])
    with pytest.raises(NotPSD, match=f"omega={omega[5]:g} is not PSD"):
        coupling_from_target(targets, omega, K)
    with pytest.raises(ZeroFrequency):
        coupling_from_target(targets, np.linspace(0.0, 8.0, 240), K)


def test_apply_gauge_identity():
    model = lorentz_isotropic(1.3, 1.0, 0.5)
    gauged = apply_gauge(model, GaugeTransform(evaluator=lambda w: np.eye(3)))
    assert np.allclose(eval_coupling_batch(gauged, [1.1], K), eval_coupling_batch(model, [1.1], K))


def test_apply_gauge_preserves_product():
    model = gaussian_anisotropic((1.0, 0.7, 0.4), 1.0, 0.5)
    gauge = rotation_gauge([0.0, 0.0, 1.0], lambda w: np.pi / 2.0)
    gauged = apply_gauge(model, gauge)
    rng = np.random.default_rng(13)
    for _ in range(10):
        w = rng.uniform(0.1, 4.0)
        k = rng.standard_normal(3)
        p0 = coupling_product(model, [w], k)[0]
        p1 = coupling_product(gauged, [w], k)[0]
        assert np.max(np.abs(p0 - p1)) < 1e-13
        assert not np.allclose(eval_coupling_batch(gauged, [w], k),
                               eval_coupling_batch(model, [w], k))


def test_gauge_rejects_nonorthogonal():
    bad = GaugeTransform(evaluator=lambda w: 2.0 * np.eye(3))
    with pytest.raises(NotOrthogonal):
        bad(1.0)


def test_gauged_part_keeps_the_bare_parts_properties():
    # a gauge is a field of the part: everything but the coupling itself is
    # the bare part's, the closed form included
    gauge = random_orthogonal_gauge(np.random.default_rng(3))
    for model in (lorentz_isotropic(1.3, 1.0, 0.5), drude(1.1, 0.5, which="magnetic"),
                  gaussian_anisotropic((1.0, 0.7, 0.4), 1.0, 0.5)):
        gauged = apply_gauge(model, gauge)
        assert gauged.gauge is gauge and gauged != model
        assert gauged.is_rational == model.is_rational
        assert gauged.frequency_scale == model.frequency_scale
        assert gauged.suggested_t_max(1e-11) == model.suggested_t_max(1e-11)
        assert gauged.parameters() == model.parameters()
        form, bare = gauged.closed_form, model.closed_form
        assert (form is None) == (bare is None)
        if bare is not None:
            assert np.array_equal(form.num, bare.num) and np.array_equal(form.den, bare.den)


def test_apply_gauge_composes_with_the_gauge_a_part_carries():
    model = gaussian_anisotropic((1.0, 0.7, 0.4), 1.0, 0.5)
    first = rotation_gauge([0.0, 0.0, 1.0], lambda w: 0.3 * w)
    second = rotation_gauge([1.0, 0.0, 0.0], lambda w: 0.7)
    twice = apply_gauge(apply_gauge(model, first), second)
    w = np.array([0.4, 1.3])
    want = eval_coupling_batch(model, w, K) @ np.transpose(
        np.stack([second(x) @ first(x) for x in w]), (0, 2, 1))
    assert np.max(np.abs(eval_coupling_batch(twice, w, K) - want)) <= 1e-15


def test_equal_gauged_parts_share_one_laplace_representation():
    from mqed.response import laplace_response

    model = gaussian_anisotropic((1.0, 0.7, 0.4), 1.0, 0.5)
    gauge = random_orthogonal_gauge(np.random.default_rng(7))
    one, two = apply_gauge(model, gauge), apply_gauge(model, gauge)
    assert one is not two and one == two and hash(one) == hash(two)
    resp = laplace_response(one, zero_coupling("magnetic"))
    assert resp.laplace_rep(one, K) is resp.laplace_rep(two, K)
    assert len(resp._rep_cache) == 1


@pytest.mark.parametrize("model", [
    zero_coupling(), lorentz_isotropic(1.3, 1.0, 0.5), drude(1.1, 0.5, which="magnetic"),
    gaussian_anisotropic((1.0, 0.7, 0.4), 1.0, 0.8),
    apply_gauge(lorentz_isotropic(1.3, 1.0, 0.5), rotation_gauge([0.0, 1.0, 1.0], np.tanh)),
], ids=["zero", "lorentz", "drude", "gaussian", "gauged"])
def test_lone_part_sector_coupling_is_the_parts_own(model):
    w = np.linspace(0.0, 6.0, 41)
    assert np.array_equal(sector_coupling((model,), w, K), eval_coupling_batch(model, w, K))


def test_empty_sector_coupling_is_zero():
    got = sector_coupling((), np.array([0.5, 1.5]), K)
    assert got.shape == (2, 3, 3) and got.dtype == complex and not np.any(got)


def test_sector_coupling_at_no_frequency_is_empty():
    # the mode solver asks for the couplings at an empty reservoir grid too
    gauge = random_orthogonal_gauge(np.random.default_rng(2))
    lorentz = lorentz_isotropic(1.3, 1.0, 0.5)
    for parts in ((), (apply_gauge(lorentz, gauge),), (lorentz, drude(1.1, 0.5))):
        got = sector_coupling(parts, np.array([]), K)
        assert got.shape == (0, 3, 3) and got.dtype == complex


@pytest.mark.parametrize("rotated", [False, True], ids=["conductor.cfg", "rotated"])
def test_sector_coupling_carries_the_summed_density(rotated):
    # conductor.cfg's bound and free electric parts, and a bound part whose
    # f f^dag is not diagonal (a tabulated s(omega) R diag(a) R^T, so the
    # Hermitian square root) with the same free carriers: f f^dag of the one
    # sector coupling is the sum of the parts' products
    from pathlib import Path

    from mqed.scenario import parse_scenario

    path = Path(__file__).resolve().parent.parent / "configs" / "conductor.cfg"
    config = parse_scenario(path.read_text(encoding="utf-8"))
    free, bound = config.model("conductor"), config.model("electric")
    w = np.linspace(0.0, 20.0, 401)
    k = config.k_list()[0]
    if rotated:
        r = rotation_gauge([1.0, 1.0, 0.0], lambda x: 0.4)(0.0)
        tensor = r @ np.diag([1.0, 0.7, 0.4]) @ r.T
        values = (w * np.exp(-0.5 * w**2))[:, None, None, None] * tensor
        bound = tabulated(TabulatedTable(omegas=w, kmags=np.array([0.0, 2.0]),
                                         values=np.repeat(values, 2, axis=1) + 0j))
    f = sector_coupling((bound, free), w, k)
    got = f @ np.conj(np.transpose(f, (0, 2, 1)))
    want = coupling_product(bound, w, k) + coupling_product(free, w, k)
    assert np.any(want[:, 0, 1]) == rotated
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_tabulated_roundtrip(tmp_path):
    model = lorentz_isotropic(1.3, 1.0, 0.5)
    omegas = np.linspace(0.05, 10.0, 60)
    kmags = np.array([0.5, 1.0, 2.0])
    values = np.stack([
        np.stack([eval_coupling_batch(model, [w], [0.0, 0.0, km])[0] for km in kmags])
        for w in omegas
    ])
    loaded = tabulated_from_csv(write_table_csv(tmp_path / "table.csv", omegas, kmags, values))
    got = eval_coupling_batch(loaded, [omegas[7]], [0.0, 0.0, 1.0])[0]
    assert np.max(np.abs(got - values[7, 1])) < 1e-12

    # the part's support ends at its table's top: above it the coupling is
    # 0; below the table's first omega, or off its |k| axis, it is unknown
    above = eval_coupling_batch(loaded, [omegas[-1], 11.0], [0.0, 0.0, 1.0])
    assert np.array_equal(above[1], np.zeros((3, 3))) and np.any(above[0])
    with pytest.raises(OutOfTableRange):
        eval_coupling_batch(loaded, [0.01], [0.0, 0.0, 1.0])
    with pytest.raises(OutOfTableRange):
        eval_coupling_batch(loaded, [1.0], [0.0, 0.0, 5.0])


def test_tabulated_csv_rejects_a_repeated_pair(tmp_path):
    # 4 rows for a 2 x 2 grid, but (1, 0.5) twice and no (1, 1.5): the row
    # count alone would leave that entry unwritten
    header = "omega,kmag," + ",".join(f"c{i}" for i in range(18))
    cells = ",".join(["0.5"] * 18)
    rows = [f"{w},{km},{cells}" for w, km in ((1, 0.5), (1, 0.5), (2, 0.5), (2, 1.5))]
    path = tmp_path / "table.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    with pytest.raises(ValidationError, match="repeats"):
        tabulated_from_csv(path)

@pytest.mark.parametrize("axis, pairs", [("omega", ((1.0, 0.5), (1.0, 1.5))),
                                         ("|k|", ((1.0, 0.5), (2.0, 0.5)))])
def test_tabulated_csv_rejects_a_single_point_axis(tmp_path, axis, pairs):
    # bilinear interpolation needs two points on each axis: a single |k|
    # raised IndexError on evaluation, and a single omega gave NaN
    header = "omega,kmag," + ",".join(f"c{i}" for i in range(18))
    cells = ",".join(["0.5"] * 18)
    path = tmp_path / "table.csv"
    path.write_text("\n".join([header, *(f"{w},{km},{cells}" for w, km in pairs)]) + "\n")
    with pytest.raises(ValidationError, match=f"table {re.escape(axis)} grid needs at least two"):
        tabulated_from_csv(path)


def test_tabulated_interpolates_between_nodes():
    omegas = np.array([1.0, 2.0])
    kmags = np.array([1.0, 3.0])
    values = np.zeros((2, 2, 3, 3), dtype=complex)
    values[0, 0, 0, 0] = 1.0
    values[1, 0, 0, 0] = 3.0
    values[0, 1, 0, 0] = 5.0
    values[1, 1, 0, 0] = 7.0
    model = tabulated(TabulatedTable(omegas=omegas, kmags=kmags, values=values))
    mid = eval_coupling_batch(model, [1.5], [0.0, 0.0, 2.0])[0]
    assert mid[0, 0] == pytest.approx(4.0)


def test_inversion_idempotent_on_tabulated_spectrum(pin_order):
    """coupling_from_target composed with the kernel/spectrum pipeline is
    idempotent at the documented quadrature resolution (table placed on the
    exact quadrature nodes, so interpolation is exact there)."""
    from mqed.response import chi_kernel, chi_spectrum

    base = lorentz_isotropic(1.3, 1.0, 0.5)
    # every kernel on the order-2048 rule: the base's up to its cutoff 50,
    # the tabulated copy's up to its table's top node
    order = 2048
    pin_order(order)
    nodes, _ = gauss_legendre(order, 0.0, 50.0)
    k = np.array([0.0, 0.0, 1.0])
    omega_probe = np.linspace(0.2, 4.0, 24)

    t_grid = np.linspace(0.0, 90.0, 1500)
    spectrum0 = chi_spectrum(
        chi_kernel(base, k, t_grid),
        nodes,
    )
    rec = np.stack([
        coupling_from_target(spectrum0.imag_hermitian()[i], w, k)
        for i, w in enumerate(nodes)
    ])
    table = TabulatedTable(
        omegas=nodes, kmags=np.array([0.5, 1.0, 2.0]),
        values=np.repeat(rec[:, None, :, :], 3, axis=1),
    )
    model_rec = tabulated(table)
    spectrum1 = chi_spectrum(
        chi_kernel(model_rec, k, t_grid),
        omega_probe,
    )
    spectrum_ref = chi_spectrum(
        chi_kernel(base, k, t_grid),
        omega_probe,
    )
    a = spectrum1.imag_hermitian()
    b = spectrum_ref.imag_hermitian()
    assert np.max(np.abs(a - b)) / np.max(np.abs(b)) < 1e-6
