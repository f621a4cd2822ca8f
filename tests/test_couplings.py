import numpy as np
import pytest

from mqed.couplings import (
    GaugeTransform,
    TabulatedTable,
    apply_gauge,
    coupling_from_target,
    coupling_product,
    drude,
    eval_coupling,
    eval_coupling_batch,
    gaussian_anisotropic,
    lorentz_isotropic,
    rotation_gauge,
    tabulated,
    tabulated_from_csv,
    zero_coupling,
)
from mqed.errors import NotOrthogonal, NotPSD, OutOfTableRange, ValidationError, ZeroFrequency
from mqed.quadrature import gauss_legendre

K = np.array([0.3, -0.2, 0.9])


def test_zero_model_evaluates_to_zero():
    model = zero_coupling()
    assert np.allclose(eval_coupling(model, 1.3, K), 0.0)
    assert lorentz_isotropic(0.0, 1.0, 0.5).is_zero


def test_gaussian_local_limit_is_k_independent():
    model = gaussian_anisotropic((1.0, 0.5, 0.2), center=1.0, correlation_length=0.0)
    a = eval_coupling(model, 0.7, K)
    b = eval_coupling(model, 0.7, 10.0 * K)
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
    base = eval_coupling(model, 1.0, np.zeros(3) + 1e-12)[0, 0].real
    assert eval_coupling(model, 1.0, k_test)[0, 0].real == pytest.approx(
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


def test_coupling_from_target_zero():
    assert np.allclose(coupling_from_target(np.zeros((3, 3)), 1.0, K), 0.0)


def test_coupling_from_target_recovers_lorentz_profile():
    s, w0, g = 1.3, 1.0, 0.5
    model = lorentz_isotropic(s, w0, g)
    im_chi = s**2 * g * w0 / ((w0**2 - w0**2) ** 2 + (g * w0) ** 2) * np.eye(3)
    rec = coupling_from_target(im_chi, w0, K)
    direct = eval_coupling(model, w0, K)
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


def test_apply_gauge_identity():
    model = lorentz_isotropic(1.3, 1.0, 0.5)
    gauged = apply_gauge(model, GaugeTransform(evaluator=lambda w: np.eye(3)))
    assert np.allclose(eval_coupling(gauged, 1.1, K), eval_coupling(model, 1.1, K))


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
        assert not np.allclose(eval_coupling(gauged, w, k), eval_coupling(model, w, k))


def test_gauge_rejects_nonorthogonal():
    bad = GaugeTransform(evaluator=lambda w: 2.0 * np.eye(3))
    with pytest.raises(NotOrthogonal):
        bad(1.0)


def test_tabulated_roundtrip(tmp_path):
    model = lorentz_isotropic(1.3, 1.0, 0.5)
    omegas = np.linspace(0.05, 10.0, 60)
    kmags = np.array([0.5, 1.0, 2.0])
    values = np.stack([
        np.stack([eval_coupling(model, w, [0.0, 0.0, km]) for km in kmags])
        for w in omegas
    ])
    table = TabulatedTable(omegas=omegas, kmags=kmags, values=values)
    path = tmp_path / "table.csv"
    lines = ["omega,kmag," + ",".join(
        f"{p}_{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3) for p in ("re", "im")
    )]
    for iw, w in enumerate(omegas):
        for ik, km in enumerate(kmags):
            cells = [format(w, ".17g"), format(km, ".17g")]
            for i in range(3):
                for j in range(3):
                    cells += [
                        format(values[iw, ik, i, j].real, ".17g"),
                        format(values[iw, ik, i, j].imag, ".17g"),
                    ]
            lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    loaded = tabulated_from_csv(path)
    got = eval_coupling(loaded, omegas[7], [0.0, 0.0, 1.0])
    assert np.max(np.abs(got - values[7, 1])) < 1e-12

    with pytest.raises(OutOfTableRange):
        eval_coupling(loaded, 11.0, [0.0, 0.0, 1.0])
    with pytest.raises(OutOfTableRange):
        eval_coupling(loaded, 1.0, [0.0, 0.0, 5.0])


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

def test_tabulated_interpolates_between_nodes():
    omegas = np.array([1.0, 2.0])
    kmags = np.array([1.0, 3.0])
    values = np.zeros((2, 2, 3, 3), dtype=complex)
    values[0, 0, 0, 0] = 1.0
    values[1, 0, 0, 0] = 3.0
    values[0, 1, 0, 0] = 5.0
    values[1, 1, 0, 0] = 7.0
    model = tabulated(TabulatedTable(omegas=omegas, kmags=kmags, values=values))
    mid = eval_coupling(model, 1.5, [0.0, 0.0, 2.0])
    assert mid[0, 0] == pytest.approx(4.0)


def test_inversion_idempotent_on_tabulated_spectrum():
    """coupling_from_target composed with the kernel/spectrum pipeline is
    idempotent at the documented quadrature resolution (table placed on the
    exact quadrature nodes, so interpolation is exact there)."""
    from mqed.quadrature import QuadratureSpec
    from mqed.response import chi_kernel, chi_spectrum

    base = lorentz_isotropic(1.3, 1.0, 0.5)
    order, cutoff = 2048, 50.0
    nodes, _ = gauss_legendre(order, 0.0, cutoff)
    k = np.array([0.0, 0.0, 1.0])
    omega_probe = np.linspace(0.2, 4.0, 24)

    t_grid = np.linspace(0.0, 90.0, 1500)
    spectrum0 = chi_spectrum(
        chi_kernel(base, k, t_grid, quad=QuadratureSpec(fixed_order=order, cutoff=cutoff)),
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
        chi_kernel(model_rec, k, t_grid, quad=QuadratureSpec(fixed_order=order, cutoff=cutoff)),
        omega_probe,
    )
    spectrum_ref = chi_spectrum(
        chi_kernel(base, k, t_grid, quad=QuadratureSpec(fixed_order=order, cutoff=cutoff)),
        omega_probe,
    )
    a = spectrum1.imag_hermitian()
    b = spectrum_ref.imag_hermitian()
    assert np.max(np.abs(a - b)) / np.max(np.abs(b)) < 1e-6
