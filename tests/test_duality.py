"""Electric-magnetic duality. In natural units, swapping a medium's electric
and magnetic parts maps E to H and H to -E, so the equal-time gram of E in
the swapped medium,

    G_EE(t) = sum_lambda E_lambda E_lambda^dag + sum_(nu, q) w_q (E_d E_d^dag + E_b E_b^dag),

over the photon, d and b channels, equals the gram of H in the original
one, and G_HH of the swapped medium equals G_EE of the original. Both mode
solvers are checked: the exact rational route, and the Bromwich line with a
continuum part in the magnetic sector, which runs the line's magnetic
blocks (ee and he). A control compares G_EE with G_HH of the same medium,
which the duality does not relate."""

import numpy as np
import pytest

from helpers import gaussian_response
from mqed.couplings import lorentz_isotropic
from mqed.observables import field_representation
from mqed.quadrature import gauss_legendre
from mqed.response import laplace_response


def _gram(rep, field: str) -> np.ndarray:
    """(n_t, 3, 3) equal-time gram of field "E" or "H" over its channels."""
    photon = rep.photon_E if field == "E" else rep.photon_H
    wq = rep.omega_q_weights * rep.radial_measure
    out = np.einsum("lta,ltb->tab", photon, photon.conj())
    for it in range(rep.t_grid.size):
        for sector in ("d", "b"):
            c = rep.channel(f"{field}_{sector}", it=it)  # (3, n_q, 3)
            out[it] += np.einsum("nqa,q,nqb->ab", c, wq, c.conj())
    return out


def _deviation(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))


def _lorentz_pair(swapped: bool):
    """lorentz.cfg's two parts, or the same parts with sectors swapped."""
    one = dict(strength=1.3, resonance=1.0, width=0.5)
    two = dict(strength=0.8, resonance=1.4, width=0.6)
    if swapped:
        one, two = two, one
    return lorentz_isotropic(**one), lorentz_isotropic(**two, which="magnetic")


def test_duality_on_the_rational_route():
    # lorentz.cfg's k, modes grid and 256 reservoir nodes
    k = np.array([0.0, 0.0, 1.3])
    t = np.linspace(0.0, 10.0, 81)
    nodes, weights = gauss_legendre(256, 0.0, 50.0)
    original, swapped = (laplace_response(*_lorentz_pair(s)) for s in (False, True))
    assert original.is_rational and swapped.is_rational
    rep, dual = (field_representation(r, k, t, nodes, weights) for r in (original, swapped))
    assert _deviation(_gram(dual, "E"), _gram(rep, "H")) <= 1e-12
    assert _deviation(_gram(dual, "H"), _gram(rep, "E")) <= 1e-12
    assert _deviation(_gram(rep, "E"), _gram(rep, "H")) >= 0.1


@pytest.mark.parametrize("times", ["modes_grid", "commutator_times"])
def test_duality_on_the_bromwich_line(times):
    # gaussian.cfg's part moved to the magnetic sector against the same
    # part as gaussian.cfg holds it, on gaussian.cfg's k and 96 reservoir
    # nodes: the 81-point modes grid takes the panel sums, the three
    # commutator times the direct ones
    k = np.array([0.4, -0.3, 1.1])
    t = np.linspace(0.0, 8.0, 81)
    if times == "commutator_times":
        t = t[[0, 10, 50]]
    nodes, weights = gauss_legendre(96, 0.0, 50.0)
    magnetic, electric = gaussian_response("magnetic"), gaussian_response("electric")
    rep, dual = (field_representation(r, k, t, nodes, weights) for r in (magnetic, electric))
    route = "panels" if times == "modes_grid" else "direct"
    for r in (rep, dual):
        assert (r.coeffs.metadata["method"], r.coeffs.metadata["reservoir_sums"]) == (
            "bromwich_line", route)
    assert _deviation(_gram(dual, "E"), _gram(rep, "H")) <= 1e-12
    assert _deviation(_gram(dual, "H"), _gram(rep, "E")) <= 1e-12
    assert _deviation(_gram(rep, "E"), _gram(rep, "H")) >= 0.1
