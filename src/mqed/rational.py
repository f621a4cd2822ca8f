"""Rational functions of the Laplace variable with exact partial-fraction
inverse transforms, and the five scalars of Lambda^-1 of an isotropic
rational medium, built from its parts' polynomials.

Coefficient arrays run low to high degree (numpy.polynomial convention),
and this is the one module that does polynomial arithmetic. Each sector is
one fraction N / D of polynomials (`_sector`), and each scalar one product
of them over the transverse denominator (`lambda_scalars`), so no pole of
eps_hat or mu_hat is formed where it cancels. What is left in common is a
power of rho (a Drude part's pole at 0), which `Rational.make` cancels
exactly. Poles come from the companion-matrix root finder, and only simple
ones are supported: two within `POLE_TOL` of each other are a repeated pole
(a critically damped part's), which raises PoleFindingFailed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import PoleFindingFailed

# the distance, relative to the larger of the two, within which two poles
# count as one: a repeated pole, or a reservoir pole on a medium pole
POLE_TOL = 1e-7


@dataclass(frozen=True)
class Rational:
    num: np.ndarray
    den: np.ndarray

    @classmethod
    def make(cls, num, den) -> "Rational":
        """num / den with the power of rho they share cancelled: the exact
        zeros at the low end of both coefficient arrays."""
        num, den = (P.polytrim(np.asarray(c, dtype=complex)) for c in (num, den))
        if den.size == 1 and den[0] == 0:
            raise ZeroDivisionError("zero denominator polynomial")
        shared = min(np.argmax(num != 0), np.argmax(den != 0))
        return cls(num=num[shared:], den=den[shared:])

    def __call__(self, rho):
        rho = np.asarray(rho, dtype=complex)
        return P.polyval(rho, self.num) / P.polyval(rho, self.den)


def _sector(forms) -> tuple:
    """(N, D) of 1 + the sum of the closed forms `forms` as N / D: D the
    product of their distinct denominators, where forms that share one add
    their numerators. (1, 1) for no form."""
    sums = {}  # each distinct denominator -> the sum of its forms' numerators
    for form in forms:
        sums[tuple(form.den)] = P.polyadd(sums.get(tuple(form.den), 0.0), form.num)
    dens = [np.array(den) for den in sums]
    d = n = reduce(P.polymul, dens, np.ones(1))
    for i, num in enumerate(sums.values()):
        n = P.polyadd(n, reduce(P.polymul, dens[:i] + dens[i + 1:], num))
    return n, d


def lambda_scalars(electric, magnetic, kk: float) -> dict:
    """The five scalars of Lambda^-1 of an isotropic rational medium at
    k . k = kk, from the closed forms of its electric and magnetic parts.

    With eps_hat = E / D_e and mu_hat = M / D_m (`_sector`) and the
    transverse denominator Q = kk D_m D_e + rho^2 M E:

        t_ee = D_m D_e / Q     t_eh = rho M D_e / Q    t_he = rho E D_m / Q
        l_e = D_e / (rho E)    l_h = D_m / (rho M)."""
    e, d_e = _sector(electric)
    m, d_m = _sector(magnetic)
    q = P.polyadd(kk * P.polymul(d_m, d_e), P.polymulx(P.polymulx(P.polymul(m, e))))
    return {"t_eh": Rational.make(P.polymulx(P.polymul(m, d_e)), q),
            "t_ee": Rational.make(P.polymul(d_m, d_e), q),
            "l_e": Rational.make(d_e, P.polymulx(e)),
            "t_he": Rational.make(P.polymulx(P.polymul(e, d_m)), q),
            "l_h": Rational.make(d_m, P.polymulx(m))}


def partial_fractions(rat: Rational):
    """Simple-pole expansion: returns (poles, residues).

    Two poles within POLE_TOL of the larger of the two are a repeated pole,
    where residue = num(p) / den'(p) breaks down: PoleFindingFailed names it.
    """
    if rat.num.size >= rat.den.size:
        raise PoleFindingFailed("inverse transform needs a strictly proper rational function")
    poles = P.polyroots(rat.den)
    size = np.abs(poles)
    diff = np.abs(poles[:, None] - poles[None, :])
    np.fill_diagonal(diff, np.inf)
    pairs = np.argwhere(diff <= POLE_TOL * np.maximum(size[:, None], size[None, :]))
    if pairs.size:
        raise PoleFindingFailed(f"repeated pole near {poles[pairs[0][0]]:.6g}: "
                                "simple-pole expansion unsupported")
    residues = P.polyval(poles, rat.num) / P.polyval(poles, P.polyder(rat.den))
    return poles, residues


def ilt_rational(rat: Rational, t_grid):
    """Inverse Laplace transform of a rational function on a time grid.

    Returns (values, poles, residues); values[t] = sum_p res_p exp(p t).
    """
    t = np.asarray(t_grid, dtype=float)
    poles, residues = partial_fractions(rat)
    values = np.exp(np.outer(t, poles)) @ residues
    return values, poles, residues
