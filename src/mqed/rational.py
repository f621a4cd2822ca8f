"""Rational functions of the Laplace variable with exact partial-fraction
inverse transforms.

Coefficient arrays run low to high degree (numpy.polynomial convention).
Poles come from the companion-matrix root finder; only simple poles are
supported, which covers every damped-oscillator / free-carrier scenario the
solver builds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import PoleFindingFailed

# the distance, relative to the larger of the two, within which two poles
# count as one: a root the numerator shares is cancelled, any other is a
# repeated pole
POLE_TOL = 1e-7


def _trim(c: np.ndarray) -> np.ndarray:
    c = np.atleast_1d(np.asarray(c, dtype=complex))
    nz = np.nonzero(c)[0]
    if nz.size == 0:
        return np.zeros(1, dtype=complex)
    return c[: nz[-1] + 1]


@dataclass(frozen=True)
class Rational:
    num: np.ndarray
    den: np.ndarray

    @classmethod
    def make(cls, num, den) -> "Rational":
        num = _trim(num)
        den = _trim(den)
        if den.size == 1 and den[0] == 0:
            raise ZeroDivisionError("zero denominator polynomial")
        return cls(num=num, den=den)

    @classmethod
    def constant(cls, value) -> "Rational":
        return cls.make([value], [1.0])

    @classmethod
    def variable(cls) -> "Rational":
        """The identity function rho."""
        return cls.make([0.0, 1.0], [1.0])

    def __call__(self, rho):
        rho = np.asarray(rho, dtype=complex)
        return P.polyval(rho, self.num) / P.polyval(rho, self.den)

    def __mul__(self, other) -> "Rational":
        if isinstance(other, Rational):
            return Rational.make(P.polymul(self.num, other.num), P.polymul(self.den, other.den))
        return Rational.make(self.num * other, self.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Rational":
        if isinstance(other, Rational):
            return Rational.make(P.polymul(self.num, other.den), P.polymul(self.den, other.num))
        return Rational.make(self.num / other, self.den)

    def __add__(self, other) -> "Rational":
        if not isinstance(other, Rational):
            other = Rational.constant(other)
        num = P.polyadd(P.polymul(self.num, other.den), P.polymul(other.num, self.den))
        return Rational.make(num, P.polymul(self.den, other.den))

    __radd__ = __add__

    @property
    def is_zero(self) -> bool:
        return self.num.size == 1 and self.num[0] == 0

    @property
    def strictly_proper(self) -> bool:
        return self.num.size < self.den.size or self.is_zero


def _deflate(coeffs: np.ndarray, root: complex) -> np.ndarray:
    """Synthetic division of a (low-to-high) polynomial by (x - root)."""
    n = coeffs.size
    out = np.zeros(n - 1, dtype=complex)
    acc = 0.0 + 0.0j
    for i in range(n - 1, 0, -1):
        acc = coeffs[i] + acc * root
        out[i - 1] = acc
    return out


def _cancel_removable(num, den):
    """Deflate common (removable) roots so repeated denominator roots that
    the numerator shares do not masquerade as genuine multiple poles.

    Rational arithmetic leaves common factors uncancelled (e.g. the rho
    factors shared by the conductivity and the free-carrier susceptibility);
    they carry zero residue but must be stripped before the simple-pole
    check."""
    while den.size > 1:
        roots = P.polyroots(den)
        size = np.abs(roots)
        diff = np.abs(roots[:, None] - roots[None, :])
        np.fill_diagonal(diff, np.inf)
        # each pair against POLE_TOL times the larger of the two
        pairs = np.argwhere(diff <= POLE_TOL * np.maximum(size[:, None], size[None, :]))
        if pairs.size == 0:
            return num, den, roots
        p = roots[pairs[0][0]]
        # the size of num's terms at p, which bounds the rounding of num(p)
        num_scale = float(np.sum(np.abs(num) * abs(p) ** np.arange(num.size)))
        if abs(P.polyval(p, num)) > 1e-8 * num_scale or num.size < 2:
            raise PoleFindingFailed(
                f"genuine repeated pole near {p:.6g}: simple-pole expansion unsupported"
            )
        num = _deflate(num, p)
        den = _deflate(den, p)
    return num, den, P.polyroots(den)


def partial_fractions(rat: Rational):
    """Simple-pole expansion: returns (poles, residues).

    Removable common factors are cancelled first; genuinely repeated poles
    (where residue = num(p)/den'(p) breaks down) raise PoleFindingFailed.
    """
    if rat.is_zero:
        return np.zeros(0, dtype=complex), np.zeros(0, dtype=complex)
    if not rat.strictly_proper:
        raise PoleFindingFailed("inverse transform needs a strictly proper rational function")
    num, den, poles = _cancel_removable(rat.num, rat.den)
    dden = P.polyder(den)
    residues = P.polyval(poles, num) / P.polyval(poles, dden)
    return poles, residues


def ilt_rational(rat: Rational, t_grid):
    """Inverse Laplace transform of a rational function on a time grid.

    Returns (values, poles, residues); values[t] = sum_p res_p exp(p t).
    """
    t = np.asarray(t_grid, dtype=float)
    poles, residues = partial_fractions(rat)
    if poles.size == 0:
        return np.zeros(t.shape, dtype=complex), poles, residues
    values = np.exp(np.outer(t, poles)) @ residues
    return values, poles, residues
