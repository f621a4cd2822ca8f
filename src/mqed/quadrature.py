"""Gauss-Legendre quadrature helpers shared by the kernel, spectrum and
reservoir integrals.

The adaptive scheme doubles the order until the target functional stops
moving (relative change below rtol) or the order cap is hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre

from .errors import QuadratureNotConverged


@lru_cache(maxsize=32)
def _legendre_cache(order: int):
    x, w = roots_legendre(order)
    return x, w


def gauss_legendre(order: int, a: float, b: float):
    """Nodes and weights for the interval [a, b]."""
    x, w = _legendre_cache(int(order))
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls the frequency quadrature on [0, cutoff].

    cutoff is either explicit or derived as cutoff_factor times the model's
    frequency scale. fixed_order pins the order (no adaptivity); otherwise
    the order doubles from start_order to max_order until converged.
    """

    rtol: float = 1e-7
    start_order: int = 256
    max_order: int = 8192
    cutoff: float | None = None
    cutoff_factor: float = 50.0
    fixed_order: int | None = None

    def resolve_cutoff(self, frequency_scale: float) -> float:
        if self.cutoff is not None:
            return float(self.cutoff)
        if frequency_scale <= 0.0:
            return float(self.cutoff_factor)
        return float(self.cutoff_factor * frequency_scale)

    def orders(self):
        if self.fixed_order is not None:
            return [int(self.fixed_order)]
        out = []
        n = self.start_order
        while n <= self.max_order:
            out.append(int(n))
            n *= 2
        return out


@dataclass(frozen=True)
class QuadratureResult:
    order: int
    cutoff: float
    rtol: float
    est_rel_error: float
    converged: bool

    def metadata(self) -> dict:
        return {
            "order": self.order,
            "cutoff": self.cutoff,
            "rtol": self.rtol,
            "est_rel_error": self.est_rel_error,
            "converged": self.converged,
        }


def adaptive_nodes(spec: QuadratureSpec, cutoff: float, evaluate):
    """Run `evaluate(nodes, weights) -> ndarray` at doubling orders.

    Returns (value, QuadratureResult). Raises QuadratureNotConverged when the
    cap is reached while the value is still moving by more than rtol.
    """
    orders = spec.orders()
    prev = None
    value = None
    rel = np.inf
    for order in orders:
        x, w = gauss_legendre(order, 0.0, cutoff)
        value = evaluate(x, w)
        if prev is not None:
            scale = float(np.max(np.abs(value)))
            diff = float(np.max(np.abs(value - prev)))
            rel = diff / scale if scale > 0.0 else 0.0
            if rel <= spec.rtol:
                return value, QuadratureResult(order, cutoff, spec.rtol, rel, True)
        prev = value
    if spec.fixed_order is not None:
        return value, QuadratureResult(orders[-1], cutoff, spec.rtol, rel, True)
    raise QuadratureNotConverged(
        f"order {orders[-1]} still changing by {rel:g} (> rtol {spec.rtol:g})"
    )

