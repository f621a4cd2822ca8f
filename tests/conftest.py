import pytest

import mqed.response
from mqed.quadrature import QuadratureResult, gauss_legendre


@pytest.fixture
def pin_order(monkeypatch):
    """pin_order(n) puts the n-point rule of `gauss_legendre` on [0, cutoff]
    in place of the order-doubling loop of mqed.response, for the rest of
    the test; its error is not estimated. It pins the Gauss-Legendre rules
    only: a kernel on the trapezoid rule (`chi_kernel` of a coupling model
    whose omega^2 f f^dag is even and entire) keeps that rule."""

    def pin(order: int):
        def nodes(spec, cutoff, evaluate):
            x, w = gauss_legendre(order, 0.0, cutoff)
            return evaluate(x, w), QuadratureResult(order, cutoff, spec.rtol, float("nan"))

        monkeypatch.setattr(mqed.response, "adaptive_nodes", nodes)

    return pin
