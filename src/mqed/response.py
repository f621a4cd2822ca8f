"""Susceptibility kernels, spectra, causality checks and Laplace-domain
material response.

The time-domain memory kernel of an absorbing medium is the half-line sine
transform of the coupling spectral density,

    chi(k, t) = pref * integral_0^inf domega omega^2 sin(omega t) f f^dag,

with pref = 8 pi / (hbar c^3 eps0) for the electric sector and
8 pi mu0 / (hbar c^3) for the magnetic one; chi vanishes identically for
t <= 0.

Every consumer reads chi through one object, the Gauss-Legendre
representation `QuadRep` (nodes omega_n and coefficients w_n pref omega_n^2
f f^dag), which is kept with the kernel so the frequency spectrum and
Laplace transform are taken exactly in t. Its coefficients are stored as a
real (n, r) block against an (r, 9) complex basis of tensors, with r the
fewest columns the coefficients need (1 when every tensor is a multiple of
one fixed tensor, as for an isotropic or a frequency-independent
anisotropic medium), so each contraction (kernel values, the half-line
transform, the Laplace transform, the cosine kernel Q) is a real product on
r columns, mapped to tensors by one product with the basis at the end; on a
uniform time grid (`uniform_step`) the sin/cos tables of the kernel values,
of Q and of the oscillator ladder come from one angle-addition product
(`_angle_table`) on O(sqrt(n_t)) phases per node. Chunked tables stay
within one element budget (`_chunks`). The half-line transform finds its
few cancelling (omega, omega_n) pairs by bisection on the ascending nodes,
and the Kramers-Kronig check sums its dispersion integral on a uniform grid
as a Toeplitz plus a Hankel FFT convolution in O(n log n). A run builds
one kernel per medium part and k, on one horizon, and every check that
reads chi (the spectrum, KK, the fluctuation-dissipation, continuity and
constitutive checks) takes that kernel or its spectrum. Every
representation is converged by one order-doubling loop (`_converged_rep`)
on the functional its consumer reads: the kernel values on t for
`chi_kernel`, chi_hat at three probe values of rho for the Laplace-domain
response of a continuum medium (a much smaller representation, because its
cost is paid at every Bromwich-line point), and Q on t for `conductor_Q`.
`LaplaceResponse` is the one carrier of the medium: its electric coupling
(bound and free carriers alike, as one combined coupling when both are
present) and its magnetic coupling fix eps_hat, mu_hat and the reservoir
couplings. It evaluates the material
tensors for a scalar rho or a whole 1-d stack at once, at Re rho > 0 only:
a continuum part's branch cut lies on the imaginary axis, and no solver
path asks for more of a rational one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .couplings import ELECTRIC, MAGNETIC, CombinedElectric, coupling_product
from .errors import (
    GridTooCoarse,
    LeftHalfPlane,
    NotPSD,
    TailNotDecayed,
    ValidationError,
    ZeroFrequency,
)
from .quadrature import QuadratureResult, QuadratureSpec, adaptive_nodes
from .rational import Rational
from .tensors import IDENTITY3, NATURAL, PhysicalConstants

# elements of one chunked table (`_chunks`), 8 MB of complex values, sized
# for the cache
_TABLE_ELEMENTS = 1 << 19
# the fewest omega points kk_check accepts
KK_MIN_POINTS = 64
# |omega - omega_n| T below which the half-line transform of a mode is taken
# in its cancellation-free sinc form
_NEAR_PHASE = 1.0
# a factored coefficient block reproduces each tensor to this fraction of its
# largest entry (`tensor_block`)
_BASIS_RTOL = 1e-14
# bases of the real flat forms of tensors: the identity, 9 real entries, and
# 9 real parts followed by 9 imaginary parts
_FLAT_IDENTITY = IDENTITY3.reshape(1, 9).astype(complex)
_UNIT_REAL = np.eye(9, dtype=complex)
_UNIT_COMPLEX = np.concatenate([np.eye(9), 1j * np.eye(9)])


def kernel_prefactor(which: str, constants: PhysicalConstants) -> float:
    if which == ELECTRIC:
        return 8.0 * np.pi / (constants.hbar * constants.c**3 * constants.eps0)
    if which == MAGNETIC:
        return 8.0 * np.pi * constants.mu0 / (constants.hbar * constants.c**3)
    raise ValidationError(f"unknown sector '{which}'", key="which")


def tensor_block(tensors):
    """(n, 3, 3) tensors as a real (n, r) block and an (r, 9) complex basis,
    tensors = (block @ basis).reshape(-1, 3, 3), on as few columns as hold
    them.

    When every tensor is a multiple of the identity (tested exactly) the
    block is that one column and the basis is I. Otherwise the tensors are
    taken in their real flat form F, the 9 real parts, followed by the 9
    imaginary parts when any is nonzero, and projected on the fewest right
    singular vectors of F that reproduce every row to `_BASIS_RTOL` of its
    largest entry (so of its norm), or to the smallest normal double when
    that is larger (such a row holds subnormal entries, which carry fewer
    digits). Both the decomposition and the test take the rows scaled to a
    largest entry of 1, so each row counts alike; a row below the smallest
    normal double over `_BASIS_RTOL` is scaled by that instead. This gives
    one column for s(omega) times a fixed tensor, at most 6 for real
    symmetric and 9 for Hermitian tensors. When no smaller set does, the
    block is F itself against the unit basis, which is exact.
    """
    flat = np.asarray(tensors).reshape(-1, 9)
    if np.any(flat.imag):
        real, unit = np.concatenate([flat.real, flat.imag], axis=1), _UNIT_COMPLEX
    else:
        real, unit = np.ascontiguousarray(flat.real), _UNIT_REAL
        diag = real[:, 0]
        if not np.any(real[:, [1, 2, 3, 5, 6, 7]]) and np.array_equal(diag, real[:, 4]) \
                and np.array_equal(diag, real[:, 8]):
            return real[:, :1].copy(), _FLAT_IDENTITY
    floor = np.finfo(float).tiny / _BASIS_RTOL
    rows = real / np.maximum(np.max(np.abs(real), axis=1), floor)[:, None]
    vt = np.linalg.svd(rows, full_matrices=False)[2]
    for r in range(1, min(vt.shape[0] + 1, real.shape[1])):
        v = vt[:r]
        if np.all(np.linalg.norm(rows - (rows @ v.T) @ v, axis=1) <= _BASIS_RTOL):
            return real @ v.T, v @ unit
    return real, unit


def block_tensors(product: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Inverse of `tensor_block` (also for a product against a block): a
    real or complex (p, r) product on the basis -> (p, 3, 3) complex.

    Accumulated from the first term, not from zero as BLAS and `sum` do, so
    the products x * 0 of a one-column block keep their sign."""
    out = product[:, :1] * basis[0]
    for j in range(1, basis.shape[0]):
        out += product[:, j, None] * basis[j]
    return out.reshape(-1, 3, 3)


def _relative_deviation(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """max |lhs_i - rhs_i| / max |rhs_i| over (n, 3, 3) stacks, the deviation
    rule of every two-route check. A reference whose norm is 0 (or
    underflows) gives 1.0 against a nonzero lhs, |lhs - 0| / |lhs| at any
    scale, so a missing side cannot read small, and 0.0 when both are 0."""
    scale = float(np.max(np.linalg.norm(rhs, axis=(1, 2))))
    if scale == 0.0:
        return float(np.any(lhs))
    return float(np.max(np.linalg.norm(lhs - rhs, axis=(1, 2)))) / scale


def _fft_size(n: int) -> int:
    """Smallest 11-smooth length >= n, which pocketfft transforms fast."""
    m = n
    while True:
        r = m
        for p in (2, 3, 5, 7, 11):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


def uniform_step(t: np.ndarray):
    """h when t[j] = t[0] + j h to within a few ulp of max |t| for every j,
    else None: the one test of a uniform grid."""
    if t.size < 2:
        return None
    h = (t[-1] - t[0]) / (t.size - 1)
    ideal = t[0] + h * np.arange(t.size)
    if h <= 0.0 or np.max(np.abs(t - ideal)) > 4.0 * np.spacing(np.max(np.abs(t))):
        return None
    return float(h)


def _chunks(n: int, width: int) -> list:
    """Slices that cover range(n) in runs of as many rows of `width`
    elements as one table of `_TABLE_ELEMENTS` holds (at least one)."""
    step = max(1, _TABLE_ELEMENTS // max(1, width))
    return [slice(start, start + step) for start in range(0, n, step)]


def _angle_table(t: np.ndarray, nodes: np.ndarray, sin_block, cos_block) -> np.ndarray:
    """sin(t omega_n) @ sin_block + cos(t omega_n) @ cos_block for real
    (n, m) blocks, either of which may be None: (n_t, m).

    On a uniform grid t_j = t_0 + j h, write j = J R + i with R ~ sqrt(n_t),
    so t_j = a_i + b_J with a_i = i h and b_J = t_0 + J R h. Angle addition,

        sin(w (a + b)) S + cos(w (a + b)) C
            = sin(w a) [cos(w b) S - sin(w b) C] + cos(w a) [sin(w b) S + cos(w b) C],

    turns the product into two real GEMMs of the (R, n) tables sin(omega a)
    and cos(omega a) against the J-stacked blocks in brackets, so
    2 (R + n_t / R) n sines and cosines are evaluated instead of one or two
    per (t_j, omega_n). The nodes are taken in chunks of one (R, n) table
    each and the J groups in column chunks (`_chunks`); each bracket is built
    in one buffer, the second GEMM is added into the first one's output, and
    the node chunks' partials are summed. Any other grid builds the tables
    of t omega_n itself in row chunks.
    """
    pairs = [(fn, b) for fn, b in ((np.sin, sin_block), (np.cos, cos_block)) if b is not None]
    m = pairs[0][1].shape[1]
    h = uniform_step(t)
    if h is None:
        out = np.empty((t.size, m))
        for rows in _chunks(t.size, nodes.size):
            angles = np.multiply.outer(t[rows], nodes)
            out[rows] = reduce(np.add, [fn(angles) @ b for fn, b in pairs])
        return out

    def mix(x, p, y, q):  # x p + y q for (n, 1, g) factors, as (n, m g), g innermost
        (f, b), *rest = [(f, b) for f, b in ((x, p), (y, q)) if b is not None]
        buf = f * b[:, :, None]
        for f, b in rest:  # a column at a time, beside the one (n, m, g) table
            for j in range(m):
                buf[:, j] += f[:, 0] * b[:, j, None]
        return buf.reshape(len(f), -1)

    r = int(np.ceil(np.sqrt(t.size)))
    groups = -(-t.size // r)
    starts = t[0] + (r * h) * np.arange(groups)
    out = np.empty((groups, r, m))
    for i, ns in enumerate(_chunks(nodes.size, r)):
        sin_n, cos_n = (None if b is None else b[ns] for b in (sin_block, cos_block))
        neg_cos = None if cos_n is None else -cos_n
        sin_a = np.multiply.outer(h * np.arange(r), nodes[ns])  # (r, n)
        cos_a = np.cos(sin_a)
        np.sin(sin_a, out=sin_a)
        for g in _chunks(groups, sin_a.shape[1] * m):
            sin_b = np.multiply.outer(nodes[ns], starts[g])[:, None]  # (n, 1, g)
            cos_b = np.cos(sin_b)
            np.sin(sin_b, out=sin_b)
            part = sin_a @ mix(cos_b, sin_n, sin_b, neg_cos)
            part += cos_a @ mix(sin_b, sin_n, cos_b, cos_n)  # (r, m g)
            part = part.reshape(r, m, -1).transpose(2, 0, 1)
            out[g] = out[g] + part if i else part
    return out.reshape(-1, m)[: t.size]


@dataclass(frozen=True)
class QuadRep:
    """Frequency-quadrature representation sum_n c_n sin(omega_n t), with
    c_n = weight * pref * omega_n^2 * f f^dag held as a real (n, r) block
    against an (r, 9) complex basis (see `tensor_block`): every contraction
    works on the r block columns and maps to tensors through the basis."""

    nodes: np.ndarray  # (n,)
    block: np.ndarray  # (n, r) real
    basis: np.ndarray  # (r, 9) complex

    @classmethod
    def from_coeffs(cls, nodes, coeffs) -> "QuadRep":
        block, basis = tensor_block(coeffs)
        return cls(nodes=np.asarray(nodes, dtype=float), block=block, basis=basis)

    def contract(self, mat) -> np.ndarray:
        """sum_n mat[:, n] c_n for a real or complex (p, n) matrix: (p, 3, 3).
        Each row is summed by itself, not by BLAS (whose one-row and many-row
        kernels round apart), so a row's value does not depend on the rows
        it is batched with."""
        mat = np.asarray(mat)
        if np.iscomplexobj(mat):
            cols = [(mat.real * c).sum(1) + 1j * (mat.imag * c).sum(1) for c in self.block.T]
        else:
            cols = [(mat * c).sum(1) for c in self.block.T]
        return block_tensors(np.stack(cols, axis=1), self.basis)

    def kernel_values(self, t_grid) -> np.ndarray:
        t = np.asarray(t_grid, dtype=float)
        return block_tensors(_angle_table(t, self.nodes, self.block, None), self.basis)


@dataclass(frozen=True)
class SusceptibilityKernel:
    which: str
    k: np.ndarray
    t_grid: np.ndarray
    values: np.ndarray  # (n_t, 3, 3)
    quad: QuadratureResult
    rep: QuadRep
    model_parameters: dict = field(default_factory=dict)

    def metadata(self) -> dict:
        return {
            "which": self.which,
            "k": [float(x) for x in self.k],
            "t_max": float(self.t_grid[-1]),
            "n_t": int(self.t_grid.size),
            "quadrature": self.quad.metadata(),
            "model": self.model_parameters,
        }


@dataclass(frozen=True)
class ResponseSpectrum:
    which: str
    k: np.ndarray
    omega_grid: np.ndarray
    values: np.ndarray  # (n_omega, 3, 3)
    imag_min_eig: float
    tail_fraction: float
    plateau: np.ndarray | None = None

    def imag_hermitian(self) -> np.ndarray:
        """Hermitian dissipative part (values - values^dag) / 2i per omega."""
        return (self.values - np.conj(np.transpose(self.values, (0, 2, 1)))) / 2.0j

    def real_hermitian(self) -> np.ndarray:
        return (self.values + np.conj(np.transpose(self.values, (0, 2, 1)))) / 2.0


def _validate_t_grid(t_grid) -> np.ndarray:
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValidationError("t_grid must be a 1-d grid with at least two points")
    if t[0] != 0.0:
        raise ValidationError("t_grid must start at 0")
    if np.any(np.diff(t) <= 0.0):
        raise ValidationError("t_grid must be strictly increasing")
    return t


def _cutoff(model, quad: QuadratureSpec) -> float:
    cutoff = quad.resolve_cutoff(model.frequency_scale)
    if model.hard_cutoff is not None:
        cutoff = min(cutoff, model.hard_cutoff)
    return cutoff


def _converged_rep(model, k, quad: QuadratureSpec, pref: float, functional):
    """The Gauss-Legendre representation of `model` at k, with coefficients
    w_n pref omega_n^2 f f^dag, whose order is doubled until
    functional(rep) stops moving. Returns the representation, the converged
    functional and the quadrature record."""
    stash = {}

    def evaluate(x, w):
        stash["rep"] = QuadRep.from_coeffs(
            x, (w * pref * x**2)[:, None, None] * coupling_product(model, x, k)
        )
        return functional(stash["rep"])

    values, result = adaptive_nodes(quad, _cutoff(model, quad), evaluate)
    return stash["rep"], values, result


def chi_kernel(
    model,
    k,
    t_grid,
    constants: PhysicalConstants = NATURAL,
    quad: QuadratureSpec = QuadratureSpec(),
) -> SusceptibilityKernel:
    """Time-domain susceptibility kernel chi(k, t) on t_grid (t >= 0).

    The improper frequency integral is truncated at the configured cutoff and
    evaluated by Gauss-Legendre with order doubling until the kernel stops
    moving on the whole grid. Every call builds a new representation; a run
    builds one per medium part and k and hands it to every check that reads
    the kernel.
    """
    t = _validate_t_grid(t_grid)
    k = np.asarray(k, dtype=float)
    pref = kernel_prefactor(model.which, constants)
    rep, values, result = _converged_rep(model, k, quad, pref, lambda rep: rep.kernel_values(t))
    return SusceptibilityKernel(
        which=model.which,
        k=k,
        t_grid=t,
        values=values,
        quad=result,
        rep=rep,
        model_parameters=model.parameters(),
    )


def _plateau(values: np.ndarray, t_grid: np.ndarray, tail_rtol: float):
    """Estimate the long-time limit from the final 5% of samples and verify
    the kernel has actually settled there.

    A genuine conductor plateau is flat and large compared to the residual
    tail wobble; a slowly decaying tail (e.g. the algebraic tail of the
    Gaussian family) fails the dominance test and is treated as zero."""
    n = values.shape[0]
    m = max(5, n // 20)
    tail = values[-m:]
    plateau = tail.mean(axis=0)
    scale = float(np.max(np.abs(values)))
    if scale == 0.0:
        return np.zeros((3, 3), dtype=complex), 0.0
    wobble = float(np.max(np.abs(tail - plateau))) / scale
    if wobble > tail_rtol:
        raise TailNotDecayed(
            f"kernel tail still moving by {wobble:g} of peak (> {tail_rtol:g}); "
            "extend t_grid or raise tail_rtol"
        )
    top = float(np.max(np.abs(plateau)))
    if top <= tail_rtol * scale or top <= 50.0 * wobble * scale:
        plateau = np.zeros((3, 3), dtype=complex)
    return plateau, wobble


def _seg(d, t_max):
    """integral_0^T e^{i d t} dt = T e^{ix/2} sinc(x / 2 pi), x = d T: stable
    for all x."""
    x = d * t_max
    return t_max * np.exp(0.5j * x) * np.sinc(x / (2.0 * np.pi))


def _near_pairs(w: np.ndarray, nodes: np.ndarray, near: float):
    """(row, node) index pairs with |w - nodes| < near, rows ascending and
    nodes ascending within a row (the order of `np.nonzero` on the full
    table), for ascending nodes."""
    lo = np.searchsorted(nodes, w - 2.0 * near, side="left")
    count = np.searchsorted(nodes, w + 2.0 * near, side="right") - lo
    rows = np.repeat(np.arange(w.size), count)
    first = np.cumsum(count) - count  # each row's first pair
    cols = np.arange(rows.size) + (lo - first)[rows]
    keep = np.abs(w[rows] - nodes[cols]) < near
    return rows[keep], cols[keep]


def _half_line_transform_exact(rep: QuadRep, t_max: float, omega: np.ndarray) -> np.ndarray:
    """integral_0^T sin(omega_n t) e^{i omega t} dt summed over the representation.

    Per mode the integral factors as

        [e^{i omega T} (omega_n cos(omega_n T) - i omega sin(omega_n T)) - omega_n]
        / (omega^2 - omega_n^2),

    so all of the (omega, omega_n) dependence sits in one real matrix
    1 / (omega^2 - omega_n^2), contracted with three stacked column blocks.
    Where |omega - omega_n| T < _NEAR_PHASE that form cancels; those pairs are
    dropped from the matrix and added in the sinc form of `_seg`. They are
    found by bisection on the ascending nodes (a band of twice that width
    per omega, then the strict test on the band alone), so only the
    product, its reciprocal and the matrix product touch the whole table.
    omega >= 0 (`chi_spectrum` checks it) and omega_n > 0, so
    omega + omega_n is never the small factor.
    """
    nodes = rep.nodes
    if np.any(np.diff(nodes) < 0.0):
        raise ValidationError("the half-line transform needs ascending nodes")
    block = rep.block
    m = block.shape[1]
    phase_n = nodes * t_max
    stacked = np.concatenate(
        [
            nodes[:, None] * block,
            np.sin(phase_n)[:, None] * block,
            (nodes * np.cos(phase_n))[:, None] * block,
        ],
        axis=1,
    )
    near = _NEAR_PHASE / t_max
    out = np.empty((omega.size, m), dtype=complex)
    for rows in _chunks(omega.size, nodes.size):
        w = omega[rows]
        close_w, close_n = _near_pairs(w, nodes, near)
        inv = np.subtract.outer(w, nodes)
        inv *= np.add.outer(w, nodes)
        with np.errstate(divide="ignore"):
            np.reciprocal(inv, out=inv)
        inv[close_w, close_n] = 0.0
        g = inv @ stacked
        phase = np.exp(1j * w * t_max)[:, None]
        chunk = phase * (g[:, 2 * m :] - 1j * w[:, None] * g[:, m : 2 * m]) - g[:, :m]
        for pairs in _chunks(close_w.size, nodes.size):  # a few per row unless T is tiny
            cw, cn = close_w[pairs], close_n[pairs]
            it = (_seg(w[cw] + nodes[cn], t_max) - _seg(w[cw] - nodes[cn], t_max)) / 2.0j
            np.add.at(chunk, cw, it[:, None] * block[cn])
        out[rows] = chunk
    return block_tensors(out, rep.basis)


def chi_spectrum(
    kernel: SusceptibilityKernel,
    omega_grid,
    tail_rtol: float = 1e-6,
) -> ResponseSpectrum:
    """Half-line frequency transform chi_hat(k, omega) = int_0^inf chi e^{i omega t} dt.

    Conductor-like kernels settle on a nonzero plateau chi(inf); the tail
    integral of the plateau is added analytically (i chi_inf e^{i omega T} /
    omega), which is what makes the free-carrier spectrum converge. The
    dissipative (hermitian-imaginary) part must come out PSD for omega > 0.
    """
    omega = np.asarray(omega_grid, dtype=float)
    if omega.ndim != 1 or np.any(omega < 0.0):
        raise ValidationError("omega_grid must be 1-d and nonnegative")
    t = kernel.t_grid
    t_max = float(t[-1])
    plateau, wobble = _plateau(kernel.values, t, tail_rtol)
    has_plateau = bool(np.any(plateau != 0.0))
    if has_plateau and np.any(omega == 0.0):
        raise ZeroFrequency("spectrum of a plateau kernel diverges at omega = 0")

    values = _half_line_transform_exact(kernel.rep, t_max, omega)
    if has_plateau:
        fac = 1j * np.exp(1j * omega * t_max) / omega
        values = values + fac[:, None, None] * plateau[None, :, :]

    imh = (values - np.conj(np.transpose(values, (0, 2, 1)))) / 2.0j
    positive = omega > 0.0
    if np.any(positive):
        eigs = np.linalg.eigvalsh(imh[positive])
        min_eig = float(np.min(eigs))
        scale = float(np.max(np.abs(eigs))) or 1.0
        if min_eig < -1e-8 * scale:
            raise NotPSD(f"Im chi_hat has eigenvalue {min_eig:g} below -tol for omega > 0")
    else:
        min_eig = 0.0
    return ResponseSpectrum(
        which=kernel.which,
        k=kernel.k,
        omega_grid=omega,
        values=values,
        imag_min_eig=min_eig,
        tail_fraction=wobble,
        plateau=plateau if has_plateau else None,
    )


@dataclass(frozen=True)
class KKReport:
    max_rel_residual: float
    n_grid: int
    grid_step: float


def _kk_real_part(omega: np.ndarray, im: np.ndarray) -> np.ndarray:
    """(2/pi) P int_0^inf w' Im(w') / (w'^2 - m_i^2) dw' at the midpoints
    m_i of an ascending uniform grid w_j = w_0 + j h, for a real (n, c)
    block of Im: (n - 1, c).

    The kernel splits as

        1 / (m_i^2 - w_j^2) = [1 / (m_i - w_j) + 1 / (m_i + w_j)] / (2 m_i),

    a Toeplitz part (m_i - w_j = h (i - j + 1/2)) and a Hankel part
    (m_i + w_j = 2 w_0 + h (i + j + 1/2)), so the sum is two real FFT
    convolutions of length >= 2n - 1, which leaves the kept rows free of
    wrap-around.
    """
    n = omega.size
    h = float(omega[-1] - omega[0]) / (n - 1)
    # the numerator -(2/pi) h w' goes into the block; row l of both kernels
    # is at s_l = l + 1/2, l < 2n - 2
    weighted = ((-2.0 / np.pi) * h * omega)[:, None] * im
    size = _fft_size(2 * n - 1)
    s_l = np.arange(2 * n - 2) + 0.5
    toeplitz = np.fft.rfft(1.0 / (h * (s_l - (n - 1))), size)
    hankel = np.fft.rfft(1.0 / (2.0 * omega[0] + h * s_l), size)
    conv = np.fft.irfft(
        np.fft.rfft(weighted, size, axis=0) * toeplitz[:, None]
        + np.fft.rfft(weighted[::-1], size, axis=0) * hankel[:, None],
        size,
        axis=0,
    )
    mid = omega[0] + h * (np.arange(n - 1) + 0.5)
    return conv[n - 1 : 2 * n - 2] / (2.0 * mid[:, None])


def kk_check(spectrum: ResponseSpectrum) -> KKReport:
    """Kramers-Kronig residual of a spectrum on a uniform omega grid.

    Reconstructs Re chi_hat from Im chi_hat entrywise through the half-line
    (even-extension) dispersion integral

        Re chi(w) = (2/pi) P int_0^inf w' Im chi(w') / (w'^2 - w^2) dw',

    with the principal value handled by evaluating at midpoints so the
    singular node is straddled symmetrically (O(h^2)), and summed by FFT
    (`_kk_real_part`). Reports the max relative deviation from the directly
    computed real part (`_relative_deviation`); an acausal spectrum shows up
    as an O(1) residual, not an exception. The grid must pass
    `uniform_step`; a descending grid is read from its low end, so both
    orders give the same residual.
    """
    omega = spectrum.omega_grid
    if omega.size < KK_MIN_POINTS:
        raise GridTooCoarse(f"kk_check needs at least {KK_MIN_POINTS} grid points")
    descending = omega[-1] < omega[0]
    h = uniform_step(omega[::-1] if descending else omega)
    if h is None:
        raise GridTooCoarse("kk_check needs a uniform omega grid with a nonzero step")
    im, basis = tensor_block(spectrum.imag_hermitian())
    re = spectrum.real_hermitian()
    if descending:
        omega, im, re = omega[::-1], im[::-1], re[::-1]
    resid = _relative_deviation(block_tensors(_kk_real_part(omega, im), basis),
                                0.5 * (re[:-1] + re[1:]))
    return KKReport(max_rel_residual=resid, n_grid=int(omega.size), grid_step=h)


def chi_hat_rational(model) -> Rational:
    """chi_hat(rho) for the rational (damped-oscillator family) kinds."""
    if isinstance(model, CombinedElectric):
        return chi_hat_rational(model.bound) + chi_hat_rational(model.free)
    base = getattr(model, "base", model)
    if not base.is_rational:
        raise ValidationError(f"model kind '{base.kind}' has no rational transform")
    if base.is_zero:
        return Rational.constant(0.0)
    return Rational.make(
        [base.strength**2], [base.resonance**2, base.width, 1.0]
    )


@dataclass(frozen=True)
class LaplaceResponse:
    """The medium in the Laplace domain: eps_hat and mu_hat.

    eps_hat = eps0 (1 + chi_hat_e) from the electric coupling model_e and
    mu_hat = mu0 (1 + chi_hat_m) from the magnetic one, model_m; the
    reservoir couples to the same two. Free carriers are part of model_e
    (`combined_electric(bound, free)`), whose chi_hat is the sum of its
    `parts`. Rational models use the closed form, evaluated anywhere off its
    poles; everything else goes through the kernel quadrature
    representation, for which the transform of each sine mode is
    omega_n / (rho^2 + omega_n^2) exactly, at Re rho > 0 only.

    horizon and omega_top bound every time and reservoir frequency the mode
    coefficients are asked for, and they alone fix the Bromwich line of a
    continuum medium (`modes.bromwich_line`), one per k, kept in `lines`.
    `run_scenario` derives them from its grids; the defaults are what a
    default config derives: max(t_max, maxwell_t_max) and reservoir_cutoff.
    """

    model_e: object
    model_m: object
    constants: PhysicalConstants
    quad: QuadratureSpec
    horizon: float = 10.0
    omega_top: float = 50.0
    _rep_cache: dict = field(default_factory=dict, repr=False)
    lines: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for model, name, which in ((self.model_e, "model_e", ELECTRIC),
                                   (self.model_m, "model_m", MAGNETIC)):
            if model.which != which:
                raise ValidationError(f"{name} must be {which}")
        if not (np.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValidationError(f"horizon must be finite and > 0, got {self.horizon}")
        if not (np.isfinite(self.omega_top) and self.omega_top >= 0.0):
            raise ValidationError(f"omega_top must be finite and >= 0, got {self.omega_top}")

    @property
    def is_rational(self) -> bool:
        return self.model_e.is_rational and self.model_m.is_rational

    def laplace_rep(self, model, k) -> QuadRep:
        """The representation chi_hat of the continuum `model` at k is
        evaluated from, built on first use. Its kernel values are the chi(t)
        whose transform the mode solver inverts."""
        k = np.asarray(k, dtype=float)
        key = (model, tuple(k))
        rep = self._rep_cache.get(key)
        if rep is None:
            # converged on probe values of rho, not on a time horizon: this
            # representation is evaluated at every Bromwich-line point, so it
            # stays as small as the Laplace transform allows
            pref = kernel_prefactor(model.which, self.constants)
            probe = np.array([0.37, 1.1, 3.3]) * model.frequency_scale
            rep, _, _ = _converged_rep(model, k, self.quad, pref, lambda rep: rep.contract(
                rep.nodes[None, :] / (probe[:, None] ** 2 + rep.nodes[None, :] ** 2)
            ))
            self._rep_cache[key] = rep
        return rep

    def parts(self, model, k):
        """chi_hat of `model` at k as the sum of its nonzero parts (the bound
        and free carriers of a combined coupling): each part's `Rational`
        transform when it is rational, else its Laplace representation
        (`laplace_rep`), whose sine modes transform as
        omega_n / (rho^2 + omega_n^2)."""
        for part in (model.bound, model.free) if isinstance(model, CombinedElectric) else (model,):
            if not part.is_zero:
                yield chi_hat_rational(part) if part.is_rational else self.laplace_rep(part, k)

    def chi(self, model, k, rho) -> np.ndarray:
        """chi_hat(k, rho), summed over `parts`, at Re rho > 0; LeftHalfPlane
        names the first rho with Re rho <= 0, for every medium."""
        scalar = np.ndim(rho) == 0
        rho = np.atleast_1d(np.asarray(rho, dtype=complex))
        left = np.real(rho) <= 0.0
        if np.any(left):
            raise LeftHalfPlane(f"chi_hat is evaluated at Re rho > 0 only, "
                                f"got {complex(rho[left][0])}")
        out = np.zeros((rho.size, 3, 3), dtype=complex)
        for part in self.parts(model, k):
            if isinstance(part, Rational):
                out += part(rho)[:, None, None] * IDENTITY3
            else:
                for rows in _chunks(rho.size, part.nodes.size):
                    mat = rho[rows, None] ** 2 + part.nodes**2
                    np.divide(part.nodes, mat, out=mat)
                    out[rows] += part.contract(mat)
                    del mat  # freed before the next chunk's is built
        return out[0] if scalar else out

    def chi_moments(self, model, k):
        """(M1, M2) of chi_hat = M1 rho^-2 + M2 rho^-3 + O(rho^-4) at large
        rho, as (3, 3) tensors: chi'(0+) and chi''(0+), summed over `parts`.
        A Laplace representation gives M1 = sum_n c_n omega_n and M2 = 0; a
        rational part takes both from the expansion of its transform."""
        out = np.zeros((2, 3, 3), dtype=complex)
        for part in self.parts(model, k):
            if isinstance(part, Rational):
                out += part.at_infinity(3)[2:, None, None] * IDENTITY3
            else:
                out[0] += part.contract(part.nodes[None, :])[0]
        return out

    def eps(self, k, rho) -> np.ndarray:
        return self.constants.eps0 * (IDENTITY3 + self.chi(self.model_e, k, rho))

    def mu(self, k, rho) -> np.ndarray:
        return self.constants.mu0 * (IDENTITY3 + self.chi(self.model_m, k, rho))


def laplace_response(
    model_e,
    model_m,
    constants: PhysicalConstants = NATURAL,
    quad: QuadratureSpec = QuadratureSpec(),
    horizon: float = 10.0,
    omega_top: float = 50.0,
) -> LaplaceResponse:
    return LaplaceResponse(model_e=model_e, model_m=model_m, constants=constants, quad=quad,
                           horizon=float(horizon), omega_top=float(omega_top))


@dataclass(frozen=True)
class QKernelReport:
    """Linear-response kernel Q and its susceptibility-derivative split."""

    k: np.ndarray
    t_grid: np.ndarray
    q_values: np.ndarray  # (n_t, 3, 3)
    chi_values: np.ndarray
    implied_sigma: np.ndarray  # Q - eps0 d(chi)/dt by finite differences
    quad: QuadratureResult

    @property
    def sigma_residual(self) -> float:
        scale = float(np.max(np.abs(self.q_values)))
        if scale == 0.0:
            return 0.0
        return float(np.max(np.abs(self.implied_sigma))) / scale


def difference_step(t_grid) -> float:
    """The step h of a time grid that `finite_difference_time` accepts: at
    least 3 points (the end stencils read three), increasing and uniform by
    `uniform_step`."""
    t = np.asarray(t_grid, dtype=float)
    if t.size < 3:
        raise ValidationError("finite differences need at least 3 time points")
    h = uniform_step(t)
    if h is None:
        raise ValidationError("finite differences need an increasing uniform t_grid")
    return h


def finite_difference_time(values: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """d/dt on a uniform grid of at least 3 points (`difference_step`)."""
    return _central_difference(values, difference_step(t_grid))


def _central_difference(values: np.ndarray, h: float) -> np.ndarray:
    """d/dt at step h: central interior, one-sided second order at the ends
    (the t = 0 end never reaches into t < 0)."""
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    return out


def conductor_Q(
    model,
    k,
    t_grid,
    constants: PhysicalConstants = NATURAL,
    quad: QuadratureSpec = QuadratureSpec(),
) -> QKernelReport:
    """Cosine-kernel linear-response tensor

        Q(k, t) = (8 pi / hbar c^3) int_0^inf domega omega^3 cos(omega t) f f^dag

    together with the decomposition check Q - eps0 * d(chi)/dt, whose residual
    is the implied conductivity kernel sigma(k, t).
    """
    t = _validate_t_grid(t_grid)
    k = np.asarray(k, dtype=float)
    pref_q = 8.0 * np.pi / (constants.hbar * constants.c**3)
    pref_chi = kernel_prefactor(ELECTRIC, constants)

    def q_on_t(rep):
        block = (pref_q * rep.nodes)[:, None] * rep.block
        return block_tensors(_angle_table(t, rep.nodes, None, block), rep.basis)

    # pref = 1: the one representation carries w omega^2 f f^dag, scaled per
    # consumer to Q and to chi
    rep, q_values, result = _converged_rep(model, k, quad, 1.0, q_on_t)
    chi_values = pref_chi * rep.kernel_values(t)
    dchi = finite_difference_time(chi_values, t)
    implied_sigma = q_values - constants.eps0 * dchi
    return QKernelReport(
        k=k,
        t_grid=t,
        q_values=q_values,
        chi_values=chi_values,
        implied_sigma=implied_sigma,
        quad=result,
    )
