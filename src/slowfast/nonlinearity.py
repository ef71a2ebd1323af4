"""Catalog of coupling nonlinearities and their Gaussian averages.

Three variants are provided:

* ``LinearInY(c)``        F(x, y) = c*y            Fbar = 0
* ``PointwiseSquare(c)``  f(u, v) = c*v^2 applied pointwise on a collocation
  grid; Fbar is the deterministic field c*sigma^2(xi) where sigma^2 is the
  pointwise variance of the fast equilibrium.
* ``PointwiseGeneral(f)``  arbitrary smooth f(u, v) applied pointwise; Fbar
  averages v over N(0, sigma^2(xi)) by 12-point Gauss-Hermite quadrature.

PointwiseSquare is not globally Lipschitz and its growth is unbounded at
large amplitude, so it sits outside the strict bounded-derivative class; it
is kept because its average is in closed form, which makes it the natural
test oracle.  Use ``saturating_square`` for a bounded stand-in with the same
small-amplitude behavior.

``eval_F`` evaluates F; ``averaged_force`` builds x -> Fbar(x) once, with the
constants of the average precomputed.  Both take coefficient arrays of shape
(J,) or (n, J) and return the same shape.  The Gauss-Hermite average makes one
f call on all 12 nodes at once, the nodes stacked on a leading axis, and sums
the weighted values over that axis in node order, which gives the bits of a
per-node loop.  When f does not read u, Fbar is one constant field, and the
average is computed once per input shape and copied out on later calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .spectral import ArgumentError, SpectrumSpec

__all__ = [
    "GridTransform",
    "LinearInY",
    "PointwiseSquare",
    "PointwiseGeneral",
    "Nonlinearity",
    "saturating_square",
    "pointwise_variance",
    "eval_F",
    "averaged_force",
]

_SQRT2 = np.sqrt(2.0)
_QUADRATURE_ORDER = 12  # Gauss-Hermite nodes of PointwiseGeneral's average


class GridTransform:
    """Sine-collocation transform between coefficients and grid values.

    Nodes are xi_m = m/(M+1), m = 1..M, and the basis functions are
    e_j(xi) = sqrt(2) sin(j pi xi).  M >= 4J is enforced so that quadratic
    products of resolved modes do not alias back onto the first J modes.

    At the truncation levels this package targets the transforms are small
    dense matrix products (a 16-mode field lives on a 64-point grid), so the
    synthesis/analysis matrices are cached once instead of going through an
    FFT-based transform.  Analysis is the exact inverse of synthesis on the
    span of the first J modes, by discrete sine orthogonality.

    `pointwise` maps a batch of more than `rows_per_block` rows block by
    block, every block exactly that many rows, so that every row goes through
    products of the same shape.  A row's result then does not depend on how
    many rows share its call, and no batch-sized grid array is ever built.
    The block size depends only on J*M: the largest power of two, at most
    512, with rows*J*M <= 2^18 (256 rows at J = 16, 16 at J = 64).  Up to
    2^18 multiply-adds OpenBLAS runs a product on the calling thread, so
    concurrent Monte Carlo workers run side by side instead of queueing for
    BLAS's thread pool, and a block's grid arrays stay in cache.
    """

    def __init__(self, J: int, M: Optional[int] = None):
        if J < 1:
            raise ValueError("J must be >= 1")
        if M is None:
            M = 4 * J
        if M < 4 * J:
            raise ArgumentError("M", f"need M >= 4*J = {4 * J} collocation points, got {M}")
        self.J = J
        self.M = M
        self.nodes = np.arange(1, M + 1, dtype=float) / (M + 1)
        j = np.arange(1, J + 1, dtype=float)
        # (J, M): e_j evaluated at the nodes
        self._synth = _SQRT2 * np.sin(np.pi * np.outer(j, self.nodes))
        self._analyze = self._synth.T / (M + 1)
        per_block = max(1, 2**18 // (J * M))
        self.rows_per_block = min(512, 1 << (per_block.bit_length() - 1))

    def to_grid(self, coeffs: np.ndarray) -> np.ndarray:
        """Evaluate sum_j c_j e_j at the collocation nodes (last axis J -> M)."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape[-1] != self.J:
            raise ValueError(f"expected {self.J} coefficients, got {coeffs.shape[-1]}")
        return coeffs @ self._synth

    def to_coeffs(self, grid: np.ndarray) -> np.ndarray:
        """Project grid values back onto the first J modes (last axis M -> J)."""
        grid = np.asarray(grid, dtype=float)
        if grid.shape[-1] != self.M:
            raise ValueError(f"expected {self.M} grid values, got {grid.shape[-1]}")
        return grid @ self._analyze

    def pointwise(self, f: Callable[..., np.ndarray], *fields: np.ndarray) -> np.ndarray:
        """to_coeffs(f(*(to_grid(c) for c in fields))) for fields of one shape.

        Fields of more than `rows_per_block` rows are mapped one block of
        exactly that many rows at a time; a call of at most one block is the
        plain composition.
        """
        rows = self.rows_per_block
        if fields[0].ndim != 2 or len(fields[0]) <= rows:
            return self.to_coeffs(f(*map(self.to_grid, fields)))
        n = len(fields[0])
        out = np.empty((n, self.J))
        # the last block ends at row n and may overlap the one before it,
        # whose rows it recomputes bit for bit
        for start in [*range(0, n - rows, rows), n - rows]:
            block = slice(start, start + rows)
            out[block] = self.to_coeffs(f(*(self.to_grid(c[block]) for c in fields)))
        return out


@dataclass(frozen=True)
class LinearInY:
    c: float


@dataclass(frozen=True)
class PointwiseSquare:
    c: float


@dataclass(frozen=True)
class PointwiseGeneral:
    """Pointwise nonlinearity f(u, v) with Gauss-Hermite averaged counterpart.

    f must be vectorized (ufunc-compatible) and smooth with bounded
    derivatives up to order 3 for the theory to apply; the 12-point rule
    integrates polynomial v-dependence exactly up to degree 23.  The average
    calls f once with u and v that broadcast against each other, v holding
    the nodes on a leading axis, so f must act elementwise.  The average also
    probes f once with a u of shape (2, 1, 1) to learn whether f reads u: an
    elementwise f that does returns u's axes, one that does not is averaged
    once per input shape.  The probe relies on f being elementwise.
    """

    f: Callable[[np.ndarray, np.ndarray], np.ndarray]


Nonlinearity = Union[LinearInY, PointwiseSquare, PointwiseGeneral]


def saturating_square(c: float) -> PointwiseGeneral:
    """Bounded variant of the pointwise square: f(u, v) = c*v^2/(1 + v^2)."""

    def f(u, v):
        v2 = v * v
        return c * v2 / (1.0 + v2)

    return PointwiseGeneral(f=f)


def pointwise_variance(spec: SpectrumSpec, gt: GridTransform) -> np.ndarray:
    """Grid values of sigma^2(xi) = sum_{j<=J} e_j(xi)^2 / lambda_j = (S o S)^T (1/lambda), S
    the grid's synthesis matrix; the pointwise square's Fbar is then c*A sigma^2.

    This is the pointwise variance of a draw from N(0, Lambda^-1) truncated
    to J modes; as J grows it approaches xi*(1 - xi).
    """
    if gt.J != spec.J:
        raise ValueError("grid transform and spectrum disagree on J")
    return (gt._synth**2 / spec.lambdas[:, None]).sum(axis=0)


def _check_pair(x: np.ndarray, y: np.ndarray, J: int):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != J or y.shape[-1] != J:
        raise ValueError(f"fields must have {J} modes, got {x.shape[-1]} and {y.shape[-1]}")
    if x.shape != y.shape:
        x, y = np.broadcast_arrays(x, y)
    return x, y


def eval_F(nl: Nonlinearity, gt: Optional[GridTransform], x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients of F(x, y), truncated to the first J modes."""
    if isinstance(nl, LinearInY):
        y = np.asarray(y, dtype=float)
        return nl.c * y
    if gt is None:
        raise ValueError("pointwise nonlinearities need a GridTransform")
    x, y = _check_pair(x, y, gt.J)
    if isinstance(nl, PointwiseSquare):
        return gt.pointwise(lambda gy: nl.c * gy * gy, y)
    if isinstance(nl, PointwiseGeneral):
        return gt.pointwise(nl.f, x, y)
    raise TypeError(f"unknown nonlinearity {nl!r}")


def averaged_force(
    nl: Nonlinearity,
    gt: Optional[GridTransform],
    spec: SpectrumSpec,
) -> Callable[[np.ndarray], np.ndarray]:
    """x -> Fbar(x) = E F(x, Y), Y ~ N(0, Lambda^-1), as coefficients.

    The constants of the average (the pointwise variance of Y and the
    Gauss-Hermite nodes) are computed here, once, so a time loop builds the
    function once and calls it every step.

    For `PointwiseGeneral` each call evaluates f once, on grid values of
    shape (K, *gx.shape): the K = 12 nodes v_k = sqrt(2)*sigma*t_k on a
    leading axis.  The weighted values are summed over axis 0 of a 2-D
    C-contiguous (K, gx.size) array, which numpy accumulates row by row in
    node order, so the result equals a per-node loop's `acc += w_k*f_k` bit
    for bit.  A tensordot, einsum or BLAS product in place of the sum orders
    the additions differently and moves the last bit.

    Whether f reads u is decided here, from one call of f on u = zeros((2, 1, 1))
    against the (K, M) nodes, floating-point warnings ignored.  When it does
    not, Fbar(x) depends only on x's shape: the average is computed on the
    first x of each shape, kept, and returned as a copy, which the caller may
    overwrite.  The kept value is the one a fresh call computes, so the bits
    are the same.
    """
    if isinstance(nl, LinearInY):
        return np.zeros_like
    if gt is None:
        raise ValueError("pointwise nonlinearities need a GridTransform")
    sig2 = pointwise_variance(spec, gt)
    if isinstance(nl, PointwiseSquare):
        coeffs = gt.to_coeffs(nl.c * sig2)
        return lambda x: np.broadcast_to(coeffs, x.shape).copy()
    if isinstance(nl, PointwiseGeneral):
        t, w = np.polynomial.hermite.hermgauss(_QUADRATURE_ORDER)
        # E f(u, V) for V ~ N(0, sig^2), on the (K, M) grid v_k = sqrt(2)*sig*t_k
        nodes = np.outer(t, _SQRT2 * np.sqrt(sig2))
        K = len(t)

        def average(gx):
            v = nodes.reshape((K,) + (1,) * (gx.ndim - 1) + (gt.M,))
            fk = np.broadcast_to(nl.f(gx[None], v), (K,) + gx.shape)
            return (w[:, None] * fk.reshape(K, -1)).sum(axis=0).reshape(gx.shape) / np.sqrt(np.pi)

        # an elementwise f that reads u returns u's three axes
        with np.errstate(all="ignore"):
            reads_u = np.ndim(nl.f(np.zeros((2, 1, 1)), nodes)) > 2
        if reads_u:
            return lambda x: gt.pointwise(average, x)
        by_shape = {}

        def fbar(x):
            if x.shape not in by_shape:
                by_shape[x.shape] = gt.pointwise(average, x)
            return by_shape[x.shape].copy()

        return fbar
    raise TypeError(f"unknown nonlinearity {nl!r}")

