"""Grid antiderivatives by complex-path quadrature with Gauss-Legendre panels.

Integrands are assumed analytic away from declared singularities, so the
panels converge spectrally and results are deterministic for a given
configuration.  Paths never pass through singularities: every segment is
checked against an exclusion radius before any integrand evaluation.

The reduction over quadrature nodes runs in a fixed node order with
elementwise numpy ops, never through BLAS, so a segment's integral has the
same bits whichever BLAS kernel is loaded and however many segments share
the call.  Each rule's weights are normalised once so that their sum in
that order is exactly 2: constant integrands integrate exactly.

An integrand takes an array w of nodes and returns one array of shape
(components...) + w.shape; wesurf's integrands allocate it once and write
each component with `np.multiply(..., out=)`.  Nodes are evaluated in
blocks of at most _BLOCK_NODES, one block's integrand values alive at a
time, and each component is reduced on its own contiguous slab.  The block
size is invisible in the bits only if the integrand is elementwise in w and
never multiplies by a temporary right operand (`s * g(s)`): numpy may
evaluate such a product in place in the temporary, with the operands
swapped, once the block is large (256 KiB or more), and its SIMD complex
multiply is not bitwise commutative.  Bind the factor to a name first, or
write the product with `out=`, which keeps the operand order.

`antiderivative_on_grid` evaluates F(r) = int_{base}^{r} f(w) dw at every
grid node using a fixed path family (horizontal-then-vertical segments for
rectangles, radial-then-angular sweeps for annuli) with cumulative chaining
along each axis.  Each chain is a row of waypoints, so the chain axis is
the output's last axis.  A chain family (the one radial or horizontal
chain, then all angular or vertical chains) streams in groups of whole
chains, about _BLOCK_NODES nodes each: a group is integrated, cumulated
and written straight into its rows of the output.  Besides the waypoints
and the order pass's transient distances, the output is the only
grid-sized array.  Each chain family runs the smallest order in
_CHAIN_ORDERS whose Gauss error bound on the Bernstein ellipse through the
nearest declared singularity is negligible; a family with no declared
singularity runs the largest.  One pass over the distances from each
singularity to the segments' ends checks the exclusion radius and picks
the order (see `_chain_order`).  For holomorphic f the values are path
independent on simply connected domains; on annuli the fixed family makes
multivalued antiderivatives (log, fractional powers) pick a consistent
branch, because path integration continues the branch automatically.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .grids import ParamGrid
from .stencils import all_finite, fixed_order_dot

EXCLUSION_FRACTION = 1e-3  # exclusion radius = fraction * path length
_ARC_MAX_STEP = 0.2        # max angular chord (radians) on annulus sweeps
_BLOCK_NODES = 1 << 15     # quadrature nodes evaluated per integrand call
_CHAIN_ORDERS = (8, 16, 32)  # Gauss-Legendre orders a grid chain may run
# Gauss error bound a chain's order must meet, per unit of max |f| on the
# ellipse; that maximum is unknown, and six decades below round-off keep
# poles up to order 6 at the 32-point rule's accuracy
_CHAIN_TOL = 1e-22
# relative margin on the exclusion radius and on rho within which the fused
# distance pass defers to the exact projection distance and Joukowski rho
_BOUND_SLACK = 1e-9


class QuadratureError(ValueError):
    pass


class PathNearSingularity(QuadratureError):
    pass


@lru_cache(maxsize=None)
def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the `order`-point Gauss-Legendre rule on [-1, 1].

    The two central weights are nudged by ulps, symmetrically, until the
    weights' `fixed_order_dot` is exactly 2, so constant integrands integrate
    exactly.  The nudge is far below the rule's own truncation error.
    """
    xi, w = np.polynomial.legendre.leggauss(order)
    mid = [(order - 1) // 2, order // 2]
    for _ in range(64):
        total = fixed_order_dot(w, np.ones(order))
        if total == 2.0:
            w.flags.writeable = False
            return xi, w
        w[mid] = np.nextafter(w[mid], np.inf if total < 2.0 else -np.inf)
    raise QuadratureError(f"cannot normalise the {order}-point rule")  # pragma: no cover


def _segment_singularity_distance(z0: np.ndarray, z1: np.ndarray,
                                  sing: complex) -> np.ndarray:
    delta = z1 - z0
    d2 = np.abs(delta) ** 2
    tau = np.real(np.conj(delta) * (sing - z0)) / np.where(d2 > 0, d2, 1.0)
    tau = np.clip(tau, 0.0, 1.0)
    return np.abs(z0 + tau * delta - sing)


def _eval_checked(f, z: np.ndarray) -> np.ndarray:
    fz = np.asarray(f(z), dtype=complex)
    if fz.shape[-z.ndim:] != z.shape:
        fz = np.broadcast_to(fz, fz.shape[:-z.ndim] + z.shape) if fz.ndim >= z.ndim \
            else np.broadcast_to(fz, z.shape)
    if not all_finite(fz):
        raise QuadratureError("integrand returned non-finite values on the path")
    return fz


def _segment_integrals(f, z0: np.ndarray, z1: np.ndarray, order: int) -> np.ndarray:
    """Gauss-Legendre integral over each straight segment z0[k] -> z1[k].

    z0, z1 have shape (...,); f may return extra leading axes (vector-valued
    integrands).  Result shape: f-leading-axes + z0.shape.

    Segments are evaluated in blocks of at most _BLOCK_NODES quadrature
    nodes, each written into one preallocated result, so memory stays
    bounded whatever the grid: a block's integrand values are released
    before the next block is evaluated, and each component is reduced on
    its own contiguous (order, block) slab.  The module docstring gives the
    conditions on f that keep the block size invisible in the result's bits.
    """
    xi, w = _gl_rule(order)
    t = 0.5 * (xi + 1.0)
    shape = np.shape(z0)
    z0 = np.asarray(z0, dtype=complex).reshape(-1)
    delta = np.asarray(z1, dtype=complex).reshape(-1) - z0
    step = max(1, _BLOCK_NODES // order)
    out = lead = None
    for lo in range(0, max(z0.size, 1), step):  # one pass even with no segments
        d = delta[lo:lo + step]
        nodes = z0[None, lo:lo + step] + np.multiply.outer(t, d)
        fz = _eval_checked(f, nodes)
        if out is None:
            lead = fz.shape[:-2]
            out = np.empty((math.prod(lead), z0.size), dtype=complex)
        fz = fz.reshape((len(out),) + nodes.shape)
        half = 0.5 * d
        for k in range(len(out)):
            np.multiply(fixed_order_dot(w, fz[k]), half, out=out[k, lo:lo + step])
        del nodes, fz
    return out.reshape(lead + shape)


# ---------------------------------------------------------------------------
# grid antiderivatives via cumulative chains
# ---------------------------------------------------------------------------

def _order_for(rho: float) -> int:
    """Smallest order in _CHAIN_ORDERS whose Gauss error bound at Bernstein
    parameter rho is below _CHAIN_TOL: (64/15) rho^(-2n) / (rho^2 - 1)
    (Trefethen, ATAP Thm 19.3).  Non-increasing in rho."""
    for n in _CHAIN_ORDERS[:-1]:
        if rho > 1 and 64 / 15 * rho ** -(2 * n) / (rho * rho - 1) < _CHAIN_TOL:
            return n
    return _CHAIN_ORDERS[-1]


def _joukowski_rho(z0: np.ndarray, z1: np.ndarray, singularities) -> float:
    """Smallest rho = |u + sqrt(u-1) sqrt(u+1)|, u = (s - m) / h, over the
    moving segments (midpoint m, half-length h) and the singularities."""
    half = 0.5 * (z1 - z0)
    nonzero = half != 0
    mid, half = 0.5 * (z0 + z1)[nonzero], half[nonzero]
    rho = np.inf
    for s in singularities:
        u = (complex(s) - mid) / half
        rho = min(rho, float(np.min(np.abs(u + np.sqrt(u - 1) * np.sqrt(u + 1)))))
    return rho


def _chain_order(z0: np.ndarray, z1: np.ndarray, singularities, radius: float) -> int:
    """Smallest order in _CHAIN_ORDERS that the chain needs; raises
    PathNearSingularity if a segment passes within `radius` of a declared
    singularity.

    One distance pass per singularity s serves both.  With A0, A1 the
    distances from s to a segment's ends and L its length:

    - (A0 + A1 - L) / 2 is a lower bound on the distance from s to the
      segment, so the exact projection distance runs only on segments
      where that bound is within radius (1 + _BOUND_SLACK);
    - s lies on the ellipse with foci z0, z1 and semi-major axis
      (A0 + A1) / 2, which is the Bernstein ellipse of parameter
      rho = a + sqrt(a^2 - 1), a = (A0 + A1) / L.  The Gauss error bound
      (`_order_for`) falls as rho grows, so the chain's smallest a over its
      moving segments and the singularities picks the order.

    When rho (1 -+ _BOUND_SLACK) straddles an order threshold, rounding could
    tip the choice, and the order comes from the Joukowski form of rho
    (`_joukowski_rho`), as it always did.  With no declared singularity the
    analyticity radius is unknown and the chain runs the largest order.
    """
    if not len(singularities):
        return _CHAIN_ORDERS[-1]
    length = np.abs(z1 - z0)
    moving = z1 != z0
    a = np.inf
    for s in singularities:
        ends = np.abs(complex(s) - z0)
        ends += np.abs(complex(s) - z1)  # A0 + A1
        near = ends - length <= 2 * radius * (1 + _BOUND_SLACK)
        if np.any(near) and np.any(
                _segment_singularity_distance(z0[near], z1[near], complex(s)) < radius):
            raise PathNearSingularity(
                f"integration path passes within {radius:.3g} of singularity {s}")
        ratio = np.divide(ends, length, out=np.full_like(ends, np.inf), where=moving)
        a = min(a, float(np.min(ratio, initial=np.inf)))
    if a == np.inf:  # no segment moves
        return _CHAIN_ORDERS[-1]
    rho = a + math.sqrt(max(a - 1, 0.0) * (a + 1))
    order = _order_for(rho * (1 - _BOUND_SLACK))
    if order != _order_for(rho * (1 + _BOUND_SLACK)):
        order = _order_for(_joukowski_rho(z0, z1, singularities))
    return order


def _chains(f, points: np.ndarray, base_index: int, sel: np.ndarray, singularities,
            radius: float, head=None) -> np.ndarray:
    """Integral from points[..., base_index] to points[..., k], k in `sel`.

    points: (m,) for one chain or (B, m) for B chains, each traversed along
    its row.  The result is lead + points.shape[:-1] + sel.shape, lead being
    any leading axes a vector-valued integrand returns; `head` (lead + (B,)),
    if given, is added to each row, as the first operand.  A step that no
    chain moves along is not integrated.  Groups of whole chains, about
    _BLOCK_NODES nodes each, are integrated, cumulated and written into
    their rows of the result in turn.
    """
    rows = points.reshape(-1, points.shape[-1])
    z0, z1 = rows[:, :-1], rows[:, 1:]
    keep = np.any(z1 != z0, axis=0)
    every = bool(np.all(keep))
    if not every:
        z0, z1 = z0[:, keep], z1[:, keep]
    order = _chain_order(z0, z1, singularities, radius)
    step = max(1, _BLOCK_NODES // (order * max(z0.shape[1], 1)))  # chains per group
    out = None
    for lo in range(0, len(rows), step):
        group = slice(lo, lo + step)
        segs = _segment_integrals(f, z0[group], z1[group], order)
        if not every:
            segs, vals = np.zeros(segs.shape[:-1] + keep.shape, dtype=complex), segs
            segs[..., keep] = vals
        cums = np.empty(segs.shape[:-1] + rows.shape[-1:], dtype=complex)
        cums[..., 0] = 0
        np.cumsum(segs, axis=-1, out=cums[..., 1:])
        cums -= cums[..., base_index, None].copy()
        if out is None:
            out = np.empty(cums.shape[:-2] + (len(rows),) + sel.shape, dtype=complex)
        if head is None:
            out[..., group, :] = cums[..., sel]
        else:
            np.add(head[..., group, None], cums[..., sel], out=out[..., group, :])
    return out.reshape(out.shape[:-2] + points.shape[:-1] + sel.shape)


def _insert_sorted(values: np.ndarray, extra: float) -> tuple[np.ndarray, int]:
    """Sorted union of values and `extra`; returns (array, index of extra)."""
    merged = np.unique(np.concatenate([values, [extra]]))
    idx = int(np.searchsorted(merged, extra))
    return merged, idx


def _subdivide(values: np.ndarray, max_step: float) -> np.ndarray:
    """Refine a sorted 1-D array so consecutive gaps are <= max_step."""
    out = [values[:1]]
    for a, b in zip(values[:-1], values[1:]):
        gap = b - a
        if gap > max_step:
            k = int(np.ceil(gap / max_step))
            out.append(np.linspace(a, b, k + 1)[1:])
        else:
            out.append(np.asarray([b]))
    return np.concatenate(out)


def antiderivative_on_grid(f, base: complex, grid: ParamGrid, singularities=(),
                           conjugate_plane: bool = False) -> np.ndarray:
    """int_{base}^{node} f(w) dw for every node of `grid`.

    Paths run axis-by-axis from the base point: horizontal then vertical for
    rectangles, radial then angular for annuli.  `_chain_order` picks each
    chain's Gauss-Legendre order from the declared singularities.  With
    conjugate_plane=True the whole construction (base, nodes, paths) is
    conjugated, which evaluates
    int_{conj(base)}^{conj(node)} f(s) ds for integrands of the conjugate
    variable.
    """
    base = complex(base)
    conj_sign = -1.0 if conjugate_plane else 1.0
    if grid.kind == "rectangle":
        r1v, i1 = _insert_sorted(grid.axis1, base.real)
        r2v, i2 = _insert_sorted(grid.axis2, base.imag)
        radius = EXCLUSION_FRACTION * ((r1v[-1] - r1v[0]) + (r2v[-1] - r2v[0]))
        # horizontal chain at height base.imag, then one vertical chain per column
        first = r1v + 1j * conj_sign * base.imag, i1, np.searchsorted(r1v, grid.axis1)
        rest = (grid.axis1[:, None] + 1j * conj_sign * r2v[None, :], i2,
                np.searchsorted(r2v, grid.axis2))
    else:
        rho_b, psi_b = abs(base), float(np.angle(base))
        if rho_b == 0:
            raise QuadratureError("annulus sweeps need a nonzero base point")
        rhos, ir = _insert_sorted(grid.axis1, rho_b)
        psis_raw, _ = _insert_sorted(grid.axis2, psi_b)
        psis = _subdivide(psis_raw, _ARC_MAX_STEP)
        ip = int(np.searchsorted(psis, psi_b))
        radius = EXCLUSION_FRACTION * ((rhos[-1] - rhos[0]) + rhos[-1] * (psis[-1] - psis[0]))
        # radial chain at angle psi_b, then one angular chain (polyline chords
        # along the circle) per grid radius
        first = rhos * np.exp(1j * conj_sign * psi_b), ir, np.searchsorted(rhos, grid.axis1)
        rest = (grid.axis1[:, None] * np.exp(1j * conj_sign * psis[None, :]), ip,
                np.searchsorted(psis, grid.axis2))
    head = _chains(f, *first, singularities, radius)
    return _chains(f, *rest, singularities, radius, head)


__all__ = [
    "PathNearSingularity", "QuadratureError", "antiderivative_on_grid",
]
