"""Complex-path quadrature with Gauss-Legendre panels.

Integrands are assumed analytic away from declared singularities, so the
panels converge spectrally and results are deterministic for a given
configuration.  Paths never pass through singularities: every segment is
checked against an exclusion radius before any integrand evaluation.

The reduction over quadrature nodes runs in a fixed node order with
elementwise numpy ops, never through BLAS, so a segment's integral has the
same bits whichever BLAS kernel is loaded and however many segments share
the call.  Each rule's weights are normalised once so that their sum in
that order is exactly 2: constant integrands integrate exactly.

Nodes are evaluated in blocks of at most _BLOCK_NODES.  The block size is
invisible in the bits only if the integrand is elementwise in w and never
multiplies by a temporary right operand (`s * g(s)`): numpy may evaluate
such a product in place in the temporary, with the operands swapped, once
the block is large (256 KiB or more), and its SIMD complex multiply is not
bitwise commutative.  Bind the factor to a name first.

`integrate_path` runs the `rule`'s order on every panel.
`antiderivative_on_grid` evaluates F(r) = int_{base}^{r} f(w) dw at every
grid node using a fixed path family (horizontal-then-vertical segments for
rectangles, radial-then-angular sweeps for annuli) with cumulative chaining
along each axis.  Each chain runs the smallest order in _CHAIN_ORDERS,
capped by the `rule`'s order, whose Gauss error bound on the Bernstein
ellipse through the nearest declared singularity is negligible (see
`_chain_order`); a chain with no declared singularity runs the `rule`'s
order.  For holomorphic f the values are path independent on simply
connected domains; on annuli the fixed family makes multivalued
antiderivatives (log, fractional powers) pick a consistent branch, because
path integration continues the branch automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grids import ParamGrid
from .stencils import fixed_order_dot

RULES = {"gauss_legendre_16": 16, "gauss_legendre_32": 32}
DEFAULT_RULE = "gauss_legendre_32"
EXCLUSION_FRACTION = 1e-3  # default exclusion radius = fraction * path length
_ARC_MAX_STEP = 0.2        # max angular chord (radians) on annulus sweeps
_BLOCK_NODES = 1 << 17     # quadrature nodes evaluated per integrand call
_CHAIN_ORDERS = (8, 16, 32)  # Gauss-Legendre orders a grid chain may run
# Gauss error bound a chain's order must meet, per unit of max |f| on the
# ellipse; that maximum is unknown, and six decades below round-off keep
# poles up to order 6 at the 32-point rule's accuracy
_CHAIN_TOL = 1e-22


class QuadratureError(ValueError):
    pass


class PathNearSingularity(QuadratureError):
    pass


@dataclass(frozen=True)
class PathSpec:
    """Polyline integration path: waypoints plus a per-segment panel count."""

    waypoints: tuple[complex, ...]
    panels: int = 1

    def __post_init__(self):
        wp = tuple(complex(w) for w in self.waypoints)
        if len(wp) < 2:
            raise QuadratureError("path needs at least two waypoints")
        if not all(np.isfinite([w.real for w in wp]) & np.isfinite([w.imag for w in wp])):
            raise QuadratureError("waypoints must be finite")
        for a, b in zip(wp, wp[1:]):
            if a == b:
                raise QuadratureError("consecutive waypoints must be distinct")
        if self.panels < 1:
            raise QuadratureError("panel count must be positive")
        object.__setattr__(self, "waypoints", wp)

    @property
    def length(self) -> float:
        return float(sum(abs(b - a) for a, b in zip(self.waypoints, self.waypoints[1:])))


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


def _rule_order(rule: str) -> int:
    try:
        return RULES[rule]
    except KeyError:
        raise QuadratureError(f"unknown rule {rule!r}; choose from {sorted(RULES)}") from None


def _segment_singularity_distance(z0: np.ndarray, z1: np.ndarray,
                                  sing: complex) -> np.ndarray:
    delta = z1 - z0
    d2 = np.abs(delta) ** 2
    tau = np.real(np.conj(delta) * (sing - z0)) / np.where(d2 > 0, d2, 1.0)
    tau = np.clip(tau, 0.0, 1.0)
    return np.abs(z0 + tau * delta - sing)


def check_clearance(z0: np.ndarray, z1: np.ndarray, singularities,
                    radius: float) -> None:
    if radius <= 0 or not len(singularities):
        return
    for s in singularities:
        d = _segment_singularity_distance(np.asarray(z0), np.asarray(z1), complex(s))
        if np.any(d < radius):
            raise PathNearSingularity(
                f"integration path passes within {radius:.3g} of singularity {s}")


def _eval_checked(f, z: np.ndarray) -> np.ndarray:
    fz = np.asarray(f(z), dtype=complex)
    if fz.shape[-z.ndim:] != z.shape:
        fz = np.broadcast_to(fz, fz.shape[:-z.ndim] + z.shape) if fz.ndim >= z.ndim \
            else np.broadcast_to(fz, z.shape)
    if not np.all(np.isfinite(fz)):
        raise QuadratureError("integrand returned non-finite values on the path")
    return fz


def _segment_integrals(f, z0: np.ndarray, z1: np.ndarray, order: int) -> np.ndarray:
    """Gauss-Legendre integral over each straight segment z0[k] -> z1[k].

    z0, z1 have shape (...,); f may return extra leading axes (vector-valued
    integrands).  Result shape: f-leading-axes + z0.shape.

    Segments are evaluated in blocks of at most _BLOCK_NODES quadrature
    nodes, each written into one preallocated result, so memory stays
    bounded whatever the grid.  The module docstring gives the conditions
    on f that keep the block size invisible in the result's bits.
    """
    xi, w = _gl_rule(order)
    t = 0.5 * (xi + 1.0)
    shape = np.shape(z0)
    z0 = np.asarray(z0, dtype=complex).reshape(-1)
    delta = np.asarray(z1, dtype=complex).reshape(-1) - z0
    step = max(1, _BLOCK_NODES // order)
    out = None
    for lo in range(0, max(z0.size, 1), step):  # one pass even with no segments
        d = delta[lo:lo + step]
        nodes = z0[None, lo:lo + step] + np.multiply.outer(t, d)
        acc = fixed_order_dot(w, np.moveaxis(_eval_checked(f, nodes), -2, 0))
        if out is None:
            out = np.empty(acc.shape[:-1] + z0.shape, dtype=complex)
        np.multiply(acc, 0.5 * d, out=out[..., lo:lo + step])
    return out.reshape(out.shape[:-1] + shape)


def integrate_path(f, path: PathSpec, rule: str = DEFAULT_RULE,
                   singularities=(), exclusion_radius: float | None = None):
    """Integral of f along the path; deterministic for fixed configuration."""
    order = _rule_order(rule)
    if exclusion_radius is None:
        exclusion_radius = EXCLUSION_FRACTION * path.length
    total = None
    for a, b in zip(path.waypoints, path.waypoints[1:]):
        check_clearance(np.asarray([a]), np.asarray([b]), singularities, exclusion_radius)
        cuts = np.linspace(a, b, path.panels + 1)
        seg = _segment_integrals(f, cuts[:-1], cuts[1:], order).sum(axis=-1)
        total = seg if total is None else total + seg
    if np.ndim(total) == 0:
        return complex(total)
    return total


def integrate_path_with_error(f, path: PathSpec, rule: str = DEFAULT_RULE,
                              singularities=(), exclusion_radius: float | None = None):
    """(value, error_estimate) via panel doubling; value uses doubled panels."""
    coarse = integrate_path(f, path, rule, singularities, exclusion_radius)
    fine = integrate_path(f, PathSpec(path.waypoints, 2 * path.panels), rule,
                          singularities, exclusion_radius)
    return fine, float(np.max(np.abs(np.asarray(fine) - np.asarray(coarse))))


# ---------------------------------------------------------------------------
# grid antiderivatives via cumulative chains
# ---------------------------------------------------------------------------

def _chain_order(z0: np.ndarray, z1: np.ndarray, singularities, cap: int) -> int:
    """Smallest order in _CHAIN_ORDERS, at most `cap`, that the chain needs.

    For a segment with midpoint m and half-length h, a singularity s lies on
    the Bernstein ellipse of parameter rho = |u + sqrt(u-1) sqrt(u+1)|,
    u = (s - m) / h.  The n-point Gauss error is at most
    (64/15) M rho^(-2n) / (rho^2 - 1) (Trefethen, ATAP Thm 19.3), so the
    smallest rho over the chain's segments and the declared singularities
    picks the order.  With no declared singularity the analyticity radius
    is unknown and the chain keeps `cap`.
    """
    half = 0.5 * (z1 - z0)
    nonzero = half != 0
    if not len(singularities) or not np.any(nonzero):
        return cap
    mid, half = 0.5 * (z0 + z1)[nonzero], half[nonzero]
    rho = np.inf
    for s in singularities:
        u = (complex(s) - mid) / half
        rho = min(rho, float(np.min(np.abs(u + np.sqrt(u - 1) * np.sqrt(u + 1)))))
    for n in _CHAIN_ORDERS:
        if n >= cap:
            break
        if rho > 1 and 64 / 15 * rho ** -(2 * n) / (rho * rho - 1) < _CHAIN_TOL:
            return n
    return cap


def _cumulative_chain(f, points: np.ndarray, base_index: int, order: int,
                      singularities, radius: float) -> np.ndarray:
    """Integral from points[base_index] to points[k], for every k.

    points: (m,) or (m, B) waypoints traversed in order (column-wise chains
    for the 2-D case).  The chain axis stays at position -points.ndim of the
    result, preceded by any leading axes a vector-valued integrand returns.
    """
    z0, z1 = points[:-1], points[1:]
    if points.ndim == 1:
        keep = np.abs(z1 - z0) > 0
    else:
        keep = np.any(np.abs(z1 - z0) > 0, axis=tuple(range(1, points.ndim)))
    check_clearance(z0[keep], z1[keep], singularities, radius)
    order = _chain_order(z0[keep], z1[keep], singularities, order)
    ax = -points.ndim  # chain axis, counted from the end
    if np.any(keep):
        vals = _segment_integrals(f, z0[keep], z1[keep], order)
        lead = vals.shape[:vals.ndim + ax]
    else:
        vals, lead = None, ()
    segs = np.zeros(lead + z0.shape, dtype=complex)
    if vals is not None:
        np.moveaxis(segs, ax, 0)[keep] = np.moveaxis(vals, ax, 0)
    cums = np.zeros(lead + points.shape, dtype=complex)
    np.moveaxis(cums, ax, 0)[1:] = np.cumsum(np.moveaxis(segs, ax, 0), axis=0)
    shifted = np.moveaxis(cums, ax, 0) - np.moveaxis(cums, ax, 0)[base_index]
    return np.moveaxis(shifted, 0, ax)


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
                           rule: str = DEFAULT_RULE,
                           exclusion_radius: float | None = None,
                           conjugate_plane: bool = False) -> np.ndarray:
    """int_{base}^{node} f(w) dw for every node of `grid`.

    Paths run axis-by-axis from the base point: horizontal then vertical for
    rectangles, radial then angular for annuli.  `rule` caps the
    Gauss-Legendre order of each chain, which `_chain_order` picks from the
    declared singularities.  With conjugate_plane=True the
    whole construction (base, nodes, paths) is conjugated, which evaluates
    int_{conj(base)}^{conj(node)} f(s) ds for integrands of the conjugate
    variable.
    """
    order = _rule_order(rule)
    base = complex(base)

    if grid.kind == "rectangle":
        a1, a2 = grid.axis1, grid.axis2
        b1, b2 = base.real, base.imag
        r1v, i1 = _insert_sorted(a1, b1)
        r2v, i2 = _insert_sorted(a2, b2)
        if exclusion_radius is None:
            length = (r1v[-1] - r1v[0]) + (r2v[-1] - r2v[0])
            exclusion_radius = EXCLUSION_FRACTION * length
        conj_sign = -1.0 if conjugate_plane else 1.0
        # horizontal chain at height b2
        hpts = r1v + 1j * conj_sign * b2
        hcum = _cumulative_chain(f, hpts, i1, order, singularities, exclusion_radius)
        hsel = hcum[..., np.searchsorted(r1v, a1)]
        # vertical chains over every column simultaneously
        vpts = a1[None, :] + 1j * conj_sign * r2v[:, None]
        vcum = _cumulative_chain(f, vpts, i2, order, singularities, exclusion_radius)
        vsel = vcum[..., np.searchsorted(r2v, a2), :]
        return hsel[..., :, None] + np.moveaxis(vsel, -2, -1)

    rho_b, psi_b = abs(base), float(np.angle(base))
    if rho_b == 0:
        raise QuadratureError("annulus sweeps need a nonzero base point")
    rhos, ir = _insert_sorted(grid.axis1, rho_b)
    psis_raw, _ = _insert_sorted(grid.axis2, psi_b)
    psis = _subdivide(psis_raw, _ARC_MAX_STEP)
    ip = int(np.searchsorted(psis, psi_b))
    if exclusion_radius is None:
        length = (rhos[-1] - rhos[0]) + rhos[-1] * (psis[-1] - psis[0])
        exclusion_radius = EXCLUSION_FRACTION * length
    conj_sign = -1.0 if conjugate_plane else 1.0
    # radial chain at angle psi_b
    rpts = rhos * np.exp(1j * conj_sign * psi_b)
    rcum = _cumulative_chain(f, rpts, ir, order, singularities, exclusion_radius)
    rsel = rcum[..., np.searchsorted(rhos, grid.axis1)]
    # angular chains (polyline chords along each circle), one per grid radius
    apts = grid.axis1[None, :] * np.exp(1j * conj_sign * psis[:, None])
    acum = _cumulative_chain(f, apts, ip, order, singularities, exclusion_radius)
    asel = acum[..., np.searchsorted(psis, grid.axis2), :]
    return rsel[..., :, None] + np.moveaxis(asel, -2, -1)


__all__ = [
    "DEFAULT_RULE", "PathNearSingularity", "PathSpec", "QuadratureError",
    "antiderivative_on_grid", "integrate_path", "integrate_path_with_error",
]
