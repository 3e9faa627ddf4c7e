"""Oracles and fixtures that only the tests use.

The program never calls these: they build test inputs, or give a
reference that a test compares the program's output with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from wesurf.catalog import singularity_points
from wesurf.family import _cos_sin
from wesurf.generate import GenerateError, WEData, _integrand, _node_derivatives
from wesurf.geometry import ThetaInvarianceReport
from wesurf.grids import (ParamGrid, SurfaceGrid, array_derivative, cauchy_riemann_jacs,
                          surface_jacobian)
from wesurf.hodograph import REAL_IMAG_TOL, FGPair, HodographError, fg_integrals
from wesurf.io_export import _faces
from wesurf import quadrature
from wesurf.pde import (DEFAULT_COND_CUTOFF, DET_FLOOR, LorentzBoost, NonparametricPatch,
                        _dilate, boost, born_infeld_residual, chain_rule_partials,
                        minimal_surface_residual, wick_substitute)
from wesurf.reports import ResidualReport
from wesurf.quadrature import (_CHAIN_ORDERS, PathNearSingularity, _joukowski_rho, _order_for,
                               _segment_singularity_distance, antiderivative_on_grid)
from wesurf.stencils import axis_derivative


@dataclass(frozen=True)
class ComplexSurface:
    """A sampled complex surface (x, t, phi) with SurfaceGrid's fields and
    readers, not validated: the complex-arithmetic reference for S_theta =
    X_theta^s, which the program holds as its real member plus the Wick
    rule.  `chain_rule_partials`, `surface_jacobian` and `fundamental_form`
    run on it in complex arithmetic."""

    grid: ParamGrid
    values: np.ndarray
    jac: np.ndarray | None = None
    jac2: np.ndarray | None = None
    meta: dict = field(default_factory=dict)
    x = property(lambda self: self.values[0])
    t = property(lambda self: self.values[1])
    phi = property(lambda self: self.values[2])


def surface_from_components(grid: ParamGrid, x, t, phi,
                            jac=None, jac2=None, meta=None) -> SurfaceGrid:
    values = np.stack([np.asarray(x, dtype=complex),
                       np.asarray(t, dtype=complex),
                       np.asarray(phi, dtype=complex)])
    return SurfaceGrid(grid, values, jac, jac2, meta or {})


def with_values(surface, values, jac=None, jac2=None):
    """The same kind of surface, grid and meta with new arrays.

    Omitted jac and jac2 mean none, since the surface's derivatives belong
    to its old values.
    """
    return type(surface)(surface.grid, values, jac, jac2, dict(surface.meta))


def surface_rows(surface, i: int, j: int):
    """Rows i..j-1 of a surface and of its derivatives (`ParamGrid.rows`)."""
    band = np.s_[..., i:j, :]
    jac, jac2 = (None if z is None else z[band] for z in (surface.jac, surface.jac2))
    return type(surface)(surface.grid.rows(i, j), surface.values[band], jac, jac2,
                         dict(surface.meta))


def check_reality(pair: FGPair, samples, tol: float = 1e-12) -> float:
    """Max defect of F(r) = conj(G(conj r)) on a sample cloud; raises if the
    pair claims the constraint but violates it."""
    s = np.asarray(samples, dtype=complex)
    defect = float(np.max(np.abs(pair.F(s) - np.conj(pair.G(np.conj(s))))))
    if pair.reality_constraint and defect > tol:
        raise HodographError(
            f"FG pair {pair.label or '?'} claims reality but defect is {defect:.3g}")
    return defect


def fg_integrals_two_sweeps(pair: FGPair, grid: ParamGrid, base: complex,
                            singularities=()) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`hodograph.fg_integrals` with both grid sweeps run explicitly: F' on
    the plane and G' on the conjugate plane, whatever the pair claims."""
    r = grid.nodes()

    def weighted(deriv):
        def f(s):
            d = deriv(s)
            out = np.empty((2,) + s.shape, dtype=complex)
            np.multiply(s ** 2, d, out=out[0])
            np.multiply(s, d, out=out[1])
            return out
        return f

    A, P = antiderivative_on_grid(weighted(pair.Fp), base, grid, singularities)
    B, Q = antiderivative_on_grid(weighted(pair.Gp), base, grid, singularities,
                                  conjugate_plane=True)
    return pair.F(r) - B, pair.G(np.conj(r)) - A, P + Q


def surface_from_fg(pair: FGPair, grid: ParamGrid, base: complex,
                    offsets=(0.0, 0.0, 0.0), singularities=()) -> SurfaceGrid:
    """The surface of an FG pair on `grid`, from the three relations of
    `hodograph.fg_integrals`, with its analytic first derivatives.

    The four indefinite integrals are taken from `base` (so they vanish
    there); comparisons against other parametrizations should calibrate
    offsets at the base node.  Output is real when every imaginary part is
    within REAL_IMAG_TOL of its real part's scale, as the reality constraint
    makes it: the real parts of values and jac are then kept, float64.
    Otherwise the components are complex (`ComplexSurface`).
    """
    base = complex(base)
    r = grid.nodes()
    rb = np.conj(r)
    M, N, phi = fg_integrals(pair, grid, base, singularities)  # x -+ i t, phi
    x = 0.5 * (M + N) + offsets[0]
    t = 0.5j * (M - N) + offsets[1]
    phi = phi + offsets[2]

    fp, gp = pair.Fp(r), pair.Gp(rb)
    dM = np.stack([fp - rb ** 2 * gp, 1j * (fp + rb ** 2 * gp)])
    dN = np.stack([gp - r ** 2 * fp, -1j * (gp + r ** 2 * fp)])
    jac = np.empty((3, 2) + grid.shape, dtype=complex)
    jac[0] = 0.5 * (dM + dN)
    jac[1] = 0.5j * (dM - dN)
    jac[2] = np.stack([r * fp + rb * gp, 1j * (r * fp - rb * gp)])

    values = np.stack([x, t, phi])
    imag_ok = np.all(np.abs(values.imag) <= REAL_IMAG_TOL * (1 + np.abs(values.real)))
    if pair.reality_constraint and not imag_ok:
        raise HodographError(
            "FG pair claims the reality constraint but produced complex output")
    meta = {"surface": f"fg:{pair.label}", "base": base}
    if imag_ok:
        return SurfaceGrid(grid, values.real, jac.real, None, meta)
    return ComplexSurface(grid, values, jac, None, meta)


def wick_rotate(s) -> ComplexSurface:
    """t -> i t on a copy of s in complex arrays, x and phi unchanged, for
    any surface, its jac and jac2 included: the complex S = X^s of a real
    member X, whose values have the bits of `family.wick_rotate(X).values`.
    Applying it twice negates t, up to the signs of exact zeros."""
    def rotate(a):
        if a is None:
            return None
        out = np.empty(a.shape, complex)
        out[0], out[2] = a[0], a[2]
        np.multiply(1j, a[1], out=out[1])  # 1j first: SIMD complex * is not commutative
        return out

    return ComplexSurface(s.grid, rotate(s.values), rotate(getattr(s, "jac", None)),
                          rotate(getattr(s, "jac2", None)), dict(s.meta))


def eager_member(fam, theta: float) -> SurfaceGrid:
    """The real member of `fam.at(theta)` built whole at once: its values,
    jac and jac2 from one read of the family's derivative source, by the
    family's own rule (`SolitonFamily._real_array`), each validated when
    the surface is made."""
    c, s = _cos_sin(theta)

    def combine(sx, x, sy, y, out):
        np.add(np.multiply(sx * c, x, out=out), (sy * s) * y, out=out)

    parts = (fam.values, *fam.derivatives(slice(None)))
    return SurfaceGrid(fam.grid, *(fam._real_array(name, z, combine)
                                   for name, z in zip(("values", "jac", "jac2"), parts)))


def member_residuals(fam, theta: float,
                     lb: LorentzBoost) -> tuple[ResidualReport, ResidualReport]:
    """family-verify's per-theta route to its PDE columns, the reference for
    the route that combines X's and Y's residuals: S_theta's real member,
    its analytic chain-rule patch and minimal residual (S_theta's
    Born-Infeld residual, by the Wick identity), then the Wick
    substitution, the boost and the Born-Infeld residual of the boosted
    patch.  Nodewise, so the whole member gives each band's bits."""
    patch = chain_rule_partials(fam.at(theta).member, second_source="analytic")
    return (minimal_surface_residual(patch),
            born_infeld_residual(boost(wick_substitute(patch), lb)))


def chain_rule_partials_expr(s, second_source: str,
                             cond_cutoff: float = DEFAULT_COND_CUTOFF) -> NonparametricPatch:
    """`pde.chain_rule_partials` in the expression form it had before its
    sums were formed in place: numpy temporaries, whose elision for
    operands of 256 KiB or more decides where each result is written.  The
    reference for the in-place form's bits; accuracy 2, first derivatives
    from `s.jac` when it has them."""
    jac = surface_jacobian(s, "auto", 2)
    (x1, x2), (t1, t2), (p1, p2) = jac
    det = x1 * t2 - x2 * t1
    bad = np.abs(det) < DET_FLOOR
    det_safe = np.where(bad, 1.0, det)
    norm_j = np.maximum(np.abs(x1) + np.abs(x2), np.abs(t1) + np.abs(t2))
    norm_inv = np.maximum(np.abs(t2) + np.abs(x2), np.abs(t1) + np.abs(x1)) / np.abs(det_safe)
    bad |= norm_j * norm_inv > cond_cutoff
    inv = 1.0 / det_safe

    def solve(f1, f2):
        return (t2 * f1 - t1 * f2) * inv, (x1 * f2 - x2 * f1) * inv

    phi_x, phi_t = solve(p1, p2)
    if second_source == "analytic":
        (x11, x12, x22), (t11, t12, t22), (p11, p12, p22) = s.jac2
        partials = []
        for dx1, dx2, dt1, dt2, dp1, dp2 in ((x11, x12, t11, t12, p11, p12),
                                             (x12, x22, t12, t22, p12, p22)):
            ddet = dx1 * t2 + x1 * dt2 - dx2 * t1 - x2 * dt1
            dnum_x = dt2 * p1 + t2 * dp1 - dt1 * p2 - t1 * dp2
            dnum_t = dx1 * p2 + x1 * dp2 - dx2 * p1 - x2 * dp1
            partials.append(((dnum_x - phi_x * ddet) * inv,
                             (dnum_t - phi_t * ddet) * inv))
        (a1, b1), (a2, b2) = partials
        valid = ~bad
    else:
        a1 = array_derivative(s.grid, phi_x, "r1", 1, 2)
        a2 = array_derivative(s.grid, phi_x, "r2", 1, 2)
        b1 = array_derivative(s.grid, phi_t, "r1", 1, 2)
        b2 = array_derivative(s.grid, phi_t, "r2", 1, 2)
        valid = ~_dilate(bad, 3)
    phi_xx, phi_xt_a = solve(a1, a2)
    phi_tx_b, phi_tt = solve(b1, b2)
    return NonparametricPatch(x=s.x, t=s.t, phi=s.phi, phi_x=phi_x, phi_t=phi_t,
                              phi_xx=phi_xx, phi_xt=0.5 * (phi_xt_a + phi_tx_b),
                              phi_tt=phi_tt, valid_mask=valid)


def theta_derivative(fam, theta: float, order: int):
    """d^order S_theta / d theta^order = S at theta + order * pi/2, the order
    reduced mod 4 first: order 4 gives S_theta bit for bit."""
    return fam.at(theta + (order % 4) * (0.5 * math.pi))


def change_of_variables_action(patch: NonparametricPatch, s: SurfaceGrid) -> float:
    """The action in the (x, t) chart: int sqrt(1 + phi_x^2 - phi_t^2) |det J|
    dr1 dr2 over s's grid, J = d(x, t)/d(r1, r2) from s's analytic jac and
    `patch` from the same grid.  Agrees with `geometry.action` of the real
    member's form wherever the (x, t) chart is a diffeomorphism."""
    (x1, x2), (t1, t2) = s.jac[0], s.jac[1]
    integrand = np.sqrt(1.0 + patch.phi_x ** 2 - patch.phi_t ** 2)
    vals = np.abs(integrand) * np.abs(x1 * t2 - x2 * t1)
    vals = np.where(patch.valid_mask, vals, 0.0)
    return float(np.sum(vals * s.grid.area_weights()))


def max_deviation(report: ThetaInvarianceReport) -> float:
    """The largest E or G deviation of a theta sweep (NaN if any is)."""
    return float(np.max([report.e_devs, report.g_devs]))


def quad_triangles(n1: int, n2: int) -> list[tuple[int, int, int]]:
    """Two triangles per grid quad, vertices in row-major order, 0-based."""
    return list(map(tuple, _faces(n1, n2).tolist()))


_GRAPH_FIELDS = ("phi", "phi_x", "phi_t", "phi_xx", "phi_xt", "phi_tt")


def graph_patch(x: np.ndarray, t: np.ndarray, fns: dict) -> NonparametricPatch:
    """Patch from closed-form callables phi, phi_x, ..., sampled on (x, t).

    `fns` maps the field names to callables of (x, t); all six derivative
    entries are required.
    """
    data = {k: np.asarray(fns[k](x, t), dtype=complex) for k in _GRAPH_FIELDS}
    mask = np.ones(np.shape(data["phi"]), dtype=bool)
    return NonparametricPatch(x=np.asarray(x, dtype=complex),
                              t=np.asarray(t, dtype=complex),
                              valid_mask=mask, **data)


def wick_catenoid_graph_fns() -> dict:
    """phi = arccosh sqrt(x^2 - t^2): the Wick-rotated catenoid, a real
    Born-Infeld solution on x^2 - t^2 > 1."""
    def p(x, t):
        return x ** 2 - t ** 2

    def D(x, t):
        return np.sqrt(p(x, t) ** 2 - p(x, t))

    return {
        "phi": lambda x, t: np.arccosh(np.sqrt(np.real(p(x, t)))),
        "phi_x": lambda x, t: x / D(x, t),
        "phi_t": lambda x, t: -t / D(x, t),
        "phi_xx": lambda x, t: 1 / D(x, t) - x ** 2 * (2 * p(x, t) - 1) / D(x, t) ** 3,
        "phi_xt": lambda x, t: x * t * (2 * p(x, t) - 1) / D(x, t) ** 3,
        "phi_tt": lambda x, t: -1 / D(x, t) - t ** 2 * (2 * p(x, t) - 1) / D(x, t) ** 3,
    }


def catenoid_graph_fns() -> dict:
    """phi = arccosh sqrt(x^2 + t^2), valid on x^2 + t^2 > 1."""
    def q(x, t):
        return x ** 2 + t ** 2

    def D(x, t):
        return np.sqrt(q(x, t) ** 2 - q(x, t))

    return {
        "phi": lambda x, t: np.arccosh(np.sqrt(np.real(q(x, t)))),
        "phi_x": lambda x, t: x / D(x, t),
        "phi_t": lambda x, t: t / D(x, t),
        "phi_xx": lambda x, t: 1 / D(x, t) - x ** 2 * (2 * q(x, t) - 1) / D(x, t) ** 3,
        "phi_xt": lambda x, t: -x * t * (2 * q(x, t) - 1) / D(x, t) ** 3,
        "phi_tt": lambda x, t: 1 / D(x, t) - t ** 2 * (2 * q(x, t) - 1) / D(x, t) ** 3,
    }


def finite_everywhere(a) -> bool:
    """The test every array gate applied before they shared
    `stencils.all_finite`: np.isfinite on each entry, real and imaginary
    parts alike."""
    return bool(np.all(np.isfinite(a)))


def finite_where_retained(fields, valid_mask) -> bool:
    """`NonparametricPatch`'s former test: every field finite at the nodes
    valid_mask retains, anything at the dropped ones."""
    return all(np.all(np.isfinite(a), where=valid_mask) for a in fields)


def t_reflect(p: NonparametricPatch) -> NonparametricPatch:
    """t -> -t, under which the Born-Infeld equation is invariant."""
    return NonparametricPatch(x=p.x.copy(), t=-p.t, phi=p.phi.copy(),
                              phi_x=p.phi_x.copy(), phi_t=-p.phi_t,
                              phi_xx=p.phi_xx.copy(), phi_xt=-p.phi_xt,
                              phi_tt=p.phi_tt.copy(), valid_mask=p.valid_mask.copy())


# ---------------------------------------------------------------------------
# the conjugate pair assembled as two surfaces
# ---------------------------------------------------------------------------

def _phi(data: WEData, grid: ParamGrid) -> np.ndarray:
    return antiderivative_on_grid(_integrand(data.R), data.base, grid,
                                  singularities=singularity_points(data.R))


def _complex_values(data: WEData, phi: np.ndarray, part: str) -> np.ndarray:
    """Re(Phi) (part "re") or Im(Phi) (part "im") plus the offsets, t negated
    under flip_t, assembled in complex arithmetic: the imaginary parts are
    signed zeros, -0 in a flipped t."""
    values = (phi.real if part == "re" else phi.imag).astype(complex)
    values[0] += data.offsets[0]
    values[1] += data.offsets[1]
    values[2] += data.offsets[2]
    if data.flip_t:
        values[1] = -values[1]
    return values


def rotated_values(data: WEData, grid: ParamGrid, phase: complex) -> np.ndarray:
    """The values of the W-E surface of phase * R, integrated as its own
    integrand: Re of the rotated triple plus the offsets, t negated under
    flip_t.  At phase -i this is the harmonic conjugate R -> -i R, which
    the program takes as Im of R's own triple instead."""
    f = _integrand(data.R)

    def rotated(w):
        out = f(w)
        out *= phase
        return out

    phi = antiderivative_on_grid(rotated, data.base, grid,
                                 singularities=singularity_points(data.R))
    values = phi.real + np.array(data.offsets)[:, None, None]
    if data.flip_t:
        values[1] = -values[1]
    return values


def pair_values(data: WEData, grid: ParamGrid) -> tuple[np.ndarray, np.ndarray]:
    """The values of (X, Y) = (Re Phi, Im Phi) as complex arrays, the layout
    a real surface had before it was stored as float64: the reference for
    the writers' columns, imaginary ones included."""
    phi = _phi(data, grid)
    return _complex_values(data, phi, "re"), _complex_values(data, phi, "im")


def _assemble(data: WEData, grid: ParamGrid, phi, dphi, ddphi, part: str) -> SurfaceGrid:
    """The surface Re(Phi) (part "re") or its conjugate Im(Phi) (part "im")."""
    jac, jac2 = cauchy_riemann_jacs(dphi, ddphi, (part,) * 3)
    if data.flip_t:
        jac[1] = -jac[1]
        jac2[1] = -jac2[1]
    meta = {"surface": data.R.id, "base": data.base, "conjugate": part == "im",
            "flip_t": data.flip_t}
    return SurfaceGrid(grid, _complex_values(data, phi, part), jac, jac2, meta)


def complex_of(parts) -> np.ndarray:
    """The complex array whose real and imaginary parts are the float
    arrays `parts` = (re, im), bit for bit."""
    z = np.empty(parts[0].shape, complex)
    z.real, z.imag = parts
    return z


def pair_members(data: WEData, grid: ParamGrid) -> tuple[SurfaceGrid, SurfaceGrid]:
    """(X, Y) = (Re Phi, Im Phi) as two real surfaces, every derivative slot
    by `cauchy_riemann_jacs`: the reference for the packed family of
    `generate_conjugate_pair`, which builds its slots by `_SLOT_PARTS`.
    """
    phi = _phi(data, grid)
    # the d/dr1 slots Phi', Phi'' of the whole grid, t not negated
    dphi, ddphi = (complex_of(z)[:, 0] for z in _node_derivatives(data.R, grid, False,
                                                                  slice(None)))
    return (_assemble(data, grid, phi, dphi, ddphi, "re"),
            _assemble(data, grid, phi, dphi, ddphi, "im"))


def chain_order_direct(z0: np.ndarray, z1: np.ndarray, singularities,
                       radius: float) -> int:
    """The grid quadrature's clearance check and chain order in their direct
    forms: the projection distance from every segment to every singularity,
    then the Joukowski rho of every moving segment.  The reference for the
    fused distance pass of `quadrature._chain_order`."""
    for s in singularities:
        if np.any(_segment_singularity_distance(z0, z1, complex(s)) < radius):
            raise PathNearSingularity(
                f"integration path passes within {radius:.3g} of singularity {s}")
    if not len(singularities) or not np.any(z1 != z0):
        return _CHAIN_ORDERS[-1]
    return _order_for(_joukowski_rho(z0, z1, singularities))


def cumulative_chain_columns(f, points: np.ndarray, base_index: int, singularities,
                              radius: float) -> np.ndarray:
    """Integral from points[base_index] to points[k] for every k, along axis 0
    of (m,) or (m, B) points; leading integrand axes come first."""
    z0, z1 = points[:-1], points[1:]
    keep = z1 != z0
    if points.ndim > 1:
        keep = np.any(keep, axis=tuple(range(1, points.ndim)))
    every = bool(np.all(keep))
    if not every:
        z0, z1 = z0[keep], z1[keep]
    order = quadrature._chain_order(z0, z1, singularities, radius)
    if not len(z0):
        return np.zeros(points.shape, dtype=complex)
    ax = -points.ndim  # chain axis, counted from the end
    vals = quadrature._segment_integrals(f, z0, z1, order)
    out = np.empty(vals.shape[:vals.ndim + ax] + points.shape, dtype=complex)
    segs = np.moveaxis(vals, ax, 0)
    if not every:
        segs = np.zeros((len(keep),) + segs.shape[1:], dtype=complex)
        segs[keep] = np.moveaxis(vals, ax, 0)
    cums = np.moveaxis(out, ax, 0)
    cums[0] = 0
    np.cumsum(segs, axis=0, out=cums[1:])
    cums -= cums[base_index].copy()
    return out


def antiderivative_on_grid_columns(f, base: complex, grid: ParamGrid, singularities=(),
                                   conjugate_plane: bool = False) -> np.ndarray:
    """`quadrature.antiderivative_on_grid` with the chains as columns of
    whole-family arrays: every chain family's segment integrals, cumulative
    sums and selected nodes are grid-sized arrays, and the two families are
    summed through a transpose.  The byte reference for the streamed
    route."""
    base = complex(base)
    conj_sign = -1.0 if conjugate_plane else 1.0
    if grid.kind == "rectangle":
        a1, a2 = grid.axis1, grid.axis2
        b1, b2 = base.real, base.imag
        r1v, i1 = quadrature._insert_sorted(a1, b1)
        r2v, i2 = quadrature._insert_sorted(a2, b2)
        radius = quadrature.EXCLUSION_FRACTION * ((r1v[-1] - r1v[0]) + (r2v[-1] - r2v[0]))
        hcum = cumulative_chain_columns(f, r1v + 1j * conj_sign * b2, i1, singularities, radius)
        hsel = hcum[..., np.searchsorted(r1v, a1)]
        vpts = a1[None, :] + 1j * conj_sign * r2v[:, None]
        vcum = cumulative_chain_columns(f, vpts, i2, singularities, radius)
        vsel = vcum[..., np.searchsorted(r2v, a2), :]
        return hsel[..., :, None] + np.moveaxis(vsel, -2, -1)
    rho_b, psi_b = abs(base), float(np.angle(base))
    if rho_b == 0:
        raise quadrature.QuadratureError("annulus sweeps need a nonzero base point")
    rhos, ir = quadrature._insert_sorted(grid.axis1, rho_b)
    psis_raw, _ = quadrature._insert_sorted(grid.axis2, psi_b)
    psis = quadrature._subdivide(psis_raw, quadrature._ARC_MAX_STEP)
    ip = int(np.searchsorted(psis, psi_b))
    radius = quadrature.EXCLUSION_FRACTION * ((rhos[-1] - rhos[0])
                                              + rhos[-1] * (psis[-1] - psis[0]))
    rpts = rhos * np.exp(1j * conj_sign * psi_b)
    rcum = cumulative_chain_columns(f, rpts, ir, singularities, radius)
    rsel = rcum[..., np.searchsorted(rhos, grid.axis1)]
    apts = grid.axis1[None, :] * np.exp(1j * conj_sign * psis[:, None])
    acum = cumulative_chain_columns(f, apts, ip, singularities, radius)
    asel = acum[..., np.searchsorted(psis, grid.axis2), :]
    return rsel[..., :, None] + np.moveaxis(asel, -2, -1)


def complex_laplacian(grid: ParamGrid, z: np.ndarray, accuracy: int) -> np.ndarray:
    """The laplacian of a component in complex arithmetic, dividing by rho
    and rho**2 on polar grids: the route that real surfaces took when they
    were stored as complex arrays."""
    z = np.asarray(z, dtype=complex)
    f_11 = axis_derivative(z, grid.h1, 0, 2, accuracy)
    f_22 = axis_derivative(z, grid.h2, 1, 2, accuracy)
    if grid.kind == "rectangle":
        return f_11 + f_22
    rho, _, _ = grid.polar_factors()
    return f_11 + axis_derivative(z, grid.h1, 0, 1, accuracy) / rho + f_22 / rho ** 2


# ---------------------------------------------------------------------------
# rigid-motion calibration for oracle comparisons
# ---------------------------------------------------------------------------

@dataclass
class RigidAlignment:
    rotation: np.ndarray            # orthogonal 3x3 (may include reflections)
    shift: np.ndarray               # length-3 translation
    aligned: np.ndarray             # rotation @ target + shift, shape (3,n1,n2)
    max_deviation: float            # max |aligned - reference| over the grid
    base_index: tuple[int, int] = field(default=(0, 0))


def _frame_at(surface: SurfaceGrid, idx) -> tuple[np.ndarray, np.ndarray]:
    jac = surface_jacobian(surface, "auto")
    d = jac[:, :, idx[0], idx[1]].real
    n = np.cross(d[:, 0], d[:, 1])
    norm = float(np.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2]))
    if norm < 1e-14:
        raise GenerateError("degenerate tangent frame at the calibration node")
    return d, n / norm


def nearest_node(grid: ParamGrid, point: complex) -> tuple[int, int]:
    d = np.abs(grid.nodes() - complex(point))
    flat = int(np.argmin(d))
    return np.unravel_index(flat, grid.shape)


# The 3x3 algebra below is spelled out in elementwise numpy ops: `@`, `inv`
# and `svd` would run through BLAS/LAPACK, whose CPU kernel picks the
# summation order and with it the last bits of the alignment.

_POLAR_MAX_STEPS = 64
_POLAR_STEP_TOL = 1e-15  # stop once no entry of Q moves by more than this


def _apply3(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v for a 3x3 m and v of shape (3, ...), summed in the order k = 0, 1, 2."""
    col = (slice(None),) + (None,) * (v.ndim - 1)
    return m[:, 0][col] * v[0] + m[:, 1][col] * v[1] + m[:, 2][col] * v[2]


def _inv3(m: np.ndarray) -> np.ndarray | None:
    """Inverse of a 3x3 matrix by cofactors; None if it is singular."""
    cof = np.empty((3, 3))
    for i in range(3):
        i1, i2 = (i + 1) % 3, (i + 2) % 3
        for j in range(3):
            j1, j2 = (j + 1) % 3, (j + 2) % 3
            cof[i, j] = m[i1, j1] * m[i2, j2] - m[i1, j2] * m[i2, j1]
    det = m[0, 0] * cof[0, 0] + m[0, 1] * cof[0, 1] + m[0, 2] * cof[0, 2]
    if det == 0.0 or not np.isfinite(det):
        return None
    return cof.T / det


def _polar_factor(q: np.ndarray) -> np.ndarray:
    """Orthogonal polar factor of q (the nearest orthogonal matrix).

    Newton's iteration Q <- (Q + Q^-T) / 2 converges quadratically from any
    nonsingular start; it stops once a step moves no entry by more than
    _POLAR_STEP_TOL.
    """
    for _ in range(_POLAR_MAX_STEPS):
        inv = _inv3(q)
        if inv is None:
            break
        step = 0.5 * (q + inv.T)
        moved = float(np.max(np.abs(step - q)))
        q = step
        if moved <= _POLAR_STEP_TOL:
            return q
    raise GenerateError("orthogonal polar factor did not converge (singular map)")


def align_rigid(target: SurfaceGrid, reference: SurfaceGrid,
                base_index: tuple[int, int] | None = None) -> RigidAlignment:
    """Best rigid motion (orthogonal map + shift) taking target to reference.

    The map is pinned by matching position and tangent frame at one node;
    W-E output is unique only up to such a motion (integration constants and
    the catalog's orientation conventions).  The tangent frame leaves the
    normal sign ambiguous, so both candidates are formed and the one with the
    smaller global deviation wins.  Real surfaces only.
    """
    if target.grid != reference.grid:
        raise GenerateError("alignment requires a shared grid")
    if base_index is None:
        base = target.meta.get("base")
        base_index = nearest_node(target.grid, base) if base is not None else (0, 0)
    dt, nt = _frame_at(target, base_index)
    dr, nr = _frame_at(reference, base_index)
    st = target.values.real
    sr = reference.values.real
    p_t = st[:, base_index[0], base_index[1]]
    p_r = sr[:, base_index[0], base_index[1]]
    best = None
    for sign in (1.0, -1.0):
        m_t = np.column_stack([dt[:, 0], dt[:, 1], sign * nt])
        m_r = np.column_stack([dr[:, 0], dr[:, 1], nr])
        inv_t = _inv3(m_t)
        if inv_t is None:
            continue
        q = _polar_factor(_apply3(m_r, inv_t))
        shift = p_r - _apply3(q, p_t)
        aligned = _apply3(q, st) + shift[:, None, None]
        dev = float(np.max(np.abs(aligned - sr)))
        if best is None or dev < best.max_deviation:
            best = RigidAlignment(q, shift, aligned, dev, tuple(base_index))
    if best is None:
        raise GenerateError("could not build a rigid alignment (singular frames)")
    return best
