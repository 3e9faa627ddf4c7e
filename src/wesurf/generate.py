"""Surface generation from Weierstrass-Enneper data.

The three coordinate functions are real parts of one holomorphic triple

    Phi = ( int (1-w^2) R dw,  int i (1+w^2) R dw,  int 2 w R dw ),

so the harmonic conjugate surface (R -> -i R) is simply the imaginary parts
of the same triple.  `generate_conjugate_pair` therefore integrates once and
writes the pair straight into the packed values of a `SolitonFamily`
(X + i Y is Phi itself, up to offsets; its derivatives Phi' and Phi'' are
evaluated from R when read), which unpacks to the float64 surfaces (X, Y); the
pair satisfies the Cauchy-Riemann relations componentwise by construction,
which is what the soliton-family machinery relies on.  It is the one
construction: `generate` is its X, and the `generate` command writes its
X and Y.

Generated surfaces carry their exact first derivatives: d(Re Phi_k)/dr1 is
the integrand Phi_k'(r) evaluated at the node, no quadrature or finite
differences involved.  The values come from `antiderivative_on_grid` with
R's declared poles as singularities, so each quadrature chain runs the
lowest Gauss-Legendre order their distance allows, and an R without poles
(Enneper) runs the 32-point rule on every chain.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import catalog
from .catalog import WEFunction, eval_R, eval_R_deriv, singularity_points
from .family import SolitonFamily
from .grids import ParamGrid, SurfaceGrid, _row_bands
from .quadrature import antiderivative_on_grid


class GenerateError(ValueError):
    pass


@dataclass(frozen=True)
class WEData:
    """Generating data: R(w), integration base point, rigid offsets.

    flip_t negates the t component after generation (used for the Henneberg
    surface, whose conventional form reverses that axis); it is a property of
    the produced surface, not of R.
    """

    R: WEFunction
    base: complex = 0.0 + 0.0j
    offsets: tuple[float, float, float] = (0.0, 0.0, 0.0)
    flip_t: bool = False

    def __post_init__(self):
        object.__setattr__(self, "base", complex(self.base))
        if not np.isfinite(self.base):
            raise GenerateError(f"base point {self.base} is not finite")
        offs = tuple(float(v) for v in self.offsets)
        if len(offs) != 3 or not all(np.isfinite(offs)):
            raise GenerateError("offsets must be a finite real triple")
        object.__setattr__(self, "offsets", offs)
        for s in singularity_points(self.R):
            if abs(self.base - s) < 1e-12:
                raise GenerateError(f"base point {self.base} is a singularity of R")


def we_data(surface_id: str, base=None, offsets=(0.0, 0.0, 0.0),
            flip_t=None, **params) -> WEData:
    """WEData for a catalog id with the entry's default base and t-flip."""
    R = catalog.catalog_function(surface_id, **params)
    if base is None:
        base = catalog.default_base(surface_id)
    if flip_t is None:
        flip_t = catalog.default_flip_t(surface_id)
    return WEData(R, base, offsets, flip_t)


def _integrand(R: WEFunction):
    def f(w):
        rv = eval_R(R, w)
        w2 = w ** 2
        out = np.empty((3,) + w.shape, dtype=complex)
        np.multiply(1.0 - w2, rv, out=out[0])
        np.multiply(1j * (1.0 + w2), rv, out=out[1])
        np.multiply(2.0 * w, rv, out=out[2])
        return out
    return f


def _node_derivatives(R: WEFunction, grid: ParamGrid, flip_t: bool,
                      rows: slice) -> tuple[np.ndarray, np.ndarray]:
    """The packed jac and jac2 of the generated pair on grid rows `rows`:
    Phi'_k and Phi''_k, the exact holomorphic derivatives, each of shape
    (3, 1, rows, n2), with component 1 negated under flip_t.

    The nodes are `grid.nodes` of those rows of the whole grid, so a span
    gets the bits of the same rows of any other span.  One band of rows
    (`grids._row_bands`) is evaluated at a time, and the band's output rows
    serve as its scratch, so only r, R(r) and R'(r) are band-sized
    temporaries.  Every product is written with `out=`, or in place into its
    left operand, so its operand order, and its bits, do not depend on the
    band's size (README, Numerical notes).
    """
    start, stop, _ = rows.indices(grid.n1)
    dphi = np.empty((3, 1, stop - start, grid.n2), dtype=complex)
    ddphi = np.empty_like(dphi)
    for i, j in _row_bands(stop - start, grid.n2):
        r = grid.nodes(slice(start + i, start + j))
        rv = eval_R(R, r)
        dv = eval_R_deriv(R, r)
        d1, d2 = dphi[:, 0, i:j], ddphi[:, 0, i:j]
        r2 = np.square(r, out=d2[1])  # until d2[1] takes 1 + r^2
        np.subtract(1.0, r2, out=d2[0])
        np.multiply(d2[0], rv, out=d1[0])          # (1 - r^2) R
        d2[0] *= dv
        np.multiply(-2.0, r, out=d1[1])
        d1[1] *= rv
        d2[0] += d1[1]                             # (1 - r^2) R' - 2 r R
        np.add(1.0, r2, out=d2[1])
        np.multiply(1j, d2[1], out=d1[1])
        d1[1] *= rv                                # i (1 + r^2) R
        d2[1] *= dv
        np.multiply(2.0, r, out=d1[2])
        np.multiply(d1[2], dv, out=d2[2])
        d1[2] *= rv                                # 2 r R
        # complex addition commutes bitwise, so each sum is formed in place
        d2[1] += d1[2]
        d2[1] *= 1j                                # i ((1 + r^2) R' + 2 r R)
        d2[2] += np.multiply(2.0, rv, out=rv)      # 2 r R' + 2 R
        del r, rv, dv  # free this band's arrays before the next is built
    if flip_t:
        for z in (dphi, ddphi):
            np.negative(z[1], out=z[1])
    return dphi, ddphi


def generate_conjugate_pair(data: WEData, grid: ParamGrid,
                            y_scale: float = 1.0) -> SolitonFamily:
    """The family of X = Re Phi and its harmonic conjugate Y = Im Phi.

    The family keeps one packed array, written straight from the triple
    Phi, so X and Y are never built:

        values[k] = (Re Phi_k + o_k) + i (Im Phi_k + o_k)    (o: offsets)

    with component 1 negated under flip_t.  Its derivatives are not stored:
    the family's derivative source evaluates Phi'_k and Phi''_k from R at the
    nodes of a span of rows (`_node_derivatives`), the packed d/dr1 and d11
    slots, when something reads them.  `SolitonFamily.rows` evaluates them
    once per band, and every `at` of that band reuses them; so the theta
    sweep evaluates R once per band per block of thetas.  X + i Y is
    holomorphic, so the family builds the other slots by Cauchy-Riemann
    when it makes a member: d/dr2 and d12 are i Phi', i Phi'', and d22 is
    -Phi''.  Each of their parts is a copy or a sign change of a stored
    one, so the family equals packing X and Y assembled as Re and Im of the
    triple bit for bit, in `at` and in the unpacked (X, Y), and holds 48
    bytes per node, a sixth of theirs.
    The members' meta records flip_t, so that the writers print the -0
    imaginary part of a negated t (io_export).
    y_scale != 1 multiplies Y by y_scale: a test hook for a pair that is not
    conjugate.  It equals scaling the float64 Y, then packing, bit for bit.
    """
    values = antiderivative_on_grid(_integrand(data.R), data.base, grid,
                                    singularities=singularity_points(data.R))
    offsets = np.array(data.offsets)[:, None, None]  # added to Phi's parts in place
    values.real += offsets
    values.imag += offsets
    if data.flip_t:
        np.negative(values[1], out=values[1])
    metas = tuple({"surface": data.R.id, "base": data.base, "conjugate": conjugate,
                   "flip_t": data.flip_t} for conjugate in (False, True))
    derivatives = functools.partial(_node_derivatives, data.R, grid, data.flip_t)
    return SolitonFamily.packed(grid, values, derivatives, metas, y_scale)


def generate(data: WEData, grid: ParamGrid) -> SurfaceGrid:
    """Sample the W-E surface of `data` on `grid` (real minimal surface,
    float64): X of `generate_conjugate_pair`."""
    return generate_conjugate_pair(data, grid).X


def gamma_chart_sector(g1_min: float, g1_max: float, g2_min: float,
                       g2_max: float, n1: int, n2: int) -> ParamGrid:
    """Annular sector covered by the exponential chart w = exp(-i gamma / 2).

    A rectangle in gamma = g1 + i g2 maps to radii exp(g2/2) and angles
    -g1/2; the general Enneper surface on this chart gives the classical
    Catalan-type parametrizations (a = 1, b = 0).  The gamma ranges are a
    caller choice; no canonical range is claimed.  Sampling is uniform in
    radius rather than in g2, which only changes node density, not the
    surface.
    """
    if g1_min >= g1_max or g2_min >= g2_max:
        raise GenerateError("gamma ranges must be increasing")
    rho = sorted((float(np.exp(g2_min / 2.0)), float(np.exp(g2_max / 2.0))))
    psi = sorted((-g1_max / 2.0, -g1_min / 2.0))
    allow = rho[0] < 1.0 < rho[1]
    return ParamGrid("annulus", n1, n2, (rho[0], rho[1], psi[0], psi[1]),
                     allow_unit_circle=allow)


__all__ = [
    "GenerateError", "WEData", "gamma_chart_sector", "generate",
    "generate_conjugate_pair", "we_data",
]
