"""Surface generation from Weierstrass-Enneper data.

The three coordinate functions are real parts of one holomorphic triple

    Phi = ( int (1-w^2) R dw,  int i (1+w^2) R dw,  int 2 w R dw ),

so the harmonic conjugate surface (R -> -i R) is simply the imaginary parts
of the same triple.  `generate_conjugate_pair` therefore integrates once and
writes the pair straight into the packed arrays of a `SolitonFamily`
(Re X + i Re Y is Phi itself, up to offsets, and its derivative arrays hold
Phi' and Phi'' alone), which unpacks to (X, Y); the
pair satisfies the Cauchy-Riemann relations componentwise by construction,
which is what the soliton-family machinery relies on.
`generate_pair_members` assembles X and Y as two separate surfaces instead.

Generated surfaces carry their exact first derivatives: d(Re Phi_k)/dr1 is
the integrand Phi_k'(r) evaluated at the node, no quadrature or finite
differences involved.  The values come from `antiderivative_on_grid` with
R's declared poles as singularities, so each quadrature chain runs the
lowest Gauss-Legendre order their distance allows; `rule` caps that order,
and an R without poles (Enneper) runs it on every chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import catalog
from .catalog import WEFunction, eval_R, eval_R_deriv, singularity_points
from .family import SolitonFamily
from .grids import ParamGrid, SurfaceGrid, cauchy_riemann_jacs, surface_jacobian
from .quadrature import DEFAULT_RULE, antiderivative_on_grid


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
        return np.stack([(1.0 - w ** 2) * rv, 1j * (1.0 + w ** 2) * rv, 2.0 * w * rv])
    return f


def _node_derivatives(R: WEFunction, grid: ParamGrid, dphi, ddphi) -> None:
    """Write (Phi'_k, Phi''_k) at the nodes, the exact holomorphic
    derivatives, into dphi and ddphi (each indexed by k first)."""
    r = grid.nodes()
    rv = eval_R(R, r)
    dv = eval_R_deriv(R, r)
    dphi[0] = (1.0 - r ** 2) * rv
    dphi[1] = 1j * (1.0 + r ** 2) * rv
    dphi[2] = 2.0 * r * rv
    ddphi[0] = -2.0 * r * rv + (1.0 - r ** 2) * dv
    ddphi[1] = 1j * (2.0 * r * rv + (1.0 + r ** 2) * dv)
    ddphi[2] = 2.0 * rv + 2.0 * r * dv


def _antiderivative(data: WEData, grid: ParamGrid, rule: str) -> np.ndarray:
    return antiderivative_on_grid(_integrand(data.R), data.base, grid,
                                  singularities=singularity_points(data.R), rule=rule)


def _holomorphic_triple(data: WEData, grid: ParamGrid, rule: str):
    phi = _antiderivative(data, grid, rule)
    dphi = np.empty((3,) + grid.shape, dtype=complex)
    ddphi = np.empty_like(dphi)
    _node_derivatives(data.R, grid, dphi, ddphi)
    return phi, dphi, ddphi


def _assemble(data: WEData, grid: ParamGrid, phi, dphi, ddphi, part: str) -> SurfaceGrid:
    """The surface Re(Phi) (part "re") or its conjugate Im(Phi) (part "im")."""
    jac, jac2 = cauchy_riemann_jacs(dphi, ddphi, (part,) * 3)
    values = (phi.real if part == "re" else phi.imag).astype(complex)
    values[0] += data.offsets[0]
    values[1] += data.offsets[1]
    values[2] += data.offsets[2]
    if data.flip_t:
        values[1] = -values[1]
        jac[1] = -jac[1]
        jac2[1] = -jac2[1]
    return SurfaceGrid(grid, values, "real", jac, jac2, _meta(data, part == "im"))


def _meta(data: WEData, conjugate: bool) -> dict:
    return {"surface": data.R.id, "base": data.base, "conjugate": conjugate}


def generate(data: WEData, grid: ParamGrid, rule: str = DEFAULT_RULE) -> SurfaceGrid:
    """Sample the W-E surface of `data` on `grid` (real minimal surface)."""
    return _assemble(data, grid, *_holomorphic_triple(data, grid, rule), "re")


def generate_pair_members(data: WEData, grid: ParamGrid,
                          rule: str = DEFAULT_RULE) -> tuple[SurfaceGrid, SurfaceGrid]:
    """(X, Y) as two real surfaces, Y the harmonic conjugate (R -> -i R).

    Both come from one holomorphic triple, so Re -> X and Im -> Y;
    generate(conjugate(R)) produces the same Y up to reassociation round-off
    (Re(-i z) = Im z).  Their imaginary parts are signed zeros (-0 in t
    after flip_t), which the `generate` command's writers print.
    """
    triple = _holomorphic_triple(data, grid, rule)
    return (_assemble(data, grid, *triple, "re"),
            _assemble(data, grid, *triple, "im"))


def generate_conjugate_pair(data: WEData, grid: ParamGrid, rule: str = DEFAULT_RULE,
                            y_scale: float = 1.0) -> SolitonFamily:
    """The family of X = Re Phi and its harmonic conjugate Y = Im Phi.

    The packed arrays Re X + i Re Y are written straight from the triple
    (Phi, Phi', Phi''), so X and Y are never built:

        values[k] = (Re Phi_k + o_k) + i (Im Phi_k + o_k)    (o: offsets)
        jac[k]    = Phi'_k     (the d/dr1 slot alone)
        jac2[k]   = Phi''_k    (the d11 slot alone)

    and flip_t negates component 1 of all three.  X + i Y is holomorphic,
    so the family builds the other slots by Cauchy-Riemann when it makes a
    member: d/dr2 and d12 are i Phi', i Phi'', and d22 is -Phi''.  Each of
    their parts is a copy or a sign change of a stored one, so the family
    equals SolitonFamily(*generate_pair_members(...)) bit for bit in `at`
    and in the unpacked (X, Y), and holds a quarter of their bytes.
    y_scale != 1 multiplies Y by y_scale: a test hook for a pair that is not
    conjugate.  It equals scaling Y then packing, except that an exact zero
    of a flipped t keeps the sign of its real product, where Y's complex
    product (with a -0 imaginary part) would give +0.
    """
    phi = _antiderivative(data, grid, rule)
    values = np.empty((3,) + grid.shape, dtype=complex)
    offsets = np.array(data.offsets)[:, None, None]
    np.add(phi.real, offsets, out=values.real)
    np.add(phi.imag, offsets, out=values.imag)
    del phi
    jac = np.empty((3, 1) + grid.shape, dtype=complex)
    jac2 = np.empty_like(jac)
    _node_derivatives(data.R, grid, jac[:, 0], jac2[:, 0])
    if data.flip_t:
        for z in (values, jac, jac2):
            np.negative(z[1], out=z[1])
    return SolitonFamily.packed(grid, values, jac, jac2,
                                (_meta(data, False), _meta(data, True)), y_scale)


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


__all__ = [
    "GenerateError", "RigidAlignment", "WEData", "align_rigid",
    "gamma_chart_sector", "generate", "generate_conjugate_pair",
    "generate_pair_members", "nearest_node", "we_data",
]
