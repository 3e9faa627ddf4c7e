"""The F/G representation of minimal surfaces and its hodograph coordinates.

A minimal surface (x, t, phi) in isothermal coordinates r = r1 + i r2 can be
written with a holomorphic F and antiholomorphic G = conj . F . conj as

    x - i t = F(r)    - int rbar^2 G'(rbar) drbar
    x + i t = G(rbar) - int r^2    F'(r)    dr
    phi     = int r F'(r) dr + int rbar G'(rbar) drbar .

The helicoid has F(r) = i/(2r), the catenoid F(r) = 1/(2r), the Enneper
surface F(r) = r; those closed forms double as oracles for the quadrature
generator and as the ingredients of the theta-family of solitons.

The hodograph side: with u = phi_zbar and v = phi_z (z = x + i t), the
coordinate change r = (sqrt(1 + 4 u v) - 1) / (2 v) satisfies
u = r/(1 - |r|^2), v = rbar/(1 - |r|^2) and is the inverse used to go from
a nonparametric graph phi(x, t) to the isothermal parametrization.  The
closed-form maps are implemented for the helicoid and catenoid only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grids import REAL_IMAG_TOL, ParamGrid, SurfaceGrid, cauchy_riemann_jacs
from .quadrature import DEFAULT_RULE, antiderivative_on_grid


class HodographError(ValueError):
    pass


@dataclass(frozen=True)
class FGPair:
    """Function handles (F, G) with their derivatives.

    reality_constraint asserts F(r) = conj(G(conj(r))), which makes the
    reconstructed surface real; theta-combinations with real weights keep it.
    """

    F: Callable
    G: Callable
    Fp: Callable
    Gp: Callable
    reality_constraint: bool = True
    label: str = ""

    def check_reality(self, samples, tol: float = 1e-12) -> float:
        """Max defect of F(r) = conj(G(conj r)) on a sample cloud; raises
        if the constraint is claimed but violated."""
        s = np.asarray(samples, dtype=complex)
        defect = float(np.max(np.abs(self.F(s) - np.conj(self.G(np.conj(s))))))
        if self.reality_constraint and defect > tol:
            raise HodographError(
                f"FG pair {self.label or '?'} claims reality but defect is {defect:.3g}")
        return defect


def helicoid_fg() -> FGPair:
    return FGPair(F=lambda r: 0.5j / r, G=lambda s: -0.5j / s,
                  Fp=lambda r: -0.5j / r ** 2, Gp=lambda s: 0.5j / s ** 2,
                  reality_constraint=True, label="helicoid")


def catenoid_fg() -> FGPair:
    return FGPair(F=lambda r: 0.5 / r, G=lambda s: 0.5 / s,
                  Fp=lambda r: -0.5 / r ** 2, Gp=lambda s: -0.5 / s ** 2,
                  reality_constraint=True, label="catenoid")


def enneper_fg() -> FGPair:
    return FGPair(F=lambda r: r + 0j, G=lambda s: s + 0j,
                  Fp=lambda r: np.ones_like(np.asarray(r, dtype=complex)),
                  Gp=lambda s: np.ones_like(np.asarray(s, dtype=complex)),
                  reality_constraint=True, label="enneper")


def enneper_conjugate_fg() -> FGPair:
    return FGPair(F=lambda r: -1j * r, G=lambda s: 1j * s,
                  Fp=lambda r: np.full_like(np.asarray(r, dtype=complex), -1j),
                  Gp=lambda s: np.full_like(np.asarray(s, dtype=complex), 1j),
                  reality_constraint=True, label="enneper-conjugate")


def fg_integrals(pair: FGPair, grid: ParamGrid, base: complex, singularities=(),
                 rule: str = DEFAULT_RULE) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right-hand sides of the module's three F/G relations at the nodes.

    Returns the values of (x - i t, x + i t, phi), with all four indefinite
    integrals taken from `base` (so they vanish there).  `singularities`
    are the poles of F' and G'; the quadrature picks each chain's order
    from them, and with none declared every chain runs the `rule`'s order.
    """
    r = grid.nodes()

    # Fp/Gp bound to a name: a temporary right operand (`s * pair.Fp(s)`)
    # makes the bits depend on the block size (see the quadrature module)
    def holo(s):
        fp = pair.Fp(s)
        return np.stack([s ** 2 * fp, s * fp])

    def anti(s):
        gp = pair.Gp(s)
        return np.stack([s ** 2 * gp, s * gp])

    A, P = antiderivative_on_grid(holo, base, grid, singularities, rule)
    B, Q = antiderivative_on_grid(anti, base, grid, singularities, rule,
                                  conjugate_plane=True)
    return pair.F(r) - B, pair.G(np.conj(r)) - A, P + Q


def surface_from_fg(pair: FGPair, grid: ParamGrid, base: complex,
                    offsets=(0.0, 0.0, 0.0), singularities=(),
                    rule: str = DEFAULT_RULE) -> SurfaceGrid:
    """Reconstruct the surface of an FG pair on `grid`.

    The four indefinite integrals are taken from `base` (so they vanish
    there); comparisons against other parametrizations should calibrate
    offsets at the base node.  Output is real exactly when the reality
    constraint holds; otherwise the components are complex and the grid is
    flagged wick_rotated.
    """
    base = complex(base)
    r = grid.nodes()
    rb = np.conj(r)
    M, N, phi = fg_integrals(pair, grid, base, singularities, rule)  # x -+ i t, phi
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
    reality = "real" if imag_ok else "wick_rotated"
    meta = {"surface": f"fg:{pair.label}", "base": base}
    return SurfaceGrid(grid, values, reality, jac, None, meta)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _log_branch(grid: ParamGrid) -> tuple[np.ndarray, np.ndarray]:
    """(ln|r|, continued arg r) on the grid.

    Annulus grids read the angle off the grid coordinate, which is the
    branch continued along the angular sweep (it may exceed pi); rectangle
    grids use the principal branch.
    """
    r = grid.nodes()
    if grid.kind == "annulus":
        ln_rho = np.log(grid.axis1)[:, None] + np.zeros(grid.shape)
        arg = np.zeros(grid.shape) + grid.axis2[None, :]
        return ln_rho, arg
    return np.log(np.abs(r)), np.angle(r)


def helicoid_closed(grid: ParamGrid) -> SurfaceGrid:
    """x = -Im(r + 1/r)/2, t = Re(r - 1/r)/2, phi = arg r."""
    r = grid.nodes()
    if np.any(r == 0):
        raise HodographError("closed forms are singular at r = 0")
    _, arg = _log_branch(grid)
    x = -0.5 * (r + 1.0 / r).imag
    t = 0.5 * (r - 1.0 / r).real
    phi = arg
    gp = 0.5 * (1.0 - 1.0 / r ** 2)   # derivative of (r + 1/r)/2
    hp = 0.5 * (1.0 + 1.0 / r ** 2)   # derivative of (r - 1/r)/2
    # components are (-Im g, Re h, Im ln r): fold signs into the derivatives
    jac, jac2 = cauchy_riemann_jacs([-gp, hp, 1.0 / r],
                                    [-(1.0 / r ** 3), -(1.0 / r ** 3), -(1.0 / r ** 2)],
                                    ["im", "re", "im"])
    meta = {"surface": "helicoid_closed", "base": None}
    return SurfaceGrid(grid, np.stack([x, t, phi]).astype(complex), "real",
                       jac, jac2, meta)


def catenoid_closed(grid: ParamGrid) -> SurfaceGrid:
    """x = Re(r + 1/r)/2, t = Im(r - 1/r)/2, phi = -ln|r|."""
    r = grid.nodes()
    if np.any(r == 0):
        raise HodographError("closed forms are singular at r = 0")
    ln_rho, _ = _log_branch(grid)
    x = 0.5 * (r + 1.0 / r).real
    t = 0.5 * (r - 1.0 / r).imag
    phi = -ln_rho
    gp = 0.5 * (1.0 - 1.0 / r ** 2)
    hp = 0.5 * (1.0 + 1.0 / r ** 2)
    jac, jac2 = cauchy_riemann_jacs([gp, hp, -1.0 / r],
                                    [1.0 / r ** 3, -(1.0 / r ** 3), 1.0 / r ** 2],
                                    ["re", "im", "re"])
    meta = {"surface": "catenoid_closed", "base": None}
    return SurfaceGrid(grid, np.stack([x, t, phi]).astype(complex), "real",
                       jac, jac2, meta)


# ---------------------------------------------------------------------------
# hodograph maps
# ---------------------------------------------------------------------------

def hodograph_uv(surface_id: str, z):
    """(u, v) = (phi_zbar, phi_z) of the named nonparametric surface at z.

    helicoid: u = i/(2 zbar), v = -i/(2 z), any z != 0.
    catenoid: u = z / (2 sqrt(|z|^2 - 1) |z|), v = conj(u), needs |z| > 1.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z == 0):
        raise HodographError("hodograph maps are singular at z = 0")
    if surface_id == "helicoid":
        return 0.5j / np.conj(z), -0.5j / z
    if surface_id == "catenoid":
        q = np.abs(z) ** 2
        if np.any(q <= 1.0):
            raise HodographError("catenoid hodograph requires |z| > 1")
        u = z / (2.0 * np.sqrt(q - 1.0) * np.abs(z))
        return u, np.conj(u)
    raise HodographError(f"no closed-form hodograph for {surface_id!r}")


_SERIES_CUTOFF = 1e-8


def r_from_uv(u, v):
    """r = (sqrt(1 + 4 u v) - 1) / (2 v), principal square root.

    The v -> 0 limit is removable (r -> u); below |uv| ~ 1e-8 the series
    u (1 - uv + 2 (uv)^2) is used, accurate to O(|u| |uv|^3).  With
    u = r/(1-|r|^2), v = rbar/(1-|r|^2) this inverts to r for |r| < 1 (the
    positive-root convention matches the nonparametric graphs used here).
    """
    scalar = np.ndim(u) == 0 and np.ndim(v) == 0
    u, v = np.broadcast_arrays(np.atleast_1d(np.asarray(u, dtype=complex)),
                               np.atleast_1d(np.asarray(v, dtype=complex)))
    p = u * v
    small = np.abs(p) < _SERIES_CUTOFF
    out = np.empty(u.shape, dtype=complex)
    out[small] = u[small] * (1.0 - p[small] + 2.0 * p[small] ** 2)
    big = ~small
    out[big] = (np.sqrt(1.0 + 4.0 * p[big]) - 1.0) / (2.0 * v[big])
    return complex(out[0]) if scalar else out


def umbilic_diagnostic(surface_id: str, z):
    """phi_zz * phi_zbzb - phi_zzb^2 for the two closed-form graphs.

    The F/G representation degenerates where this vanishes; neither closed
    form has such points on its domain (helicoid: 1/(4|z|^4), catenoid:
    1/(4(|z|^2-1)^2)).
    """
    z = np.asarray(z, dtype=complex)
    if surface_id == "helicoid":
        if np.any(z == 0):
            raise HodographError("helicoid diagnostic singular at z = 0")
        return 1.0 / (4.0 * np.abs(z) ** 4)
    if surface_id == "catenoid":
        q = np.abs(z) ** 2
        if np.any(q <= 1.0):
            raise HodographError("catenoid diagnostic requires |z| > 1")
        return 1.0 / (4.0 * (q - 1.0) ** 2)
    raise HodographError(f"no umbilic diagnostic for {surface_id!r}")


__all__ = [
    "FGPair", "HodographError", "catenoid_closed", "catenoid_fg",
    "enneper_conjugate_fg", "enneper_fg", "helicoid_closed", "helicoid_fg",
    "fg_integrals", "hodograph_uv", "r_from_uv", "surface_from_fg",
    "umbilic_diagnostic",
]
