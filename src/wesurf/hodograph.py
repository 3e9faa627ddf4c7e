"""The F/G representation of minimal surfaces.

A minimal surface (x, t, phi) in isothermal coordinates r = r1 + i r2 can be
written with a holomorphic F and antiholomorphic G = conj . F . conj as

    x - i t = F(r)    - int rbar^2 G'(rbar) drbar
    x + i t = G(rbar) - int r^2    F'(r)    dr
    phi     = int r F'(r) dr + int rbar G'(rbar) drbar .

The helicoid has F(r) = i/(2r), the catenoid F(r) = 1/(2r), the Enneper
surface F(r) = r; those closed forms double as oracles for the quadrature
generator and as the ingredients of the theta-family of solitons.

For a pair with the reality condition G = conj . F . conj, the two integrals
of G' over the conjugate plane are the complex conjugates of those of F':
`fg_integrals` takes them as such, bit for bit the values a conjugate-plane
sweep would give, after checking the condition at every grid node.  A pair
that claims it falsely raises HodographError there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grids import ParamGrid, SurfaceGrid, cauchy_riemann_jacs
from .quadrature import antiderivative_on_grid


REAL_IMAG_TOL = 1e-12  # relative defect of G'(conj r) = conj F'(r) accepted as zero


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


def fg_integrals(pair: FGPair, grid: ParamGrid, base: complex,
                 singularities=()) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right-hand sides of the module's three F/G relations at the nodes.

    Returns the values of (x - i t, x + i t, phi), with all four indefinite
    integrals taken from `base` (so they vanish there).  `singularities`
    are the poles of F' and G'; the quadrature picks each chain's order
    from them, and with none declared every chain runs 32 points.

    When the pair claims the reality constraint, only F' is integrated: the
    conjugate-plane sweep mirrors every path and node of the first (the
    weights are real), so its integrals of G' = conj . F' . conj are the
    conjugates of those of F'.  They are taken as such, bit for bit the
    mirrored sweep's values: an exactly zero imaginary part, which a sweep
    gives as +0 and np.conj turns into -0, is set back to +0.  The claim is
    checked first at every grid node: if any |G'(conj r) - conj F'(r)|
    exceeds REAL_IMAG_TOL (1 + |F'(r)|), or is NaN, HodographError names
    the pair.  A pair without the claim runs the conjugate-plane sweep of G'.
    """
    r = grid.nodes()
    rb = np.conj(r)
    if pair.reality_constraint:
        fp = pair.Fp(r)
        defect = np.abs(pair.Gp(rb) - np.conj(fp))
        if not np.all(defect <= REAL_IMAG_TOL * (1 + np.abs(fp))):
            raise HodographError(
                f"FG pair {pair.label or '?'} claims the reality constraint but "
                f"G'(conj r) != conj F'(r) at a grid node")

    # (s^2 d, s d) for d = F'(s) or G'(s), written into one array
    def weighted(deriv):
        def f(s):
            d = deriv(s)
            out = np.empty((2,) + s.shape, dtype=complex)
            np.multiply(s ** 2, d, out=out[0])
            np.multiply(s, d, out=out[1])
            return out
        return f

    A, P = AP = antiderivative_on_grid(weighted(pair.Fp), base, grid, singularities)
    if pair.reality_constraint:
        B, Q = BQ = np.conj(AP)
        BQ.imag += 0.0  # a sweep's exact zeros are +0; conj made them -0
    else:
        B, Q = antiderivative_on_grid(weighted(pair.Gp), base, grid, singularities,
                                      conjugate_plane=True)
    return pair.F(r) - B, pair.G(rb) - A, P + Q


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _log_branch(grid: ParamGrid) -> tuple[np.ndarray, np.ndarray]:
    """(ln|r|, continued arg r) on the grid.

    Annulus grids read the angle off the grid coordinate, which is the
    branch continued along the angular sweep (it may exceed pi); rectangle
    grids use the principal branch.
    """
    if grid.kind == "annulus":
        ln_rho = np.log(grid.axis1)[:, None] + np.zeros(grid.shape)
        arg = np.zeros(grid.shape) + grid.axis2[None, :]
        return ln_rho, arg
    r = grid.nodes()
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
    return SurfaceGrid(grid, np.stack([x, t, phi]), jac, jac2, meta)


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
    return SurfaceGrid(grid, np.stack([x, t, phi]), jac, jac2, meta)


__all__ = [
    "FGPair", "HodographError", "catenoid_closed", "catenoid_fg",
    "enneper_conjugate_fg", "enneper_fg", "helicoid_closed", "helicoid_fg",
    "fg_integrals",
]
