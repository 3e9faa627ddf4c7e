"""Parameter-plane grids and sampled parametric surfaces.

Surfaces are sampled over a rectangle in the r = r1 + i*r2 plane or over an
annulus/annular sector in polar coordinates (rho, psi).  Derivatives are
always reported with respect to the Cartesian isothermal coordinates
(r1, r2); on polar grids the chain rule through r = rho*exp(i*psi) is applied
with exact trigonometric factors, so the formal accuracy of the stencils is
preserved.

A SurfaceGrid may carry the analytic first derivatives of its components
(filled in by the generators, which know them in closed form).  Consumers
that only need first derivatives can then bypass finite-difference
truncation entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .stencils import all_finite, axis_derivative, interior_mask, min_samples

TWO_PI = 2.0 * np.pi

_COMPONENT_INDEX = {"x": 0, "t": 1, "phi": 2}

GridKind = Literal["rectangle", "annulus"]
Axis = Literal["r1", "r2"]


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class ParamGrid:
    """Uniform grid over a rectangle or an annular sector of the r-plane.

    rectangle: axis 0 sweeps r1 in [b0, b1], axis 1 sweeps r2 in [b2, b3].
    annulus:   axis 0 sweeps rho in [b0, b1], axis 1 sweeps the angle psi in
               [b2, b3] (default full circle).  Node values are rho*exp(i*psi).

    Both axes include their endpoints and are uniformly spaced; n1, n2 >= 3 so
    that centered differences exist.  An annulus whose radial range straddles
    |r| = 1 must be constructed with allow_unit_circle=True: the hodograph
    maps u = r/(1-|r|^2) and the nonparametric (x,t) charts degenerate there.
    """

    kind: GridKind
    n1: int
    n2: int
    bounds: tuple[float, float, float, float]
    allow_unit_circle: bool = False

    def __post_init__(self):
        if self.kind not in ("rectangle", "annulus"):
            raise GridError(f"unknown grid kind {self.kind!r}")
        if self.n1 < 3 or self.n2 < 3:
            raise GridError("grid counts must be >= 3")
        b = tuple(float(v) for v in self.bounds)
        object.__setattr__(self, "bounds", b)
        if not all(np.isfinite(b)):
            raise GridError("grid bounds must be finite")
        if b[1] <= b[0] or b[3] <= b[2]:
            raise GridError("grid bounds must be increasing per axis")
        if self.kind == "annulus":
            if b[0] <= 0:
                raise GridError("annulus requires 0 < rho_min")
            if b[0] < 1.0 < b[1] and not self.allow_unit_circle:
                raise GridError(
                    "annulus straddles |r| = 1; pass allow_unit_circle=True "
                    "to acknowledge the singular circle of the hodograph maps")

    # -- axis coordinates ------------------------------------------------
    @property
    def axis1(self) -> np.ndarray:
        return np.linspace(self.bounds[0], self.bounds[1], self.n1)

    @property
    def axis2(self) -> np.ndarray:
        return np.linspace(self.bounds[2], self.bounds[3], self.n2)

    @property
    def h1(self) -> float:
        return (self.bounds[1] - self.bounds[0]) / (self.n1 - 1)

    @property
    def h2(self) -> float:
        return (self.bounds[3] - self.bounds[2]) / (self.n2 - 1)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n1, self.n2)

    def nodes(self, rows: slice = slice(None)) -> np.ndarray:
        """Complex node positions r, shape (n1, n2); with `rows`, those rows
        alone, the same bits as slicing the whole grid's."""
        a1 = self.axis1[rows, None]
        a2 = self.axis2[None, :]
        if self.kind == "rectangle":
            return a1 + 1j * a2 + np.zeros((len(a1), self.n2))
        return a1 * np.exp(1j * a2)

    def polar_factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rho, cos psi, sin psi) broadcast to grid shape (annulus only)."""
        if self.kind != "annulus":
            raise GridError("polar factors only defined for annulus grids")
        rho = np.broadcast_to(self.axis1[:, None], self.shape)
        c = np.broadcast_to(np.cos(self.axis2)[None, :], self.shape)
        s = np.broadcast_to(np.sin(self.axis2)[None, :], self.shape)
        return rho, c, s

    def rows(self, i: int, j: int) -> "ParamGrid":
        """The grid of rows i..j-1 along axis 0, all of axis 1.

        Its axis-0 bounds are the receiver's nodes i and j-1, so the node
        positions match the receiver's rows up to linspace rounding; rows
        (0, n1) are the receiver itself.  Fewer than 3 rows raise GridError.
        """
        if (i, j) == (0, self.n1):
            return self
        a1 = self.axis1
        return ParamGrid(self.kind, j - i, self.n2, (a1[i], a1[j - 1], *self.bounds[2:]),
                         self.allow_unit_circle)

    def area_weights(self) -> np.ndarray:
        """Trapezoid weights for integrating f(r1, r2) dr1 dr2 over the domain.

        Polar grids pick up the rho Jacobian of dr1 dr2 = rho drho dpsi.
        """
        w1 = np.full(self.n1, self.h1)
        w1[0] = w1[-1] = 0.5 * self.h1
        w2 = np.full(self.n2, self.h2)
        w2[0] = w2[-1] = 0.5 * self.h2
        w = w1[:, None] * w2[None, :]
        if self.kind == "annulus":
            w *= self.axis1[:, None]
        return w


def default_annulus(rho_min: float = 0.4, rho_max: float = 0.9,
                    n_rho: int = 51, n_psi: int = 128) -> ParamGrid:
    """Full-circle annulus strictly inside the unit disk, away from r = 0."""
    return ParamGrid("annulus", n_rho, n_psi, (rho_min, rho_max, 0.0, TWO_PI))


class _Deferrable:
    """jac or jac2 of a SurfaceGrid: a function of no arguments given for
    it is called on the first read, and its result checked and kept."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, s, owner):
        a = None if s is None else s.__dict__[self.name]  # None: the field's default
        if callable(a):
            a = s.__dict__[self.name] = s._checked(self.name, a())
        return a

    def __set__(self, s, a):
        s.__dict__[self.name] = a


_FIELDS = {"values": ((), "surface components"), "jac": ((2,), "analytic derivatives"),
           "jac2": ((3,), "analytic second derivatives")}


@dataclass(frozen=True)
class SurfaceGrid:
    """Sampled real parametric surface (x, t, phi) over a ParamGrid.

    values has shape (3, n1, n2), float64.  jac, when present, holds the
    analytic first derivatives d(component)/d(r1) and /d(r2), shape
    (3, 2, n1, n2), and jac2 the second ones (d11, d12, d22), shape
    (3, 3, n1, n2), also float64; they are propagated through conjugation
    and family combinations; either may be given as a function that builds
    it on first read (`_Deferrable`).  Complex input is taken only when
    every imaginary part is zero, and the parts are dropped.  The
    Wick-rotated S_theta is not a SurfaceGrid: it is its real member plus
    the Wick rule (`family.wick_rotate`).
    """

    grid: ParamGrid
    values: np.ndarray
    jac: np.ndarray | None = _Deferrable()
    jac2: np.ndarray | None = _Deferrable()
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.__dict__["values"] = self._checked("values", self.values)
        for name in ("jac", "jac2"):
            if not callable(a := self.__dict__[name]):
                self.__dict__[name] = self._checked(name, a)

    def _checked(self, name: str, a) -> np.ndarray | None:
        """a, checked and read-only, as this surface's array `name`, or None."""
        if a is None:
            return None
        slots, what = _FIELDS[name]
        a = np.ascontiguousarray(a, dtype=complex if np.iscomplexobj(a) else np.float64)
        if a.shape != (3, *slots, *self.grid.shape):
            raise GridError(f"{name} shape {a.shape} does not match grid {self.grid.shape}")
        if not all_finite(a):
            raise GridError(f"{what} must be finite")
        if np.iscomplexobj(a):
            if np.any(a.imag):
                raise GridError(f"{what} have an imaginary part")
            a = np.ascontiguousarray(a.real)
        a.flags.writeable = False
        return a

    @property
    def x(self) -> np.ndarray:
        return self.values[0]

    @property
    def t(self) -> np.ndarray:
        return self.values[1]

    @property
    def phi(self) -> np.ndarray:
        return self.values[2]

    def component(self, name: str) -> np.ndarray:
        return self.values[_COMPONENT_INDEX[name]]


_BAND_NODES = 1 << 14  # 256 KiB of complex per array: a band's kernel operands stay in L2


def _row_bands(n1: int, n2: int) -> list[tuple[int, int]]:
    """(start, stop) of the bands of whole rows a banded sweep visits in turn.

    Bands hold max(3, _BAND_NODES // n2) rows, so each is a valid
    ParamGrid; a remainder of fewer than 3 rows joins the last band.
    """
    step = max(3, _BAND_NODES // n2)
    starts = list(range(0, n1, step))
    if len(starts) > 1 and n1 - starts[-1] < 3:
        starts.pop()
    return list(zip(starts, starts[1:] + [n1]))


# ---------------------------------------------------------------------------
# derivatives with respect to the Cartesian coordinates (r1, r2)
# ---------------------------------------------------------------------------

def array_derivative(grid: ParamGrid, arr: np.ndarray, axis: Axis,
                     order: int = 1, accuracy: int = 2) -> np.ndarray:
    """d^order(arr)/d(r_axis)^order for an array sampled on `grid`.

    On annulus grids the polar chain rule is applied; second derivatives are
    then built by applying the first-derivative operator twice, which keeps
    the formal order of accuracy.
    """
    if axis not in ("r1", "r2"):
        raise GridError(f"axis must be 'r1' or 'r2', got {axis!r}")
    if order not in (1, 2):
        raise GridError("derivative order must be 1 or 2")
    _check_size(grid, order, accuracy)
    if grid.kind == "rectangle":
        ax = 0 if axis == "r1" else 1
        h = grid.h1 if ax == 0 else grid.h2
        return axis_derivative(arr, h, ax, order, accuracy)
    if order == 1:
        d_rho = axis_derivative(arr, grid.h1, 0, 1, accuracy)
        d_psi = axis_derivative(arr, grid.h2, 1, 1, accuracy)
        rho, c, s = grid.polar_factors()
        if axis == "r1":
            return c * d_rho - (s / rho) * d_psi
        return s * d_rho + (c / rho) * d_psi
    first = array_derivative(grid, arr, axis, 1, accuracy)
    return array_derivative(grid, first, axis, 1, accuracy)


def _check_size(grid: ParamGrid, order: int, accuracy: int) -> None:
    need = min_samples(order, accuracy)
    if order == 2 and accuracy == 2:
        need = max(need, 5)  # contract: second derivatives want n >= 5
    if grid.n1 < need or grid.n2 < need:
        raise GridError(
            f"grid {grid.shape} too small for order={order}, accuracy={accuracy} "
            f"stencils (need >= {need} per axis)")


def laplacian(surface: SurfaceGrid, component: str, accuracy: int = 2) -> np.ndarray:
    """d2/dr1^2 + d2/dr2^2 of a component (harmonicity test).

    On polar grids the exact identity lap = f_rr + f_r/rho + f_pp/rho^2 is
    used with direct second-difference stencils per axis.
    """
    grid = surface.grid
    arr = surface.component(component)
    _check_size(grid, 2, accuracy)
    if grid.kind == "rectangle":
        return (axis_derivative(arr, grid.h1, 0, 2, accuracy)
                + axis_derivative(arr, grid.h2, 1, 2, accuracy))
    rho, _, _ = grid.polar_factors()
    f_rr = axis_derivative(arr, grid.h1, 0, 2, accuracy)
    f_r = axis_derivative(arr, grid.h1, 0, 1, accuracy)
    f_pp = axis_derivative(arr, grid.h2, 1, 2, accuracy)
    # reciprocals, not divisions: a float surface then gets a complex one's
    # bits (README, Numerical notes)
    return f_rr + f_r * (1.0 / rho) + f_pp * (1.0 / rho ** 2)


def cauchy_riemann_jacs(d1, d2, parts) -> tuple[np.ndarray, np.ndarray]:
    """Analytic (jac, jac2) of components c_k = Re f_k or Im f_k.

    d1[k], d2[k] are the complex derivatives f_k', f_k'' of holomorphic f_k at
    the nodes; parts[k] is "re" or "im".  By Cauchy-Riemann
    d(Re f)/dr1 = Re f', d(Re f)/dr2 = -Im f', and (d11, d12, d22) of Re f are
    (Re f'', -Im f'', -Re f''); for Im f swap Re and Im with the sign rules.
    """
    shape = np.shape(d1[0])
    jac = np.empty((3, 2) + shape)
    jac2 = np.empty((3, 3) + shape)
    for k, (f1, f2, part) in enumerate(zip(d1, d2, parts)):
        if part == "re":
            jac[k, 0], jac[k, 1] = f1.real, -f1.imag
            jac2[k, 0], jac2[k, 1], jac2[k, 2] = f2.real, -f2.imag, -f2.real
        else:
            jac[k, 0], jac[k, 1] = f1.imag, f1.real
            jac2[k, 0], jac2[k, 1], jac2[k, 2] = f2.imag, f2.real, -f2.imag
    return jac, jac2


def surface_jacobian(surface: SurfaceGrid, source: str = "auto",
                     accuracy: int = 2) -> np.ndarray:
    """First derivatives of all components, shape (3, 2, n1, n2).

    source: "auto" prefers the analytic derivatives carried by the surface,
    "analytic" requires them, "fd" forces finite differences.
    """
    if source not in ("auto", "analytic", "fd"):
        raise GridError(f"unknown derivative source {source!r}")
    if source in ("auto", "analytic") and surface.jac is not None:
        return surface.jac
    if source == "analytic":
        raise GridError("surface carries no analytic derivatives")
    out = np.empty((3, 2, surface.grid.n1, surface.grid.n2), dtype=surface.values.dtype)
    for k in range(3):
        out[k, 0] = array_derivative(surface.grid, surface.values[k], "r1", 1, accuracy)
        out[k, 1] = array_derivative(surface.grid, surface.values[k], "r2", 1, accuracy)
    return out


def conjugacy_violation(X: SurfaceGrid, Y: SurfaceGrid, source: str = "auto",
                        accuracy: int = 2, interior_only: bool = False) -> float:
    """max over components/nodes of the Cauchy-Riemann defect of the pair.

    Checks dX/dr1 - dY/dr2 and dX/dr2 + dY/dr1 componentwise.  With
    source="fd" the one-sided edge stencils carry larger truncation
    constants; interior_only=True restricts the max to fully centered nodes.
    """
    if X.grid != Y.grid:
        raise GridError("pair members must share a grid")
    jx = surface_jacobian(X, source, accuracy)
    jy = surface_jacobian(Y, source, accuracy)
    v = np.maximum(np.abs(jx[:, 0] - jy[:, 1]), np.abs(jx[:, 1] + jy[:, 0]))
    if interior_only:
        mask = interior_mask(X.grid.shape, accuracy)
        if not mask.any():
            raise GridError("grid too small for an interior-only check")
        v = v[:, mask]
    return float(np.max(v))


__all__ = [
    "GridError", "ParamGrid", "SurfaceGrid", "array_derivative", "cauchy_riemann_jacs",
    "conjugacy_violation", "default_annulus", "laplacian", "surface_jacobian",
]
