"""First fundamental form, isothermality, and the action integral.

The form is the euclidean one of a real surface,

    E = x_{,1}^2 + t_{,1}^2 + phi_{,1}^2   (and F, G likewise).

The soliton picture's form carries a minus sign, E^s = x_{,1}^2 - t_{,1}^2
+ phi_{,1}^2 with algebraic squares; for S_theta = X_theta^s the t
derivative is imaginary, -(i t')^2 = +t'^2, so E^s, F^s, G^s of S_theta are
the euclidean E, F, G of its real member X_theta: real, and independent of
the family parameter theta.

The action is A = int sqrt(E G - F^2) dr1 dr2 over the grid's domain
(tensor-product trapezoid; polar grids include the rho Jacobian).  The
reported value is domain-dependent by nature, so the grid is part of the
result's provenance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grids
from .grids import ParamGrid, SurfaceGrid, surface_jacobian

DISCRIMINANT_CLAMP = 1e-12


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class FundamentalForm:
    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    grid: ParamGrid

    @property
    def isothermal_defect(self) -> float:
        """max(|E - G|, |F|) over the grid: 0 for isothermal coordinates."""
        return float(np.maximum(np.max(np.abs(self.E - self.G)), np.max(np.abs(self.F))))


def fundamental_form(s: SurfaceGrid, source: str = "auto",
                     accuracy: int = 2) -> FundamentalForm:
    """E, F, G from first derivatives (analytic when the grid carries them).

    source="fd" forces finite differences: the generic path for surfaces
    without analytic derivatives, with the usual O(h^accuracy) truncation.
    """
    d1, d2 = surface_jacobian(s, source, accuracy).swapaxes(0, 1)  # d/dr1, d/dr2
    E, F, G = ((u * v).sum(axis=0) for u, v in ((d1, d1), (d1, d2), (d2, d2)))
    return FundamentalForm(E, F, G, s.grid)


@dataclass(frozen=True)
class ThetaInvarianceReport:
    """Per-theta series of a sweep, in the order of `thetas`: max |E - E_0|,
    max |G - G_0| and max |F| at each theta, and the action of each theta's
    form (E_0, G_0 are the first theta's arrays)."""

    thetas: tuple[float, ...]
    e_devs: tuple[float, ...]
    g_devs: tuple[float, ...]
    f_abs: tuple[float, ...]
    actions: tuple[float, ...]


def theta_sweep_invariance(fam, thetas, visit=None) -> ThetaInvarianceReport:
    """Sweep S_theta and report how far E^s, G^s move (they should not).

    `fam` is a SolitonFamily (duck-typed: .grid, .jac, .rows(i, j) and
    .at(theta)).  Each theta is built one band of whole rows at a time
    (`grids._row_bands`), so no full-grid S_theta exists; a family without
    analytic first derivatives runs as one band, the whole grid, so that
    its finite-difference form sees every neighbour.  Each band of S_theta
    = X_theta^s is read as its real member X_theta (`.member`), and the
    form is X_theta's euclidean one in float arithmetic, which is S_theta's
    E^s, F^s, G^s (module docstring).  The member's rows go to
    `visit(theta, rows, X_rows)` when given, with `rows` the band's slice
    of grid rows; bands arrive in order, each row once per theta.  A visit
    may do nodewise work only: the same nodes of the whole member would
    give it the same bits.  The form's E, F, G are assembled into float
    buffers for the action, a whole-grid sum taken after each theta's last
    band.  A NaN anywhere propagates into the report.
    """
    thetas = tuple(float(t) for t in thetas)
    if len(thetas) < 1:
        raise GeometryError("need at least one theta")
    grid = fam.grid
    bands = grids._row_bands(*grid.shape) if fam.jac is not None else [(0, grid.n1)]
    E, F, G, E0, G0 = (np.empty(grid.shape) for _ in range(5))
    series = []
    for t in thetas:
        e_abs = g_abs = f_abs = 0.0
        for i, j in bands:
            rows = slice(i, j)
            member = fam.rows(i, j).at(t).member
            form = fundamental_form(member)
            if not series:
                E0[rows], G0[rows] = form.E, form.G
            # np.maximum, not max(): a NaN in any band must reach the series
            e_abs = np.maximum(e_abs, np.max(np.abs(form.E - E0[rows])))
            g_abs = np.maximum(g_abs, np.max(np.abs(form.G - G0[rows])))
            f_abs = np.maximum(f_abs, np.max(np.abs(form.F)))
            E[rows], F[rows], G[rows] = form.E, form.F, form.G
            del form
            if visit is not None:
                visit(t, rows, member)
            del member  # free this band before the next is built
        a = action(FundamentalForm(E, F, G, grid), grid)
        series.append((float(e_abs), float(g_abs), float(f_abs), a))
    return ThetaInvarianceReport(thetas, *zip(*series))


def action(form: FundamentalForm, grid: ParamGrid) -> float:
    """A = int sqrt(E G - F^2) dr1 dr2 over the grid domain.

    The form must be real (a complex one raises GeometryError) and its
    discriminant nonnegative up to round-off; values in (-clamp, 0) are
    clamped to zero (isothermal points can dip below zero by rounding),
    anything more negative is an error.
    """
    disc = form.E * form.G
    disc -= form.F ** 2  # the one temporary beside disc
    if np.iscomplexobj(disc):
        raise GeometryError("EG - F^2 is complex: take the form of a real surface")
    # max |d| without an |d| array: the same value, and a NaN propagates
    low = np.min(disc)
    scale = 1.0 + np.maximum(np.max(disc), -low)
    if low < -DISCRIMINANT_CLAMP * scale:
        raise GeometryError("EG - F^2 is negative beyond the round-off clamp")
    # clip, root and weights in place: disc becomes the integrand
    np.clip(disc, 0.0, None, out=disc)
    np.sqrt(disc, out=disc)
    disc *= grid.area_weights()
    return float(np.sum(disc))


__all__ = [
    "FundamentalForm", "GeometryError", "ThetaInvarianceReport", "action",
    "fundamental_form", "theta_sweep_invariance",
]
