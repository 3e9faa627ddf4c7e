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

    def discriminant(self, out: np.ndarray | None = None) -> np.ndarray:
        """EG - F^2, the integrand of `action` before its root, written into
        `out` when given; F^2 is the one temporary."""
        out = np.multiply(self.E, self.G, out=out)
        out -= self.F ** 2
        return out


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


# Thetas per pass over the bands: one float64 EG - F^2 grid each, so a pass
# holds at most 96 bytes per node, what a generated family's stored Phi' and
# Phi'' took, and memory does not grow with the number of thetas.
_THETA_BLOCK = 12


def theta_sweep_invariance(fam, thetas, per_band=None) -> ThetaInvarianceReport:
    """Sweep S_theta and report how far E^s, G^s move (they should not).

    `fam` is a SolitonFamily (duck-typed: .grid, .analytic, .rows(i, j) and
    .at(theta)).  The sweep is band-major: bands of whole rows
    (`grids._row_bands`) in the outer loop, thetas in the inner one, so no
    full-grid S_theta exists, and each band's `fam.rows(i, j)` reads the
    family's derivatives once (for a generated family, evaluates Phi' and
    Phi'' from R) for every theta's `at`.  The thetas run in blocks of at
    most `_THETA_BLOCK`, one pass over the bands each; E_0 and G_0 are the
    band's form at the first theta, built again in a later block.  A family
    without analytic first derivatives runs as one band, the whole grid, so
    that its finite-difference form sees every neighbour; `fam.analytic`
    tells so without reading a derivative.  Each band of S_theta = X_theta^s
    is read as its real member X_theta (`.member`), and the form is
    X_theta's euclidean one in float arithmetic, which is S_theta's E^s,
    F^s, G^s (module docstring).  The form reads a member's jac alone: its
    values and jac2 are never built.  When given, `per_band(rows, band)` runs
    once per band, in the first block, after the band's thetas: `rows` is
    the band's slice of grid rows and `band` its `fam.rows` view, whose X, Y
    and `at` share the band's one read of the derivatives, so each row is
    handed over once, whatever the thetas.  It may do nodewise work only: the
    same nodes of the whole family would give it the same bits.
    Each theta keeps one float64 grid, its EG - F^2, filled band by band;
    after a block's last band, `action` takes each of them in theta order,
    a whole-grid sum, so its bits do not depend on the bands.  A NaN
    anywhere propagates into the report.
    """
    thetas = tuple(float(t) for t in thetas)
    if len(thetas) < 1:
        raise GeometryError("need at least one theta")
    grid = fam.grid
    bands = grids._row_bands(*grid.shape) if fam.analytic else [(0, grid.n1)]
    maxima = np.zeros((3, len(thetas)))  # max |E - E_0|, |G - G_0|, |F| per theta
    actions = []
    for first in range(0, len(thetas), _THETA_BLOCK):
        block = range(first, min(first + _THETA_BLOCK, len(thetas)))
        discs = [np.empty(grid.shape) for _ in block]
        for i, j in bands:
            rows = slice(i, j)
            band = fam.rows(i, j)
            ref = None if first == 0 else fundamental_form(band.at(thetas[0]).member)
            for k, disc in zip(block, discs):
                form = fundamental_form(band.at(thetas[k]).member)
                if ref is None:
                    ref = form
                # np.maximum, not max(): a NaN in any band must reach the series
                maxima[:, k] = np.maximum(maxima[:, k], [np.max(np.abs(form.E - ref.E)),
                                                         np.max(np.abs(form.G - ref.G)),
                                                         np.max(np.abs(form.F))])
                form.discriminant(out=disc[rows])
                del form  # free this band's form before the next is built
            del ref
            if first == 0 and per_band is not None:
                per_band(rows, band)
            del band  # free this band's derivatives before the next are read
        actions += [action(disc, grid) for disc in discs]
        del discs  # free this block's grids before the next block's exist
    return ThetaInvarianceReport(thetas, *(tuple(m.tolist()) for m in maxima),
                                 tuple(actions))


def action(disc: np.ndarray, grid: ParamGrid) -> float:
    """A = int sqrt(E G - F^2) dr1 dr2 over the grid domain, from the
    discriminant disc = EG - F^2 (`FundamentalForm.discriminant`), which it
    overwrites with the integrand.

    The discriminant must be real (a complex one raises GeometryError) and
    nonnegative up to round-off; values in (-clamp, 0) are clamped to zero
    (isothermal points can dip below zero by rounding), anything more
    negative is an error.
    """
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
