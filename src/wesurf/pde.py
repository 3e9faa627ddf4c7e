"""Nonparametric residuals of the minimal-surface and Born-Infeld equations.

    minimal:     (1 + phi_t^2) phi_xx - 2 phi_x phi_t phi_xt + (1 + phi_x^2) phi_tt = 0
    Born-Infeld: (1 - phi_t^2) phi_xx + 2 phi_x phi_t phi_xt - (1 + phi_x^2) phi_tt = 0

The two equations exchange under the Wick substitution t -> i t.  Real
parametric grids are converted to nonparametric derivative data by
inverting the 2x2 Jacobian d(x, t)/d(r1, r2) nodewise, in float64;
S_theta's patch is the Wick substitution of its real member's patch
(`wick_substitute`), which has the bits of the same inversion in complex
arithmetic.  Second partials differentiate the (phi_x, phi_t) fields on the
grid and apply the inverse Jacobian again, so they inherit the
finite-difference step dependence even when the first derivatives are
analytic.

Also here: the Lorentz boost (cosh, sinh matrix) under which the Born-Infeld
equation is invariant, applied to patches by transforming coordinates and
derivative data exactly.  The CLI boosts one patch route: a generated
surface's `chain_rule_partials`, then `wick_substitute`, then `boost`.  The
Born-Infeld residual of a real patch's Wick substitution is its minimal
residual bit for bit, so no check compares those two.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .grids import SurfaceGrid, array_derivative, surface_jacobian
from .reports import ResidualReport, residual_report
from .stencils import all_finite

RAPIDITY_UNIT_TOL = 1e-12
DEFAULT_COND_CUTOFF = 1e8
DET_FLOOR = 1e-14


class PDEError(ValueError):
    pass


@dataclass(frozen=True)
class LorentzBoost:
    """Hyperbolic rotation of the (x, t) plane by a rapidity angle."""

    rapidity: float
    a: float = field(init=False)
    b: float = field(init=False)

    def __post_init__(self):
        if not math.isfinite(self.rapidity):
            raise PDEError(f"rapidity must be finite, got {self.rapidity}")
        try:
            object.__setattr__(self, "a", math.cosh(self.rapidity))
            object.__setattr__(self, "b", math.sinh(self.rapidity))
            defect = abs(self.a ** 2 - self.b ** 2 - 1.0)
        except OverflowError:
            raise PDEError(f"rapidity {self.rapidity} overflows cosh^2") from None
        if defect > RAPIDITY_UNIT_TOL * max(1.0, self.a ** 2):
            raise PDEError("cosh^2 - sinh^2 deviates from 1 beyond tolerance")


@dataclass
class NonparametricPatch:
    """Samples of phi(x, t) with first and second partials.

    valid_mask marks nodes whose Jacobian inversion was well conditioned;
    statistics ignore the rest (a ResidualReport counts them) and may hold
    non-finite data: only a field whose whole scan fails is scanned on them.
    """

    x: np.ndarray
    t: np.ndarray
    phi: np.ndarray
    phi_x: np.ndarray
    phi_t: np.ndarray
    phi_xx: np.ndarray
    phi_xt: np.ndarray
    phi_tt: np.ndarray
    valid_mask: np.ndarray

    def __post_init__(self):
        _check_retained(self.valid_mask, self.x, self.t, self.phi, self.phi_x, self.phi_t,
                        self.phi_xx, self.phi_xt, self.phi_tt)


def _check_retained(valid_mask: np.ndarray, *fields: np.ndarray) -> None:
    """Raise unless each field is finite at the retained nodes: a whole-field
    scan first, the masked one only where that fails."""
    if not all(all_finite(a) or np.all(np.isfinite(a), where=valid_mask) for a in fields):
        raise PDEError("non-finite derivative data at retained nodes")


def _derived_patch(valid_mask: np.ndarray, shared: dict, **derived) -> NonparametricPatch:
    """The patch of `shared` fields, views of data already checked finite,
    and `derived` ones; only the derived fields are scanned."""
    _check_retained(valid_mask, *derived.values())
    patch = object.__new__(NonparametricPatch)
    vars(patch).update(shared, valid_mask=valid_mask, **derived)
    return patch


def _dilate(mask: np.ndarray, reach: int) -> np.ndarray:
    """Grow a bad-node mask by `reach` nodes along each axis."""
    out = mask.copy()
    for _ in range(reach):
        grown = out.copy()
        grown[1:, :] |= out[:-1, :]
        grown[:-1, :] |= out[1:, :]
        grown[:, 1:] |= out[:, :-1]
        grown[:, :-1] |= out[:, 1:]
        out = grown
    return out


def chain_rule_partials(s: SurfaceGrid, first_source: str = "auto",
                        accuracy: int = 2, second_source: str = "fd",
                        cond_cutoff: float = DEFAULT_COND_CUTOFF) -> NonparametricPatch:
    """Nonparametric derivative data of phi over the (x, t) chart of `s`.

    Nodes where |det J| < DET_FLOOR or the infinity-norm condition number
    exceeds cond_cutoff are dropped (and, on the finite-difference route,
    their stencil neighbors with them, since garbage values would leak
    through).

    second_source: "fd" differentiates the (phi_x, phi_t) fields on the grid
    (truncation O(h^accuracy), the generic route); "analytic" uses the exact
    second derivatives carried by generated/closed-form grids; "auto" prefers
    analytic when available.  Graph slopes of W-E charts diverge toward
    |r| = 1, which is where the fd route loses accuracy first.
    """
    jac = surface_jacobian(s, first_source, accuracy)
    if second_source not in ("fd", "analytic", "auto"):
        raise PDEError(f"unknown second_source {second_source!r}")
    analytic = second_source == "analytic" or (second_source == "auto" and s.jac2 is not None)
    if analytic and s.jac2 is None:
        raise PDEError("surface carries no analytic second derivatives")

    # every quotient is a product with inv = 1 / det_safe (README, Numerical notes)
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
    if analytic:
        # d_i of the solved gradient fields, by quotient rule on exact data
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
        a1 = array_derivative(s.grid, phi_x, "r1", 1, accuracy)
        a2 = array_derivative(s.grid, phi_x, "r2", 1, accuracy)
        b1 = array_derivative(s.grid, phi_t, "r1", 1, accuracy)
        b2 = array_derivative(s.grid, phi_t, "r2", 1, accuracy)
        valid = ~_dilate(bad, accuracy + 1)  # stencil window reach, incl. one-sided edges
    phi_xx, phi_xt_a = solve(a1, a2)
    phi_tx_b, phi_tt = solve(b1, b2)
    return _derived_patch(
        valid, dict(x=s.x, t=s.t, phi=s.phi),  # read-only views of the validated surface
        phi_x=phi_x, phi_t=phi_t, phi_xx=phi_xx, phi_xt=0.5 * (phi_xt_a + phi_tx_b),
        phi_tt=phi_tt)


def _residual(p: NonparametricPatch, born_infeld: bool) -> ResidualReport:
    """Minimal-surface or Born-Infeld residual report over the patch's
    valid nodes."""
    phi_x, phi_t, phi_xx, phi_xt, phi_tt = p.phi_x, p.phi_t, p.phi_xx, p.phi_xt, p.phi_tt
    qx = 1 + phi_x ** 2
    mixed = 2 * phi_x * phi_t * phi_xt
    if born_infeld:
        qt = 1 - phi_t ** 2
        res = qt * phi_xx + mixed - qx * phi_tt
    else:
        qt = 1 + phi_t ** 2
        res = qt * phi_xx - mixed + qx * phi_tt
    return residual_report(res, p.valid_mask)


def minimal_surface_residual(p: NonparametricPatch) -> ResidualReport:
    return _residual(p, born_infeld=False)


def born_infeld_residual(p: NonparametricPatch) -> ResidualReport:
    """Pointwise Born-Infeld defect; modulus is reported for complex data."""
    return _residual(p, born_infeld=True)


def boost(p: NonparametricPatch, lb: LorentzBoost) -> NonparametricPatch:
    """Boosted patch: x' = a x + b t, t' = b x + a t, derivative data pulled
    back exactly (phi'(x', t') = phi(x, t)).  phi and valid_mask are shared
    with `p`, not copied, nor scanned again; the boosted products are
    scanned, since they can overflow."""
    a, b = lb.a, lb.b

    x, t, phi_x, phi_t = p.x, p.t, p.phi_x, p.phi_t
    phi_xx, phi_xt, phi_tt = p.phi_xx, p.phi_xt, p.phi_tt
    return _derived_patch(
        p.valid_mask, dict(phi=p.phi),
        x=a * x + b * t, t=b * x + a * t,
        phi_x=a * phi_x - b * phi_t, phi_t=-b * phi_x + a * phi_t,
        phi_xx=a * a * phi_xx - 2 * a * b * phi_xt + b * b * phi_tt,
        phi_xt=-a * b * (phi_xx + phi_tt) + (a * a + b * b) * phi_xt,
        phi_tt=b * b * phi_xx - 2 * a * b * phi_xt + a * a * phi_tt)


def wick_substitute(p: NonparametricPatch) -> NonparametricPatch:
    """t -> i t on derivative data: phi_t -> -i phi_t, phi_tt -> -phi_tt,
    phi_xt -> -i phi_xt.  x, phi, phi_x, phi_xx and valid_mask, which the
    substitution leaves unchanged, are shared with `p`, not copied.  Factors
    of +-1 and +-i keep finite data finite: no second scan (README)."""
    q = copy.copy(p)
    q.t, q.phi_t, q.phi_xt, q.phi_tt = 1j * p.t, -1j * p.phi_t, -1j * p.phi_xt, -p.phi_tt
    return q


__all__ = [
    "LorentzBoost", "NonparametricPatch", "PDEError", "boost", "born_infeld_residual",
    "chain_rule_partials", "minimal_surface_residual", "wick_substitute",
]
