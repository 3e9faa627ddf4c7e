"""Wick rotation and the one-parameter family of Born-Infeld solitons.

From a conjugate pair of real minimal surfaces X, Y (isothermal, sharing a
grid), Wick rotation t -> i t yields complex solutions X^s, Y^s of the
Born-Infeld equation, and every combination

    S_theta = cos(theta) X^s + sin(theta) Y^s = (cos(theta) X + sin(theta) Y)^s

is again a solution: Wick rotation is linear, so S_theta is the rotated
member at angle theta of X's associate (Bonnet) family, and `SolitonFamily.at`
builds it that way.  X and Y are real surfaces, float64.  The family stores
the pair as parts, X's and Y's float arrays with unit stride, for the values,
and reads the parts of the first and second derivatives of a span of rows
from one source (a generated family evaluates only their d/dr1 slots Phi',
Phi'' from R, whose real and imaginary parts are X's and Y's, and builds
the rest by Cauchy-Riemann).  The member at angle theta is
X_theta = Re(e^{-i theta} (X + i Y)) = cos(theta) X + sin(theta) Y, taken
on the parts into fresh float64 arrays, each validated once: the values
now, jac and jac2 on first read.  S_theta is that member plus one Wick
rule (`WickRotated`): every check reads `.member`, in float arithmetic,
and only the writers and `verify_soliton_relations` read S_theta's
complex values, built once on first read.  Each theta derivative is a
member too: d^n S_theta / d theta^n is S at theta + n pi/2, and `at` hits
the quarter angles exactly (`_cos_sin`).  The family's F/G data is the
same combination of the members' handles, F_theta = cos(theta) F_1 +
sin(theta) F_2, which for the helicoid/catenoid pair collapses to
(i/2) e^{-i theta} / r.

`verify_soliton_relations` certifies S_theta against its F/G data by
checking the three defining relations

    x - t  = F(r)    - int rbar^2 G'(rbar) drbar
    x + t  = G(rbar) - int r^2    F'(r)    dr
    phi    = int r F'(r) dr + int rbar G'(rbar) drbar

nodewise, with the integration constants calibrated at the grid node
(0, 0).  Note the left-hand sides combine x and t directly: for
Wick-rotated components x^s -+ t^s equals the minimal surface's x -+ i t.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .grids import ParamGrid, SurfaceGrid, conjugacy_violation
from .hodograph import FGPair, fg_integrals
from .reports import ResidualReport, residual_report

_TRIG_SNAP = 1e-15
CR_TOLERANCE = 1e-6  # max Cauchy-Riemann defect of an accepted pair


class FamilyError(ValueError):
    pass


def _cos_sin(theta: float) -> tuple[float, float]:
    """cos/sin with quarter-angle snapping.

    cos(pi/2) evaluates to ~6e-17 in floats; snapping it to zero makes the
    family hit its members exactly at multiples of pi/2 (the residual would
    otherwise be 1e-16-scale noise, which matters for exact-equality checks).
    """
    c, s = math.cos(theta), math.sin(theta)
    if abs(c) < _TRIG_SNAP:
        c = 0.0
    if abs(s) < _TRIG_SNAP:
        s = 0.0
    return c, s


@dataclass(frozen=True)
class WickRotated:
    """S = X^s for a validated real member X (`wick_rotate`): t -> i t.

    S's values are built by the one Wick rule on their first read and then
    kept, read-only: x and phi keep X's parts, with imaginary parts +0, and
    t = m becomes m * 0 + i (m + 0), the bits of 1j * (m + 0j), so its real
    part is a zero with the sign of m.  They derive exactly from X's finite
    data, so they are not scanned.  Everything else reads the member.
    """

    member: SurfaceGrid
    grid = property(lambda self: self.member.grid)
    meta = property(lambda self: self.member.meta)

    @cached_property
    def values(self) -> np.ndarray:
        z = self.member.values.astype(complex)
        t = z[1]
        np.add(t.real, 0.0, out=t.imag)
        np.multiply(t.real, 0.0, out=t.real)
        z.flags.writeable = False
        return z


def wick_rotate(member: SurfaceGrid) -> WickRotated:
    """S = member^s, t -> i t, for a validated real member (`WickRotated`)."""
    return WickRotated(member)


def _parts(a: np.ndarray | None, b: np.ndarray | None) -> tuple | None:
    """Read-only copies of a and b, the float arrays of two real members,
    as the two halves of one new array; None when either is missing.

    Copying lets the members' own arrays be freed for the heap to reuse;
    a family that held them instead doubled the page faults of the checks
    run on it (README, Numerical notes)."""
    if a is None or b is None:
        return None
    planes = np.stack((a, b))
    planes.flags.writeable = False
    return planes[0], planes[1]


def _row_slices(jac: tuple | None, jac2: tuple | None):
    """The derivative source of jac and jac2 held whole, each an (X part,
    Y part) pair: a function of a row slice that returns those rows of
    each (None stays None)."""
    for z in (jac, jac2):
        for part in z or ():
            part.flags.writeable = False
    return lambda rows: tuple(None if z is None else tuple(part[..., rows, :] for part in z)
                              for z in (jac, jac2))


# A one-slot jac or jac2 holds the d/dr1 slot z of a holomorphic pair
# X + i Y; by Cauchy-Riemann the d/dr2 (and d12) slot is i z and the d22 slot
# is -z.  Slot j's X and Y parts, Re and Im of that multiple of z, each as
# (sign, 0 for Re z or 1 for Im z):
_SLOT_PARTS = (((1.0, 0), (1.0, 1)),     # z:    Re z,  Im z
               ((-1.0, 1), (1.0, 0)),    # i z: -Im z,  Re z
               ((-1.0, 0), (-1.0, 1)))   # -z:  -Re z, -Im z
_SLOTS = {"values": 1, "jac": 2, "jac2": 3}  # derivative slots of each array


class SolitonFamily:
    """A conjugate minimal-surface pair X, Y; `at` builds S_theta from it.

    The pair is stored as parts: `values` is the pair (X's values, Y's
    values) of float64 arrays, and the jac and jac2 of a slice of grid rows
    come from one derivative source, `derivatives(rows)`, as such pairs
    too (each None when the pair lacks it).  Every grid of a part is
    contiguous, so `at` combines unit-stride rows (the real and imaginary
    views of a complex array have a 16-byte stride, and multiply at half
    the speed).  A family built from two surfaces copies X's and Y's
    arrays into one read-only array per field, X's half and Y's
    (`_parts`), and its source slices them.  A generated family (`from_parts`, as
    `generate_conjugate_pair` writes it) holds only its values: its source
    evaluates Phi' and Phi'' from R, the one-slot jac and jac2 whose every
    other slot follows by Cauchy-Riemann (`_SLOT_PARTS`), each time it is
    read; a member reads it at the first read of its jac or jac2.
    `rows(i, j)` reads the source once for its rows and keeps the result,
    so every `at` of a band reuses it.  `analytic` tells whether the pair
    carries analytic first derivatives without reading them.  X and Y are
    rebuilt on demand, as fresh float64 surfaces, and iterating the family
    gives (X, Y) that share one read of the source; the family keeps no
    reference to the surfaces it was built from.

    The pair must pass the Cauchy-Riemann conjugacy check before a family is
    accepted; corruption tests can bypass with validate=False.
    """

    def __init__(self, X: SurfaceGrid, Y: SurfaceGrid, validate: bool = True):
        if X.grid != Y.grid:
            raise FamilyError("family members must share a ParamGrid")
        if validate:
            defect = conjugacy_violation(X, Y, source="auto",
                                         accuracy=2, interior_only=True)
            if defect > CR_TOLERANCE:
                raise FamilyError(
                    f"surfaces are not harmonic conjugates: CR defect {defect:.3g} "
                    f"> {CR_TOLERANCE:.3g}")
        self.grid = X.grid
        self.values = _parts(X.values, Y.values)
        jac = _parts(X.jac, Y.jac)
        self.derivatives = _row_slices(jac, _parts(X.jac2, Y.jac2))
        self.analytic = jac is not None
        self._metas = (dict(X.meta), dict(Y.meta))
        self._y_scale = 1.0

    @classmethod
    def from_parts(cls, grid: ParamGrid, values: tuple[np.ndarray, np.ndarray], derivatives,
                   metas: tuple[dict, dict], y_scale: float = 1.0) -> "SolitonFamily":
        """The family whose values are the float64 parts (X's, Y's) given
        (taken over, not copied, and made read-only), with
        `derivatives(rows)` the source of its jac and jac2 parts on a slice
        of grid rows; metas are X's and Y's.

        The source may return the d/dr1 slot alone, shape (3, 1, rows, n2),
        when X + i Y is holomorphic: its parts are then Re z and Im z of
        that slot z, the d/dr2 and d12 slots are i z and the d22 slot -z.
        Y is y_scale times what the arrays hold, the product taken when a
        member is built.
        """
        fam = cls.__new__(cls)
        for part in values:
            part.flags.writeable = False
        fam.grid, fam.values, fam.derivatives, fam.analytic = grid, values, derivatives, True
        fam._metas = (dict(metas[0]), dict(metas[1]))
        fam._y_scale = float(y_scale)
        return fam

    def _real_array(self, name: str, z: tuple | None, part) -> np.ndarray | None:
        """A fresh float64 array for the family's values, jac or jac2
        (`name`, whose (X, Y) parts z holds), each grid of it written by
        part(sx, x, sy, y, out); None when z is None.

        x and y are float arrays of one component and slot of X and of Y up
        to the signs sx and sy: rows of the stored parts, y times the
        family's y_scale, and a one-slot jac or jac2 is spread over its slots
        by `_SLOT_PARTS`.  This is the one place that rule is applied.
        """
        if z is None:
            return None
        if name == "values":
            z = tuple(p[:, None] for p in z)  # one slot, as z
        compact = z[0].shape[1] == 1
        out = np.empty((len(z[0]), _SLOTS[name]) + z[0].shape[2:])
        for k, j in np.ndindex(out.shape[:2]):  # small temporaries: one grid each
            re_im = tuple(p[k, 0 if compact else j] for p in z)
            (sx, px), (sy, py) = _SLOT_PARTS[j if compact else 0]
            x, y = re_im[px], re_im[py]
            if self._y_scale != 1.0:
                y = self._y_scale * y
            part(sx, x, sy, y, out[k, j])
        return out[:, 0] if name == "values" else out

    def _real_surface(self, part, meta: dict) -> SurfaceGrid:
        """The real surface of part (`_real_array`), float64: its values now,
        its jac and jac2 on first read, from one shared source read."""
        read = cache(lambda: self.derivatives(slice(None)))
        return SurfaceGrid(self.grid, self._real_array("values", self.values, part),
                           lambda: self._real_array("jac", read()[0], part),
                           lambda: self._real_array("jac2", read()[1], part), meta)

    def rows(self, i: int, j: int) -> "SolitonFamily":
        """The family over grid rows i..j-1 (`ParamGrid.rows`): views of the
        values' parts, no copy, whose derivative source slices the jac and
        jac2 parts of those rows, read from this family's source once, at
        a member's first read of them.  Its `at` gives those rows of the
        whole family's `at`, bit for bit, since it is built nodewise."""
        view = copy.copy(self)
        view.grid = self.grid.rows(i, j)
        view.values = tuple(p[..., i:j, :] for p in self.values)
        read = cache(lambda: _row_slices(*self.derivatives(slice(i, j))))
        view.derivatives = lambda rows: read()(rows)
        return view

    @property
    def X(self) -> SurfaceGrid:
        return self._real_surface(lambda sx, x, sy, y, out: np.multiply(sx, x, out=out),
                                  dict(self._metas[0]))

    @property
    def Y(self) -> SurfaceGrid:
        return self._real_surface(lambda sx, x, sy, y, out: np.multiply(sy, y, out=out),
                                  dict(self._metas[1]))

    def __iter__(self):
        """X, then Y: `X, Y = fam` unpacks the pair, which shares one read
        of the derivative source (`rows` over the whole grid)."""
        whole = self.rows(0, self.grid.n1)
        yield whole.X
        yield whole.Y

    def at(self, theta: float) -> WickRotated:
        """S_theta = (cos(theta) X + sin(theta) Y)^s, componentwise.

        The real member X_theta is combined on the float parts into fresh
        float64 arrays (real products, unlike numpy's SIMD complex ones, are
        commutative bit for bit), each validated once when it is built
        (`_real_surface`); `wick_rotate` gives S_theta as that member, whose
        t keeps the combination's sign of zero for the Wick rule.  No array
        shares memory with the family's.
        """
        c, s = _cos_sin(theta)
        meta = {"surface": self._metas[0].get("surface"), "theta": theta,
                "base": self._metas[0].get("base")}

        def combine(sx, x, sy, y, out):
            # the signs go on the weights: c * (-x) and (-c) * x are the same bits
            np.add(np.multiply(sx * c, x, out=out), (sy * s) * y, out=out)

        return wick_rotate(self._real_surface(combine, meta))


def family_fg(pair1: FGPair, pair2: FGPair, theta: float) -> FGPair:
    """F/G data of S_theta: the cos/sin combination of the members' handles.

    Real weights preserve the reality constraint F(r) = conj(G(conj r)).
    """
    c, s = _cos_sin(theta)

    def comb(f1, f2):
        return lambda w: c * f1(w) + s * f2(w)

    constraint = pair1.reality_constraint and pair2.reality_constraint
    return FGPair(F=comb(pair1.F, pair2.F), G=comb(pair1.G, pair2.G),
                  Fp=comb(pair1.Fp, pair2.Fp), Gp=comb(pair1.Gp, pair2.Gp),
                  reality_constraint=constraint,
                  label=f"{pair1.label}+{pair2.label}@{theta:g}")


@dataclass(frozen=True)
class SolitonRelationsReport:
    """Mismatch statistics of the three defining relations."""

    x_minus_t: ResidualReport
    x_plus_t: ResidualReport
    phi: ResidualReport

    @property
    def max_mismatch(self) -> float:
        return float(np.max([self.x_minus_t.max_abs, self.x_plus_t.max_abs,
                             self.phi.max_abs]))


def verify_soliton_relations(s: WickRotated, p: FGPair,
                             singularities=()) -> SolitonRelationsReport:
    """Check S_theta against its F/G data, nodewise, in complex arithmetic.

    All four integrals run from the grid node (0, 0) along the fixed path
    family; each relation's constant is calibrated at that node.
    """
    rhs = fg_integrals(p, s.grid, complex(s.grid.nodes()[0, 0]), singularities)
    x, t, phi = s.values
    lhs = (x - t, x + t, phi)
    reports = []
    for left, right in zip(lhs, rhs):
        shift = left[0, 0] - right[0, 0]
        reports.append(residual_report(np.abs(left - right - shift)))
    return SolitonRelationsReport(*reports)


__all__ = [
    "FamilyError", "SolitonFamily", "SolitonRelationsReport", "WickRotated", "family_fg",
    "verify_soliton_relations", "wick_rotate",
]
