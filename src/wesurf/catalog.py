"""Registry of Weierstrass-Enneper generating functions R(w).

Each entry supplies the holomorphic density R(w) of the classical
representation

    x = x0 + Re int (1 - w^2) R(w) dw
    t = t0 + Re int i (1 + w^2) R(w) dw
    phi = phi0 + Re int 2 w R(w) dw

together with its singularity set and a default parameter-plane domain on
which the finite-difference verification suite meets its tolerances (pole
clearance governs how tight the domain must be).  Harmonic conjugation is
the substitution R -> -i R; wesurf takes the conjugate surface as Im of the
same integral (`generate.generate_conjugate_pair`), so R itself is never
rotated.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grids import ParamGrid
from .stencils import all_finite


class CatalogError(ValueError):
    pass


class SingularEvaluation(CatalogError):
    pass


class BranchRegionError(CatalogError):
    """Evaluation left the principal-branch region of a multivalued entry."""


@dataclass(frozen=True)
class SurfaceEntry:
    """Everything the catalog knows about one surface id.

    R and dR map (WEFunction, complex array w) to R(w) and dR/dw; poles
    lists the finite poles / branch points.  domain is the (kind, bounds) of
    the default verification grid, None where the entry has no default
    (custom); base is the default integration base point, and flip_t negates
    the produced surface's t component.
    """

    R: Callable
    dR: Callable
    poles: Callable
    domain: tuple[str, tuple[float, float, float, float]] | None
    base: complex = 0.0 + 0.0j
    flip_t: bool = False


def _schwarz_radicand(w):
    s = 1.0 - 14.0 * w ** 4 + w ** 8
    if np.any(np.real(s) <= 0):
        raise BranchRegionError(
            "schwarz_riemann evaluated outside the principal-branch region "
            "Re(1 - 14 w^4 + w^8) > 0; restrict the domain/path")
    return s


def _general_scherk_den(f, w):
    return 1.0 + 2.0 * w ** 2 * math.cos(2.0 * f.alpha) + w ** 4


def _general_scherk_dR(f, w):
    c2a = math.cos(2.0 * f.alpha)
    return (2.0j * f.a * math.sin(2.0 * f.alpha) * (4.0 * w * c2a + 4.0 * w ** 3)
            / _general_scherk_den(f, w) ** 2)


def _general_scherk_poles(f):
    root = cmath.exp(1j * (math.pi / 2 - f.alpha))
    other = cmath.exp(1j * (math.pi / 2 + f.alpha))
    return [root, -root, other, -other]


def _custom_R(f, w):
    return np.polyval(np.asarray(f.numerator), w) / np.polyval(np.asarray(f.denominator), w)


def _custom_dR(f, w):
    num = np.asarray(f.numerator)
    den = np.asarray(f.denominator)
    p = np.polyval(num, w)
    q = np.polyval(den, w)
    dp = np.polyval(np.polyder(num), w) if len(num) > 1 else np.zeros_like(w)
    dq = np.polyval(np.polyder(den), w) if len(den) > 1 else np.zeros_like(w)
    return (dp * q - p * dq) / q ** 2


def _custom_poles(f):
    roots = np.roots(np.asarray(f.denominator)) if len(f.denominator) > 1 else []
    return [complex(z) for z in np.sort_complex(np.asarray(roots, dtype=complex))]


def _pole_at_origin(f):
    return [0.0 + 0.0j]


def _rect(half):
    return ("rectangle", (-half, half, -half, half))


_SQ3 = math.sqrt(3.0)
_SCHWARZ_POLES = tuple(radius * cmath.exp(1j * k * math.pi / 2)
                       for radius in ((2.0 - _SQ3) ** 0.5, (2.0 + _SQ3) ** 0.5)
                       for k in range(4))

# Verification domains keep enough clearance from the entry's poles (for
# quadrature and the conjugacy stencils) and from |w| = 1, where the graph
# slope of every W-E surface diverges (the Gauss map is w), so the
# nonparametric residual checks meet their tolerances.
_POLE_SECTOR = ("annulus", (0.45, 0.7, 0.2, 1.47))

_ENTRIES = {
    "enneper": SurfaceEntry(
        R=lambda f, w: np.ones_like(w), dR=lambda f, w: np.zeros_like(w),
        poles=lambda f: [], domain=_rect(0.45)),
    "catenoid": SurfaceEntry(
        R=lambda f, w: f.kappa / (2.0 * w ** 2), dR=lambda f, w: -f.kappa / w ** 3,
        poles=_pole_at_origin, domain=_POLE_SECTOR, base=1.0 + 0.0j),
    "right_helicoid": SurfaceEntry(
        R=lambda f, w: 1j * f.kappa / (2.0 * w ** 2),
        dR=lambda f, w: -1j * f.kappa / w ** 3,
        poles=_pole_at_origin, domain=_POLE_SECTOR, base=1.0 + 0.0j),
    "general_helicoid": SurfaceEntry(
        R=lambda f, w: f.kappa * cmath.exp(1j * f.alpha) / (2.0 * w ** 2),
        dR=lambda f, w: -f.kappa * cmath.exp(1j * f.alpha) / w ** 3,
        poles=_pole_at_origin, domain=_POLE_SECTOR, base=1.0 + 0.0j),
    "scherk": SurfaceEntry(
        R=lambda f, w: 2.0 / (1.0 - w ** 4),
        dR=lambda f, w: 8.0 * w ** 3 / (1.0 - w ** 4) ** 2,
        poles=lambda f: [1.0 + 0j, -1.0 + 0j, 1j, -1j], domain=_rect(0.5)),
    "general_scherk": SurfaceEntry(
        R=lambda f, w: -2.0j * f.a * math.sin(2.0 * f.alpha) / _general_scherk_den(f, w),
        dR=_general_scherk_dR, poles=_general_scherk_poles, domain=_rect(0.4)),
    "henneberg": SurfaceEntry(
        R=lambda f, w: 1.0 - w ** -4, dR=lambda f, w: 4.0 * w ** -5,
        poles=_pole_at_origin, domain=("annulus", (0.6, 0.75, 0.25, 1.32)),
        base=0.675 * cmath.exp(0.785j), flip_t=True),
    "general_enneper": SurfaceEntry(
        R=lambda f, w: 1j * f.a * (w ** 2 - 1.0) / w ** 3 - 1j * f.b / (2.0 * w ** 2),
        dR=lambda f, w: 1j * f.a * (-(w ** -2) + 3.0 * w ** -4) + 1j * f.b / w ** 3,
        poles=_pole_at_origin, domain=("annulus", (0.6, 0.75, 0.2, 1.47)),
        base=0.675 * cmath.exp(0.835j)),
    "schwarz_riemann": SurfaceEntry(
        R=lambda f, w: _schwarz_radicand(w) ** -0.5,
        dR=lambda f, w: (28.0 * w ** 3 - 4.0 * w ** 7) * _schwarz_radicand(w) ** -1.5,
        poles=lambda f: list(_SCHWARZ_POLES), domain=_rect(0.25)),
    "custom": SurfaceEntry(R=_custom_R, dR=_custom_dR, poles=_custom_poles, domain=None),
}

CATALOG_IDS = tuple(_ENTRIES)


@dataclass(frozen=True)
class WEFunction:
    """A catalog R(w) with its parameters.

    Parameters not used by an entry are ignored, but every entry requires
    kappa, alpha, a and b finite, kappa nonzero and a, b not both zero, the
    values at which R vanishes identically.  `custom` entries evaluate
    the rational function numerator(w)/denominator(w) with coefficients in
    descending powers (numpy.polyval convention).
    """

    id: str
    kappa: float = 1.0
    alpha: float = math.pi / 4
    a: float = 1.0
    b: float = 1.0
    numerator: tuple[complex, ...] = (1.0,)
    denominator: tuple[complex, ...] = (1.0,)

    def __post_init__(self):
        if self.id not in CATALOG_IDS:
            raise CatalogError(
                f"unknown surface id {self.id!r}; valid ids: {', '.join(CATALOG_IDS)}")
        for name in ("kappa", "alpha", "a", "b"):
            if not cmath.isfinite(getattr(self, name)):
                raise CatalogError(f"{name} must be finite, got {getattr(self, name)}")
        if self.kappa == 0:
            raise CatalogError("kappa must be nonzero")
        if self.a == 0 and self.b == 0:
            raise CatalogError("a and b must not both be zero")
        if self.id == "general_scherk":
            if not (0.0 < self.alpha < math.pi / 2):
                raise CatalogError("general_scherk requires 0 < alpha < pi/2")
            if self.a <= 0:
                raise CatalogError("general_scherk requires a > 0")
        if self.id == "custom":
            if len(self.denominator) == 0 or not any(c != 0 for c in self.denominator):
                raise CatalogError("custom entry needs a nonzero denominator")
            object.__setattr__(self, "numerator", tuple(complex(c) for c in self.numerator))
            object.__setattr__(self, "denominator", tuple(complex(c) for c in self.denominator))


def _evaluate(f: WEFunction, w, rule: Callable, label: str) -> np.ndarray | complex:
    w_arr = np.asarray(w, dtype=complex)
    scalar = w_arr.ndim == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = rule(f, w_arr if not scalar else w_arr[None])
    if not all_finite(out):
        raise SingularEvaluation(f"{label} evaluated at a singular point")
    return complex(out[0]) if scalar else out


def eval_R(f: WEFunction, w) -> np.ndarray | complex:
    """R(w), vectorized over w.

    Raises SingularEvaluation if any sample hits a singularity (non-finite
    result); callers keep paths away from poles via quadrature's exclusion
    checks, this guard only catches exact hits.
    """
    return _evaluate(f, w, _ENTRIES[f.id].R, f"R({f.id})")


def eval_R_deriv(f: WEFunction, w) -> np.ndarray | complex:
    """dR/dw, vectorized (for exact second derivatives)."""
    return _evaluate(f, w, _ENTRIES[f.id].dR, f"dR/dw ({f.id})")


def singularity_points(f: WEFunction) -> list[complex]:
    """All finite poles / branch points of the entry, unfiltered."""
    return _ENTRIES[f.id].poles(f)


def _defaults(surface_id: str) -> SurfaceEntry:
    entry = _ENTRIES.get(surface_id)
    if entry is None or entry.domain is None:
        raise CatalogError(
            f"no default domain for {surface_id!r}; valid ids: "
            f"{', '.join(sorted(i for i, e in _ENTRIES.items() if e.domain))}")
    return entry


def verification_grid(surface_id: str, refine: int = 1) -> ParamGrid:
    """Default verification domain of an entry at step h ~= 1e-2 / refine."""
    kind, b = _defaults(surface_id).domain
    h = 0.01 / refine
    return ParamGrid(kind, int(round((b[1] - b[0]) / h)) + 1,
                     int(round((b[3] - b[2]) / h)) + 1, b)


def default_base(surface_id: str) -> complex:
    return _defaults(surface_id).base


def default_flip_t(surface_id: str) -> bool:
    return _defaults(surface_id).flip_t


def catalog_function(surface_id: str, **params) -> WEFunction:
    """Build a WEFunction by id with per-entry defaults for its parameters."""
    return WEFunction(id=surface_id, **params)


__all__ = [
    "BranchRegionError", "CATALOG_IDS", "CatalogError", "SingularEvaluation",
    "WEFunction", "catalog_function", "default_base",
    "default_flip_t", "eval_R", "singularity_points",
    "verification_grid",
]
