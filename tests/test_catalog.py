import math

import numpy as np
import pytest

import wesurf as ws
from wesurf.catalog import (BranchRegionError, CatalogError, eval_R_deriv,
                            singularity_points)

ALL_IDS = [i for i in ws.CATALOG_IDS if i != "custom"]


# -------------------------------------------------------------- evaluation

def test_enneper_is_one_everywhere():
    f = ws.catalog_function("enneper")
    assert ws.eval_R(f, 0.3 - 2.0j) == 1.0


def test_catenoid_value_at_one():
    f = ws.catalog_function("catenoid", kappa=1.0)
    assert ws.eval_R(f, 1.0) == 0.5


def test_scherk_value_at_zero():
    assert ws.eval_R(ws.catalog_function("scherk"), 0.0) == 2.0


def test_henneberg_vanishes_at_i():
    assert abs(ws.eval_R(ws.catalog_function("henneberg"), 1j)) == 0.0


def test_general_scherk_value_at_zero():
    f = ws.catalog_function("general_scherk", alpha=math.pi / 4, a=1.0)
    assert abs(ws.eval_R(f, 0.0) - (-2.0j)) < 1e-15


def test_schwarz_riemann_value_at_zero():
    assert ws.eval_R(ws.catalog_function("schwarz_riemann"), 0.0) == 1.0


def test_custom_rational_function():
    f = ws.WEFunction("custom", numerator=(1.0, 0.0), denominator=(1.0, 0.0, -1.0))
    # w / (w^2 - 1)
    assert abs(ws.eval_R(f, 2.0) - 2.0 / 3.0) < 1e-15
    assert [round(s.real, 6) for s in singularity_points(f)] == [-1.0, 1.0]


def test_singular_point_evaluation_raises():
    with pytest.raises(ws.SingularEvaluation):
        ws.eval_R(ws.catalog_function("catenoid"), 0.0)


def test_schwarz_riemann_branch_guard():
    with pytest.raises(BranchRegionError):
        ws.eval_R(ws.catalog_function("schwarz_riemann"), 0.8)


def test_parameter_constraints():
    with pytest.raises(CatalogError):
        ws.catalog_function("general_scherk", alpha=2.0)
    with pytest.raises(CatalogError):
        ws.catalog_function("general_scherk", a=-1.0)
    with pytest.raises(CatalogError):
        ws.catalog_function("bogus_surface")


@pytest.mark.parametrize("surface, params, message", [
    ("catenoid", {"kappa": 0.0}, "kappa must be nonzero"),
    ("enneper", {"kappa": -0.0}, "kappa must be nonzero"),
    ("catenoid", {"kappa": math.nan}, "kappa must be finite"),
    ("scherk", {"alpha": math.inf}, "alpha must be finite"),
    ("general_scherk", {"a": -math.inf}, "a must be finite"),
    ("custom", {"b": math.nan}, "b must be finite"),
    ("general_enneper", {"a": 0.0, "b": 0.0}, "a and b must not both be zero"),
    ("catenoid", {"a": 0.0, "b": -0.0}, "a and b must not both be zero"),
])
def test_vanishing_or_non_finite_parameters_are_named(surface, params, message):
    with pytest.raises(CatalogError, match=f"^{message}"):
        ws.catalog_function(surface, **params)


# ------------------------------------------------------------- conjugation

@pytest.mark.parametrize("evaluate", [ws.eval_R, eval_R_deriv], ids=["R", "dR"])
def test_conjugate_of_right_helicoid_is_catenoid(evaluate):
    # right_helicoid's R is i times catenoid's, so R -> -i R, the harmonic
    # conjugate, takes one entry's values (and derivatives) to the other's
    hel = ws.catalog_function("right_helicoid", kappa=2.5)
    cat = ws.catalog_function("catenoid", kappa=2.5)
    w = 0.4 + 0.3j
    assert -1j * evaluate(hel, w) == evaluate(cat, w)


# ------------------------------------------------------------ singularities

def test_schwarz_riemann_branch_point_radii():
    pts = singularity_points(ws.catalog_function("schwarz_riemann"))
    radii = sorted({round(abs(p), 6) for p in pts})
    assert len(pts) == 8
    assert radii == [round(math.sqrt(2.0 - math.sqrt(3.0)), 6),
                     round(math.sqrt(2.0 + math.sqrt(3.0)), 6)]


def test_general_scherk_poles_on_unit_circle():
    f = ws.catalog_function("general_scherk", alpha=0.6, a=2.0)
    pts = singularity_points(f)
    assert len(pts) == 4
    for p in pts:
        assert abs(abs(p) - 1.0) < 1e-12
        # they really are roots of the denominator
        assert abs(1.0 + 2.0 * p ** 2 * math.cos(1.2) + p ** 4) < 1e-12


# ------------------------------------- derivative/antiderivative consistency

CLOSED_ANTIDERIVATIVES = {
    # entry id -> holomorphic antiderivative of the x-integrand (1 - w^2) R
    "enneper": lambda w: w - w ** 3 / 3.0,
    "catenoid": lambda w: -0.5 * (w + 1.0 / w),
    "right_helicoid": lambda w: -0.5j * (w + 1.0 / w),
    "henneberg": lambda w: w - w ** 3 / 3.0 + w ** -3 / 3.0 - 1.0 / w,
}


@pytest.mark.parametrize("sid", sorted(CLOSED_ANTIDERIVATIVES))
def test_eval_R_matches_derivative_of_closed_antiderivative(sid):
    f = ws.catalog_function(sid, kappa=1.0)
    anti = CLOSED_ANTIDERIVATIVES[sid]
    w = np.asarray([0.5 + 0.2j, -0.4 + 0.6j, 0.8 - 0.1j])
    h = 3e-6
    numeric = (anti(w + h) - anti(w - h)) / (2.0 * h)
    assert np.max(np.abs(numeric - (1.0 - w ** 2) * ws.eval_R(f, w))) < 1e-8


@pytest.mark.parametrize("sid", ALL_IDS)
def test_analytic_R_derivative_matches_finite_difference(sid):
    f = ws.catalog_function(sid)
    w = 0.3 * np.exp(1j * np.linspace(0.2, 1.3, 7))
    h = 1e-6
    numeric = (ws.eval_R(f, w + h) - ws.eval_R(f, w - h)) / (2.0 * h)
    assert np.max(np.abs(numeric - eval_R_deriv(f, w))) < 1e-7


def test_verification_grids_avoid_singularities():
    for sid in ALL_IDS:
        g = ws.verification_grid(sid)
        r = g.nodes()
        for s in singularity_points(ws.catalog_function(sid)):
            assert np.min(np.abs(r - s)) > 0.05
