import dataclasses
import math

import numpy as np
import pytest

import wesurf as ws
from wesurf import hodograph
from wesurf.hodograph import HodographError

from conftest import rng_points
from oracles import check_reality, fg_integrals_two_sweeps, nearest_node, surface_from_fg


# ------------------------------------------------------------- closed forms

def test_catenoid_closed_form_at_two():
    g = ws.ParamGrid("annulus", 3, 3, (1.5, 2.0, -0.1, 0.1), allow_unit_circle=True)
    s = ws.catenoid_closed(ws.ParamGrid("rectangle", 3, 3, (1.9, 2.1, -0.1, 0.1)))
    i, j = 1, 1  # node at r = 2.0 + 0j
    assert abs(complex(s.x[i, j]) - 1.25) < 1e-14
    assert abs(complex(s.t[i, j])) < 1e-14
    assert abs(complex(s.phi[i, j]) + math.log(2.0)) < 1e-14
    _ = g


def test_helicoid_closed_form_at_i():
    g = ws.ParamGrid("rectangle", 3, 3, (-0.1, 0.1, 0.9, 1.1))
    s = ws.helicoid_closed(g)
    i, j = 1, 1  # node at r = i
    assert abs(complex(s.x[i, j])) < 1e-14
    assert abs(complex(s.t[i, j])) < 1e-14
    assert abs(complex(s.phi[i, j]) - math.pi / 2) < 1e-14


def test_combined_coordinates_are_holomorphic(annulus_grid):
    # x1 + i x2 = (i/2)(r + 1/r), t1 + i t2 = (r - 1/r)/2, phi1 + i phi2 = -i ln r
    hel = ws.helicoid_closed(annulus_grid)
    cat = ws.catenoid_closed(annulus_grid)
    r = annulus_grid.nodes()
    assert np.max(np.abs((hel.x + 1j * cat.x) - 0.5j * (r + 1.0 / r))) < 1e-13
    assert np.max(np.abs((hel.t + 1j * cat.t) - 0.5 * (r - 1.0 / r))) < 1e-13
    # numerical Cauchy-Riemann check on the pair
    assert ws.conjugacy_violation(hel, cat, source="analytic") < 1e-8


def test_closed_forms_reject_zero_node():
    g = ws.ParamGrid("rectangle", 3, 3, (-0.1, 0.1, -0.1, 0.1))
    with pytest.raises(HodographError):
        ws.helicoid_closed(g)


# ------------------------------------------------------------------ FG pairs

def test_fg_reality_constraints_hold():
    pts = rng_points(64)
    for pair in (ws.helicoid_fg(), ws.catenoid_fg(), ws.enneper_fg(),
                 ws.enneper_conjugate_fg()):
        assert check_reality(pair, pts, tol=1e-12) < 1e-12


def test_fg_reality_violation_detected():
    bad = ws.FGPair(F=lambda r: 1j * r, G=lambda s: 1j * s,
                    Fp=lambda r: 1j * np.ones_like(r),
                    Gp=lambda s: 1j * np.ones_like(s),
                    reality_constraint=True, label="bad")
    with pytest.raises(HodographError):
        check_reality(bad, rng_points(8))


def test_surface_from_helicoid_fg_matches_closed_form(annulus_grid):
    got = surface_from_fg(ws.helicoid_fg(), annulus_grid, base=1.0, singularities=[0.0])
    oracle = ws.helicoid_closed(annulus_grid)
    # integration constants are pinned at the base node
    idx = nearest_node(annulus_grid, 1.0)
    shift = oracle.values[:, idx[0], idx[1]] - got.values[:, idx[0], idx[1]]
    assert np.max(np.abs(got.values + shift[:, None, None] - oracle.values)) < 1e-9


def test_surface_from_catenoid_fg_matches_closed_form(annulus_grid):
    got = surface_from_fg(ws.catenoid_fg(), annulus_grid, base=1.0, singularities=[0.0])
    oracle = ws.catenoid_closed(annulus_grid)
    idx = nearest_node(annulus_grid, 1.0)
    shift = oracle.values[:, idx[0], idx[1]] - got.values[:, idx[0], idx[1]]
    assert np.max(np.abs(got.values + shift[:, None, None] - oracle.values)) < 1e-9


def test_degenerate_fg_gives_constant_surface(annulus_grid):
    zero = ws.FGPair(F=lambda r: np.zeros_like(r), G=lambda s: np.zeros_like(s),
                     Fp=lambda r: np.zeros_like(r), Gp=lambda s: np.zeros_like(s),
                     reality_constraint=True, label="zero")
    s = surface_from_fg(zero, annulus_grid, base=1.0)
    assert np.max(np.abs(s.values)) == 0.0


def test_real_surface_imaginary_part_tolerance_edge():
    # F' = 1 and G' = 1 + delta: the reality defect |G'(conj r) - conj F'(r)|
    # is delta at every node, and the bound is REAL_IMAG_TOL * (1 + 1) = 2e-12
    g = ws.ParamGrid("rectangle", 3, 4, (0.5, 1.0, 0.0, 1.0))
    assert hodograph.REAL_IMAG_TOL == 1e-12

    def pair(delta, claims_reality):
        one = np.ones_like
        return ws.FGPair(F=lambda r: r + 0j, G=lambda s: s + 0j, Fp=one,
                         Gp=lambda s: np.full_like(s, 1 + delta),
                         reality_constraint=claims_reality, label="shifted")

    inside = ws.fg_integrals(pair(1.5e-12, True), g, 0.5)
    assert all(np.all(np.isfinite(z)) for z in inside)
    with pytest.raises(HodographError, match="shifted"):
        ws.fg_integrals(pair(2.5e-12, True), g, 0.5)
    swept = ws.fg_integrals(pair(2.5e-12, False), g, 0.5)
    r = g.nodes()
    assert np.max(np.abs(swept[1] - (r.conj() - (r ** 3 - 0.125) / 3))) < 1e-14


def test_fg_surface_is_harmonic_and_isothermal(annulus_grid):
    s = surface_from_fg(ws.helicoid_fg(), annulus_grid, base=1.0, singularities=[0.0])
    form = ws.fundamental_form(s, source="analytic")
    assert form.isothermal_defect < 1e-10
    mask_worst = max(float(np.max(np.abs(ws.laplacian(s, c, accuracy=6))))
                     for c in ("x", "t", "phi"))
    assert mask_worst < 1e-4  # includes one-sided edge rows


def test_fg_roundtrip_recovers_F(annulus_grid):
    # x - i t + int rbar^2 G' = F(r) up to the base-node constant
    pair = ws.catenoid_fg()
    s = surface_from_fg(pair, annulus_grid, base=1.0, singularities=[0.0])
    r = annulus_grid.nodes()
    B = ws.antiderivative_on_grid(lambda w: w ** 2 * pair.Gp(w), 1.0,
                                  annulus_grid, singularities=[0.0],
                                  conjugate_plane=True)
    recovered = s.x - 1j * s.t + B
    expected = pair.F(r)
    shift = (expected - recovered)[0, 0]
    assert np.max(np.abs(recovered + shift - expected)) < 1e-10


# ------------------------------------------ one sweep for a real pair

FG_GRIDS = [  # (grid, base)
    (ws.ParamGrid("annulus", 24, 40, (0.4, 0.9, 0.0, 2 * math.pi)), 0.65),
    (ws.ParamGrid("annulus", 21, 33, (0.3, 0.95, -1.0, 2.0)), 0.8 + 0.3j),
    (ws.ParamGrid("rectangle", 25, 31, (0.2, 1.0, -0.7, 0.9)), 0.5 + 0.1j),
]
# base 0 puts chains on both axes, where integrals have exactly zero
# imaginary parts whose signs a plain conj of the first sweep would flip
ENNEPER_GRID = (ws.ParamGrid("rectangle", 23, 29, (-1.0, 1.0, -1.0, 1.0)), 0.0)
FG_THETAS = (0.0, 0.3, 0.7, math.pi / 2, 2.5, 4.0)


def _real_pairs():
    hc = (ws.helicoid_fg(), ws.catenoid_fg())
    en = (ws.enneper_fg(), ws.enneper_conjugate_fg())
    cases = [(p, [0.0]) for p in hc] + [(p, []) for p in en]
    cases += [(ws.family_fg(*hc, th), [0.0]) for th in FG_THETAS]
    cases += [(ws.family_fg(*en, th), []) for th in FG_THETAS]
    return cases


def _spy_sweeps(monkeypatch) -> list[bool]:
    """The conjugate_plane flag of every grid sweep fg_integrals runs."""
    calls = []
    sweep = hodograph.antiderivative_on_grid

    def spy(*args, conjugate_plane=False, **kwargs):
        calls.append(conjugate_plane)
        return sweep(*args, conjugate_plane=conjugate_plane, **kwargs)

    monkeypatch.setattr(hodograph, "antiderivative_on_grid", spy)
    return calls


@pytest.mark.parametrize("pair, sing", _real_pairs(),
                         ids=[p.label for p, _ in _real_pairs()])
def test_real_pair_integrates_once_with_the_bits_of_two_sweeps(monkeypatch, pair, sing):
    calls = _spy_sweeps(monkeypatch)
    grids = FG_GRIDS + ([] if sing else [ENNEPER_GRID])
    for grid, base in grids:
        got = ws.fg_integrals(pair, grid, base, sing)
        want = fg_integrals_two_sweeps(pair, grid, base, sing)
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()  # signs of zero included
    assert calls == [False] * len(grids)


def test_false_reality_claim_fails_closed(monkeypatch):
    grid, base = FG_GRIDS[0]
    theta = 0.3
    S = ws.SolitonFamily(ws.helicoid_closed(grid), ws.catenoid_closed(grid)).at(theta)
    pair = ws.family_fg(ws.helicoid_fg(), ws.catenoid_fg(), theta)
    nudged = dataclasses.replace(pair, Gp=lambda s: pair.Gp(s) * (1 + 1e-6),
                                 label="nudged")
    with pytest.raises(HodographError, match="nudged"):
        ws.verify_soliton_relations(S, nudged, singularities=[0.0])
    with pytest.raises(HodographError, match="nudged"):
        surface_from_fg(nudged, grid, base, singularities=[0.0])

    node = np.conj(grid.nodes()[5, 7])
    holed = dataclasses.replace(
        pair, Gp=lambda s: np.where(s == node, np.nan, pair.Gp(s)), label="holed")
    with pytest.raises(HodographError, match="holed"):
        ws.verify_soliton_relations(S, holed, singularities=[0.0])

    # without the claim, both sweeps run and the certificate sees the nudge
    calls = _spy_sweeps(monkeypatch)
    unclaimed = dataclasses.replace(nudged, reality_constraint=False)
    assert ws.verify_soliton_relations(S, unclaimed, singularities=[0.0]).max_mismatch > 1e-8
    assert calls == [False, True]
