import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import wesurf as ws
from wesurf import geometry, grids
from wesurf.geometry import GeometryError
from wesurf.stencils import interior_mask

from oracles import (change_of_variables_action, max_deviation, surface_from_components,
                     surface_rows, wick_rotate, with_values)


def flat_patch(n=11):
    g = ws.ParamGrid("rectangle", n, n, (0.0, 1.0, 0.0, 1.0))
    r = g.nodes()
    return g, surface_from_components(g, r.real, np.zeros(g.shape), r.imag)


def test_plane_form_is_identity():
    _, s = flat_patch()
    form = ws.fundamental_form(s, source="fd")
    assert np.max(np.abs(form.E - 1.0)) < 1e-12
    assert np.max(np.abs(form.G - 1.0)) < 1e-12
    assert np.max(np.abs(form.F)) < 1e-12


@pytest.mark.parametrize("rows", [1, 7, "all"])
def test_fundamental_form_independent_of_row_block(s_theta_annulus, monkeypatch, rows):
    """Each band's E, F, G are rows i:j of the whole grid's, byte for byte,
    in complex arithmetic too.  rows=1 asks for one-row bands, which
    `_row_bands` widens to 3 rows."""
    grid = s_theta_annulus.grid
    _band_rows(monkeypatch, grid, rows)
    bands = grids._row_bands(*grid.shape)
    assert bands[0] == (0, grid.n1 if rows == "all" else max(3, rows))
    whole = ws.fundamental_form(s_theta_annulus, "analytic")
    for i, j in bands:
        form = ws.fundamental_form(surface_rows(s_theta_annulus, i, j), "analytic")
        for name in ("E", "F", "G"):
            a, b = getattr(form, name), getattr(whole, name)
            assert a.dtype == b.dtype and a.tobytes() == b[i:j].tobytes(), (i, j, name)


def test_helicoid_isothermal_and_conformal_factor(annulus_grid):
    s = ws.helicoid_closed(annulus_grid)
    form = ws.fundamental_form(s, source="analytic")
    assert form.isothermal_defect < 1e-6
    rho = annulus_grid.axis1[:, None]
    oracle = 0.25 * (1.0 + rho ** -2) ** 2 + np.zeros(annulus_grid.shape)
    assert np.max(np.abs(form.E - oracle)) < 1e-12


def test_helicoid_isothermal_by_finite_differences():
    g = ws.verification_grid("catenoid")  # sector with h ~ 1e-2 on both axes
    s = ws.helicoid_closed(g)
    form = ws.fundamental_form(s, source="fd", accuracy=6)
    mask = interior_mask(g.shape, 6)
    assert float(np.max(np.abs((form.E - form.G))[mask])) < 1e-6
    assert float(np.max(np.abs(form.F)[mask])) < 1e-6


def test_s_theta_form_is_real_and_theta_invariant(hc_family):
    # S_theta's E^s, F^s, G^s are its real member's euclidean form
    f0 = ws.fundamental_form(hc_family.at(0.0).member, source="analytic")
    f7 = ws.fundamental_form(hc_family.at(0.7).member, source="analytic")
    assert f0.E.dtype == np.float64
    assert np.max(np.abs(f7.F)) < 1e-12
    assert np.max(np.abs(f0.E - f7.E)) < 1e-8


def test_s_theta_form_is_the_minus_signed_form_of_its_complex_values(hc_family):
    # x_1^2 - t_1^2 + phi_1^2 of S = X^s in complex arithmetic, t_1 = i X's t_1
    S = wick_rotate(hc_family.at(0.7).member)
    form = ws.fundamental_form(hc_family.at(0.7).member, source="analytic")
    d1, d2 = S.jac[:, 0], S.jac[:, 1]
    sign = np.array([1.0, -1.0, 1.0])[:, None, None]
    for name, (u, v) in zip("EFG", ((d1, d1), (d1, d2), (d2, d2))):
        signed = np.sum(sign * u * v, axis=0)
        assert np.max(np.abs(signed.imag)) == 0.0
        assert np.max(np.abs(signed.real - getattr(form, name))) < 1e-12


def test_theta_sweep_invariance(hc_family):
    rep = ws.theta_sweep_invariance(hc_family, [0.0, 0.4, 1.1, math.pi / 2])
    assert np.max(rep.e_devs) < 1e-8
    assert np.max(rep.g_devs) < 1e-8
    assert np.max(rep.f_abs) < 1e-8


def test_theta_sweep_single_theta_is_zero(hc_family):
    rep = ws.theta_sweep_invariance(hc_family, [0.4])
    assert rep.e_devs == rep.g_devs == (0.0,)


def test_theta_sweep_detects_corruption(annulus_grid):
    X = ws.helicoid_closed(annulus_grid)
    Y = ws.catenoid_closed(annulus_grid)
    bad = with_values(Y, 2.0 * Y.values, jac=2.0 * Y.jac, jac2=2.0 * Y.jac2)
    fam = ws.SolitonFamily(X, bad, validate=False)
    rep = ws.theta_sweep_invariance(fam, [0.0, 0.4, 1.1])
    assert max_deviation(rep) > 1e-2


def _scaled_y_family(grid):
    """Helicoid/catenoid family with Y doubled: E, F, G move with theta."""
    X = ws.helicoid_closed(grid)
    Y = ws.catenoid_closed(grid)
    bad = with_values(Y, 2.0 * Y.values, jac=2.0 * Y.jac, jac2=2.0 * Y.jac2)
    return ws.SolitonFamily(X, bad, validate=False)


def _band_rows(monkeypatch, grid, rows):
    """Set the sweep's band height to `rows` whole rows (or the whole grid)."""
    monkeypatch.setattr(grids, "_BAND_NODES",
                        grid.n2 * (grid.n1 if rows == "all" else rows))


def _same_bits(a, b):
    return a.dtype == b.dtype == np.float64 and a.tobytes() == b.tobytes()


def test_theta_sweep_hands_over_each_band_once(annulus_grid, monkeypatch):
    # band-major: each band's view reaches per_band once, in order, and its
    # members are those rows of the whole family's
    fam = _scaled_y_family(annulus_grid)
    thetas = [0.0, 0.4, 1.1]
    _band_rows(monkeypatch, annulus_grid, 7)
    bands = grids._row_bands(*annulus_grid.shape)
    assert len(bands) > 1
    whole = {th: fam.at(th).member for th in thetas}
    pair = tuple(fam)
    seen = []

    def per_band(rows, band):
        seen.append((rows.start, rows.stop))
        for th in thetas:
            assert _same_bits(band.at(th).member.values, whole[th].values[:, rows])
        for member, of_whole in zip(band, pair, strict=True):
            assert _same_bits(member.values, of_whole.values[:, rows])

    rep = ws.theta_sweep_invariance(fam, thetas, per_band=per_band)
    assert seen == bands
    first = ws.fundamental_form(whole[thetas[0]], "analytic")
    for k, th in enumerate(thetas):
        form = ws.fundamental_form(whole[th], "analytic")
        assert rep.e_devs[k] == float(np.max(np.abs(form.E - first.E)))
        assert rep.g_devs[k] == float(np.max(np.abs(form.G - first.G)))
        assert rep.f_abs[k] == float(np.max(np.abs(form.F)))
    assert max(rep.e_devs) > 1e-2


@pytest.fixture(scope="module", params=[(37, 53), (131, 257)], ids=["37x53", "131x257"])
def banded_family(request):
    n1, n2 = request.param
    return _scaled_y_family(ws.ParamGrid("annulus", n1, n2, (0.4, 0.9, 0.0, 2 * math.pi)))


SWEEP_THETAS = (0.0, 0.4, 1.1, math.pi / 2)


@pytest.mark.parametrize("rows", [3, 7, "all"])
def test_theta_sweep_independent_of_band_height(banded_family, monkeypatch, rows):
    reference = repr(ws.theta_sweep_invariance(banded_family, SWEEP_THETAS))
    _band_rows(monkeypatch, banded_family.grid, rows)
    assert repr(ws.theta_sweep_invariance(banded_family, SWEEP_THETAS)) == reference


@pytest.mark.parametrize("rows", [3, 7, "all"])
def test_theta_sweep_bands_are_rows_of_the_whole_surface(banded_family, monkeypatch, rows):
    grid = banded_family.grid
    _band_rows(monkeypatch, grid, rows)
    whole = {th: banded_family.at(th).member for th in SWEEP_THETAS}
    pair = tuple(banded_family)
    covered = np.zeros(grid.n1, dtype=int)

    def per_band(rows, band):
        assert band.grid.shape == (rows.stop - rows.start, grid.n2)
        members = [band.at(th).member for th in SWEEP_THETAS] + list(band)
        for member, of_whole in zip(members, [*whole.values(), *pair], strict=True):
            for name in ("values", "jac", "jac2"):
                assert _same_bits(getattr(member, name), getattr(of_whole, name)[..., rows, :])
        covered[rows] += 1

    rep = ws.theta_sweep_invariance(banded_family, SWEEP_THETAS, per_band=per_band)
    assert np.all(covered == 1)
    for th, a in zip(SWEEP_THETAS, rep.actions, strict=True):
        form = ws.fundamental_form(whole[th])
        assert a == ws.action(form.discriminant(), grid)


def test_row_bands_fold_a_short_remainder_into_the_last_band(monkeypatch):
    monkeypatch.setattr(grids, "_BAND_NODES", 200 * 81)
    assert grids._row_bands(83, 200) == [(0, 83)]
    assert grids._row_bands(84, 200) == [(0, 81), (81, 84)]
    assert grids._row_bands(164, 200) == [(0, 81), (81, 164)]
    monkeypatch.setattr(grids, "_BAND_NODES", 1)
    assert grids._row_bands(8, 200) == [(0, 3), (3, 8)]  # never fewer than 3 rows


def test_theta_sweep_without_analytic_jac_is_one_band(monkeypatch, annulus_grid):
    X, Y = (with_values(s, s.values) for s in (ws.helicoid_closed(annulus_grid),
                                                  ws.catenoid_closed(annulus_grid)))
    fam = ws.SolitonFamily(X, Y, validate=False)
    assert not fam.analytic and fam.derivatives(slice(None)) == (None, None)
    _band_rows(monkeypatch, annulus_grid, 3)
    seen = []
    rep = ws.theta_sweep_invariance(fam, [0.0, 0.4],
                                    per_band=lambda rows, band: seen.append((rows, band)))
    assert [rows for rows, _ in seen] == [slice(0, annulus_grid.n1)]
    band = seen[0][1]
    assert band.grid == annulus_grid  # the stencils see the whole grid
    assert band.at(0.4).member.jac is None
    member = fam.at(0.4).member
    assert _same_bits(band.at(0.4).member.values, member.values)
    form = ws.fundamental_form(member, "fd")
    assert rep.actions[1] == ws.action(form.discriminant(), annulus_grid)


def _sweep_peak(fam, thetas) -> int:
    """tracemalloc's peak of one theta sweep of fam, in bytes."""
    tracemalloc.start()
    try:
        ws.theta_sweep_invariance(fam, thetas)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_theta_sweep_holds_one_grid_per_theta(monkeypatch):
    """Above the held family, the sweep keeps one float64 grid per theta,
    its EG - F^2 (three here), plus one band's temporaries and the action's
    weights.  Whole-grid E, F, G, E_0 and G_0 buffers took five grids and
    the action's temporaries about 4.3 more."""
    grid = ws.default_annulus(0.4, 0.9, 256, 256)
    fam = ws.generate_conjugate_pair(ws.we_data("catenoid"), grid)
    _band_rows(monkeypatch, grid, 3)
    grids_held = _sweep_peak(fam, [0.0, 0.3, 1.1]) / (8 * grid.n1 * grid.n2)
    assert grids_held < 5, f"peak {grids_held:.2f} float64 grids"


def test_theta_sweep_memory_does_not_grow_with_the_theta_count():
    # thetas run in blocks of 12, one EG - F^2 grid each: 30 thetas peak no
    # higher than 12, up to one band's set of temporaries
    grid = ws.default_annulus(0.4, 0.9, 256, 256)
    fam = ws.generate_conjugate_pair(ws.we_data("catenoid"), grid)
    assert geometry._THETA_BLOCK == 12
    thetas = np.linspace(0.0, 2 * math.pi, 30).tolist()
    # a later block also builds its band's form at the first theta: at most
    # one band's member (values, jac, jac2: 144 bytes per node) and form (24)
    band_set = (144 + 24) * max(j - i for i, j in grids._row_bands(*grid.shape)) * grid.n2
    twelve = _sweep_peak(fam, thetas[:12])
    assert _sweep_peak(fam, thetas) <= twelve + band_set


@pytest.mark.parametrize("block", [1, 2, "all"])
def test_theta_sweep_independent_of_the_theta_block(banded_family, monkeypatch, block):
    # the blocks change neither the report and its bytes nor the per-band
    # calls: one per band, in the first block, with the same members
    thetas = (0.0, 0.4, 1.1, math.pi / 2, -2.5)
    _band_rows(monkeypatch, banded_family.grid, 7)

    def sweep():
        seen = []
        rep = ws.theta_sweep_invariance(
            banded_family, thetas,
            per_band=lambda rows, band: seen.append(
                (rows.start, *(member.values.tobytes() for member in band))))
        return repr(rep), seen

    reference = sweep()
    assert len(reference[1]) == len(grids._row_bands(*banded_family.grid.shape))
    monkeypatch.setattr(geometry, "_THETA_BLOCK", len(thetas) if block == "all" else block)
    assert sweep() == reference


def test_max_deviation_and_isothermal_defect_propagate_nan(annulus_grid):
    rep = ws.ThetaInvarianceReport((0.0, 0.3), (0.0, 1e-9), (0.0, math.nan),
                                   (0.0, 0.0), (1.0, 1.0))
    assert math.isnan(max_deviation(rep))
    form = ws.fundamental_form(ws.helicoid_closed(annulus_grid), source="analytic")
    F = form.F.copy()
    F[3, 4] = math.nan
    assert math.isnan(dataclasses.replace(form, F=F).isothermal_defect)


# -------------------------------------------------------------------- action

def test_action_of_unit_flat_patch():
    g, s = flat_patch()
    form = ws.fundamental_form(s, source="fd")
    assert abs(ws.action(form.discriminant(), g) - 1.0) < 1e-12


def test_action_constant_over_theta(hc_family, annulus_grid):
    acts = [ws.action(ws.fundamental_form(hc_family.at(t).member,
                                          source="analytic").discriminant(), annulus_grid)
            for t in (0.0, 0.4, 0.8, 1.2, math.pi / 2)]
    spread = (max(acts) - min(acts)) / abs(np.median(acts))
    assert spread < 1e-7


def test_action_against_closed_form_value(hc_family_sector, sector_grid):
    # E = G = (1 + 1/rho^2)^2 / 4, F = 0, so
    # A = psi_span * int E rho drho with antiderivative (rho^2/2 + 2 ln rho - 1/(2 rho^2))/4
    b = sector_grid.bounds

    def anti(rho):
        return 0.25 * (0.5 * rho ** 2 + 2.0 * math.log(rho) - 0.5 / rho ** 2)

    exact = (b[3] - b[2]) * (anti(b[1]) - anti(b[0]))
    form = ws.fundamental_form(hc_family_sector.at(0.5).member, source="analytic")
    got = ws.action(form.discriminant(), sector_grid)
    assert abs(got - exact) / exact < 5e-4  # trapezoid truncation at h ~ 1e-2


def test_action_matches_change_of_variables_route(hc_family_sector, sector_grid):
    # independent evaluation: int sqrt(1 + phi_x^2 - phi_t^2) |det J| dr1 dr2,
    # on the complex S in complex arithmetic
    X = hc_family_sector.at(0.9).member
    S = wick_rotate(X)
    form = ws.fundamental_form(X, source="analytic")
    patch = ws.chain_rule_partials(S, first_source="analytic", second_source="analytic")
    direct = ws.action(form.discriminant(), sector_grid)
    change = change_of_variables_action(patch, S)
    assert patch.valid_mask.all()
    assert abs(direct - change) / direct < 1e-10


def test_action_rejects_negative_discriminant():
    g, s = flat_patch()
    form = ws.fundamental_form(s, source="fd")
    bad = ws.FundamentalForm(form.E, form.F + 2.0, form.G, g)
    with pytest.raises(GeometryError):
        ws.action(bad.discriminant(), g)


def test_action_rejects_a_complex_form():
    # S_theta's form is its real member's: a complex form is a caller's error,
    # whatever its imaginary part
    g, s = flat_patch()
    form = ws.fundamental_form(s, source="fd")
    for imag in (0.5j, 1e-20j, 0j):
        bad = ws.FundamentalForm(form.E + imag, form.F, form.G, g)
        with pytest.raises(GeometryError, match="complex"):
            ws.action(bad.discriminant(), g)


def test_area_weights_include_polar_jacobian():
    g = ws.ParamGrid("annulus", 41, 81, (0.3, 0.8, 0.0, 2 * math.pi))
    area = float(np.sum(g.area_weights()))
    assert abs(area - math.pi * (0.8 ** 2 - 0.3 ** 2)) < 1e-3


def test_action_invariant_under_lorentz_boost(hc_family_sector):
    # cross-module check: the change-of-variables action is boost invariant
    # (1 + phi_x^2 - phi_t^2 is the Minkowski norm of the gradient and the
    # boost has unit determinant)
    S = wick_rotate(hc_family_sector.at(0.6).member)
    patch = ws.chain_rule_partials(S, first_source="analytic", second_source="analytic")
    before = change_of_variables_action(patch, S)
    after = change_of_variables_action(ws.boost(patch, ws.LorentzBoost(0.9)), S)
    assert abs(before - after) / before < 1e-12
