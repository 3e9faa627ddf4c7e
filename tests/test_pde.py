import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wesurf as ws
from wesurf import grids, pde
from wesurf.pde import PDEError, wick_substitute

from oracles import (catenoid_graph_fns, graph_patch, surface_from_components, surface_rows,
                     t_reflect, wick_catenoid_graph_fns, wick_rotate)


def xt_mesh(x0, x1, t0, t1, n=41):
    xs = np.linspace(x0, x1, n)[:, None] + np.zeros((1, n))
    ts = np.zeros((n, 1)) + np.linspace(t0, t1, n)[None, :]
    return xs, ts


# -------------------------------------------------------- chain-rule partials

def test_identity_chart_parabola():
    g = ws.ParamGrid("rectangle", 31, 31, (-1.0, 1.0, -1.0, 1.0))
    r = g.nodes()
    s = surface_from_components(g, r.real, r.imag, r.real ** 2)
    p = ws.chain_rule_partials(s, accuracy=2)
    assert np.max(np.abs(p.phi_x - 2.0 * s.x)[p.valid_mask]) < 1e-6
    assert np.max(np.abs(p.phi_xx - 2.0)[p.valid_mask]) < 1e-6
    assert np.max(np.abs(p.phi_tt)[p.valid_mask]) < 1e-6


def test_helicoid_gradient_matches_closed_form(annulus_grid):
    s = ws.helicoid_closed(annulus_grid)
    p = ws.chain_rule_partials(s, first_source="analytic")
    q = s.x ** 2 + s.t ** 2
    assert np.max(np.abs(p.phi_x + s.t / q)[p.valid_mask]) < 1e-6
    assert np.max(np.abs(p.phi_t - s.x / q)[p.valid_mask]) < 1e-6


def test_catenoid_gradient_matches_closed_form(annulus_grid):
    s = ws.catenoid_closed(annulus_grid)
    p = ws.chain_rule_partials(s, first_source="analytic")
    q = (s.x ** 2 + s.t ** 2).real
    expected = s.x.real / (np.sqrt(q - 1.0) * np.sqrt(q))
    # phi = -ln|r| is negative inside the disk: the graph is -arccosh branch
    sign = np.sign(s.phi.real[0, 0])
    assert np.max(np.abs(p.phi_x - sign * expected)[p.valid_mask]) < 1e-6


def test_degenerate_chart_nodes_are_dropped_and_counted():
    # the (x, t) chart of any W-E surface degenerates on |r| = 1
    g = ws.ParamGrid("annulus", 41, 41, (0.9, 1.1, 0.2, 0.8),
                     allow_unit_circle=True)
    s = ws.helicoid_closed(g)
    p = ws.chain_rule_partials(s, first_source="analytic", cond_cutoff=1e6)
    rep = ws.minimal_surface_residual(p)
    assert rep.dropped_count > 0
    assert rep.node_count == p.valid_mask.sum() == p.valid_mask.size - rep.dropped_count


# ---------------------------------------------------------------------- bands

def _band_outputs(s):
    """The nodewise outputs a band of the theta sweep computes on `s`: the
    analytic chain rule and its boost (the fd route is never banded)."""
    p = ws.chain_rule_partials(s, second_source="analytic")
    pb = ws.boost(p, ws.LorentzBoost(0.8))
    return [getattr(q, name) for q in (p, pb)
            for name in ("x", "t", "phi", "phi_x", "phi_t", "phi_xx", "phi_xt", "phi_tt",
                         "valid_mask")]


@pytest.mark.parametrize("rows", [1, 7, "all"])
def test_nodewise_kernels_independent_of_row_block(s_theta_annulus, monkeypatch, rows):
    """Each band's outputs are rows i:j of the whole grid's, byte for byte.
    rows=1 asks for one-row bands, which `_row_bands` widens to 3 rows."""
    n1, n2 = s_theta_annulus.grid.shape
    monkeypatch.setattr(grids, "_BAND_NODES", n2 * (n1 if rows == "all" else rows))
    bands = grids._row_bands(n1, n2)
    assert bands[0] == (0, n1 if rows == "all" else max(3, rows))
    whole = _band_outputs(s_theta_annulus)
    for i, j in bands:
        for band, a in zip(_band_outputs(surface_rows(s_theta_annulus, i, j)), whole,
                           strict=True):
            assert band.dtype == a.dtype and band.tobytes() == a[i:j].tobytes(), (i, j)


# ------------------------------------------------------------------ residuals

def test_plane_solves_both_equations():
    g = ws.ParamGrid("rectangle", 21, 21, (-1.0, 1.0, -1.0, 1.0))
    r = g.nodes()
    s = surface_from_components(g, r.real, r.imag, 0.7 * r.real - 0.2 * r.imag)
    p = ws.chain_rule_partials(s)
    assert ws.minimal_surface_residual(p).max_abs < 1e-10
    assert ws.born_infeld_residual(p).max_abs < 1e-10


def test_helicoid_minimal_residual(annulus_grid):
    s = ws.helicoid_closed(annulus_grid)
    p = ws.chain_rule_partials(s, first_source="analytic", second_source="analytic")
    assert ws.minimal_surface_residual(p).max_abs < 1e-5


def test_traveling_wave_solves_born_infeld():
    xs, ts = xt_mesh(-1.0, 1.0, -1.0, 1.0)
    f = lambda u: u ** 3 - 2.0 * u
    fp = lambda u: 3.0 * u ** 2 - 2.0
    fpp = lambda u: 6.0 * u
    fns = {
        "phi": lambda x, t: f(x - t),
        "phi_x": lambda x, t: fp(x - t),
        "phi_t": lambda x, t: -fp(x - t),
        "phi_xx": lambda x, t: fpp(x - t),
        "phi_xt": lambda x, t: -fpp(x - t),
        "phi_tt": lambda x, t: fpp(x - t),
    }
    p = graph_patch(xs, ts, fns)
    assert ws.born_infeld_residual(p).max_abs < 1e-10


def test_wick_catenoid_patch_solves_born_infeld():
    xs, ts = xt_mesh(2.0, 3.0, -0.45, 0.45)
    p = graph_patch(xs, ts, wick_catenoid_graph_fns())
    assert ws.born_infeld_residual(p).max_abs < 1e-5


def test_family_grids_solve_born_infeld(hc_family):
    for theta in (0.0, 0.5, math.pi / 2):
        S = wick_rotate(hc_family.at(theta).member)  # complex, with its jac and jac2
        p = ws.chain_rule_partials(S, first_source="analytic", second_source="analytic")
        assert ws.born_infeld_residual(p).max_abs < 1e-4


def test_sympy_oracle_wick_catenoid_is_exact_solution():
    sympy = pytest.importorskip("sympy")
    x, t = sympy.symbols("x t", positive=True)
    phi = sympy.acosh(sympy.sqrt(x ** 2 - t ** 2))
    res = ((1 - phi.diff(t) ** 2) * phi.diff(x, 2)
           + 2 * phi.diff(x) * phi.diff(t) * phi.diff(x, t)
           - (1 + phi.diff(x) ** 2) * phi.diff(t, 2))
    assert sympy.simplify(res) == 0


def test_sympy_oracle_helicoid_is_minimal():
    sympy = pytest.importorskip("sympy")
    x, t = sympy.symbols("x t", positive=True)
    phi = sympy.atan(t / x)
    res = ((1 + phi.diff(t) ** 2) * phi.diff(x, 2)
           - 2 * phi.diff(x) * phi.diff(t) * phi.diff(x, t)
           + (1 + phi.diff(x) ** 2) * phi.diff(t, 2))
    assert sympy.simplify(res) == 0


# -------------------------------------------------------------------- boosts

def test_rapidity_zero_is_identity():
    xs, ts = xt_mesh(2.0, 3.0, -0.4, 0.4, 11)
    p = graph_patch(xs, ts, wick_catenoid_graph_fns())
    b = ws.boost(p, ws.LorentzBoost(0.0))
    assert np.array_equal(b.x, p.x)
    assert np.array_equal(b.phi_xx, p.phi_xx)


def test_boost_preserves_born_infeld_residual():
    xs, ts = xt_mesh(2.0, 3.0, -0.45, 0.45)
    p = graph_patch(xs, ts, wick_catenoid_graph_fns())
    before = ws.born_infeld_residual(p)
    after = ws.born_infeld_residual(ws.boost(p, ws.LorentzBoost(0.8)))
    assert abs(before.max_abs - after.max_abs) < 1e-5


@settings(max_examples=25, deadline=None)
@given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
def test_boost_composition_law(a, b):
    xs, ts = xt_mesh(2.0, 3.0, -0.3, 0.3, 7)
    p = graph_patch(xs, ts, wick_catenoid_graph_fns())
    once = ws.boost(p, ws.LorentzBoost(a + b))
    twice = ws.boost(ws.boost(p, ws.LorentzBoost(a)), ws.LorentzBoost(b))
    assert np.max(np.abs(once.x - twice.x)) < 1e-12
    assert np.max(np.abs(once.t - twice.t)) < 1e-12


def test_boost_of_ungridded_samples_matches_grid_rows():
    # ungridded (1-D) sample points boost in one piece, to the grid row's bits
    xs, ts = xt_mesh(2.2, 2.8, -0.2, 0.2, 9)
    lb = ws.LorentzBoost(0.6)
    fns = wick_catenoid_graph_fns()
    on_grid = ws.boost(graph_patch(xs, ts, fns), lb)
    on_row = ws.boost(graph_patch(xs[0], ts[0], fns), lb)
    for name in ("x", "t", "phi_x", "phi_t", "phi_xx", "phi_xt", "phi_tt"):
        assert np.array_equal(getattr(on_row, name), getattr(on_grid, name)[0]), name


def test_boost_hyperbolic_identity_invariant():
    lb = ws.LorentzBoost(1.5)
    assert abs(lb.a ** 2 - lb.b ** 2 - 1.0) < 1e-12


# ---------------------------------------------------------- wick equivalence

def test_wick_equivalence_helicoid_and_catenoid(annulus_grid):
    for make in (ws.helicoid_closed, ws.catenoid_closed):
        s = make(annulus_grid)
        p = ws.chain_rule_partials(s, first_source="analytic", second_source="analytic")
        assert ws.born_infeld_residual(wick_substitute(p)).max_abs < 1e-5


def test_wick_equivalence_plane_is_zero():
    g = ws.ParamGrid("rectangle", 11, 11, (-1.0, 1.0, -1.0, 1.0))
    r = g.nodes()
    s = surface_from_components(g, r.real, r.imag, 0.3 * r.real + 0.1 * r.imag)
    p = ws.chain_rule_partials(s)
    assert ws.born_infeld_residual(wick_substitute(p)).max_abs < 1e-10


@pytest.mark.parametrize("second_source", ["analytic", "fd"])
@pytest.mark.parametrize("sid", [i for i in ws.CATALOG_IDS if i != "custom"])
def test_wick_substituted_residual_has_the_minimal_statistics(sid, second_source):
    # the Born-Infeld coefficient 1 - phi_t^2 is 1 + phi_t^2 on Wick-substituted
    # data: every statistic agrees, worst node and dropped count included
    X = ws.generate(ws.we_data(sid), ws.verification_grid(sid))
    p = ws.chain_rule_partials(X, accuracy=6, second_source=second_source)
    minimal = ws.minimal_surface_residual(p)
    bi = ws.born_infeld_residual(wick_substitute(p))
    assert repr(bi) == repr(minimal)  # repr round-trips every float bit


def test_non_minimal_graph_fails_both_residuals():
    xs, ts = xt_mesh(2.0, 3.0, -0.5, 0.5, 21)
    fns = {
        "phi": lambda x, t: x ** 2 + t ** 2,
        "phi_x": lambda x, t: 2 * x,
        "phi_t": lambda x, t: 2 * t,
        "phi_xx": lambda x, t: 2.0 + 0 * x,
        "phi_xt": lambda x, t: 0.0 * x,
        "phi_tt": lambda x, t: 2.0 + 0 * x,
    }
    p = graph_patch(xs, ts, fns)
    assert ws.minimal_surface_residual(p).max_abs > 1e-1
    assert ws.born_infeld_residual(p).max_abs > 1e-1


def _same_nonzero_bits(a, b):
    """a and b are equal as uint64 views, except that a zero in both may
    differ in sign."""
    a, b = (np.asarray(z, dtype=complex).view(np.float64) for z in (a, b))
    both_zero = (a == 0) & (b == 0)
    return np.array_equal(np.where(both_zero, 0.0, a).view(np.uint64),
                          np.where(both_zero, 0.0, b).view(np.uint64))


@pytest.fixture(scope="module",
                params=[*(i for i in ws.CATALOG_IDS if i != "custom"), "catenoid_y_scale_1.5"])
def generated_family(request):
    surface, _, y_scale = request.param.partition("_y_scale_")
    return ws.generate_conjugate_pair(ws.we_data(surface), ws.verification_grid(surface),
                                      y_scale=float(y_scale or 1.0))


@pytest.mark.parametrize("rows", [1, 7, "all"])
def test_real_member_route_gives_s_theta_bits(generated_family, monkeypatch, rows):
    """The chain rule on S_theta's real member X in float, Wick-substituted,
    is the chain rule on S_theta in complex arithmetic (S_theta's values
    with the jac and jac2 of the same Wick rule, `oracles.wick_rotate`); X's
    minimal residual is S_theta's Born-Infeld residual (the node sets are
    the same).  Both run on each band of the theta sweep, as `family-verify`
    runs them."""
    n1, n2 = generated_family.grid.shape
    monkeypatch.setattr(grids, "_BAND_NODES", n2 * (n1 if rows == "all" else rows))
    for theta, (i, j) in itertools.product((0.0, 0.3, math.pi / 2, math.pi, 4.5),
                                           grids._row_bands(n1, n2)):
        X = generated_family.rows(i, j).at(theta).member
        S = wick_rotate(X)
        assert np.array_equal(S.values.view(np.uint64),
                              generated_family.rows(i, j).at(theta).values.view(np.uint64))
        for z in (S.values, S.jac, S.jac2):  # X holds the other parts
            assert not (np.any(z[0].imag) or np.any(z[1].real) or np.any(z[2].imag))
        complex_route = ws.chain_rule_partials(S, second_source="analytic")
        float_route = ws.chain_rule_partials(X, second_source="analytic")
        assert float_route.phi_xx.dtype == np.float64
        keep = complex_route.valid_mask
        assert np.array_equal(float_route.valid_mask, keep)
        substituted = wick_substitute(float_route)
        for name in ("phi_x", "phi_t", "phi_xx", "phi_xt", "phi_tt"):
            assert _same_nonzero_bits(getattr(complex_route, name)[keep],
                                      getattr(substituted, name)[keep]), (theta, i, name)
        bi = ws.born_infeld_residual(complex_route)
        minimal = ws.minimal_surface_residual(float_route)
        assert (minimal.max_abs, minimal.mean_abs, minimal.rms) == (bi.max_abs, bi.mean_abs,
                                                                    bi.rms), (theta, i)


def test_wick_substitution_transforms_derivative_data():
    xs, ts = xt_mesh(2.0, 3.0, -0.3, 0.3, 9)
    p = graph_patch(xs, ts, catenoid_graph_fns())
    w = wick_substitute(p)
    assert np.array_equal(w.phi_t, -1j * p.phi_t)
    assert np.array_equal(w.phi_tt, -p.phi_tt)
    assert np.array_equal(w.phi_xx, p.phi_xx)


def test_t_reflection_preserves_born_infeld():
    xs, ts = xt_mesh(2.0, 3.0, -0.45, 0.45)
    p = graph_patch(xs, ts, wick_catenoid_graph_fns())
    before = ws.born_infeld_residual(p)
    after = ws.born_infeld_residual(t_reflect(p))
    assert abs(before.max_abs - after.max_abs) < 1e-14


def test_patch_rejects_nonfinite_retained_data():
    xs, ts = xt_mesh(2.0, 3.0, -0.3, 0.3, 5)
    p = graph_patch(xs, ts, wick_catenoid_graph_fns())
    with pytest.raises(PDEError):
        ws.NonparametricPatch(x=p.x, t=p.t, phi=p.phi,
                              phi_x=np.full_like(p.phi_x, np.nan),
                              phi_t=p.phi_t, phi_xx=p.phi_xx,
                              phi_xt=p.phi_xt, phi_tt=p.phi_tt,
                              valid_mask=p.valid_mask)


def test_born_infeld_residual_statistics_are_ordered():
    xs, ts = xt_mesh(2.0, 3.0, -0.45, 0.45, 15)
    p = graph_patch(xs, ts, wick_catenoid_graph_fns())
    rep = ws.born_infeld_residual(p)
    assert rep.max_abs >= rep.rms >= 0.0


CONSTANT_NS = (1, 2, 3, 5, 7, 10, 100, 1000, 4097)
CONSTANT_VS = (0.1, 0.3, 1 / 3, 0.7, 1.1, 2.9, 1e-3, 123.456)


def test_residual_report_accepts_constant_residuals():
    above = 0
    for n in CONSTANT_NS:
        for v in CONSTANT_VS:
            rep = ws.residual_report(np.full((1, n), v))
            assert rep.max_abs == v and rep.node_count == n
            above += rep.rms > rep.max_abs  # rounded up: these raised before
    assert above > 0
    with pytest.raises(ValueError, match="inconsistent"):
        ws.ResidualReport(1.0, 1.0, 1.0 + 1e-12, 1, (0, 0))
    with pytest.raises(ValueError, match="inconsistent"):
        ws.ResidualReport(0.0, 0.0, 1e-300, 1, (0, 0))


def _residual_report_before(residual, mask=None):
    """residual_report's statistics by its earlier full-size formulas."""
    mag = np.abs(residual)
    if mask is None:
        mask = np.ones(mag.shape, dtype=bool)
    dropped = int(mask.size - mask.sum())
    if not mask.any():
        return ws.ResidualReport(np.nan, np.nan, np.nan, 0, (-1, -1), dropped)
    sel = mag[mask]
    worst = np.unravel_index(int(np.argmax(np.where(mask, mag, -np.inf))), mag.shape)
    return ws.ResidualReport(float(sel.max()), float(sel.mean()),
                             float(np.sqrt(np.mean(sel ** 2))), int(mask.sum()),
                             (int(worst[0]), int(worst[1])), dropped)


def _residual_cases():
    rng = np.random.default_rng(11)
    res = rng.normal(size=(9, 13)) + 1j * rng.normal(size=(9, 13))
    mask = rng.random(res.shape) > 0.3
    tied = res.copy()
    tied[[2, 5, 6], [3, 7, 1]] = [4.0, -4.0, 4j]  # equal maxima: the first kept one wins
    tied[0, 0], mask[0, 0] = 9.0, False            # a larger value at a dropped node
    mask[[2, 5, 6], [3, 7, 1]] = True
    nan_kept = tied.copy()
    nan_kept[[3, 4, 7], [2, 8, 5]] = np.nan          # the first NaN is the worst node
    mask[[3, 4, 7], [2, 8, 5]] = True
    nan_dropped = tied.copy()
    nan_dropped[1, 1], mask[1, 1] = np.nan, False
    return {
        "plain": (res, None),
        "masked": (res, mask),
        "ties": (tied, mask),
        "nan_at_kept_node": (nan_kept, mask),
        "nan_at_dropped_node": (nan_dropped, mask),
        "all_dropped": (res, np.zeros(res.shape, dtype=bool)),
        "real_residual": (res.real, mask),
    }


@pytest.mark.parametrize("case", sorted(_residual_cases()))
def test_residual_report_matches_full_size_formulas(case):
    residual, mask = _residual_cases()[case]
    with np.errstate(invalid="ignore"):
        before = _residual_report_before(residual, mask)
        after = ws.residual_report(residual, mask)
    assert repr(after) == repr(before)  # repr round-trips every float bit


def test_minimal_residual_second_order_rate():
    # the default stencils converge at O(h^2): halving h gains >= 3.5x
    errs = []
    for refine in (1, 2):
        g = ws.verification_grid("scherk", refine=refine)
        X = ws.generate(ws.we_data("scherk"), g)
        p = ws.chain_rule_partials(X, first_source="analytic", accuracy=2,
                                   second_source="fd")
        errs.append(ws.minimal_surface_residual(p).max_abs)
    assert errs[0] / errs[1] > 3.5
