import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wesurf as ws
from wesurf import hodograph, quadrature
from wesurf.catalog import BranchRegionError, singularity_points
from wesurf.family import _cos_sin
from wesurf.generate import _integrand
from wesurf.quadrature import PathNearSingularity, QuadratureError, _segment_integrals
from wesurf.stencils import fixed_order_dot

from oracles import antiderivative_on_grid_columns, chain_order_direct, cumulative_chain_columns

finite_c = st.complex_numbers(min_magnitude=0, max_magnitude=2,
                              allow_nan=False, allow_infinity=False)


def test_constant_integrand_gives_endpoint_difference():
    val = _segment_integrals(lambda w: np.ones_like(w), np.array([0.0]),
                             np.array([1.0 + 1.0j]), 32)[0]
    assert val == 1.0 + 1.0j


def test_constant_integrand_exact_with_16_point_rule():
    val = _segment_integrals(lambda w: np.ones_like(w), np.array([0.0]),
                             np.array([1.0 + 1.0j]), 16)
    assert val[0] == 1.0 + 1.0j


@pytest.mark.parametrize("order", [16, 32], ids=lambda n: f"gauss_legendre_{n}")
def test_segment_integrals_independent_of_batch(order):
    # one call over seven segments gives the same bits as seven calls
    f = lambda w: np.exp(w) * np.cos(3 * w) + 1.0 / (w - 2.5j)
    cuts = np.linspace(-0.3 + 0.1j, 0.9 + 0.6j, 8)
    batch = _segment_integrals(f, cuts[:-1], cuts[1:], order)
    single = [_segment_integrals(f, cuts[k:k + 1], cuts[k + 1:k + 2], order)[0]
              for k in range(len(cuts) - 1)]
    assert np.array_equal(batch, single)


@pytest.mark.parametrize("order", quadrature._CHAIN_ORDERS)
def test_constant_integrand_exact_for_every_order(order):
    z0 = np.array([0.0, 0.3 + 0.1j, -1.0, 0.9 - 0.7j])
    z1 = np.array([1.0 + 1.0j, 0.55 - 0.2j, 2.5j, 0.9 - 0.6j])
    got = _segment_integrals(lambda w: np.ones_like(w), z0, z1, order)
    assert np.array_equal(got, z1 - z0)


def _central_nudge(order):
    """leggauss's weights with the two central ones nudged by ulps,
    symmetrically, until their fixed-order sum is 2; None if 64 nudges do
    not reach it.  The normalisation that the 8-, 16- and 32-point rules had
    when they were the only orders."""
    w = np.polynomial.legendre.leggauss(order)[1]
    mid = [(order - 1) // 2, order // 2]
    for _ in range(64):
        total = fixed_order_dot(w, np.ones(order))
        if total == 2.0:
            return w
        w[mid] = np.nextafter(w[mid], np.inf if total < 2.0 else -np.inf)
    return None


@pytest.mark.parametrize("order", quadrature._CHAIN_ORDERS)
def test_rules_keep_the_central_nudge_bits(order):
    # a chain that stays on 8, 16 or 32 points keeps its bits
    assert quadrature._gl_rule(order)[1].tobytes() == _central_nudge(order).tobytes()


def test_ladder_holds_every_order_the_central_nudge_normalises():
    # at 23 and 30 points one central ulp carries the sum from below 2 to above it
    nudged = [n for n in range(2, 33) if _central_nudge(n) is not None]
    assert list(quadrature._CHAIN_ORDERS) == nudged
    assert sorted(set(range(2, 33)) - set(nudged)) == [23, 30]


# block sizes in nodes: 7 segments of the 32-point rule (28 of the 8-point
# rule), so blocks straddle chain rows; and one block for any grid
SMALL_BLOCK, WHOLE_GRID = 7 * 32, 1 << 40
CATALOG = [i for i in ws.CATALOG_IDS if i != "custom"]
FG_FAMILY = "helicoid+catenoid@0.7"
PHASED = "catenoid*exp(0.3i)"
PHASE = complex(np.exp(0.3j))  # a unit factor with nonzero real and imaginary parts


def _grid_antiderivatives(sid, n_fg=128):
    if sid == FG_FAMILY:
        pair = ws.family_fg(ws.helicoid_fg(), ws.catenoid_fg(), 0.7)
        annulus = ws.default_annulus(0.4, 0.9, n_fg, n_fg)
        return list(ws.fg_integrals(pair, annulus, 0.65, singularities=[0.0]))
    if sid == PHASED:
        f = _integrand(ws.catalog_function("catenoid"))

        def phased(w):
            out = f(w)
            out *= PHASE
            return out

        annulus = ws.default_annulus(0.4, 0.9, 128, 128)
        return [ws.antiderivative_on_grid(phased, 1.0, annulus, [0.0])]
    data = ws.we_data(sid)
    f, sing = _integrand(data.R), singularity_points(data.R)
    # inside every entry's region, schwarz_riemann's principal branch included
    annulus = ws.default_annulus(0.2, 0.35, 21, 48)
    return [ws.antiderivative_on_grid(f, data.base, ws.verification_grid(sid), sing),
            ws.antiderivative_on_grid(f, 0.3, annulus, sing)]


@pytest.mark.parametrize("block", [SMALL_BLOCK, WHOLE_GRID])
@pytest.mark.parametrize("sid", CATALOG + [FG_FAMILY, PHASED])
def test_grid_antiderivative_independent_of_block_size(monkeypatch, sid, block):
    default = _grid_antiderivatives(sid)
    monkeypatch.setattr(quadrature, "_BLOCK_NODES", block)
    for got, want in zip(_grid_antiderivatives(sid), default):
        assert np.array_equal(got, want)


def _two_components(w):
    out = np.empty((2,) + w.shape, dtype=complex)
    np.divide(1.0, w, out=out[0])
    np.multiply(w, w, out=out[1])
    return out


def _layout_case(case):
    """(integrand, base, grid, singularities, conjugate_plane) of one case."""
    if case.startswith("catalog"):
        _, sid, refine = case.split(":")
        data = ws.we_data(sid)
        return (_integrand(data.R), data.base, ws.verification_grid(sid, refine=int(refine)),
                singularity_points(data.R), False)
    catenoid = _integrand(ws.we_data("catenoid").R)
    sector = ws.ParamGrid("annulus", 21, 40, (0.4, 0.9, 2.5, 3.8))  # psi passes pi
    rect = ws.ParamGrid("rectangle", 37, 29, (-0.3, 0.5, -0.2, 0.6))
    return {
        "annulus-256": (catenoid, 1.0, ws.default_annulus(0.4, 0.9, 256, 256), [0.0], False),
        "sector-base-off-grid": (catenoid, 0.6317 * np.exp(2.9313j), sector, [0.0], False),
        "rectangle-base-off-grid": (catenoid, 0.0131 - 0.0217j, rect, [0.0], False),
        "conjugate-plane": (lambda s: s ** 2 / (s - 0.1j), 0.7 + 0.1j, sector, [-0.1j], True),
        "two-components": (_two_components, 0.3 + 0.05j, rect, [0.0], False),
    }[case]


LAYOUT_CASES = [f"catalog:{sid}:{refine}" for sid in CATALOG for refine in (1, 2)] + [
    "annulus-256", "sector-base-off-grid", "rectangle-base-off-grid", "conjugate-plane",
    "two-components"]


@pytest.mark.parametrize("block", [None, SMALL_BLOCK], ids=["default_block", "small_block"])
@pytest.mark.parametrize("case", LAYOUT_CASES)
def test_grid_antiderivative_has_the_bytes_of_the_column_layout(monkeypatch, case, block):
    f, base, grid, sing, conj = _layout_case(case)
    want = antiderivative_on_grid_columns(f, base, grid, sing, conjugate_plane=conj)
    if block is not None:
        monkeypatch.setattr(quadrature, "_BLOCK_NODES", block)
    got = ws.antiderivative_on_grid(f, base, grid, sing, conjugate_plane=conj)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("block", [None, 3 * 8])
def test_zero_length_step_has_the_bytes_of_the_column_layout(monkeypatch, block):
    # a repeated column is a step that no chain moves along: the keep path
    radii = np.linspace(0.4, 0.9, 11)
    radii = np.concatenate([radii[:4], radii[3:]])
    pts = radii[:, None] * np.exp(1j * np.array([0.1, 0.9, 2.0]))[None, :]
    sel, f = np.array([0, 3, 4, 11, 7]), _two_components
    head = np.array([[0.1 - 0.2j, -0.0 + 0.3j, 0.7j], [1.5, -0.0, 0.2 + 0.1j]])
    cols = cumulative_chain_columns(f, pts, 5, [0.0], 1e-3)[..., sel, :]
    if block is not None:
        monkeypatch.setattr(quadrature, "_BLOCK_NODES", block)
    got = quadrature._chains(f, pts.T.copy(), 5, sel, [0.0], 1e-3)
    assert got.tobytes() == np.moveaxis(cols, -2, -1).tobytes()
    got = quadrature._chains(f, pts.T.copy(), 5, sel, [0.0], 1e-3, head)
    assert got.tobytes() == (head[..., :, None] + np.moveaxis(cols, -2, -1)).tobytes()


@pytest.mark.parametrize("sid", CATALOG + [FG_FAMILY])
def test_chain_orders_match_32_point_oracle(monkeypatch, sid):
    shipped = _grid_antiderivatives(sid, n_fg=256)
    monkeypatch.setattr(quadrature, "_CHAIN_ORDERS", (32,))
    for got, want in zip(shipped, _grid_antiderivatives(sid, n_fg=256)):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("sid", ["catenoid", "henneberg", "general_enneper"])
def test_chain_orders_match_32_point_oracle_near_the_pole(monkeypatch, sid):
    # coarse radial segments reach within a segment length of the pole at 0
    data = ws.we_data(sid)
    f, sing = _integrand(data.R), singularity_points(data.R)
    annulus = ws.default_annulus(0.05, 0.9, 8, 16)
    shipped = ws.antiderivative_on_grid(f, 0.5, annulus, sing)
    monkeypatch.setattr(quadrature, "_CHAIN_ORDERS", (32,))
    oracle = ws.antiderivative_on_grid(f, 0.5, annulus, sing)
    assert np.max(np.abs(shipped - oracle)) <= 1e-14 * np.max(np.abs(oracle))


# custom Weierstrass-Enneper data whose one pole is far from the grid while
# R grows short of it: (numerator, denominator, half-width of the square
# grid centred on 0)
FAR_POLES = {"w^8/(w-100)": ((1,) + (0,) * 8, (1, -100), 1.0),
             "w^16/(w-100)": ((1,) + (0,) * 16, (1, -100), 1.0),
             "1/(w-50) on [-5,5]^2": ((1,), (1, -50), 5.0)}
# gap to the 32-point rule in eps of the largest value: at most 3.6 over
# these cases (8 to 4 points).  Without the reach 8 of the 12 fail, up to
# 2.1e12 eps off, when the bound also reads ATAP's (n + 1)-point I_n as
# the n-point rule, and 5, up to 911 eps, with the reach and that misreading
FAR_POLE_EPS = 8


@pytest.mark.parametrize("n", [8, 16, 64, 256])
@pytest.mark.parametrize("case", sorted(FAR_POLES))
def test_far_pole_orders_match_the_32_point_rule(monkeypatch, case, n):
    numerator, denominator, half = FAR_POLES[case]
    R = ws.catalog_function("custom", numerator=numerator, denominator=denominator)
    f, sing = _integrand(R), singularity_points(R)
    grid = ws.ParamGrid("rectangle", n, n, (-half, half, -half, half))
    shipped = ws.antiderivative_on_grid(f, 0.1 + 0.05j, grid, sing)
    monkeypatch.setattr(quadrature, "_CHAIN_ORDERS", (32,))
    oracle = ws.antiderivative_on_grid(f, 0.1 + 0.05j, grid, sing)
    gap = np.max(np.abs(shipped - oracle)) / np.max(np.abs(oracle)) / np.finfo(float).eps
    assert gap <= FAR_POLE_EPS, f"{gap:.1f} eps"


def _bound_order(rho):
    """Smallest n of the ladder whose Gauss bound (64/15) rho^(2-2n) / (rho^2 - 1)
    is below 1e-22, else 32: Trefethen's ATAP Thm 19.3, whose I_n has n + 1
    points, written out here, not read from the module."""
    return next((n for n in quadrature._CHAIN_ORDERS
                 if 64 / 15 * rho ** (2 - 2 * n) / (rho * rho - 1) < 1e-22), 32)


def _continued_log(mp, w, psi):
    """log w on the branch that the angular chain continues to the angle psi."""
    log = mp.log(w)
    return log + 2j * mp.pi * round((psi - float(mp.im(log))) / (2 * math.pi))


def _catenoid_exact(mp, w, psi):
    """int_1^w of the catenoid integrand ((1 - w^2) R, i (1 + w^2) R, 2 w R),
    R = 1 / (2 w^2)."""
    return (1 - 1 / (2 * w) - w / 2, 1j * (w / 2 - 1 / (2 * w)), _continued_log(mp, w, psi))


def _fg_exact(mp, w, psi):
    """int_base^w of (s^2 F', s F') for the F/G sweep's F' = k / s^2,
    k = -(sin 0.7 + i cos 0.7) / 2, base 0.4."""
    c, s = _cos_sin(0.7)
    k = -(mp.mpf(s) + 1j * mp.mpf(c)) / 2
    return k * (w - mp.mpf(0.4)), k * (_continued_log(mp, w, psi) - mp.log(mp.mpf(0.4)))


def _exact_oracle_case(case, monkeypatch):
    """(antiderivative values, grid, closed form) of one case."""
    if case == "fg-256":
        swept = []
        sweep = hodograph.antiderivative_on_grid
        monkeypatch.setattr(hodograph, "antiderivative_on_grid",
                            lambda *args: swept.append(sweep(*args)) or swept[-1])
        annulus = ws.ParamGrid("annulus", 256, 256, (0.4, 0.9, 0.0, 2 * np.pi))
        pair = ws.family_fg(ws.helicoid_fg(), ws.catenoid_fg(), 0.7)
        ws.fg_integrals(pair, annulus, complex(annulus.nodes()[0, 0]), [0.0])
        return swept[0], annulus, _fg_exact
    n = int(case.split("-")[1])
    data = ws.we_data("catenoid")
    annulus = ws.default_annulus(0.4, 0.9, n, n)
    return (ws.antiderivative_on_grid(_integrand(data.R), data.base, annulus, [0.0]),
            annulus, _catenoid_exact)


# largest forward error over the sampled nodes, in eps of max(1, |value|):
# 18.2 (catenoid-512), 14.8 (catenoid-256) and 7.7 (fg-256) with the shipped
# orders (8/5, 8/6 and 4/6 points), 20.2, 13.0 and 7.0 when the orders came
# from 8, 16 and 32 alone; cumulative round-off along the chains sets it,
# not the rules' truncation
EXACT_ORACLE_EPS = 24


@pytest.mark.parametrize("case", ["catenoid-256", "catenoid-512", "fg-256"])
def test_shipped_orders_match_closed_form_antiderivatives(monkeypatch, case):
    # exact values at 30 digits: unlike the 32-point oracle, they share no
    # path, weight normalisation or cumulative sum with the shipped route
    mpmath = pytest.importorskip("mpmath")
    got, grid, exact = _exact_oracle_case(case, monkeypatch)
    rng = np.random.default_rng(35)
    worst = 0.0
    with mpmath.workdps(30):
        for i, j in zip(rng.integers(0, grid.n1, 200), rng.integers(0, grid.n2, 200)):
            node = complex(grid.axis1[i] * np.exp(1j * grid.axis2[j]))  # the grid's node
            want = exact(mpmath, mpmath.mpc(node.real, node.imag), float(grid.axis2[j]))
            for value, ref in zip(got[:, i, j], want, strict=True):
                err = abs(mpmath.mpc(value.real, value.imag) - ref)
                worst = max(worst, float(err / max(1, abs(ref))) / np.finfo(float).eps)
    assert worst <= EXACT_ORACLE_EPS, f"{worst:.1f} eps"


def test_chain_order_from_bernstein_bound():
    z = np.linspace(0.0, 1.0, 11)  # ten segments of length h = 0.1
    z0, z1 = z[:-1], z[1:]
    order = lambda sing, radius=1e-2: quadrature._chain_order(z0, z1, sing, radius)
    # s = 0.55 + iy, abeam the middle of the segment [0.5, 0.6], lies on its
    # Bernstein ellipse of rho = v + sqrt(v^2 + 1), v = y / 0.05; the other
    # segments' ellipses through s are larger
    for y, want in [(0.05, 31), (0.1, 19), (0.3, 11), (1.0, 8), (2.0, 6), (10.0, 5),
                    (40.0, 4), (200.0, 3)]:
        v = y / 0.05
        assert _bound_order(v + math.sqrt(v * v + 1)) == want
        # the reach: at radius 1e-2 the path length is 10, and the ellipse of
        # semi-major axis 5 about a segment, a = 100, admits 5 points; at
        # 1e-3 the path length is 1, a = 10, and 9 points
        assert order([0.55 + 1j * y]) == max(want, 5) == max(
            want, _bound_order(100 + math.sqrt(100 ** 2 - 1))), y
        assert order([0.55 + 1j * y], 1e-3) == max(want, 9) == max(
            want, _bound_order(10 + math.sqrt(10 ** 2 - 1))), y
    assert order([]) == 32  # no declared singularity: the largest order


@pytest.mark.filterwarnings("error")
def test_zero_length_segments_do_not_enter_the_order(monkeypatch):
    used = []
    segment_integrals = quadrature._segment_integrals

    def spy(f, z0, z1, order):
        used.append(order)
        return segment_integrals(f, z0, z1, order)

    monkeypatch.setattr(quadrature, "_segment_integrals", spy)
    radii = np.linspace(0.4, 0.9, 11)
    radii = np.concatenate([radii[:4], radii[3:]])  # one repeated step
    # a moving chain next to one that stays at 0.5 (all segments zero length)
    pts = np.stack([radii, np.full_like(radii, 0.5)]).astype(complex)
    cum = quadrature._chains(lambda w: 1.0 / w, pts, 0, np.arange(len(radii)), [0.0], 1e-3)
    # the nearest moving segment to the pole, [0.4, 0.45], has a = 0.85 / 0.05
    assert used == [_bound_order(17 + math.sqrt(17 ** 2 - 1))] == [8]
    assert np.max(np.abs(cum[0] - np.log(radii / 0.4))) < 1e-14
    assert np.all(cum[1] == 0)


# (radial or horizontal, angular or vertical) chain families' orders on each
# catalog id's refine-2 verification grid and on the 256^2 F/G sweep
SWEEP_ORDERS = {"enneper": (32, 32), "catenoid": (11, 9), "right_helicoid": (11, 9),
                "general_helicoid": (11, 9), "scherk": (5, 5), "general_scherk": (5, 5),
                "henneberg": (5, 5), "general_enneper": (5, 5), "schwarz_riemann": (5, 5),
                FG_FAMILY: (4, 6)}


def test_fused_pass_picks_the_direct_order_on_the_benchmark_sweeps(monkeypatch):
    # the nine catalog sweeps at refine 2 and the helicoid/catenoid F/G
    # sweep at 256^2 (one for a real pair): every chain family gets the
    # order of the direct forms
    checked, sing = [], []
    chain_order = quadrature._chain_order

    def spy(z0, z1, singularities, radius):
        order = chain_order(z0, z1, singularities, radius)
        checked.append((order, chain_order_direct(z0, z1, sing, radius)))
        return order

    monkeypatch.setattr(quadrature, "_chain_order", spy)
    for sid in CATALOG:
        data = ws.we_data(sid)
        sing[:] = singularity_points(data.R)
        ws.generate_conjugate_pair(data, ws.verification_grid(sid, refine=2))
    sing[:] = [0.0]
    annulus = ws.ParamGrid("annulus", 256, 256, (0.4, 0.9, 0.0, 2 * np.pi))
    pair = ws.family_fg(ws.helicoid_fg(), ws.catenoid_fg(), 0.7)
    ws.fg_integrals(pair, annulus, complex(annulus.nodes()[0, 0]), [0.0])
    assert len(checked) == 2 * (len(CATALOG) + 1)
    assert all(got == want for got, want in checked), checked
    assert [got for got, _ in checked] == [n for sid in CATALOG + [FG_FAMILY]
                                           for n in SWEEP_ORDERS[sid]]


def _outcome(order_fn, z0, z1, sing, radius):
    try:
        return order_fn(z0, z1, sing, radius)
    except PathNearSingularity as exc:
        return str(exc)


def test_fused_pass_matches_the_direct_forms_on_random_chains():
    rng = np.random.default_rng(20180)
    seen = set()
    for _ in range(400):
        shape = (int(rng.integers(1, 24)),) + ((int(rng.integers(1, 4)),) if rng.random() < 0.4 else ())
        steps = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * 10.0 ** rng.uniform(-3, 0)
        steps[rng.random(shape) < 0.15] = 0  # some segments do not move
        pts = rng.normal() + 1j * rng.normal() + np.concatenate(
            [np.zeros((1,) + shape[1:]), np.cumsum(steps, axis=0)])
        z0, z1 = pts[:-1], pts[1:]
        radius = 1e-3 * float(np.sum(np.abs(steps))) + 1e-9
        sing = []
        for _ in range(int(rng.integers(0, 4))):
            k = tuple(int(rng.integers(0, n)) for n in shape)
            on = z0[k] + rng.random() * (z1[k] - z0[k])
            off = radius * rng.choice([0.5, 1 - 1e-12, 1 + 1e-12, 2.0, 1e2, 1e4])
            sing.append(complex(on + off * np.exp(2j * np.pi * rng.random())))
        got = _outcome(quadrature._chain_order, z0, z1, sing, radius)
        assert got == _outcome(chain_order_direct, z0, z1, sing, radius)
        seen.add(got if isinstance(got, int) else "raise")
    # the reach (half the path length, 1e3 radii) sets 18 of the 63 orders
    # that a declared singularity bounds
    assert seen == {8, 9, 10, 11, 12, 13, 14, 15, 16, 18, 21, 24, 27, 29, 31, 32, "raise"}


@pytest.mark.parametrize("factor", [1 - 1e-12, 1 + 1e-12])
@pytest.mark.parametrize("where", ["side", "end", "ahead"])
@pytest.mark.parametrize("angle", [0.0, 0.7, np.pi / 2, 2.9])
def test_fused_clearance_at_the_exclusion_radius(factor, where, angle):
    step = 0.05 * np.exp(1j * angle)
    pts = 0.31 + 0.17j + step * np.arange(6)
    radius = 1e-3
    unit = step / abs(step)
    if where == "side":  # abeam the third segment
        s = pts[2] + 0.4 * step + 1j * unit * radius * factor
    elif where == "end":  # past the chain's last waypoint, off its line
        s = pts[-1] + unit * np.exp(0.3j) * radius * factor
    else:  # on the chain's line, where the lower bound is the distance
        s = pts[-1] + unit * radius * factor
    z0, z1 = pts[:-1], pts[1:]
    assert _outcome(quadrature._chain_order, z0, z1, [s], radius) == \
        _outcome(chain_order_direct, z0, z1, [s], radius)


def _threshold(order):
    """Smallest float rho at which the Gauss bound admits `order` points."""
    lo, hi = 1.0, 1e6  # the 2-point rule needs rho above 4.6e5
    while np.nextafter(lo, np.inf) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if quadrature._order_for(mid) <= order else (mid, hi)
    return hi


def _ulps_around(x, n):
    below, above = [x], [x]
    for _ in range(n):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[:0:-1] + above


@pytest.mark.parametrize("segment", [(-1.0, 1.0), (0.3 + 0.1j, 0.45 + 0.23j),
                                     (0.55 + 0.3j, 0.6 + 0.3j)])
@pytest.mark.parametrize("order,larger", zip(quadrature._CHAIN_ORDERS[:-1],
                                             quadrature._CHAIN_ORDERS[1:]))
def test_fused_order_at_the_order_thresholds(monkeypatch, order, larger, segment):
    # singularities on Bernstein ellipses a few ulps either side of a
    # threshold defer to the Joukowski form; those 3e-9 away do not
    deferred = []
    joukowski_rho = quadrature._joukowski_rho

    def spy(*args):
        deferred.append(args)
        return joukowski_rho(*args)

    monkeypatch.setattr(quadrature, "_joukowski_rho", spy)
    a, b = segment
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    z0, z1 = np.array([a]), np.array([b])
    picked = set()
    for rho, near in ([(r, True) for r in _ulps_around(_threshold(order), 6)]
                      + [(_threshold(order) * (1 + e), False) for e in (-3e-9, 3e-9)]):
        s = mid + half * 1j * 0.5 * (rho - 1 / rho)  # on the ellipse of parameter rho
        # half the distance to s: the reach, 500 rho^2 or more, does not bind
        radius = 0.5 * abs(s - mid)
        deferred.clear()
        got = quadrature._chain_order(z0, z1, [s], radius)
        assert bool(deferred) == near
        assert got == chain_order_direct(z0, z1, [s], radius)
        picked.add(got)
    assert picked == {order, larger}


def test_grid_quadrature_holds_one_block_of_integrand_values():
    # Enneper declares no singularity, so every chain runs 32 points, and
    # the refine-2 rectangle's vertical chains span eight blocks.  The peak
    # is output-sized arrays (the chain's segment integrals, its cumulative
    # sums, the result) plus one block's nodes, integrand values,
    # temporaries and reduction: holding a second block's values breaks it
    data = ws.we_data("enneper")
    grid = ws.verification_grid("enneper", refine=2)
    tracemalloc.start()
    try:
        out = ws.antiderivative_on_grid(_integrand(data.R), data.base, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = quadrature._BLOCK_NODES * np.dtype(complex).itemsize
    assert out.size * 32 > 6 * quadrature._BLOCK_NODES
    assert peak <= 3 * out.nbytes + 8 * block, \
        f"peak {peak / 2**20:.2f} MiB, output {out.nbytes / 2**20:.2f} MiB"


def test_grid_antiderivative_holds_one_output_grid():
    # groups of whole chains are cumulated straight into their rows of the
    # output: besides it, the peak holds the angular chains' waypoints (a
    # third of the output for the three-component integrand) and one
    # group's scratch, with no grid-sized segment integrals, cumulative
    # sums, selection or transposed sum
    data = ws.we_data("catenoid")
    f = _integrand(data.R)
    # lazy imports and rule tables load before the measurement
    ws.antiderivative_on_grid(f, data.base, ws.default_annulus(0.4, 0.9, 8, 8), [0.0])
    grid = ws.default_annulus(0.4, 0.9, 512, 512)
    tracemalloc.start()
    try:
        out = ws.antiderivative_on_grid(f, data.base, grid, [0.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * out.nbytes, f"peak {peak / out.nbytes:.2f}x the output"


def test_pair_generation_holds_its_value_parts():
    # the quadrature's output becomes the values, split in place into X's
    # and Y's parts, the one buffer a generated family holds (Phi' and Phi''
    # are evaluated when read), so the peak is the grid antiderivative's
    # own, at most twice its output: 24 MiB above nothing, where the 36 MiB
    # of values, Phi' and Phi'' allowed 44 MiB
    data = ws.we_data("catenoid")
    ws.generate_conjugate_pair(data, ws.default_annulus(0.4, 0.9, 8, 8))  # lazy imports
    tracemalloc.start()
    try:
        fam = ws.generate_conjugate_pair(data, ws.default_annulus(0.4, 0.9, 512, 512))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(part.nbytes for part in fam.values)
    assert held == 12 << 20
    assert peak <= 2 * held, f"peak {peak / 2**20:.1f} MiB"


def test_action_holds_two_grid_arrays():
    # EG - F^2 is one array, formed with one temporary (F^2); the clip, the
    # root and the weights go into it, beside one array of weights
    grid = ws.default_annulus(0.4, 0.9, 512, 512)
    rng = np.random.default_rng(3)
    E, G = 1.0 + rng.random((2, *grid.shape))
    F = 0.1 * rng.random(grid.shape)
    form = ws.FundamentalForm(E, F, G, grid)
    small = ws.default_annulus(0.4, 0.9, 8, 8)
    ws.action(ws.FundamentalForm(E[:8, :8], F[:8, :8], G[:8, :8], small).discriminant(),
              small)
    tracemalloc.start()
    try:
        ws.action(form.discriminant(), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the slack holds numpy's broadcast buffers (about 128 KiB) and the
    # weights' axis vectors (4 KiB each)
    assert peak <= 2 * E.nbytes + (256 << 10), f"peak {peak / E.nbytes:.2f} grid arrays"


@pytest.mark.parametrize("block", [1, WHOLE_GRID])
def test_path_integral_independent_of_block_size(monkeypatch, block):
    f = lambda w: np.stack([np.exp(w) / (w - 2.5j), w ** 2])
    # nine panels on each leg of the polyline -0.3 + 0.1i -> 0.9 + 0.6i -> 0.2 - 0.4i
    cuts = np.concatenate([np.linspace(-0.3 + 0.1j, 0.9 + 0.6j, 10)[:-1],
                           np.linspace(0.9 + 0.6j, 0.2 - 0.4j, 10)])
    default = _segment_integrals(f, cuts[:-1], cuts[1:], 32)
    monkeypatch.setattr(quadrature, "_BLOCK_NODES", block)
    assert np.array_equal(_segment_integrals(f, cuts[:-1], cuts[1:], 32), default)


def test_nonfinite_integrand_in_a_later_block_rejected(monkeypatch):
    monkeypatch.setattr(quadrature, "_BLOCK_NODES", SMALL_BLOCK)
    cuts = np.linspace(0.0, 1.0, 41).astype(complex)  # 40 panels
    with pytest.raises(QuadratureError, match="non-finite"):
        _segment_integrals(lambda w: np.where(w.real > 0.9, np.nan, 1.0),
                           cuts[:-1], cuts[1:], 32)


def test_branch_region_error_in_a_later_block(monkeypatch):
    R = ws.we_data("schwarz_riemann").R
    grid = ws.default_annulus(0.2, 0.6, 21, 48)  # crosses the principal-branch cut
    monkeypatch.setattr(quadrature, "_BLOCK_NODES", SMALL_BLOCK)
    with pytest.raises(BranchRegionError, match="principal-branch region"):
        ws.antiderivative_on_grid(_integrand(R), 0.3, grid)


def test_pair_generation_memory_bounded_by_output():
    # the quadrature's scratch is a fixed number of nodes, so the peak is
    # the returned arrays plus O(grid) working arrays, not ~4 KB per node
    grid = ws.default_annulus(0.4, 0.9, 256, 256)
    data = ws.we_data("catenoid")
    tracemalloc.start()
    try:
        pair = ws.generate_conjugate_pair(data, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = sum(a.nbytes for s in pair for a in (s.values, s.jac, s.jac2))
    assert peak <= 2 * out, f"peak {peak / out:.2f}x the output"


def test_polynomial_exact():
    r = 0.3 + 0.7j
    val = _segment_integrals(lambda w: 2.0 * w, np.array([1.0 + 0j]), np.array([r]), 32)[0]
    assert abs(val - (r ** 2 - 1.0)) < 1e-12


def test_reciprocal_along_unit_arc_fixes_branch():
    # counterclockwise quarter turn along 11 chords of the unit circle:
    # int dw/w = i pi/2 on the continued branch
    arc = np.exp(1j * np.linspace(0.0, np.pi / 2, 12))
    val = _segment_integrals(lambda w: 1.0 / w, arc[:-1], arc[1:], 32).sum()
    assert abs(val - 0.5j * np.pi) < 1e-10


def test_singularity_exclusion_raises():
    # the chain from the base -0.8 along the real axis runs through the pole
    grid = ws.ParamGrid("rectangle", 4, 4, (-0.8, 0.8, -0.4, 0.4))
    with pytest.raises(PathNearSingularity):
        ws.antiderivative_on_grid(lambda w: 1.0 / w, -0.8, grid, singularities=[0.0])


def test_nonfinite_integrand_rejected():
    with pytest.raises(QuadratureError):
        _segment_integrals(lambda w: np.where(np.abs(w) < 2, np.inf, 1.0),
                           np.array([0.0 + 0j]), np.array([1.0 + 0j]), 32)


def test_panel_doubling_estimate_and_spectral_gain():
    f = lambda w: 1.0 / (w - (0.5 + 0.35j))
    exact = np.log(1.0 - (0.5 + 0.35j)) - np.log(-(0.5 + 0.35j))

    def panels(n):  # n 16-point panels over [0, 1]
        cuts = np.linspace(0.0, 1.0, n + 1).astype(complex)
        return _segment_integrals(f, cuts[:-1], cuts[1:], 16).sum()

    val1, val16 = panels(1), panels(2)
    est = abs(val16 - val1)
    err1 = abs(val1 - exact)
    err2 = abs(val16 - exact)
    assert err1 > 1e-12  # single panel measurably inexact for this pole
    assert err1 / max(err2, 1e-16) > 100.0
    assert est >= err2 * 0.1  # estimate tracks the true gap's order of magnitude


def test_additivity_of_consecutive_segments():
    # the grid's path from a to the node c runs along the axes, through b
    f = lambda w: np.exp(w) * w
    a, b, c = 0.0, 1.0 + 0.0j, 1.0 - 0.5j
    seg = _segment_integrals(f, np.array([a, a, b]), np.array([c, b, c]), 32)
    whole, parts = seg[0], seg[1] + seg[2]
    grid = ws.ParamGrid("rectangle", 3, 3, (0.0, 1.0, -0.5, 0.0))
    direct = ws.antiderivative_on_grid(f, a, grid)[2, 0]
    assert abs(parts - direct) < 1e-14
    # path independence for entire f
    assert abs(whole - direct) < 1e-11


@settings(max_examples=25, deadline=None)
@given(finite_c)
def test_path_independence_for_entire_integrand(mid):
    a, c = -0.5 - 0.25j, 1.0 + 0.75j
    if mid in (a, c):
        mid = mid + 0.1
    f = lambda w: np.cos(w) + w ** 3
    seg = _segment_integrals(f, np.array([a, a, mid]), np.array([c, mid, c]), 32)
    direct, detour = seg[0], seg[1] + seg[2]
    assert abs(direct - detour) < 1e-11
    # the grid's axis-aligned path from a to the corner node c
    grid = ws.ParamGrid("rectangle", 3, 3, (a.real, c.real, a.imag, c.imag))
    assert abs(direct - ws.antiderivative_on_grid(f, a, grid)[2, 2]) < 1e-11


# ------------------------------------------------------- antiderivative grid

def test_antiderivative_of_zero():
    g = ws.ParamGrid("rectangle", 7, 9, (-0.5, 0.5, -0.5, 0.5))
    F = ws.antiderivative_on_grid(lambda w: np.zeros_like(w), 0.2, g)
    assert np.max(np.abs(F)) == 0.0


def test_antiderivative_of_one_is_displacement():
    g = ws.ParamGrid("rectangle", 11, 13, (-0.5, 0.5, -0.4, 0.6))
    F = ws.antiderivative_on_grid(lambda w: np.ones_like(w), 0.0, g)
    assert np.max(np.abs(F - g.nodes())) < 1e-13


def test_antiderivative_branch_tracked_log():
    g = ws.default_annulus(0.4, 0.9, 21, 64)
    F = ws.antiderivative_on_grid(lambda w: 1.0 / w, 1.0, g, singularities=[0.0])
    expected = np.log(g.axis1)[:, None] + 1j * g.axis2[None, :]
    assert np.max(np.abs(F - expected)) < 1e-10


def test_antiderivative_conjugate_plane():
    # int_{conj base}^{conj node} s^2 ds = (rbar^3 - conj(base)^3) / 3
    g = ws.default_annulus(0.5, 0.8, 11, 32)
    base = 0.7 + 0.1j
    F = ws.antiderivative_on_grid(lambda s: s ** 2, base, g, conjugate_plane=True)
    rb = np.conj(g.nodes())
    assert np.max(np.abs(F - (rb ** 3 - np.conj(base) ** 3) / 3.0)) < 1e-12


def test_antiderivative_base_on_grid_node_is_zero_there():
    g = ws.ParamGrid("rectangle", 5, 5, (-0.2, 0.2, -0.2, 0.2))
    base = complex(g.nodes()[2, 2])
    F = ws.antiderivative_on_grid(lambda w: np.exp(w), base, g)
    assert F[2, 2] == 0.0


# ------------------------------------------------------ BLAS kernel choice

def _openblas_dynamic_arch() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25, or no BLAS entry
        return False
    return "openblas" in blas.get("name", "").lower() and \
        "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def _cpu_has(flag: str) -> bool:
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    try:
        with open("/proc/cpuinfo") as fh:
            return any(line.startswith("flags") and flag in line.split()
                       for line in fh)
    except OSError:
        return False


def _run_under_kernel(core: str, args: list[str]) -> subprocess.CompletedProcess:
    src = str(Path(ws.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)  # for the oracles module
    env = dict(os.environ, OPENBLAS_CORETYPE=core, PYTHONPATH=os.pathsep.join(
        filter(None, [src, tests, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True)


@pytest.mark.skipif(not (_openblas_dynamic_arch() and _cpu_has("avx")),
                    reason="needs numpy on OpenBLAS built with DYNAMIC_ARCH, "
                           "on an x86-64 CPU with AVX")
def test_cli_outputs_identical_across_openblas_kernels(tmp_path):
    commands = (["generate"], ["family-verify"], ["residuals", "--surface", "scherk"])
    outs = {}
    for core in ("Katmai", "Sandybridge"):
        for cmd in commands:
            out = tmp_path / core / cmd[0]
            proc = _run_under_kernel(core, ["-m", "wesurf.cli", *cmd, "--out", str(out)])
            assert proc.returncode == 0, proc.stderr
            outs[core, cmd[0]] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    for cmd in commands:
        katmai, sandy = outs["Katmai", cmd[0]], outs["Sandybridge", cmd[0]]
        assert katmai and katmai.keys() == sandy.keys()
        differ = [name for name in katmai if katmai[name] != sandy[name]]
        assert not differ, f"{cmd[0]}: {differ} differ between BLAS kernels"


ALIGN_HASH = """
import hashlib
import wesurf as ws
from oracles import align_rigid
grid = ws.default_annulus(0.4, 0.9, 51, 128)
X, _ = ws.generate_conjugate_pair(ws.we_data("catenoid"), grid)
print(hashlib.sha256(align_rigid(X, ws.catenoid_closed(grid)).aligned.tobytes()).hexdigest())
"""


@pytest.mark.skipif(not (_openblas_dynamic_arch() and _cpu_has("avx2")),
                    reason="needs numpy on OpenBLAS built with DYNAMIC_ARCH, "
                           "on an x86-64 CPU with AVX2")
def test_rigid_alignment_identical_across_openblas_kernels():
    digests = set()
    for core in ("Katmai", "Haswell"):
        proc = _run_under_kernel(core, ["-c", ALIGN_HASH])
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.strip())
    assert len(digests) == 1
