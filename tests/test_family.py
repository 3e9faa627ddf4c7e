import copy
import math
import tracemalloc
import weakref
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wesurf as ws
from wesurf import family, grids
from wesurf.cli import main
from wesurf.family import FamilyError, _cos_sin
from wesurf.grids import GridError
from wesurf.io_export import export_mesh

from conftest import rng_points
from oracles import (check_reality, eager_member, surface_from_components, surface_from_fg,
                     theta_derivative, wick_rotate, with_values)


# ------------------------------------------------------------- wick rotation

def test_wick_leaves_zero_t_unchanged(annulus_grid):
    r = annulus_grid.nodes()
    s = surface_from_components(annulus_grid, r.real, np.zeros(r.shape), r.imag)
    w = wick_rotate(s)
    assert np.array_equal(w.x, s.x) and np.array_equal(w.phi, s.phi)
    assert np.max(np.abs(w.t)) == 0.0


def test_double_wick_negates_t(annulus_grid):
    s = ws.catenoid_closed(annulus_grid)
    ww = wick_rotate(wick_rotate(s))
    assert np.array_equal(ww.t, -s.t)
    assert np.array_equal(ww.x, s.x)


def _arrays(s):
    return [a for a in (s.values, s.jac, s.jac2) if a is not None]


def test_wick_rotate_copies_its_input(hc_family):
    catenoid = ws.catenoid_closed(hc_family.grid)
    for s in (catenoid, wick_rotate(catenoid)):
        before = [a.copy() for a in _arrays(s)]
        w = wick_rotate(s)
        for a, b in zip(_arrays(s), before):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        for a, out in zip(_arrays(s), _arrays(w)):
            assert not np.shares_memory(a, out)


def test_double_wick_negates_rotated_t_bitwise(hc_family):
    # bitwise where t has no exact zero: 1j * (1j * z) keeps no sign of a zero
    S = wick_rotate(hc_family.at(0.7).member)
    assert np.all(S.t.imag != 0)
    ww = wick_rotate(wick_rotate(S))
    for a, b in zip(_arrays(ww), _arrays(S)):
        assert np.array_equal(a[1].view(np.uint64), (-b[1]).view(np.uint64))
        assert np.array_equal(a[::2].view(np.uint64), b[::2].view(np.uint64))


@pytest.fixture
def builds(monkeypatch):
    """One "values" per build of S_theta's complex values, in order."""
    built, values = [], family.WickRotated.values.func

    def spy(self):
        built.append("values")
        return values(self)

    spied = cached_property(spy)
    spied.__set_name__(family.WickRotated, "values")
    monkeypatch.setattr(family.WickRotated, "values", spied)
    return built


def test_wick_rotate_builds_the_bits_of_1j_times_t_on_read(builds):
    # `at` at theta 0 combines m = 1 * m + 0 * (-1), which keeps m's signs of
    # zero; the member's t is m itself, and S's values, built when read,
    # hold 1j * (m + 0j) in t: m * 0 + i (m + 0)
    grid = ws.ParamGrid("rectangle", 3, 4, (0.0, 1.0, 0.0, 1.0))
    m = np.array([0.0, -0.0, 1.5, -2.25, 1e-300, -np.pi] * 2).reshape(grid.shape)
    values = (np.stack([m + 1, m, m - 1]), np.full((3,) + grid.shape, -1.0))
    slot = tuple(part[:, None].copy() for part in values)
    fam = ws.SolitonFamily.from_parts(
        grid, values, lambda rows: (tuple(part[..., rows, :] for part in slot),) * 2, ({}, {}))
    S = fam.at(0.0)
    X = S.member
    assert builds == []
    assert np.array_equal(X.t.view(np.uint64), m.view(np.uint64))
    assert np.array_equal(X.x, m + 1) and np.array_equal(X.phi, m - 1)
    expected = np.multiply(1j, m.astype(complex))  # 1j first, as the copying oracle
    assert not S.values.flags.writeable
    x, t, phi = S.values
    assert np.array_equal(t.view(np.uint64), expected.view(np.uint64))
    assert np.array_equal(np.signbit(t.real), np.signbit(m))
    assert np.array_equal(x, m + 1) and np.array_equal(phi, m - 1)
    assert not np.any(x.imag) and not np.any(phi.imag)
    assert builds == ["values"] and S.values is S.values
    assert (S.grid, S.meta) == (X.grid, X.meta)


def test_member_keeps_the_raw_sign_of_zero_in_t():
    # theta pi snaps to (c, s) = (-1, 0): the raw t = -x + 0 * y is -0 at
    # nodes of Scherk's verification rectangle; the member keeps it, and S's
    # t there is (-0) + 0j, the bits that the OBJ sidecar prints
    fam = ws.generate_conjugate_pair(ws.we_data("scherk"), ws.verification_grid("scherk"))
    X, Y = fam
    m = np.add(np.multiply(-1.0, X.t), 0.0 * Y.t)
    negative_zero = (m == 0) & np.signbit(m)
    assert negative_zero.any()
    S = fam.at(math.pi)
    assert np.array_equal(S.member.t.view(np.uint64), m.view(np.uint64))
    t = S.values[1][negative_zero]
    assert np.all(np.signbit(t.real)) and not np.any(np.signbit(t.imag))
    assert not np.any(t.real) and not np.any(t.imag)


def _s_arrays(S):
    """The arrays of S_theta: its member's and its complex values."""
    return [*_arrays(S.member), S.values]


def test_family_at_shares_no_memory_with_the_family(hc_family):
    for fam in (hc_family, hc_family.rows(3, 20)):
        S = fam.at(0.7)
        arrays = _s_arrays(S)
        held = [part for parts in (fam.values, *fam.derivatives(slice(None)))
                for part in parts]
        assert len(held) == 6
        for out in arrays:
            assert not out.flags.writeable
            assert not any(np.shares_memory(out, z) for z in held)
        assert not any(np.shares_memory(a, b) for k, a in enumerate(arrays)
                       for b in arrays[k + 1:])


def test_wick_catenoid_matches_nonparametric_form(annulus_grid):
    # phi = arccosh sqrt(x^2 - t^2) with t the (imaginary) rotated component
    s = wick_rotate(ws.catenoid_closed(annulus_grid))
    p = s.x ** 2 - s.t ** 2
    assert np.max(np.abs(p.imag)) < 1e-12
    defined = p.real > 1.0 + 1e-9
    expected = np.arccosh(np.sqrt(p.real[defined]))
    assert np.max(np.abs(np.abs(s.phi.real[defined]) - expected)) < 1e-12


def test_theta_sweep_builds_no_complex_array(tmp_path, builds, monkeypatch):
    # family-verify's checks read each band as its real member only
    bands = []
    n1, n2 = ws.verification_grid("enneper").shape
    monkeypatch.setattr(grids, "_BAND_NODES", 7 * n2)
    at = ws.SolitonFamily.at
    monkeypatch.setattr(ws.SolitonFamily, "at",
                        lambda fam, theta: bands.append(theta) or at(fam, theta))
    assert main(["family-verify", "--surface", "enneper", "--theta", "0", "0.7",
                 "--formats", "csv", "--out", str(tmp_path)]) == 0
    assert len(bands) == 2 * len(grids._row_bands(n1, n2)) == 26
    assert builds == []


def test_obj_export_and_relations_build_values_once(tmp_path, builds, hc_family):
    assert main(["family-verify", "--surface", "enneper", "--theta", "0", "0.7",
                 "--formats", "obj", "--out", str(tmp_path)]) == 0
    assert builds == ["values", "values"]
    builds.clear()
    ws.verify_soliton_relations(hc_family.at(0.7),
                                ws.family_fg(ws.helicoid_fg(), ws.catenoid_fg(), 0.7),
                                singularities=[0.0])
    assert builds == ["values"]


def _spied_source(fam):
    """A copy of fam whose derivative source records each read's rows."""
    reads, source = [], fam.derivatives
    spied = copy.copy(fam)
    spied.derivatives = lambda rows: reads.append(rows) or source(rows)
    return spied, reads


@pytest.fixture
def made(monkeypatch):
    """The name of each array a family builds for a member, in order."""
    names, real_array = [], ws.SolitonFamily._real_array

    def spy(fam, name, z, part):
        names.append(name)
        return real_array(fam, name, z, part)

    monkeypatch.setattr(ws.SolitonFamily, "_real_array", spy)
    return names


def _no_derivative_grid(scans):
    # jac and jac2 are the only four-axis arrays a member scans
    return all(len(shape) < 4 for shape in scans)


def test_readers_of_values_build_no_derivative(tmp_path, made, scans, builds, hc_family):
    fam, reads = _spied_source(ws.generate_conjugate_pair(ws.we_data("catenoid"),
                                                          ws.verification_grid("catenoid")))
    scans.clear()
    S = fam.at(0.7)
    assert (reads, made, scans, builds) == ([], ["values"], [S.member.values.shape], [])
    export_mesh(fam.at(math.pi / 2), tmp_path / "s.obj")
    assert reads == [] and made == ["values"] * 2 and builds == ["values"]
    assert _no_derivative_grid(scans)
    hc, reads = _spied_source(hc_family)
    made.clear()
    ws.verify_soliton_relations(hc.at(0.7), ws.family_fg(ws.helicoid_fg(), ws.catenoid_fg(), 0.7),
                                singularities=[0.0])
    assert reads == [] and made == ["values"] and _no_derivative_grid(scans)


def test_first_read_of_jac_builds_it_once_read_only(made, scans):
    fam, reads = _spied_source(ws.generate_conjugate_pair(ws.we_data("catenoid"),
                                                          ws.verification_grid("catenoid")))
    m = fam.at(0.7).member
    scans.clear()
    assert m.jac is m.jac and not m.jac.flags.writeable
    assert reads == [slice(None)] and made == ["values", "jac"]
    assert scans == [fam.grid.shape] * 2 + [m.jac.shape]  # R(r), R'(r), then jac
    assert m.jac2 is m.jac2 and not m.jac2.flags.writeable
    assert reads == [slice(None)] and made == ["values", "jac", "jac2"]  # the read is shared
    X, Y = fam
    assert reads == [slice(None)]
    X.jac, Y.jac2
    assert reads == [slice(None), slice(0, fam.grid.n1)]  # X and Y share one read


def _generated_band():
    fam = ws.generate_conjugate_pair(ws.we_data("catenoid"), ws.verification_grid("catenoid"))
    return fam.rows(5, 17)


@pytest.mark.parametrize("make_family", [
    lambda: ws.generate_conjugate_pair(ws.we_data("catenoid"), ws.verification_grid("catenoid")),
    _generated_band,
    lambda: ws.SolitonFamily(ws.helicoid_closed(ws.verification_grid("catenoid")),
                             ws.catenoid_closed(ws.verification_grid("catenoid"))),
    lambda: _henneberg_pair()[0],
    lambda: _y_scale_family()[0],
], ids=["generated", "band", "helicoid_catenoid", "henneberg", "y_scale"])
def test_deferred_member_matches_eager_bitwise(make_family):
    fam = make_family()
    for theta in (0.0, 0.7, math.pi / 2, math.pi):
        lazy, eager = fam.at(theta).member, eager_member(fam, theta)
        for name in ("values", "jac", "jac2"):
            assert np.array_equal(_bits(getattr(lazy, name)), _bits(getattr(eager, name))), name


def test_at_raises_on_an_overflowing_member():
    # the values stay finite and only jac overflows: the member raises at
    # the first read of its jac, before any use of it, and at every read
    fam = ws.generate_conjugate_pair(ws.we_data("catenoid"), ws.verification_grid("catenoid"),
                                     y_scale=1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        member = fam.at(0.7).member
        for _ in range(2):
            with pytest.raises(GridError, match="analytic derivatives must be finite"):
                member.jac


# ------------------------------------------------------------------- family

def _same_surface(a, b):
    return all(np.array_equal(u, v) for u, v in ((a.values, b.values),
                                                 (a.jac, b.jac), (a.jac2, b.jac2)))


def _is_wick_of(S, X):
    """S = X^s: S's member has X's arrays, and S's values X's rotated ones."""
    return _same_surface(S.member, X) and np.array_equal(S.values, wick_rotate(X).values)


def test_family_rejects_non_conjugate_pair(annulus_grid):
    X = ws.helicoid_closed(annulus_grid)
    Y = ws.catenoid_closed(annulus_grid)
    bad = with_values(Y, 2.0 * Y.values, jac=2.0 * Y.jac, jac2=2.0 * Y.jac2)
    with pytest.raises(FamilyError):
        ws.SolitonFamily(X, bad)
    fam = ws.SolitonFamily(X, bad, validate=False)  # corruption injection
    assert _is_wick_of(fam.at(math.pi / 2), bad)


def test_family_at_zero_is_wick_x(hc_family):
    assert _is_wick_of(hc_family.at(0.0), hc_family.X)


def test_family_at_half_pi_is_wick_y(hc_family):
    assert _is_wick_of(hc_family.at(math.pi / 2), hc_family.Y)


@pytest.mark.parametrize("family", ["hc_family", "enneper_family"])
@pytest.mark.parametrize("theta", [0.3, 2.0, 4.5, -1.0])
def test_family_is_combination_of_wick_rotated_members(family, theta, request):
    # (cos X + sin Y)^s == cos X^s + sin Y^s in every quadrant of theta
    fam = request.getfixturevalue(family)
    Xs, Ys = wick_rotate(fam.X), wick_rotate(fam.Y)
    c, s = math.cos(theta), math.sin(theta)
    S = fam.at(theta)
    assert np.array_equal(S.values, c * Xs.values + s * Ys.values)
    rotated = wick_rotate(S.member)
    assert np.array_equal(rotated.jac, c * Xs.jac + s * Ys.jac)
    assert np.array_equal(rotated.jac2, c * Xs.jac2 + s * Ys.jac2)


def test_family_packs_pair_and_keeps_no_member():
    # the family copies X's and Y's arrays into one array per field, X's
    # half and Y's: the pair's bytes, read-only; no surface stays alive
    grid = ws.default_annulus(0.4, 0.9, 64, 64)
    X, Y = ws.helicoid_closed(grid), ws.catenoid_closed(grid)
    pair_bytes = sum(a.nbytes for s in (X, Y) for a in (s.values, s.jac, s.jac2))
    refs = (weakref.ref(X), weakref.ref(Y))
    tracemalloc.start()
    try:
        fam = ws.SolitonFamily(X, Y, validate=False)
        del X, Y
        # numpy data buffers only: the family's arrays, not its Python objects
        held = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    finally:
        tracemalloc.stop()
    assert refs[0]() is None and refs[1]() is None, "the family keeps a member alive"
    held_bytes = sum(trace.size for trace in held.traces)
    assert held_bytes <= pair_bytes, f"family holds {held_bytes} bytes"
    held_arrays = [part for parts in (fam.values, *fam.derivatives(slice(None)))
                   for part in parts]
    assert sum(z.nbytes for z in held_arrays) == pair_bytes
    assert not any(z.flags.writeable or not z.flags.c_contiguous for z in held_arrays)


# each maker returns (family, (X, Y)): generated families unpack to their
# members, the others are packed from the members given

def _offset_catenoid_pair():
    data = ws.we_data("catenoid", offsets=(0.3, -1.2, 2.0))
    fam = ws.generate_conjugate_pair(data, ws.default_annulus(0.4, 0.9, 24, 40))
    return fam, tuple(fam)


def _fg_pair():
    grid = ws.default_annulus(0.4, 0.9, 24, 40)
    X = surface_from_fg(ws.helicoid_fg(), grid, base=1.0, singularities=[0.0])
    Y = surface_from_fg(ws.catenoid_fg(), grid, base=1.0, singularities=[0.0])
    return ws.SolitonFamily(X, Y), (X, Y)


def _closed_form_pair():
    grid = ws.default_annulus(0.4, 0.9, 24, 40)
    X, Y = ws.helicoid_closed(grid), ws.catenoid_closed(grid)
    return ws.SolitonFamily(X, Y), (X, Y)


def _scaled_y_pair():
    grid = ws.default_annulus(0.4, 0.9, 24, 40)
    X, Y = ws.helicoid_closed(grid), ws.catenoid_closed(grid)
    Y = with_values(Y, 2.0 * Y.values, jac=2.0 * Y.jac, jac2=2.0 * Y.jac2)
    return ws.SolitonFamily(X, Y, validate=False), (X, Y)


def _henneberg_pair():
    # flip_t negates t after generation
    fam = ws.generate_conjugate_pair(ws.we_data("henneberg"), ws.verification_grid("henneberg"))
    return fam, tuple(fam)


def _y_scale_family():
    fam = ws.generate_conjugate_pair(ws.we_data("catenoid"),
                                     ws.verification_grid("catenoid"), y_scale=1.5)
    return fam, tuple(fam)


def _catalog_family(surface):
    def make():
        fam = ws.generate_conjugate_pair(ws.we_data(surface), ws.verification_grid(surface))
        return fam, tuple(fam)
    return pytest.param(make, id=surface)


def _bits(a):
    return None if a is None else a.view(np.uint64)


# the quarter angles snap cos or sin to 0: signed zeros in the member's t
# and in the real part of S's t
PIN_THETAS = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2, -1.0, 4.5)


@pytest.mark.parametrize("make_family", [
    _henneberg_pair, _offset_catenoid_pair, _fg_pair, _scaled_y_pair, _closed_form_pair,
    _y_scale_family,
    *(_catalog_family(i) for i in ws.CATALOG_IDS if i not in ("custom", "henneberg"))])
def test_packed_family_matches_combined_members(make_family):
    # bit for bit, signs of zero included: np.array_equal treats -0 == +0
    fam, (X, Y) = make_family()
    for theta in PIN_THETAS:
        c, s = _cos_sin(theta)

        def comb(a, b):
            return None if a is None or b is None else c * a.real + s * b.real

        want = ws.SurfaceGrid(X.grid, comb(X.values, Y.values), comb(X.jac, Y.jac),
                              comb(X.jac2, Y.jac2))
        got = fam.at(theta)
        for g, w in ((got.member.values, want.values), (got.member.jac, want.jac),
                     (got.member.jac2, want.jac2),
                     (got.values, wick_rotate(want).values)):
            if w is None:
                assert g is None
            else:
                assert np.array_equal(_bits(g), _bits(w)), theta
    for got, member in zip(fam, (X, Y)):
        for g, m in ((got.values, member.values), (got.jac, member.jac),
                     (got.jac2, member.jac2)):
            assert (g is None and m is None) or np.array_equal(_bits(g.real), _bits(m.real))


def test_family_rejects_member_with_imaginary_part(annulus_grid):
    X = ws.helicoid_closed(annulus_grid)
    Y = ws.catenoid_closed(annulus_grid)
    # a real surface holds no imaginary part, so a tainted member is refused
    # as it is built, before a family sees it
    with pytest.raises(GridError, match="imaginary part"):
        with_values(Y, Y.values + 1e-14j, jac=Y.jac, jac2=Y.jac2)
    with pytest.raises(GridError, match="imaginary part"):
        with_values(X, X.values, jac=X.jac + 1e-14j, jac2=X.jac2)


def test_family_phi_closed_form(hc_family, annulus_grid):
    # phi_theta = Im(e^{-i theta} log r) on the continued branch
    theta = 0.7
    S = hc_family.at(theta)
    L = np.log(annulus_grid.axis1)[:, None] + 1j * annulus_grid.axis2[None, :]
    expected = -0.5j * L * np.exp(-1j * theta) + 0.5j * np.conj(L) * np.exp(1j * theta)
    assert np.max(np.abs(S.values[2] - expected)) < 1e-12


def test_family_t_component_is_purely_imaginary(hc_family):
    for theta in (0.0, 0.4, 1.2):
        S = hc_family.at(theta)
        assert np.max(np.abs(S.values[1].real)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_family_angle_addition_identity(t1, t2):
    grid = ws.ParamGrid("annulus", 5, 7, (0.5, 0.8, 0.1, 1.0))
    fam = ws.SolitonFamily(ws.helicoid_closed(grid), ws.catenoid_closed(grid))
    lhs = fam.at(t1).values + fam.at(t2).values
    rhs = 2.0 * math.cos(0.5 * (t1 - t2)) * fam.at(0.5 * (t1 + t2)).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# ---------------------------------------------------------- theta derivative

def test_theta_derivative_order_four_is_identity(hc_family):
    theta = 0.3
    assert np.array_equal(theta_derivative(hc_family, theta, 4).values,
                          hc_family.at(theta).values)


def test_theta_derivative_matches_shifted_family(hc_family):
    theta = 0.3
    for order in (1, 2, 3):
        lhs = theta_derivative(hc_family, theta, order)
        rhs = hc_family.at(theta + order * math.pi / 2)
        assert np.array_equal(lhs.values, rhs.values)


def test_theta_derivative_order_two_negates(hc_family):
    theta = 0.3
    lhs = theta_derivative(hc_family, theta, 2).values
    assert np.max(np.abs(lhs + hc_family.at(theta).values)) < 1e-12


def test_first_derivative_at_zero_is_wick_y(hc_family):
    assert _is_wick_of(theta_derivative(hc_family, 0.0, 1), hc_family.Y)


# -------------------------------------------------------------- family F/G

def test_family_fg_closed_form_helicoid_catenoid():
    pts = rng_points(100, seed=11)
    rng = np.random.default_rng(12)
    thetas = rng.uniform(-math.pi, math.pi, 100)
    for r, th in zip(pts, thetas):
        fg = ws.family_fg(ws.helicoid_fg(), ws.catenoid_fg(), th)
        assert abs(fg.F(r) - 0.5j * np.exp(-1j * th) / r) < 1e-12
        assert abs(fg.G(np.conj(r)) + 0.5j * np.exp(1j * th) / np.conj(r)) < 1e-12


def test_family_fg_at_half_pi_is_catenoid():
    fg = ws.family_fg(ws.helicoid_fg(), ws.catenoid_fg(), math.pi / 2)
    r = 0.3 - 0.55j
    assert fg.F(r) == ws.catenoid_fg().F(r)


def test_family_fg_at_zero_unchanged():
    fg = ws.family_fg(ws.helicoid_fg(), ws.catenoid_fg(), 0.0)
    r = 0.62 + 0.14j
    assert fg.F(r) == ws.helicoid_fg().F(r)
    assert fg.Gp(np.conj(r)) == ws.helicoid_fg().Gp(np.conj(r))


def test_family_fg_keeps_reality_constraint():
    fg = ws.family_fg(ws.helicoid_fg(), ws.catenoid_fg(), 0.8)
    assert fg.reality_constraint
    assert check_reality(fg, rng_points(32)) < 1e-14


# ------------------------------------------------------- soliton relations

def test_soliton_relations_helicoid_catenoid(hc_family):
    for theta in (0.0, 0.3, math.pi / 2):
        S = hc_family.at(theta)
        fg = ws.family_fg(ws.helicoid_fg(), ws.catenoid_fg(), theta)
        rep = ws.verify_soliton_relations(S, fg, singularities=[0.0])
        assert rep.max_mismatch < 1e-8


def test_soliton_relations_detect_corrupted_F(hc_family):
    theta = 0.3
    S = hc_family.at(theta)
    fg = ws.family_fg(ws.helicoid_fg(), ws.catenoid_fg(), theta)
    bad = ws.FGPair(F=lambda r: 1.01 * fg.F(r), G=fg.G,
                    Fp=lambda r: 1.01 * fg.Fp(r), Gp=fg.Gp,
                    reality_constraint=False, label="corrupted")
    rep = ws.verify_soliton_relations(S, bad, singularities=[0.0])
    assert rep.max_mismatch > 1e-3


def test_soliton_relations_zero_surface(annulus_grid):
    z = np.zeros(annulus_grid.shape)
    s = family.wick_rotate(surface_from_components(annulus_grid, z, z, z))
    zero = ws.FGPair(F=lambda r: np.zeros_like(r), G=lambda s_: np.zeros_like(s_),
                     Fp=lambda r: np.zeros_like(r), Gp=lambda s_: np.zeros_like(s_),
                     reality_constraint=True, label="zero")
    rep = ws.verify_soliton_relations(s, zero)
    assert rep.max_mismatch == 0.0


def test_soliton_relations_max_mismatch_propagates_nan():
    def report(value):
        return ws.ResidualReport(value, value, value, 1, (0, 0))
    rep = ws.SolitonRelationsReport(report(1e-12), report(1e-12), report(math.nan))
    assert math.isnan(rep.max_mismatch)
    assert not rep.max_mismatch < 1e-8


def test_soliton_relations_enneper_family(enneper_family):
    theta = 0.45
    S = enneper_family.at(theta)
    fg = ws.family_fg(ws.enneper_fg(), ws.enneper_conjugate_fg(), theta)
    rep = ws.verify_soliton_relations(S, fg)
    assert rep.max_mismatch < 1e-8
