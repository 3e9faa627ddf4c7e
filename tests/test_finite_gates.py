"""Every array finiteness gate raises on exactly the inputs it raised on when
each gate ran np.isfinite itself (the expressions kept in oracles.py), and
the patches and surfaces derived from validated data are not scanned again.
"""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

import wesurf as ws
from wesurf import catalog, grids, pde, quadrature, stencils
from wesurf.family import wick_rotate
from wesurf.pde import LorentzBoost, PDEError, boost, wick_substitute

from oracles import finite_everywhere, finite_where_retained

SHAPE = (5, 6)
BAD = (math.nan, math.inf, -math.inf)
# (dtype, poisoned part, value, element, layout); value None is the clean input
CASES = [*itertools.product([(float, "real"), (complex, "real"), (complex, "imag")],
                            [None, *BAD], ["first", "last"], ["contiguous", "strided"])]
IDS = [f"{d.__name__}-{part}-{v}-{at}-{layout}" for (d, part), v, at, layout in CASES]


def poisoned(shape, dtype, part, value, at, layout, seed=3):
    """Finite data with `value` in the real or imaginary part of the first or
    last element; "strided" gives a non-contiguous view.  Imaginary parts
    are zero elsewhere, so a real surface takes the complex input."""
    base = np.random.default_rng(seed).uniform(0.5, 1.5, (*shape[:-1], 2 * shape[-1]))
    a = base.astype(dtype)[..., ::2]
    if layout == "contiguous":
        a = np.ascontiguousarray(a)
    assert a.flags.c_contiguous == (layout == "contiguous")
    if value is not None:
        index = np.unravel_index(0 if at == "first" else a.size - 1, a.shape)
        getattr(a, part)[index] = value
    return a


def raises(gate, error) -> bool:
    try:
        gate()
    except error:
        return True
    return False


@pytest.mark.parametrize("route", ["real", "wick_rotated"])
@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_surface_grid_gate(case, route):
    """The member's gate is S_theta's only one: a member that passes it gives
    finite Wick-rotated values, which are built from it unscanned."""
    grid = ws.ParamGrid("rectangle", *SHAPE, (0.0, 1.0, 0.0, 1.0))
    clean = poisoned((3, *SHAPE), complex, "real", None, "first", "contiguous")
    for name, slots in (("values", ()), ("jac", (2,)), ("jac2", (3,))):
        a = poisoned((3, *slots, *SHAPE), *case[0], *case[1:])
        try:
            member = ws.SurfaceGrid(grid, **{"values": clean, name: a})
        except ws.GridError as exc:
            assert not finite_everywhere(a) and "must be finite" in str(exc), (name, exc)
        else:
            assert finite_everywhere(a), name
            if route == "wick_rotated":
                assert finite_everywhere(wick_rotate(member).values), name


@pytest.mark.parametrize("field", ["x", "phi_xt", "phi_tt"])
@pytest.mark.parametrize("dropped", ["none", "poisoned", "other"])
@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_patch_gate(case, dropped, field):
    names = [f.name for f in dataclasses.fields(pde.NonparametricPatch)][:-1]
    data = {name: poisoned(SHAPE, complex, "real", None, "first", "contiguous", seed=k)
            for k, name in enumerate(names)}
    data[field] = poisoned(SHAPE, *case[0], *case[1:])
    _, value, at, _ = case
    mask = np.ones(SHAPE, bool)
    if dropped != "none":
        mask[(2, 3) if dropped == "other" else (0, 0) if at == "first" else (-1, -1)] = False
    expect = not finite_where_retained(data.values(), mask)
    assert raises(lambda: pde.NonparametricPatch(**data, valid_mask=mask), PDEError) == expect
    if value is not None:  # a non-finite value fails exactly when its node is retained
        assert expect == (dropped != "poisoned")


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_integrand_gate(case):
    a = poisoned(SHAPE, *case[0], *case[1:])
    z = np.zeros(SHAPE, complex)
    expect = not finite_everywhere(a)
    assert raises(lambda: quadrature._eval_checked(lambda _: a, z),
                  ws.QuadratureError) == expect


@pytest.mark.parametrize("block", ["first", "later"])
@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("value", [None, *BAD])
def test_integrand_gate_in_each_block(monkeypatch, value, part, block):
    order = 8
    monkeypatch.setattr(quadrature, "_BLOCK_NODES", 2 * order)  # two segments a block
    z0 = np.arange(6, dtype=complex)  # segment k runs along [k, k + 0.5]

    def f(z):
        out = z + 1j
        if value is not None:
            getattr(out, part)[(z.real < 1) if block == "first" else (z.real > 5)] = value
        return out

    if value is None:
        whole = quadrature._segment_integrals(f, z0, z0 + 0.5, order)
        assert np.all(np.isfinite(whole))
        return
    with pytest.raises(ws.QuadratureError, match="non-finite"):
        quadrature._segment_integrals(f, z0, z0 + 0.5, order)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_eval_r_gate(monkeypatch, case):
    a = poisoned(SHAPE, *case[0], *case[1:])
    entry = dataclasses.replace(catalog._ENTRIES["custom"], R=lambda f, w: a)
    monkeypatch.setitem(catalog._ENTRIES, "custom", entry)
    f = ws.WEFunction("custom", numerator=(1.0,), denominator=(1.0,))
    w = np.full(SHAPE, 0.5 + 0.5j)
    assert raises(lambda: ws.eval_R(f, w), ws.SingularEvaluation) == (not finite_everywhere(a))


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_axis_derivative_gate(case, axis):
    a = poisoned(SHAPE, *case[0], *case[1:])
    assert raises(lambda: stencils.axis_derivative(a, 0.1, axis),
                  ws.StencilError) == (not finite_everywhere(a))


# ------------------------------------------------- derived data: no second scan

def _same_bytes(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_member_and_wick_substitute_keep_bits_without_a_scan(enneper_family, scans):
    S = enneper_family.rows(3, 40).at(0.7)
    X = S.member
    patch = ws.chain_rule_partials(X, second_source="analytic")
    assert scans  # the spy sees the gates that do scan
    scans.clear()
    w = wick_substitute(patch)
    x, t, phi = S.values  # built from the validated member
    assert scans == []
    assert _same_bytes(np.stack([x.real, t.imag, phi.real]), np.stack([X.x, X.t + 0.0, X.phi]))
    assert (S.grid, S.meta) == (X.grid, X.meta)
    for name in ("values", "jac", "jac2"):
        got = getattr(X, name)
        assert got.dtype == np.float64 and not got.flags.writeable, name
    derived = {"t": 1j * patch.t, "phi_t": -1j * patch.phi_t,
               "phi_xt": -1j * patch.phi_xt, "phi_tt": -patch.phi_tt}
    for f in dataclasses.fields(pde.NonparametricPatch):
        got = getattr(w, f.name)
        if f.name in derived:
            assert _same_bytes(got, derived[f.name]), f.name
        else:
            assert got is getattr(patch, f.name), f.name


def test_each_band_scans_each_array_once(monkeypatch, scans):
    # per band of family-verify's sweep: each theta's member has its jac
    # scanned when the form first reads it, and its values, which nothing
    # there reads, are never built; R(r) and R'(r) are evaluated, and
    # scanned, once per band, at the first read of its first theta's jac.
    # Then X and Y, one after the other: the values, jac and jac2 when the
    # chain rule reads them, the five partials it derives, and the seven
    # boosted fields; the shared x, t and phi, and the band's R and R', are
    # not scanned again
    fam = ws.generate_conjugate_pair(ws.we_data("catenoid"), ws.verification_grid("catenoid"))
    monkeypatch.setattr(grids, "_BAND_NODES", 7 * fam.grid.n2)
    per_band = []

    def check_band(rows, band):
        counts = [len(scans)]  # the sweep's
        for member in band:
            patch = ws.chain_rule_partials(member, second_source="analytic")
            counts.append(len(scans) - sum(counts))
            boost(wick_substitute(patch), LorentzBoost(0.8))
            counts.append(len(scans) - sum(counts))
        per_band.append(tuple(counts))
        scans.clear()

    scans.clear()
    ws.theta_sweep_invariance(fam, (0.0, 0.7), per_band=check_band)
    bands = grids._row_bands(*fam.grid.shape)
    assert len(bands) > 1
    assert per_band == [(2 + 2, 3 + 5, 7, 3 + 5, 7)] * len(bands)


def test_boost_that_overflows_still_raises():
    # the boosted patch is scanned: at rapidity 354 cosh^2 times the
    # catenoid's second partials overflows at retained nodes.  The boost
    # raises without a warning: the scan's error is the only report
    fam = ws.generate_conjugate_pair(ws.we_data("catenoid"), ws.verification_grid("catenoid"))
    patch = wick_substitute(ws.chain_rule_partials(fam.at(0.0).member,
                                                   second_source="analytic"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PDEError, match="non-finite derivative data at retained nodes"):
            boost(patch, LorentzBoost(354.0))
    boosted = boost(patch, LorentzBoost(300.0))  # finite data: no raise
    assert finite_where_retained([boosted.phi_xx, boosted.phi_xt, boosted.phi_tt],
                                 boosted.valid_mask)
