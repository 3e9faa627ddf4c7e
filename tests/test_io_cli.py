import contextlib
import dataclasses
import importlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wesurf as ws
from wesurf import cli, family, geometry, grids, pde
from wesurf.cli import main
from wesurf.family import _cos_sin, wick_rotate
from wesurf.io_export import SCHEMA, export_mesh, write_surface_csv, write_surface_table

from oracles import member_residuals, quad_triangles, surface_from_components, with_values


def flat_surface(n1=3, n2=3):
    g = ws.ParamGrid("rectangle", n1, n2, (0.0, 1.0, 0.0, 1.0))
    r = g.nodes()
    return surface_from_components(g, r.real, np.zeros(g.shape), r.imag)


# ----------------------------------------------------------------- exporters

def test_obj_counts_for_tiny_grid(tmp_path):
    path = export_mesh(flat_surface(), tmp_path / "flat.obj")
    lines = path.read_text().splitlines()
    assert sum(1 for L in lines if L.startswith("v ")) == 9
    assert sum(1 for L in lines if L.startswith("f ")) == 8


def test_obj_counts_for_catenoid_annulus(tmp_path):
    g = ws.default_annulus(0.4, 0.9, 64, 64)
    s = ws.catenoid_closed(g)
    lines = export_mesh(s, tmp_path / "cat.obj").read_text().splitlines()
    assert sum(1 for L in lines if L.startswith("v ")) == 4096
    # full-circle sampling includes both angular endpoints: the seam closes
    verts = np.array([[float(v) for v in L.split()[1:]] for L in lines
                      if L.startswith("v ")]).reshape(64, 64, 3)
    assert np.max(np.abs(verts[:, 0, :] - verts[:, -1, :])) < 1e-12


def test_obj_rerun_is_byte_identical(tmp_path):
    s = flat_surface(5, 7)
    a = export_mesh(s, tmp_path / "a.obj").read_bytes()
    b = export_mesh(s, tmp_path / "b.obj").read_bytes()
    assert a == b


def test_wick_mesh_writes_complex_sidecar(tmp_path):
    g = ws.default_annulus(0.4, 0.9, 5, 8)
    s = wick_rotate(ws.catenoid_closed(g))
    export_mesh(s, tmp_path / "wick.obj")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["wick.obj", "wick_complex.csv"]
    sidecar = tmp_path / "wick_complex.csv"
    assert sidecar.exists()
    header = sidecar.read_text().splitlines()
    assert header[0] == f"# schema: {SCHEMA}"
    assert header[1].split(",")[4:6] == ["x_re", "x_im"]
    # vertices use (x_re, |t_im|, phi_re)
    lines = (tmp_path / "wick.obj").read_text().splitlines()
    first = [float(v) for v in lines[1].split()[1:]]
    assert first[1] == pytest.approx(abs(complex(s.values[1, 0, 0]).imag))


def _loop_triangles(n1, n2):
    faces = []
    for i in range(n1 - 1):
        for j in range(n2 - 1):
            v00 = i * n2 + j
            faces += [(v00, v00 + n2, v00 + n2 + 1), (v00 + n2 + 1, v00 + 1, v00)]
    return faces


def test_quad_triangulation_indices():
    faces = quad_triangles(2, 3)
    assert faces == [(0, 3, 4), (4, 1, 0), (1, 4, 5), (5, 2, 1)]
    for n1, n2 in ((4, 7), (6, 2), (1, 5), (5, 1)):
        assert quad_triangles(n1, n2) == _loop_triangles(n1, n2)


def test_writers_format_every_float_as_17g(tmp_path):
    """Each written float is format(float(v), ".17g") of its source value;
    S = X^s prints its t as m * 0 + i (m + 0), signs of zero included."""
    def ref(v):
        return format(float(v), ".17g")

    vals = [-0.0, 5e-324, 1e300, 0.1, 1 / 3, -2.5]
    g = ws.ParamGrid("rectangle", 3, 4, (-0.5, 0.5, -1.0, 1.0))
    real = surface_from_components(g, *(np.resize(np.roll(vals, k), g.shape)
                                        for k in range(3)))
    r = g.nodes()
    for name, s in (("real", real), ("wick", wick_rotate(real))):
        x, t, phi = s.values
        t_mesh = t.real if name == "real" else np.abs(t.imag)
        nodes = {(i, j): [ref(f(z[i, j])) for z in (r, x, t, phi)
                          for f in (np.real, np.imag)]
                 for i in range(3) for j in range(4)}
        csv = [f"{i},{j}," + ",".join(v) for (i, j), v in nodes.items()]
        table = [line for i in range(3)
                 for line in [" ".join(nodes[i, j]) for j in range(4)] + [""]]
        obj = ([f"v {ref(x[i, j].real)} {ref(t_mesh[i, j])} {ref(phi[i, j].real)}"
                for i in range(3) for j in range(4)]
               + [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in _loop_triangles(3, 4)])
        text = write_surface_csv(s, tmp_path / f"{name}.csv").read_text()
        assert text.splitlines()[2:] == csv
        path = write_surface_table(s, tmp_path / f"{name}.dat")
        assert path.read_text().splitlines()[2:] == table
        assert export_mesh(s, tmp_path / f"{name}.obj").read_text().splitlines()[1:] == obj
        sidecar = tmp_path / f"{name}_complex.csv"
        assert sidecar.exists() == (name == "wick")
        assert name == "real" or sidecar.read_text() == text
    assert {"-0", "4.9406564584124654e-324", "1.0000000000000001e+300", "0.10000000000000001",
            "0.33333333333333331", "-2.5"} <= set(",".join(csv).split(","))
    assert csv[1].split(",")[6:8] == ["-0", "0"]  # t = -0 at node (0, 1): t_re, t_im


def test_surface_csv_schema(tmp_path):
    s = flat_surface()
    path = write_surface_csv(s, tmp_path / "s.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == f"# schema: {SCHEMA}"
    assert lines[1] == "i,j,r1,r2,x_re,x_im,t_re,t_im,phi_re,phi_im"
    assert len(lines) == 2 + 9


# ----------------------------------------------------------------------- CLI

def test_cli_generate_smoke(tmp_path, capsys):
    rc = main(["generate", "--surface", "catenoid", "--kappa", "1",
               "--annulus", "0.4", "0.9", "--n", "24", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "catenoid.obj").exists()
    assert (tmp_path / "catenoid_conjugate.csv").exists()
    assert (tmp_path / "catenoid_report.csv").exists()


def test_cli_scherk_harmonicity_report(tmp_path):
    rc = main(["generate", "--surface", "scherk", "--rect", "-0.5", "0.5",
               "-0.5", "0.5", "--n", "48", "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "scherk_report.csv").read_text().splitlines()[2:]
    harmonic = [float(r.split(",")[2]) for r in rows
                if r.split(",")[1] in ("x", "t", "phi")]
    assert max(harmonic) < 1e-6


def test_cli_unknown_surface_exits_2(tmp_path, capsys):
    rc = main(["generate", "--surface", "moebius", "--out", str(tmp_path)])
    assert rc == 2
    assert "valid ids" in capsys.readouterr().err


@pytest.mark.parametrize("surface", ["bogus", "custom"])
def test_cli_unknown_surface_error_precedes_default_grid(tmp_path, capsys, surface):
    # --n alone resizes the entry's default grid, which an unknown id has not
    errs = []
    for counts in ([], ["--n", "8"]):
        assert main(["generate", "--surface", surface, *counts, "--out", str(tmp_path)]) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith(f"error: unknown surface id {surface!r}; valid ids: ")
    assert not any(tmp_path.iterdir())


def test_cli_family_verify_passes(tmp_path, capsys):
    rc = main(["family-verify", "--surface", "catenoid", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "family_verify.csv").read_text().splitlines()
    assert lines[1].split(",")[0] == "theta"
    assert len(lines) == 2 + 5  # default five thetas
    # the report's path first, then one mesh per theta in sweep order
    printed = capsys.readouterr().out.splitlines()[:6]
    assert printed == [str(tmp_path / name) for name in (
        "family_verify.csv", "s_theta_0.obj", "s_theta_0.3.obj", "s_theta_0.7.obj",
        "s_theta_1.1.obj", "s_theta_1.5708.obj")]


def test_cli_family_verify_empty_theta_exits_2(tmp_path, capsys):
    rc = main(["family-verify", "--surface", "catenoid", "--theta",
               "--out", str(tmp_path)])
    assert rc == 2


def test_cli_family_verify_member_with_imaginary_part_exits_2(tmp_path, capsys,
                                                              monkeypatch):
    def tainted_pair(data, grid, **kwargs):
        X, Y = ws.generate_conjugate_pair(data, grid, **kwargs)
        tainted = with_values(Y, Y.values + 1e-14j, jac=Y.jac, jac2=Y.jac2)
        return ws.SolitonFamily(X, tainted, validate=False)

    monkeypatch.setattr(cli, "generate_conjugate_pair", tainted_pair)
    assert main(["family-verify", "--formats", "csv", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "imaginary part" in err


def _family_verify_peak_surfaces(n, out_dir):
    """tracemalloc peak of an n x n `family-verify` run, in surfaces: the
    18 complex grid arrays of values, jac and jac2."""
    tracemalloc.start()
    try:
        rc = main(["family-verify", "--annulus", "0.4", "0.9", "--n", str(n),
                   "--formats", "csv", "--out", str(out_dir)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    return peak / (18 * 16 * n * n)


def test_cli_family_verify_peak_memory_is_a_few_surfaces(tmp_path, capsys):
    # the family keeps the pair's values as two parts (one surface's bytes)
    # and each S_theta is freed before the next
    peak = _family_verify_peak_surfaces(128, tmp_path)
    assert peak <= 4.5, f"peak {peak:.2f} surfaces"


def test_cli_family_verify_builds_the_family_without_the_members(tmp_path, capsys):
    # generating X and Y and then packing them peaks at 3 surfaces; writing
    # the family straight from the holomorphic triple takes 1.4, so
    # the sweep's bands (2 surfaces at 256^2) set the peak.  At 128^2 one
    # band holds the whole grid and hides the difference.
    peak = _family_verify_peak_surfaces(256, tmp_path)
    assert peak <= 2.25, f"peak {peak:.2f} surfaces"


def test_cli_family_verify_keeps_no_derivative_grid(tmp_path, capsys):
    # the generated family keeps its values alone, and each band of the sweep
    # evaluates its own Phi' and Phi'': 13.5 MiB at 256^2, where storing
    # Phi' and Phi'' took 17.6 and storing every slot 33.5
    peak_mib = _family_verify_peak_surfaces(256, tmp_path) * 18 * 16 * 256 ** 2 / 2 ** 20
    assert peak_mib <= 16, f"peak {peak_mib:.1f} MiB"


def test_cli_family_verify_corruption_exits_1(tmp_path, capsys):
    rc = main(["family-verify", "--surface", "catenoid",
               "--corrupt-y-scale", "1.01", "--out", str(tmp_path)])
    assert rc == 1
    assert "tolerance breach" in capsys.readouterr().err


def test_cli_family_verify_overflowing_member_exits_2_and_writes_nothing(tmp_path, capsys):
    # y_scale 1e308 keeps the values finite and overflows the first
    # derivatives: the sweep's first read of a member's jac raises, before
    # the report or any mesh is written
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main(["family-verify", "--corrupt-y-scale", "1e308", "--formats", "csv,obj",
                   "--out", str(tmp_path)])
    assert rc == 2
    assert "error: analytic derivatives must be finite" in capsys.readouterr().err.splitlines()
    assert list(tmp_path.iterdir()) == []


def _failed_gates(out: str) -> set[str]:
    return {line.split(":")[0] for line in out.splitlines() if line.endswith("FAIL")}


def _nan_at(fn, call, poison):
    """fn, except that its call-th result (0-based) is poisoned with NaN."""
    count = [0]

    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        count[0] += 1
        return poison(out) if count[0] == call + 1 else out
    return wrapped


def _nan_form(field):
    return lambda form: dataclasses.replace(form, **{field: getattr(form, field) * math.nan})


NAN_CASES = {
    # per band, cli.residual_report runs on the circle's hypot(r_X, r_Y),
    # then per theta on c r_X + s r_Y, the unboosted Born-Infeld residual
    # (the minimal residual of the real member), and on the boosted one;
    # the default run is one band.  A NaN in a form also reaches the action
    "bi_residual": ("wesurf.cli", "residual_report", 1 + 2,
                    lambda rep: dataclasses.replace(rep, max_abs=math.nan),
                    {"max_bi_residual", "boost_delta"}),
    "boosted_residual": ("wesurf.cli", "residual_report", 1 + 2 + 1,
                         lambda rep: dataclasses.replace(rep, max_abs=math.nan),
                         {"boost_delta"}),
    "circle": ("wesurf.cli", "residual_report", 0,
               lambda rep: dataclasses.replace(rep, max_abs=math.nan),
               {"max_bi_residual_circle"}),
    "action": ("wesurf.geometry", "action", 1, lambda a: math.nan, {"action_rel_spread"}),
    "E": ("wesurf.geometry", "fundamental_form", 1, _nan_form("E"),
          {"e_deviation", "action_rel_spread"}),
    "G": ("wesurf.geometry", "fundamental_form", 1, _nan_form("G"),
          {"g_deviation", "action_rel_spread"}),
    "F": ("wesurf.geometry", "fundamental_form", 1, _nan_form("F"),
          {"max_f_abs", "action_rel_spread"}),
}

# the gates over all thetas at once: their breach names no theta
WHOLE_SWEEP_GATES = ("action_rel_spread", "max_bi_residual_circle")


@pytest.mark.parametrize("case", sorted(NAN_CASES))
def test_cli_family_verify_nan_at_second_theta_fails(tmp_path, capsys, monkeypatch, case):
    module, name, call, poison, breached = NAN_CASES[case]
    mod = importlib.import_module(module)
    monkeypatch.setattr(mod, name, _nan_at(getattr(mod, name), call, poison))
    rc = main(["family-verify", "--theta", "0", "0.3", "0.7", "--formats", "csv",
               "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert rc == 1
    failed = _failed_gates(out)
    assert failed == breached
    for quantity in breached:
        at = "" if quantity in WHOLE_SWEEP_GATES else " at theta=0.3"
        assert f"tolerance breach: {quantity}{at}\n" in err


BAND_SHAPES = {"37x53": (37, 53), "131x257": (131, 257)}
BAND_THETAS = (0.0, 0.3, 1.1)


def _family_verify(out_dir, n1, n2):
    return main(["family-verify", "--annulus", "0.4", "0.9", "--n", str(n1), str(n2),
                 "--theta", *map(str, BAND_THETAS), "--formats", "csv",
                 "--out", str(out_dir)])


def _report_rows(out_dir):
    lines = (out_dir / "family_verify.csv").read_text().splitlines()
    return [line.split(",") for line in lines[2:]]


@pytest.mark.parametrize("shape", sorted(BAND_SHAPES))
@pytest.mark.parametrize("rows", [3, 7, "all"])
def test_cli_family_verify_independent_of_band_height(tmp_path, capsys, monkeypatch,
                                                      shape, rows):
    n1, n2 = BAND_SHAPES[shape]
    ref, banded = tmp_path / "ref", tmp_path / "banded"
    rc = _family_verify(ref, n1, n2)
    ref_out = capsys.readouterr().out.replace(str(ref), "<OUT>")
    monkeypatch.setattr(grids, "_BAND_NODES", n2 * (n1 if rows == "all" else rows))
    assert _family_verify(banded, n1, n2) == rc
    assert capsys.readouterr().out.replace(str(banded), "<OUT>") == ref_out
    assert ((banded / "family_verify.csv").read_bytes()
            == (ref / "family_verify.csv").read_bytes())


def _seven_row_bands(monkeypatch, poison):
    """family-verify on a 37x53 annulus in bands of 7 rows; poison(patch,
    band_index, member) edits each band's chain-rule patch in place, where
    member 0 is X's patch and 1 is Y's."""
    monkeypatch.setattr(grids, "_BAND_NODES", 7 * 53)
    bands = grids._row_bands(37, 53)
    calls = [0]
    partials = cli.chain_rule_partials

    def wrapped(S, **kwargs):
        patch = partials(S, **kwargs)
        poison(patch, *divmod(calls[0], 2))
        calls[0] += 1
        return patch
    monkeypatch.setattr(cli, "chain_rule_partials", wrapped)
    return bands


def _combined_residuals(fam, lb):
    """The whole grid's residual arrays of X's patch and of Y's, unboosted
    and boosted, and their common kept nodes."""
    arrays, keep = [], True
    for member in fam:
        patch = ws.chain_rule_partials(member, second_source="analytic")
        arrays.append((ws.minimal_surface_residual(patch).residual,
                       ws.born_infeld_residual(ws.boost(ws.wick_substitute(patch), lb)).residual))
        keep = keep & patch.valid_mask
    return arrays, keep


def test_cli_family_verify_skips_a_band_that_keeps_no_node(tmp_path, capsys, monkeypatch):
    def drop_second_band(patch, band, member):
        if band == 1:
            patch.valid_mask[:] = False
    i, j = _seven_row_bands(monkeypatch, drop_second_band)[1]
    assert _family_verify(tmp_path, 37, 53) == 0
    # the whole-grid reports with the same rows dropped
    fam = ws.generate_conjugate_pair(ws.we_data("catenoid"), ws.default_annulus(0.4, 0.9, 37, 53))
    lb = ws.LorentzBoost(cli.RunConfig().rapidities[0])
    ((r_x, rb_x), (r_y, rb_y)), keep = _combined_residuals(fam, lb)
    keep[i:j] = False
    for th, row in zip(BAND_THETAS, _report_rows(tmp_path), strict=True):
        c, s = _cos_sin(th)
        res = ws.residual_report(c * r_x + s * r_y, keep).max_abs
        res_b = ws.residual_report(c * rb_x + s * rb_y, keep).max_abs
        assert (float(row[1]), float(row[6])) == (res, abs(res - res_b))


def test_cli_family_verify_with_no_kept_node_fails(tmp_path, capsys, monkeypatch):
    def drop_all(patch, band, member):
        patch.valid_mask[:] = False
    _seven_row_bands(monkeypatch, drop_all)
    assert _family_verify(tmp_path, 37, 53) == 1
    out, err = capsys.readouterr()
    assert all(row[1] == row[6] == "nan" for row in _report_rows(tmp_path))
    failed = _failed_gates(out)
    assert failed == {"max_bi_residual", "max_bi_residual_circle", "boost_delta"}
    assert "tolerance breach: max_bi_residual at theta=0\n" in err


def _poison_residual_call(monkeypatch, poisoned_call):
    """Put a NaN into the residual array of pde.residual_report's
    poisoned_call-th call (0-based) of the run, at its first kept node."""
    calls = [0]
    report = pde.residual_report

    def wrapped(res, mask):
        if calls[0] == poisoned_call:
            res[np.unravel_index(np.argmax(mask), mask.shape)] = math.nan
        calls[0] += 1
        return report(res, mask)
    monkeypatch.setattr(pde, "residual_report", wrapped)


# per band, pde.residual_report runs on X's minimal residual, X's boosted
# Born-Infeld residual, then on Y's two
THIRD_BAND_CALL = 2 * 4


def test_cli_family_verify_nan_in_a_later_band_fails(tmp_path, capsys, monkeypatch):
    # a NaN in X's unboosted residual at a kept node of the third band
    # reaches every theta (each has cos(theta) != 0) and the circle
    _seven_row_bands(monkeypatch, lambda patch, band, member: None)
    _poison_residual_call(monkeypatch, THIRD_BAND_CALL)
    assert _family_verify(tmp_path, 37, 53) == 1
    out, err = capsys.readouterr()
    assert [row[1] == "nan" for row in _report_rows(tmp_path)] == [True, True, True]
    failed = _failed_gates(out)
    assert failed == {"max_bi_residual", "max_bi_residual_circle", "boost_delta"}
    assert "tolerance breach: max_bi_residual at theta=0\n" in err


@pytest.mark.parametrize("boosted", [False, True], ids=["unboosted", "boosted"])
@pytest.mark.parametrize("member", [0, 1], ids=["X", "Y"])
def test_cli_family_verify_nan_in_a_members_residual_reaches_its_thetas(
        tmp_path, capsys, monkeypatch, member, boosted):
    # theta's row combines X's residual with weight cos(theta) and Y's with
    # sin(theta): a NaN in one of them reaches every row that weighs it
    # (and, as 0 * NaN, the others too)
    _seven_row_bands(monkeypatch, lambda patch, band, member: None)
    _poison_residual_call(monkeypatch, THIRD_BAND_CALL + 2 * member + boosted)
    thetas = (0.0, 0.3, math.pi / 2, math.pi)
    rc = main(["family-verify", "--annulus", "0.4", "0.9", "--n", "37", "53",
               "--theta", *map(repr, thetas), "--formats", "csv", "--out", str(tmp_path)])
    assert rc == 1
    weighed = [_cos_sin(th)[member] != 0.0 for th in thetas]
    assert 0 < weighed.count(True) < len(thetas)  # each member has a zero weight
    for row, nonzero in zip(_report_rows(tmp_path), weighed, strict=True):
        if nonzero:
            assert row[6] == "nan" and (boosted or row[1] == "nan")
    failed = _failed_gates(capsys.readouterr().out)
    assert failed == ({"boost_delta"} if boosted else
                      {"max_bi_residual", "max_bi_residual_circle", "boost_delta"})


# 14 thetas, two blocks of the sweep; the quarter angles among them give
# one patch's residual exactly
ORACLE_THETAS = (0.0, 0.3, 0.7, 1.1, math.pi / 2, 2.0, 2.5, math.pi, 3.6, 4.1,
                 3 * math.pi / 2, 5.2, -1.0, -2.5)
QUARTER_ANGLES = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
# c r_X + s r_Y against the member's own residual, both at round-off: the
# largest gap over the CLI ids' default grids was 2.0e-14 on
# max_bi_residual and 1.1e-13 on boost_delta
ORACLE_TOL = 1e-12
ULP = np.finfo(float).eps


@pytest.mark.parametrize("surface", [i for i in ws.CATALOG_IDS if i != "custom"])
def test_cli_family_verify_matches_the_per_theta_route(tmp_path, capsys, monkeypatch,
                                                      surface):
    assert geometry._THETA_BLOCK < len(ORACLE_THETAS)
    reports = []
    report = cli.residual_report

    def spy(res, mask):
        reports.append(report(res, mask))
        return reports[-1]
    monkeypatch.setattr(cli, "residual_report", spy)
    rc = main(["family-verify", "--surface", surface, "--theta", *map(repr, ORACLE_THETAS),
               "--formats", "csv", "--out", str(tmp_path)])
    assert rc == 0
    # per band: the circle's report, then two per theta
    circle = max(rep.max_abs for rep in reports[::1 + 2 * len(ORACLE_THETAS)])
    cfg = cli.RunConfig(surface=surface)
    fam = ws.generate_conjugate_pair(*cli._inputs(cfg))
    lb = ws.LorentzBoost(cfg.rapidities[0])
    for th, row in zip(ORACLE_THETAS, _report_rows(tmp_path), strict=True):
        res, res_b = (rep.max_abs for rep in member_residuals(fam, th, lb))
        got, ref = (float(row[1]), float(row[6])), (res, abs(res - res_b))
        if th in QUARTER_ANGLES:
            assert got == ref, th
        else:
            assert np.allclose(got, ref, rtol=0.0, atol=ORACLE_TOL), th
        assert circle >= got[0] * (1 - 4 * ULP)


PDE_GATES = {"max_bi_residual", "max_bi_residual_circle"}


@pytest.mark.parametrize("slot", range(3))
@pytest.mark.parametrize("part", [0, 1], ids=["X", "Y"])
def test_cli_family_verify_fails_a_flipped_slot_sign(tmp_path, capsys, monkeypatch,
                                                     slot, part):
    # one sign of the Cauchy-Riemann spread of Phi' and Phi'' wrong: in the
    # values' and d/dr1 slot or the d22 slot it breaks the PDE; in the d/dr2
    # and d12 slot, the first form
    parts = [list(p) for p in family._SLOT_PARTS]
    sign, re_im = parts[slot][part]
    parts[slot][part] = (-sign, re_im)
    monkeypatch.setattr(family, "_SLOT_PARTS", tuple(map(tuple, parts)))
    assert main(["family-verify", "--formats", "csv", "--out", str(tmp_path)]) == 1
    failed = _failed_gates(capsys.readouterr().out)
    assert failed >= ({"max_f_abs", "action_rel_spread"} if slot == 1 else PDE_GATES)


@pytest.mark.parametrize("term", range(4))
def test_cli_family_verify_fails_a_dropped_quotient_rule_term(tmp_path, capsys, monkeypatch,
                                                              term):
    # the quotient rule's sums for the solved gradient's derivatives are the
    # chain rule's only sums of five products: drop one of the last four
    sums = pde._sum_of_products

    def dropped(out, tmp, first, *terms):
        if len(terms) == 4:
            terms = terms[:term] + terms[term + 1:]
        return sums(out, tmp, first, *terms)
    monkeypatch.setattr(pde, "_sum_of_products", dropped)
    assert main(["family-verify", "--formats", "csv", "--out", str(tmp_path)]) == 1
    assert _failed_gates(capsys.readouterr().out) == PDE_GATES


def test_cli_boost_check_nan_residual_fails(tmp_path, capsys, monkeypatch):
    # born_infeld_residual runs on the unboosted patch, then once per rapidity
    poison = lambda rep: dataclasses.replace(rep, max_abs=math.nan)  # noqa: E731
    monkeypatch.setattr(cli, "born_infeld_residual",
                        _nan_at(cli.born_infeld_residual, 1, poison))
    assert main(["boost-check", "--rapidity", "0.5", "--out", str(tmp_path)]) == 1
    assert "tolerance breach at rapidity 0.5" in capsys.readouterr().err
    row = (tmp_path / "boost_check.csv").read_text().splitlines()[-1].split(",")
    assert row[3] == "nan" and float(row[4]) <= cli.RunConfig().comp_tol


def test_cli_boost_check_overflowing_partials_fail(tmp_path, capsys):
    # the boosted partials overflow (inf - inf gives NaN nodes) at this rapidity
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["boost-check", "--rapidity", "300", "--out", str(tmp_path)])
    assert rc == 1
    assert "tolerance breach at rapidity 300" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["residuals", "boost-check", "export"])
def test_cli_formats_is_refused_where_it_writes_nothing(tmp_path, capsys, command):
    # --formats chooses the files of generate and family-verify only
    with pytest.raises(SystemExit) as exc:
        main([command, "--formats", "csv", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --formats csv" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["family-verify", "--rapidity", "1000"],
    ["family-verify", "--rapidity", "nan"],
    ["boost-check", "--rapidity", "0.5", "-800"],
    ["family-verify", "--theta", "0", "inf"],
    ["generate", "--base", "0", "0"],   # the catenoid's pole
    ["residuals", "--surface", "catenoid", "--kappa", "1e300", "--n", "21"],  # stencil input
    ["family-verify", "--dev-tol", "nan"],
    ["family-verify", "--resid-tol", "inf"],
    ["generate", "--annulus", "0.4"],
    ["generate", "--annulus", "0.4", "0.9", "0.0"],
    ["residuals", "--n", "30", "40", "50"],
    ["generate", "--formats", ",", "--n", "8"],   # empty format list
    ["family-verify", "--rapidity", "0.8", "9.0"],   # boost_delta has one rapidity
    ["generate", "--surface", "", "--n", "8"],   # unknown surface id
    ["generate", "--formats", "", "--n", "8"],   # empty format list
    ["generate", "--config", "", "--n", "8"],   # cannot read config file
    ["generate", "--kappa", "0"],   # R vanishes: a point surface
    ["family-verify", "--kappa", "0", "--formats", "csv"],
    ["residuals", "--kappa", "0"],
    ["generate", "--surface", "general_enneper", "--a", "0", "--b", "0"],
    ["generate", "--a", "inf"],   # not finite, though the catenoid ignores a
    ["generate", "--n", "8", "--formats", "csv", "--out", ""],   # Path("") is the cwd
    ["generate", "--base", "nan", "0"],   # a non-finite base point
    ["generate", "--base", "0.5", "nan"],
    ["generate", "--base", "inf", "0"],
    ["family-verify", "--base", "nan", "0"],
    ["residuals", "--base", "nan", "0"],
    ["generate", "--annulus", "0.4", "0.9", "--rect", "-0.4", "0.4", "-0.4", "0.4",
     "--n", "20"],   # two grids
    ["generate", "--gamma-chart", "0.4", "2.0", "-0.8", "-0.2", "--annulus", "0.4", "0.9"],
    ["family-verify", "--gamma-chart", "0.4", "2.0", "-0.8", "-0.2",
     "--rect", "-0.4", "0.4", "-0.4", "0.4", "--formats", "csv"],
    ["generate", "--surface", "custom", "--rect", "-0.4", "0.4", "-0.4", "0.4",
     "--n", "20"],   # custom's coefficients are API-only
])
def test_cli_invalid_input_exits_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # a run that writes into the cwd shows up too
    assert main(argv if "--out" in argv else argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if "--base" in argv:
        assert "base point" in err, err
    if sum(flag in argv for flag in ("--annulus", "--rect", "--gamma-chart")) > 1:
        assert "at most one of --gamma-chart, --annulus and --rect" in err, err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["family-verify", "--rapidity", "354", "--formats", "csv"],   # the boosted patch
    ["residuals", "--kappa", "1e300"],                             # the chain rule
])
def test_cli_overflow_that_the_scan_catches_prints_only_the_error(tmp_path, capsys, argv):
    # the kernels whose outputs the finiteness scan reads next do not warn:
    # stderr is the one error line, whatever order their float operations run in
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--out", str(tmp_path)]) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_cli_custom_surface_is_unknown(tmp_path, capsys):
    # a grid is given, so the error is the surface id's, listing the ids the
    # CLI takes; custom's coefficients have no flags
    ids = ", ".join(i for i in ws.CATALOG_IDS if i != "custom")
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[surface]\nid = custom\n[grid]\nkind = rectangle\nn1 = 20\n")
    out = tmp_path / "out"
    for argv in (["generate", "--surface", "custom", "--rect", "-0.4", "0.4", "-0.4", "0.4",
                  "--n", "20"],
                 ["generate", "--config", str(cfgfile)],
                 ["residuals", "--config", str(cfgfile)]):
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: unknown surface id 'custom'; valid ids: {ids}\n"
        assert not any(out.iterdir())


def test_cli_family_verify_takes_one_rapidity(tmp_path, capsys):
    # 9.0 alone breaches boost_tol: a second rapidity must not be dropped
    assert main(["family-verify", "--rapidity", "9.0", "--formats", "csv",
                 "--out", str(tmp_path / "alone")]) == 1
    assert "tolerance breach: boost_delta" in capsys.readouterr().err
    for line, got in (("rapidity = 0.8, 9.0", "[0.8, 9.0]"), ("rapidity =", "[]")):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(f"[family]\n{line}\n")
        out = tmp_path / "out"
        assert main(["family-verify", "--config", str(cfgfile), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: family-verify takes one rapidity, got {got}\n"
        assert not any(out.iterdir())


def test_cli_boost_check_empty_rapidity_list_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[family]\nrapidity =\n")
    out = tmp_path / "out"
    assert main(["boost-check", "--config", str(cfgfile), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: boost-check needs at least one rapidity\n"
    assert not any(out.iterdir())


@pytest.mark.parametrize("error", [ws.FamilyError, ws.GeometryError, ws.PDEError,
                                   ws.GenerateError])
def test_cli_library_errors_exit_2(tmp_path, capsys, monkeypatch, error):
    def fail(cfg):
        raise error("bad input")
    monkeypatch.setattr(cli, "cmd_residuals", fail)
    assert main(["residuals", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: bad input\n"


def test_cli_generate_breach_names_the_row(tmp_path, capsys):
    # kappa 1e300 overflows E - G to NaN in the isothermal defect
    with np.errstate(all="ignore"):
        rc = main(["generate", "--kappa", "1e300", "--formats", "csv",
                   "--out", str(tmp_path)])
    assert rc == 1
    assert "tolerance breach: isothermal_defect nan" in capsys.readouterr().err


def test_cli_generate_nan_cr_defect_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "conjugacy_violation", lambda *args, **kwargs: math.nan)
    assert main(["generate", "--formats", "csv", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "tolerance breach: cr_defect nan (tol 1.0e-06)\n"


def test_cli_residuals_breach_names_the_residual(tmp_path, capsys):
    assert main(["residuals", "--surface", "catenoid", "--n", "8",
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("tolerance breach: minimal ")


def test_cli_residuals_breach_names_its_worst_node(tmp_path, capsys):
    argv = ["residuals", "--surface", "enneper", "--rect", "-1", "1", "-1", "1", "--n", "41"]
    assert main([*argv, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    found = re.fullmatch(r"tolerance breach: minimal \S+ \(tol 1\.0e-04\) "
                         r"at node \((\d+), (\d+)\), r = (\S+)\n", err)
    assert found, err
    node = (int(found[1]), int(found[2]))
    # the largest |minimal residual| over the retained nodes, formed here
    grid = ws.ParamGrid("rectangle", 41, 41, (-1.0, 1.0, -1.0, 1.0))
    p = ws.chain_rule_partials(ws.generate(ws.we_data("enneper"), grid),
                               first_source="auto", accuracy=6, second_source="fd")
    res = np.abs((1 + p.phi_t ** 2) * p.phi_xx - 2 * p.phi_x * p.phi_t * p.phi_xt
                 + (1 + p.phi_x ** 2) * p.phi_tt)
    assert p.valid_mask[node] and not p.valid_mask.all()
    assert res[node] == np.max(res[p.valid_mask])
    assert complex(found[3]) == pytest.approx(complex(grid.nodes()[node]), abs=1e-6)


_BREACH = re.compile(r"^tolerance breach(?: at rapidity \S+)?: \w+", re.MULTILINE)
_ODD = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                 st.sampled_from([0.0, -1.0, 1e-300, 1e300, 400.0, math.nan, math.inf]))
_USUAL = st.one_of(st.floats(1e-9, 2.0), _ODD)   # mostly valid, sometimes not


@settings(max_examples=80, deadline=None)
@given(command=st.sampled_from(["generate", "family-verify", "residuals",
                                "boost-check", "export"]),
       surface=st.sampled_from(ws.CATALOG_IDS), n=st.integers(1, 24),
       thetas=st.lists(st.one_of(st.floats(-2.0, 2.0), _ODD), min_size=1, max_size=3),
       rapidities=st.lists(st.one_of(st.floats(-3.0, 3.0), _ODD), min_size=1, max_size=2),
       kappa=_USUAL, tolerance=st.sampled_from(cli.TOLERANCES), tol_value=_USUAL)
def test_cli_exit_codes_property(command, surface, n, thetas, rapidities, kappa,
                                 tolerance, tol_value):
    """Any input exits 0, 1 or 2 without a traceback; 1 names its breach."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, np.errstate(all="ignore"), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        # lists go through the INI file: argparse takes "-inf" for a flag
        config = os.path.join(out, "run.ini")
        with open(config, "w") as fh:
            fh.write(f"[family]\nthetas = {', '.join(map(repr, thetas))}\n"
                     f"rapidity = {', '.join(map(repr, rapidities))}\n")
        formats = ["--formats", "csv"] if command in ("generate", "family-verify") else []
        rc = main([command, "--config", config, "--surface", surface, "--n", str(n),
                   f"--kappa={kappa!r}", f"--{tolerance.replace('_', '-')}={tol_value!r}",
                   *formats, "--out", out])
    text = err.getvalue()
    assert rc in (0, 1, 2), text
    assert "Traceback" not in text
    if rc == 1:
        assert _BREACH.search(text), text
    if rc == 2:
        assert text.startswith("error: "), text


def test_cli_internal_error_exits_3_without_traceback(tmp_path):
    # a fault of the program is neither a breach (1) nor an input error (2)
    script = ("import sys\n"
              "from wesurf import cli\n"
              "def fail(*args, **kwargs):\n"
              "    raise RuntimeError('injected fault')\n"
              "cli.chain_rule_partials = fail\n"
              f"sys.exit(cli.main(['family-verify', '--out', {str(tmp_path)!r}]))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr == "internal error: RuntimeError: injected fault\n"


def test_cli_overflowing_rapidity_exits_2_without_traceback(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "wesurf.cli", "family-verify",
                           "--rapidity", "1000", "--out", str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "rapidity" in proc.stderr


def test_cli_family_verify_deterministic(tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    for d in (d1, d2):
        assert main(["family-verify", "--surface", "catenoid",
                     "--theta", "0", "0.4", "1.1", "--out", str(d)]) == 0
    for name in sorted(os.listdir(d1)):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


# numpy's x86-64-v2 baseline: its AVX2 and AVX-512 loops switched off
BASELINE_TARGET = {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}
# CSV values under the two targets agree within these many ulps of
# max(1, |value|): 1 on the surfaces, 174 on the family's round-off
# residuals and 55882 on generate's report, whose Laplacian stencils divide
# the data's round-off by h^2
SIMD_ULPS = {"family_verify.csv": 2 ** 10, "catenoid.csv": 4,
             "catenoid_conjugate.csv": 4, "catenoid_report.csv": 2 ** 18}


def _verdicts(out: str, err: str) -> list[str]:
    """The gate lines of a run: each check's name and verdict, and each
    breach's first three words."""
    return ([f"{line.split(':')[0]} {line.split()[-1]}" for line in out.splitlines()
             if line.endswith((" ok", " FAIL"))]
            + [" ".join(line.split()[:3]) for line in err.splitlines()
               if line.startswith("tolerance breach")])


def _csv_values(path) -> np.ndarray:
    """The numeric fields of a report or surface CSV, in file order."""
    values = []
    for line in path.read_text().splitlines()[2:]:  # after the schema and the header
        for field in line.split(","):
            with contextlib.suppress(ValueError):  # a label
                values.append(float(field))
    return np.array(values)


@pytest.mark.parametrize("argv", [["family-verify", "--formats", "csv"], ["generate"]],
                         ids=["family-verify", "generate"])
def test_cli_verdicts_hold_on_the_baseline_simd_target(tmp_path, capsys, argv):
    here, there = tmp_path / "here", tmp_path / "there"
    rc = main([*argv, "--out", str(here)])
    out, err = capsys.readouterr()
    proc = subprocess.run([sys.executable, "-m", "wesurf.cli", *argv, "--out", str(there)],
                          env=dict(os.environ, **BASELINE_TARGET),
                          capture_output=True, text=True)
    verdicts = _verdicts(out, err)
    assert verdicts or argv[0] == "generate"  # generate prints verdicts on a breach only
    assert proc.returncode == rc
    assert _verdicts(proc.stdout, proc.stderr) == verdicts
    csvs = sorted(p.name for p in here.glob("*.csv"))
    assert csvs == sorted(p.name for p in there.glob("*.csv")) and csvs
    for name in csvs:
        a, b = _csv_values(here / name), _csv_values(there / name)
        assert a.shape == b.shape, name
        ulps = np.abs(a - b) / np.spacing(np.maximum(1.0, np.abs(a)))
        assert np.max(ulps) <= SIMD_ULPS[name], name


def test_cli_residuals(tmp_path):
    rc = main(["residuals", "--surface", "right_helicoid", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "right_helicoid_residuals.csv").read_text().splitlines()
    assert lines[1] == "kind,max_abs,mean_abs,rms,nodes,dropped"
    assert [line.split(",")[0] for line in lines[2:]] == ["minimal"]


def test_cli_boost_check(tmp_path):
    rc = main(["boost-check", "--rapidity", "0.2", "0.8", "1.5",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "boost_check.csv").read_text().splitlines()
    assert len(lines) == 2 + 3


@pytest.mark.parametrize("surface", [i for i in ws.CATALOG_IDS if i != "custom"])
def test_cli_boost_check_passes_on_each_surface(tmp_path, surface):
    assert main(["boost-check", "--surface", surface, "--rapidity", "0.8",
                 "--out", str(tmp_path)]) == 0


def test_cli_boost_check_boosts_the_given_surface(tmp_path):
    reports = []
    for argv in ([], ["--surface", "scherk"]):
        out = tmp_path / str(len(reports))
        assert main(["boost-check", *argv, "--out", str(out)]) == 0
        reports.append((out / "boost_check.csv").read_bytes())
    assert reports[0] != reports[1]


def test_cli_boost_check_catches_a_non_invariant_boost(tmp_path, capsys, monkeypatch):
    exact = cli.boost

    def skewed(p, lb):
        q = exact(p, lb)
        return dataclasses.replace(q, phi_xt=q.phi_xt * (1 + 1e-6))
    monkeypatch.setattr(cli, "boost", skewed)
    assert main(["boost-check", "--rapidity", "0.8", "--out", str(tmp_path)]) == 1
    # both routes, and composition_error's second partials, see the skew
    assert (capsys.readouterr().err
            == "tolerance breach at rapidity 0.8: delta, composition_error\n")


def test_cli_boost_check_catches_a_broken_composition(tmp_path, capsys, monkeypatch):
    exact = cli.boost

    def off(p, lb):  # the half-rapidity boost, off by a relative 1e-9
        return exact(p, ws.LorentzBoost(0.4 * (1 + 1e-9)) if lb.rapidity == 0.4 else lb)
    monkeypatch.setattr(cli, "boost", off)
    assert main(["boost-check", "--rapidity", "0.8", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "tolerance breach at rapidity 0.8: composition_error\n"


def test_cli_boost_check_ignores_dropped_nodes(tmp_path, monkeypatch):
    # a node that chain_rule_partials dropped holds data that mean nothing
    exact = cli.chain_rule_partials

    def with_garbage(*args, **kwargs):
        p = exact(*args, **kwargs)
        p.valid_mask = p.valid_mask.copy()
        p.valid_mask[0, 0] = False
        p.x = p.x.copy()
        p.x[0, 0] = 1e30
        return p
    monkeypatch.setattr(cli, "chain_rule_partials", with_garbage)
    assert main(["boost-check", "--rapidity", "0.8", "--out", str(tmp_path)]) == 0


def test_cli_export_table(tmp_path):
    rc = main(["export", "--surface", "enneper", "--format", "table",
               "--n", "12", "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "enneper.dat").read_text()
    assert text.startswith(f"# schema: {SCHEMA}")
    assert "\n\n" in text  # gnuplot block separators


def test_cli_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(
        "[surface]\nid = catenoid\nkappa = 1.0\n"
        "[grid]\nkind = annulus\nn1 = 16\nn2 = 16\n"
        "rho_min = 0.4\nrho_max = 0.9\n"
        "[family]\nthetas = 0, 0.7\n"
        f"[output]\ndir = {tmp_path}\nformats = csv\n")
    rc = main(["family-verify", "--config", str(cfgfile)])
    assert rc == 0
    lines = (tmp_path / "family_verify.csv").read_text().splitlines()
    assert len(lines) == 2 + 2
    # flag overrides config value
    rc = main(["family-verify", "--config", str(cfgfile), "--theta", "0", "0.3", "0.9"])
    assert rc == 0
    assert len((tmp_path / "family_verify.csv").read_text().splitlines()) == 2 + 3


@pytest.mark.parametrize("text", [
    "[surface]\nkappa = abc\n",
    "[grid]\nn1 = x\n",
    "[tolerances]\nresid_tol = nope\n",
    "kappa = 1.0\n",   # no section header
    "[output]\ndir =\n",   # Path("") is the cwd
])
def test_cli_malformed_config_file_exits_2(tmp_path, capsys, text):
    cfgfile = tmp_path / "bad.ini"
    cfgfile.write_text(text)
    assert main(["generate", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("formats", ["table", "csv,table"])
def test_cli_family_verify_refuses_the_table_format(tmp_path, capsys, formats):
    # family-verify writes no gnuplot table: the format is named, nothing is
    # written, from the flag and from the config file alike
    out = tmp_path / "out"
    assert main(["family-verify", "--formats", formats, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'table'" in err, err
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(f"[output]\nformats = {formats}\n")
    assert main(["family-verify", "--config", str(cfgfile), "--out", str(out)]) == 2
    assert "'table'" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("argv, rc", [
    (["generate", "--n", "8"], 2),
    (["family-verify", "--n", "8"], 2),
    (["residuals", "--surface", "catenoid"], 0),
    (["boost-check"], 0),
    (["export", "--n", "8"], 0),
])
def test_cli_config_formats_is_checked_where_it_is_read(tmp_path, capsys, argv, rc):
    # [output] formats chooses the files of generate and family-verify only;
    # the other subcommands do not read it, so a bad value does not stop them
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[output]\nformats = bogus\n")
    assert main([*argv, "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == rc
    err = capsys.readouterr().err
    assert ("'bogus'" in err) == (rc == 2), err


def test_cli_empty_format_list_in_config_file_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[grid]\nn1 = 8\nn2 = 8\n[output]\nformats =\n")
    out = tmp_path / "out"
    assert main(["generate", "--config", str(cfgfile), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists() or not any(out.iterdir())


def test_cli_empty_output_dir_env_var_is_ignored(tmp_path, monkeypatch):
    monkeypatch.setenv("WESURF_OUT", "")
    assert main(["export", "--format", "csv", "--n", "8", "--out", str(tmp_path)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["catenoid.csv"]


def test_cli_env_var_overrides_output_dir(tmp_path, monkeypatch):
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("WESURF_OUT", str(env_dir))
    rc = main(["export", "--surface", "enneper", "--format", "csv",
               "--n", "8", "--out", str(tmp_path / "ignored")])
    assert rc == 0
    assert (env_dir / "enneper.csv").exists()
    assert not (tmp_path / "ignored" / "enneper.csv").exists()


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "wesurf.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "wesurf" in proc.stdout
