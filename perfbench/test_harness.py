"""Self-tests of the benchmark harness.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import worker

worker._import_wesurf()

import wesurf  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402
from workloads import (CertifyCatalog, FamilyVerify, GenerateExport,  # noqa: E402
                       check_family_report)

HERE = Path(__file__).resolve().parent

# per-layer metrics that must be non-zero on the workload they should move
MOVES = {
    "family_verify_512": [
        "quadrature.antiderivative_on_grid.self_s",
        "quadrature.antiderivative_on_grid.calls", "quadrature.integrand_nodes",
        "generate.generate_conjugate_pair.self_s",
        "generate.generate_conjugate_pair.peak_mb",
        "family.SolitonFamily.at.calls", "family.SolitonFamily.at.self_s",
        "family.wick_rotate.self_s", "geometry.fundamental_form.calls",
        "geometry.fundamental_form.self_s", "geometry.theta_sweep_invariance.self_s",
        "geometry.action.self_s", "pde.chain_rule_partials.self_s",
        "pde.born_infeld_residual.self_s", "pde.boost.self_s",
        "reports.residual_report.self_s", "cli.main.total_s"],
    "generate_export_256": [
        "quadrature.antiderivative_on_grid.self_s", "grids.laplacian.self_s",
        "stencils.axis_derivative.self_s", "io_export.export_mesh.self_s",
        "io_export.write_surface_csv.self_s", "io_export.bytes_written",
        "io_export.mb_per_s", "cli.main.total_s"],
    "certify_catalog": [
        "quadrature.antiderivative_on_grid.self_s",
        "quadrature.antiderivative_on_grid.calls", "quadrature.integrand_nodes",
        "catalog.eval_R.self_s", "catalog.eval_R_deriv.self_s",
        "family.verify_soliton_relations.self_s", "hodograph.helicoid_closed.self_s",
        "hodograph.catenoid_closed.self_s", "pde.minimal_surface_residual.self_s",
        "pde.valid_fraction", "grids.array_derivative.self_s",
        "stencils.axis_derivative.self_s", "reports.residual_report.self_s"],
}

SMALL = {
    "family_verify": lambda: FamilyVerify(7, n=64),
    "generate_export": lambda: GenerateExport(7, n=64),
    "certify_catalog": lambda: CertifyCatalog(7, refine=1, n=64),
}

FAMILY_HEADER = ("theta,max_bi_residual,e_deviation,g_deviation,max_f_abs,"
                 "action,boost_delta")


def test_corrupted_conjugate_fails(tmp_path):
    it = worker.run_iteration(FamilyVerify(7, n=64, extra=("--corrupt-y-scale", "1.5")),
                              tmp_path / "out")
    assert it["errors"] and "exit code 1" in it["errors"][0]


@pytest.mark.parametrize("bad_row", [0, 3])
def test_nan_report_row_fails(tmp_path, bad_row):
    thetas = [0.0, 0.5, 1.0, 1.5]
    rows = [f"{th!r},1e-11,1e-15,1e-15,1e-15,7.0,1e-10" for th in thetas]
    rows[bad_row] = rows[bad_row].replace("1e-11", "nan")
    path = tmp_path / "family_verify.csv"
    path.write_text("# schema: wesurf/1\n" + FAMILY_HEADER + "\n" + "\n".join(rows) + "\n")
    assert check_family_report(path, thetas, wesurf.cli.RunConfig())
    path.write_text(path.read_text().replace("nan", "1e-11"))
    assert not check_family_report(path, thetas, wesurf.cli.RunConfig())


def test_nonfinite_export_fails(tmp_path):
    wl = GenerateExport(7, n=64)
    out = tmp_path / "out"
    it = worker.run_iteration(wl, out)
    assert not it["errors"]
    out.mkdir()
    assert wl.check(wl.run(out), out)[1] == []
    obj = out / "catenoid.obj"
    obj.write_text(obj.read_text().replace("v ", "v nan ", 1))
    assert wl.check((0, ""), out)[1]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_digests_equal_untraced(tmp_path, name):
    wl = SMALL[name]()
    originals = dict(vars(wesurf))
    plain = worker.run_iteration(wl, tmp_path / "out")
    traced = worker.run_iteration(wl, tmp_path / "out", Tracer())
    assert not plain["errors"] and not traced["errors"]
    assert plain["digests"] and plain["digests"] == traced["digests"]
    assert traced["layers"]["quadrature.antiderivative_on_grid.calls"] > 0
    assert all(vars(wesurf)[k] is v for k, v in originals.items())


@pytest.mark.parametrize("workload", sorted(MOVES))
def test_layer_metrics_nonzero_where_they_move(workload):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m for m, _ in LAYER_METRICS} | {"trace.overhead_s"}
    assert all(math.isfinite(v["value"]) for v in metrics.values())
    zero = [m for m in MOVES[workload] if not metrics[m]["value"] > 0]
    assert not zero


def test_end_to_end_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "certify_catalog",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {m: v["unit"] for m, v in metrics.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "certify_catalog",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout == ""
