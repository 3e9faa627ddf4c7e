"""Smoke runs of the scripts in scripts/: each exits 0 and writes its files;
and the functions the benchmark's tracer wraps exist under their names."""

import csv
import importlib
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import wesurf as ws

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
CATALOG = [i for i in ws.CATALOG_IDS if i != "custom"]


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    src = str(Path(ws.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args], env=env,
                          capture_output=True, text=True, timeout=300)


def _rows(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    assert lines[0] == f"# schema: {ws.io_export.SCHEMA}"
    return list(csv.DictReader(lines[1:]))


def test_make_meshes_writes_every_mesh(tmp_path):
    proc = _run("make_meshes.py", "--n", "16", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    thetas = [f"s_theta_{theta:.4f}" for theta in
              (0.0, math.pi / 6, math.pi / 3, math.pi / 2)]
    expected = ({f"{sid}.obj" for sid in CATALOG}
                | {f"{sid}_conjugate.obj" for sid in CATALOG}
                | {f"{stem}.obj" for stem in thetas}
                | {f"{stem}_complex.csv" for stem in thetas})
    written = {p.name for p in tmp_path.iterdir()}
    assert written == expected
    vertices = (tmp_path / "catenoid.obj").read_text().count("\nv ")
    assert vertices == 16 * 16


def test_verify_all_writes_both_reports(tmp_path):
    proc = _run("verify_all.py", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert {p.name for p in tmp_path.iterdir()} == {"catalog_checks.csv",
                                                   "family_checks.csv"}
    catalog = _rows(tmp_path / "catalog_checks.csv")
    assert [row["surface"] for row in catalog] == CATALOG
    family = _rows(tmp_path / "family_checks.csv")
    assert [row["family"] for row in family] == ["helicoid/catenoid"] * 5 + ["enneper"] * 5
    for row in catalog + family:
        assert all(math.isfinite(float(v)) for k, v in row.items()
                   if k not in ("surface", "grid", "family"))


def test_benchmark_tracer_targets_resolve():
    # perfbench/tracing.py rebinds each (module, attribute path) of TRACED by
    # name; a renamed function would break `run.py --trace 1`
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module, attr in tracing.TRACED:
        obj = importlib.import_module(f"{tracing.MODULE_PREFIX}.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), (module, attr)
