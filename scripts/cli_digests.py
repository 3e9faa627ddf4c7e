#!/usr/bin/env python3
"""SHA-256 digests of a fixed set of CLI runs: the byte guard for refactors.

Each run calls `wesurf.cli.main` in-process with `--out` pointing at a fresh
temporary directory, then records the exit code, the digest of every file
written there, and the digests of stdout and stderr (with the output
directory replaced by `<OUT>`, and each warning printed as its category and
message only: its source line moves with any refactor).  No CLI run reaches
the library's F/G certificate, so `scripts/verify_all.py` is run the same
way: its `family_checks.csv` holds the certificate (`relations_mismatch`).
So is `scripts/make_meshes.py`, the one route from the closed-form
helicoid/catenoid family through `SolitonFamily.at` to `export_mesh`.  The
result is printed as one JSON object keyed by the run's argv (the script's
name for the two scripts).  One more entry, "numpy", names numpy's version
and SIMD target: its compiled-in baseline and the dispatched features
enabled on this CPU.  Digests are the same bits for a fixed numpy build and
SIMD target, so a diff that moves digests between two machines shows
whether the target moved too.

Compare two checkouts by running the script against each source tree and
diffing the output:

    PYTHONPATH=src python scripts/cli_digests.py > after.json
    PYTHONPATH=/path/to/base/src python scripts/cli_digests.py > before.json
    diff before.json after.json
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
from numpy._core import _multiarray_umath as umath

import make_meshes
import verify_all
from wesurf.cli import main

RUNS = (
    ["generate"],
    ["generate", "--surface", "henneberg"],
    ["generate", "--surface", "henneberg", "--formats", "table"],   # flip_t: t_im column
    ["generate", "--surface", "henneberg", "--rect", "0.3", "0.8", "0.2", "0.7",  # flip_t on
     "--n", "40", "--formats", "csv,table"],                       # the rectangle laplacian
    ["generate", "--surface", "general_scherk", "--alpha", "0.5"],
    ["generate", "--surface", "catenoid", "--annulus", "0.4", "0.9", "--n", "64"],
    ["generate", "--surface", "catenoid", "--annulus", "0.4", "0.9",   # psi step above
     "--n", "24", "9", "--formats", "csv"],                          # _ARC_MAX_STEP
    ["generate", "--surface", "scherk", "--base", "0.013", "-0.021",   # base off the
     "--formats", "csv"],                                            # grid lines
    ["generate", "--surface", "general_enneper",
     "--gamma-chart", "0.4", "2.0", "-0.8", "-0.2", "--n", "21"],
    ["generate", "--surface", "enneper", "--n", "201",   # no declared singularity: the
     "--formats", "csv"],                                # 32-point rule, ~40 chain groups
    ["generate", "--annulus", "0.4", "0.9", "--n", "301",   # node derivatives in 54-row
     "--formats", "csv"],                                  # bands below numpy's elision
                                                           # size, a 31-row last band
    ["generate", "--surface", "right_helicoid", "--formats", "csv"],   # R with an imaginary
    ["generate", "--surface", "general_helicoid", "--formats", "csv"],  # or complex factor:
    ["generate", "--surface", "schwarz_riemann", "--formats", "csv"],   # signs of zero
    ["generate", "--formats", "csv", "--cr-tol", "1e-300"],         # tolerances that no
    ["generate", "--formats", "csv", "--harmonic-tol", "1e-300"],   # check enforces: exit 2
    ["family-verify"],
    ["family-verify", "--annulus", "0.4", "0.9", "--n", "512", "--formats", "csv"],
    ["family-verify", "--surface", "right_helicoid", "--rapidity", "1.3"],
    ["family-verify", "--theta", "0", "3.0", "4.5"],
    ["family-verify", "--theta", "3.141592653589793", "4.71238898038469",   # quarter angles
     "-1.0", "-2.5"],                                                     # (OBJ sidecars)
    ["family-verify", "--corrupt-y-scale", "1.5", "--formats", "csv"],
    ["family-verify", "--theta", "0", "3.141592653589793",   # corrupted pair at sc = 0:
     "--corrupt-y-scale", "1.5", "--formats", "csv"],        # exits 0 (ROADMAP item 1)
    ["family-verify", "--theta", "0.7", "--corrupt-y-scale", "1.5",   # and at one theta
     "--formats", "csv"],
    ["family-verify", "--annulus", "0.4", "0.9", "--n", "512",   # one theta at 512^2
     "--theta", "0.7", "--formats", "csv"],
    ["family-verify", "--surface", "henneberg", "--formats", "csv"],
    ["family-verify", "--surface", "henneberg", "--corrupt-y-scale", "1.5",  # flip_t x y_scale,
     "--theta", "0", "1.5707963267948966", "3.141592653589793", "-1.0"],      # OBJ signs of zero
    ["family-verify", "--surface", "henneberg", "--corrupt-y-scale", "-0.5", "--formats", "csv"],
    ["family-verify", "--annulus", "0.4", "0.9", "--n", "97", "200",   # short last band
     "--theta", "0", "0.3", "2.2", "4.1", "--rapidity", "1.1"],
    ["family-verify", "--annulus", "0.4", "0.9", "--n", "83", "200",   # 81-row band + 2 rows
     "--formats", "csv"],
    ["family-verify", "--annulus", "0.4", "0.9", "--n", "301",   # 54-row bands below the
     "--formats", "csv"],                                       # elision size, uneven last
    ["family-verify", "--rapidity", "6", "--formats", "csv"],   # boost_delta breach, exit 1
    ["family-verify", "--rapidity", "-1.3", "--formats", "csv"],   # b < 0 in the boost
    ["family-verify", "--rapidity", "354", "--formats", "csv"],   # the boosted patch's scan
                                                                  # catches overflow: exit 2
    ["family-verify", "--theta", "0.7", "--formats", "csv"],   # one theta: all-zero series
    ["family-verify", "--formats", "csv", "--theta", "0", "0.3", "0.7", "1.1",   # 14 thetas:
     "1.5707963267948966", "2.0", "2.5", "3.141592653589793", "3.6", "4.1",    # two blocks
     "4.71238898038469", "5.2", "-1.0", "-2.5"],                              # of the sweep
    ["family-verify", "--surface", "scherk", "--formats", "csv"],
    ["family-verify", "--surface", "scherk", "--theta", "3.141592653589793",   # raw t = -0
     "4.71238898038469", "-1.0"],                             # at quarter angles: t_re -0
    ["family-verify", "--surface", "schwarz_riemann", "--theta", "0",   # in the OBJ
     "3.141592653589793", "4.71238898038469"],                           # sidecars
    ["family-verify", "--surface", "schwarz_riemann", "--rapidity", "1.2",
     "--theta", "0", "0.4", "2.5", "--formats", "csv"],
    ["residuals", "--surface", "catenoid"],
    ["residuals", "--surface", "scherk"],
    ["residuals", "--surface", "schwarz_riemann"],
    ["residuals", "--surface", "catenoid", "--n", "131", "257"],   # fd route, > 256 KiB
    ["residuals", "--surface", "henneberg"],   # flip_t through generate
    ["residuals", "--surface", "general_enneper"],
    ["residuals", "--surface", "enneper", "--rect", "-1", "1", "-1", "1",   # dropped nodes,
     "--n", "41"],                                                          # exit 1
    ["boost-check"],
    ["boost-check", "--rapidity", "0.2", "0.8", "1.5"],
    ["boost-check", "--surface", "scherk"],   # the run's own surface, not a fixed patch
    ["boost-check", "--surface", "henneberg", "--rapidity", "0.8", "3"],   # flip_t
    ["boost-check", "--rapidity", "0", "-0.8", "3"],   # b = 0 and b < 0 in the boost
    ["export"],
    ["export", "--surface", "enneper", "--format", "table"],
    ["export", "--surface", "catenoid", "--format", "table"],   # n1 != n2
    ["export", "--surface", "general_helicoid", "--format", "csv"],
    ["export", "--surface", "henneberg", "--format", "csv"],   # flip_t: sign of zero in t
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def simd_target() -> str:
    """numpy's version, compiled-in SIMD baseline and enabled dispatch
    targets, on one line."""
    enabled = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    return (f"{np.__version__} baseline {' '.join(umath.__cpu_baseline__)} "
            f"dispatch {' '.join(enabled) or '-'}")


def digest_run(argv: list[str], entry=main) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = entry([*argv, "--out", tmp])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        root = Path(tmp)
        files = {str(p.relative_to(root)): _sha(p.read_bytes())
                 for p in sorted(root.rglob("*")) if p.is_file()}
        stdout, stderr = (s.getvalue().replace(tmp, "<OUT>").encode() for s in (out, err))
    return {"exit": code, "files": files, "stdout": _sha(stdout), "stderr": _sha(stderr)}


if __name__ == "__main__":
    os.environ.pop("WESURF_OUT", None)  # it would override --out
    warnings.formatwarning = lambda message, category, *_: f"{category.__name__}: {message}\n"
    digests = {" ".join(run): digest_run(run) for run in RUNS}
    digests["scripts/verify_all.py"] = digest_run([], verify_all.main)
    digests["scripts/make_meshes.py"] = digest_run([], make_meshes.main)
    digests["numpy"] = simd_target()
    print(json.dumps(digests, indent=1, sort_keys=True))
