#!/usr/bin/env python3
"""wesurf benchmark: time to a verified result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload family_verify_512 --seed 1 \
        --seconds 30 --trace 0

Workloads (see workloads.py):
  family_verify_512    wesurf family-verify, catenoid, 512x512 annulus, csv
  certify_catalog      nine fd minimal-surface residuals + F/G certificate
  generate_export_256  wesurf generate, catenoid, 256x256 annulus, csv+obj

BENCHMARK.json gates the first two.  generate_export_256, where the writers
carry the time, stays runnable by hand: its run medians spread by about a
quarter on a shared 2-vCPU host, the whole of the largest allowed bound.

Each run starts the workload in a fresh process (worker.py) with BLAS and
OpenMP pinned to one thread.  Between iterations the worker starts probe
processes that stop once imports and inputs are ready; the median
start-to-ready time of these and of the worker itself is setup_s.
peak_rss_mb is the worker's ru_maxrss after its first iteration.

The gated time is wall_ref: the total wall time of the untraced
iterations divided by the total time of a fixed reference block (fill
freshly mapped memory, worker.py), taken as the mean of the blocks timed
just before and after each iteration.  On a shared 2-vCPU host the median
wall_s of 55 s runs spread by 0.04-0.20 of its median over ten runs,
because the host's speed drifts by up to 2x over tens of seconds; wall_ref
spread by at most 0.072 in the same runs.  wall_s is still printed and
recorded.
Every iteration is checked fail-closed (exit code, each report cell against
its tolerance, NaN/inf, identical output digests across iterations).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced iterations and prints the per-layer metrics.  The last stdout line is
the JSON result; a full record (environment, digests, per-iteration times)
is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("family_verify_512", "generate_export_256", "certify_catalog")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "BLIS_NUM_THREADS": "1",
          "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
# worker budget beyond --seconds: set-up probes plus one overrunning iteration
GRACE_S = 90


class BenchError(RuntimeError):
    pass


def _worker(args, timeout: float) -> tuple[float, dict]:
    """Start worker.py; (monotonic start time, its JSON line)."""
    env = {k: v for k, v in os.environ.items() if k != "WESURF_OUT"}
    env.update(PINNED)
    cmd = [sys.executable, "-I", str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(OUT / f"work-{args.workload}")]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return start, json.loads(stdout.strip().splitlines()[-1])


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                          capture_output=True, timeout=30)
    return done.stdout.strip() or None


def run(args) -> dict:
    if not (ROOT / "src" / "wesurf" / "__init__.py").is_file():
        raise BenchError(f"no wesurf sources under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    start, res = _worker(args, timeout=args.seconds + GRACE_S)
    setup = [res["ready"] - start] + res["setup_s_samples"]

    its = res["iterations"]
    failed = sum(1 for it in its if it["errors"])
    ok = [it for it in its if not it["errors"] and not it["traced"]] or its
    wall = statistics.median(it["wall_s"] for it in ok)
    wall_ref = sum(it["wall_s"] for it in ok) / sum(it["ref_s"] for it in ok)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(), "nproc": os.cpu_count(),
        "environment": res["environment"],
        "wall_s": wall, "wall_ref": wall_ref, "wall_samples": len(ok),
        "setup_s_samples": setup,
        "peak_rss_mb": res["peak_rss_mb"], "attempted": len(its), "failed": failed,
        "digests": its[0]["digests"],
        "iterations": [{k: it[k] for k in ("wall_s", "ref_s", "traced", "errors")}
                       for it in its],
        "layers": res.get("layers"),
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    shutil.rmtree(OUT / f"work-{args.workload}", ignore_errors=True)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="wesurf benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        rec = run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for it in rec["iterations"]:
        for err in it["errors"]:
            print(f"FAILED iteration: {err}", file=sys.stderr)
    print(f"workload {rec['workload']} seed {rec['seed']} trace {rec['trace']} "
          f"git {rec['git_sha']}")
    print(f"environment {json.dumps(rec['environment'])}")
    for name, digest in rec["digests"].items():
        print(f"sha256 {digest}  {name}")
    print(f"wall_s {rec['wall_s']:.4f} s (median of {rec['wall_samples']} iterations)")
    print(f"wall_ref {rec['wall_ref']:.4f} ref (iterations / reference blocks, "
          f"total of {rec['wall_samples']} iterations)")
    print(f"peak_rss_mb {rec['peak_rss_mb']:.1f} MB")
    print(f"setup_s {statistics.median(rec['setup_s_samples']):.4f} s "
          f"(median of {len(rec['setup_s_samples'])} starts)")
    print(f"error_rate {rec['failed'] / rec['attempted']:.4f} "
          f"({rec['failed']} failed / {rec['attempted']} attempted)")
    if args.trace:
        metrics = rec["layers"]
    else:
        metrics = {
            "wall_ref": {"value": rec["wall_ref"], "unit": "ref"},
            "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(rec["setup_s_samples"]), "unit": "s"},
        }
    print(json.dumps({"correct": rec["failed"] == 0, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
