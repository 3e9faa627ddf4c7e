"""One workload in one fresh process; started by run.py with BLAS pinned.

Prints one JSON line.  With --probe it stops once imports and inputs are
ready (a set-up sample); otherwise it runs iterations for --seconds and
reports per-iteration wall times, the reference-block times around each,
the peak RSS after the first iteration, digests, failures, set-up samples
of probe processes started between iterations and, with --trace 1, the
per-layer metrics of every other iteration.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 10
REF_BYTES = 32 << 20
REF_REPS = 16


def reference_s() -> float:
    """Wall seconds of a fixed block of work that is not wesurf's.

    On a shared host the speed of this process drifts by up to 2x over tens
    of seconds, mostly in what fresh memory costs: the workloads spend a
    quarter of their time or more in the kernel, faulting in and zeroing
    the pages of new arrays.  The block maps fresh anonymous memory and
    fills it, REF_REPS times; it is timed before and after every iteration,
    and dividing an iteration's time by the mean of the two cancels most of
    the drift.
    """
    import mmap
    import numpy as np
    t0 = time.perf_counter()
    for _ in range(REF_REPS):
        with mmap.mmap(-1, REF_BYTES) as mm:
            a = np.frombuffer(mm, dtype=np.float64)
            a.fill(1.0)
            del a
    return time.perf_counter() - t0


def _import_wesurf():
    src = ROOT / "src"
    sys.path[:0] = [str(HERE), str(src)]
    import wesurf
    if not Path(wesurf.__file__).resolve().is_relative_to(src / "wesurf"):
        raise ImportError(f"wesurf imported from {wesurf.__file__}, not {src}")
    return wesurf


def _environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "OPENBLAS_CORETYPE")},
        "cpu_affinity": len(os.sched_getaffinity(0)),
    }


def run_iteration(workload, out_dir: Path, tracer=None) -> dict:
    """One timed call; the output directory is made and removed untimed."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    if tracer is not None:
        tracer.reset()
        tracer.install()
    t0 = time.perf_counter()
    try:
        result = workload.run(out_dir)
        error = None
    except Exception:
        result, error = None, traceback.format_exc(limit=3)
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    digests, errors = {}, [error] if error else []
    if error is None:
        try:
            digests, errors = workload.check(result, out_dir)
        except Exception:
            errors = [traceback.format_exc(limit=3)]
    shutil.rmtree(out_dir, ignore_errors=True)
    it = {"wall_s": wall, "traced": tracer is not None, "digests": digests,
          "errors": errors}
    if tracer is not None:
        it["layers"] = tracer.layer_metrics()
    return it


def setup_sample(argv: list[str]) -> float:
    """Start-to-ready seconds of a fresh worker that stops before timing."""
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-I", __file__, *argv, "--probe"],
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout)["ready"] - start


def measure(workload, seconds: float, trace: bool, out_dir: Path,
            probe_argv: list[str]) -> dict:
    from tracing import LAYER_METRICS, Tracer
    tracer = Tracer() if trace else None
    iterations, laps, setup = [], [], []
    start = time.perf_counter()
    ref = reference_s()
    # start another iteration only if it should end within `seconds`; with
    # tracing, alternate untraced and traced iterations so both see the same
    # machine state, at least one of each.  Set-up samples are taken between
    # iterations, so a slow spell of the host does not set their median.
    while (len(iterations) < (2 if trace else 1)
           or time.perf_counter() - start + statistics.median(laps) <= seconds):
        lap = time.perf_counter()
        traced = trace and len(iterations) % 2 == 1
        it = run_iteration(workload, out_dir, tracer if traced else None)
        after = reference_s()
        it["ref_s"] = (ref + after) / 2
        ref = after
        iterations.append(it)
        if len(iterations) == 1:
            # one call in a fresh process, as a CLI user runs it; over later
            # iterations ru_maxrss climbs in steps of up to a fifth as the
            # allocator's and the kernel's huge-page state ages
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if len(setup) < SETUP_PROBES:
            setup.append(setup_sample(probe_argv))
        laps.append(time.perf_counter() - lap)
    setup += [setup_sample(probe_argv) for _ in range(SETUP_PROBES - len(setup))]
    first = iterations[0]["digests"]
    for it in iterations[1:]:
        if it["digests"] != first and not it["errors"]:
            it["errors"].append("output digests differ from the first iteration")
    out = {"iterations": iterations, "setup_s_samples": setup,
           "peak_rss_mb": peak_rss_mb}
    if trace:
        traced = [it for it in iterations if it["traced"]]
        plain = [it for it in iterations if not it["traced"]]
        layers = {m: {"value": statistics.median(it["layers"][m] for it in traced),
                      "unit": unit} for m, unit in LAYER_METRICS}
        overhead = (statistics.median(it["wall_s"] for it in traced)
                    - statistics.median(it["wall_s"] for it in plain))
        layers["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        out["layers"] = layers
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="scratch directory for outputs")
    ap.add_argument("--probe", action="store_true",
                    help="stop when ready to time (a set-up sample)")
    args = ap.parse_args(argv)
    _import_wesurf()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed)
    # CLOCK_MONOTONIC is system-wide on Linux, so the parent can subtract its
    # own reading taken before starting this process
    ready = time.monotonic()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0
    probe_argv = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", "0", "--out", args.out]
    out = measure(workload, args.seconds, bool(args.trace), Path(args.out), probe_argv)
    out.update(ready=ready, environment=_environment())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
