#!/usr/bin/env python3
"""causalproc benchmark. One call runs one workload and prints every metric.

    python3 perfbench/run.py --workload {cli-cold,dense-analysis,file-roundtrip}
                             --seed N --seconds S --trace {0,1}

Run from anywhere; the repository root is this file's parent directory. The
workload runs in fresh worker processes (worker.py) so that set-up time and
peak RSS belong to it alone. Human-readable lines come first; the last line of
standard output is the JSON result with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``, as listed in BENCHMARK.json).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-cold", "dense-analysis", "file-roundtrip")
SETUP_SAMPLES = 3  # set-ups per run; setup_s is their median
# Passes per 25 s of --seconds. A run is a fixed number of passes, so every
# seed measures the same amount of work; on a 2-core box a cli-cold pass takes
# 35-55 s, a dense-analysis pass 18-24 s and a file-roundtrip pass 3 s.
PASSES_PER_25S = {"cli-cold": 1, "dense-analysis": 1, "file-roundtrip": 10}
BLAS_THREADS = 1  # fixed BLAS/OpenMP thread count, at most nproc
DEADLINE_S = 175.0  # the whole run, traced runs included


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def environment() -> dict:
    """Machine and source identity; library versions come from the worker."""
    def read(path):
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    cpu = next((ln.split(":", 1)[1].strip() for ln in read("/proc/cpuinfo").splitlines() if ln.startswith("model name")), None)
    mem = next((ln.split()[1] for ln in read("/proc/meminfo").splitlines() if ln.startswith("MemTotal")), None)
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    src = hashlib.sha256()
    for f in sorted((ROOT / "src" / "causalproc").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "ram_gb": round(int(mem) / 2**20, 1) if mem else None,
        "blas_threads": BLAS_THREADS,
    }


def child_env() -> dict:
    """Environment of every benchmark child: this checkout's sources and a
    fixed BLAS thread count."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def worker(args, workdir: Path, passes: int, setup_only: bool, deadline: float) -> dict:
    out = workdir / f"result-{time.monotonic_ns()}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--passes", str(passes), "--trace", str(args.trace), "--workdir", str(workdir), "--result", str(out),
        "--launched", repr(time.monotonic()),
    ] + (["--setup-only"] if setup_only else [])
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(out.read_text())


def main() -> int:
    started = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    for need in (ROOT / "src" / "causalproc" / "__init__.py", ROOT / "BENCHMARK.json", HERE / "golden.json"):
        if not need.is_file():
            sys.stderr.write(f"error: {need} not found; run from a causalproc source checkout\n")
            return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    passes = max(1, round(args.seconds / 25.0 * PASSES_PER_25S[args.workload]))
    deadline = started + DEADLINE_S
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setups = [worker(args, workdir, passes, True, deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        res = worker(args, workdir, passes, False, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    setups.append(res["setup_s"])

    phases = [res["untraced"]] + ([res["traced"]] if args.trace else [])
    attempted = sum(ph["attempted"] for ph in phases)
    failures = [f for ph in phases for f in ph["failures"]]
    lat = res["untraced"]["latencies_s"]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": res["untraced"]["wall_s"],
        "latency_p50_s": percentile(lat, 50),
        "latency_p90_s": percentile(lat, 90),
        "peak_rss_mb": res["peak_rss_mb"],
        "output_mb": res["untraced"]["output_bytes"] / 1e6,
        "failure_ratio": len(failures) / attempted,
    }
    values.update(res.get("layers", {}))

    print(f"workload {args.workload}  seed {args.seed}  passes {passes}  trace {args.trace}")
    print("env " + json.dumps({**environment(), **res["env"]}, sort_keys=True))
    print(f"samples {len(lat)}  beyond_p90 {samples_beyond(len(lat), 90)}  setup_samples "
          + " ".join(f"{s:.3f}" for s in setups))
    for k, t in zip(res["untraced"]["keys"], lat):
        print(f"  op {t:9.4f} s  {k}")
    print(f"  output_mb {values['output_mb']:.4f} MB  failure_ratio {values['failure_ratio']:.4f} ({len(failures)}/{attempted})")
    for f in failures:
        print(f"  FAILED {f}")
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for m in listed:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<48} {values[m['name']]:>16.6f} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
