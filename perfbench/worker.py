"""One workload in a fresh process: set-up, the timed phase, and with
``--trace 1`` a traced repeat of the same operations.

Started by run.py, which passes the moment it launched this process so that
the set-up time includes interpreter start-up and imports. The result goes to
``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import networkx
import numpy as np
import scipy

import ops
import spans

HERE = Path(__file__).resolve().parent


def run_phase(ctx, workload, seed: int, passes: int, golden: dict, tracer=None) -> dict:
    """Run the passes back to back (closed loop, one client), then check every
    operation against its golden record. Only the operations are timed."""
    rng = np.random.default_rng([seed, 1])
    done = []
    started = time.perf_counter()
    for p in range(passes):
        for i, op in enumerate(workload.make_pass(ctx, rng)):
            ctx.op_id = f"p{p}o{i}"
            if tracer is not None:
                tracer.op = ctx.op_id
            t0 = time.perf_counter()
            try:
                result, error = op.run(ctx), None
            except Exception as exc:  # a raising operation is a failed operation
                result, error = None, repr(exc)
            done.append((op, result, error, time.perf_counter() - t0))
    wall = time.perf_counter() - started
    if tracer is not None:
        tracer.op = None

    failures, written, cli_runtime = [], 0, []
    for op, result, error, _ in done:
        if error is None:
            try:
                want = golden.get(op.key)
                bad = ["no golden record"] if want is None else ops.mismatches(ops.plain(op.observe(ctx, result)), want)
                if op.written is not None:
                    written += op.written(ctx, result)
                if isinstance(result, subprocess.CompletedProcess):
                    cli_runtime.append(json.loads(result.stdout)["runtime_s"])
            except Exception as exc:
                bad = [f"check raised {exc!r}"]
        else:
            bad = [f"raised {error}"]
        if bad:
            failures.append(f"{op.key}: {'; '.join(bad)}"[:400])
    return {
        "wall_s": wall,
        "latencies_s": [d[3] for d in done],
        "keys": [d[0].key for d in done],
        "attempted": len(done),
        "failures": failures,
        "output_bytes": written,
        "cli_runtime_s": cli_runtime,
    }


def import_seconds(env: dict, reps: int = 3) -> float:
    """A fresh interpreter importing causalproc.cli, minus a bare interpreter."""
    bare, full = [], []
    for _ in range(reps):
        for code, acc in (("pass", bare), ("import causalproc.cli", full)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            acc.append(time.perf_counter() - t0)
    return statistics.median(full) - statistics.median(bare)


def layer_metrics(all_spans, untraced: dict, traced: dict, import_s: float) -> dict:
    st = spans.layer_stats(all_spans, skip_op="setup")

    def get(name, field):
        return st.get(name, {}).get(field, 0)

    m = {}
    for fn in ("partial_trace", "reorder", "tensor", "embed", "product", "distance"):
        for f in ("calls", "self_s", "bytes"):
            m[f"labeled.{fn}.{f}"] = get(f"labeled.{fn}", f)
    for f in ("calls", "self_s", "bytes"):
        m[f"hs.project_trivial.{f}"] = get("hs.project_trivial", f)
    for name in ("hs.type_norms", "process.validate_process", "combs.comb_search",
                 "combs.bipartite_separability", "classical.enumerate_deterministic_processes"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_s")
    for name in ("hs.hs_expand", "graphs.discover", "graphs.markov_check", "graphs.marginal_factor",
                 "graphs.causal_structure_unitary", "channels.cptp_residuals", "classical.polytope_membership",
                 "classical.reversible_extension", "classical.validate_classical", "classical.quantize",
                 "fileio.write_process_file", "fileio.process_to_dict", "fileio.read_process_file",
                 "fileio.dict_to_process"):
        m[f"{name}.self_s"] = get(name, "self_s")
    m["combs.comb_search.nodes"] = spans.count_under(all_spans, "hs.project_trivial", "combs.comb_search", "setup")
    m["combs.bipartite_separability.iterations"] = get("combs.bipartite_separability", "extra")
    m["fileio.bytes_written"] = get("fileio.write_process_file", "extra")
    m["exemplars.build_s"] = spans.build_seconds(all_spans)
    m["startup.import_s"] = import_s
    m["cli.command_s"] = sum(untraced["cli_runtime_s"])
    cli_wall = [t for t, k in zip(untraced["latencies_s"], untraced["keys"]) if k.startswith("cli:")]
    m["cli.overhead_s"] = sum(cli_wall) - m["cli.command_s"] if cli_wall else 0.0
    m["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    m["trace.spans"] = sum(1 for s in all_spans if s[spans.OP] != "setup")
    return m


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--passes", type=int, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--launched", type=float, required=True, help="time.monotonic() at launch")
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    a = p.parse_args()

    ctx = ops.Context(Path(a.workdir), dict(os.environ))
    workload = ops.WORKLOADS[a.workload]
    workload.setup(ctx, np.random.default_rng(a.seed))
    workload.warmup(ctx)
    result = {"setup_s": time.monotonic() - a.launched}
    if not a.setup_only:
        golden = json.loads((HERE / "golden.json").read_text())
        result["untraced"] = run_phase(ctx, workload, a.seed, a.passes, golden)
        if a.trace:
            tracer = spans.Tracer()
            spans.install(tracer)
            tracer.op = "setup"  # traced again only for exemplars.build_s
            workload.setup(ctx, np.random.default_rng(a.seed))
            ctx.spans_dir = Path(a.workdir) / "spans"
            ctx.spans_dir.mkdir(exist_ok=True)
            traced = run_phase(ctx, workload, a.seed, a.passes, golden, tracer)
            for f in sorted(ctx.spans_dir.glob("*.json")):
                spans.merge(tracer.spans, json.loads(f.read_text()))
            import_s = import_seconds(ctx.env) if a.workload == "cli-cold" else 0.0
            result["traced"] = traced
            result["layers"] = layer_metrics(tracer.spans, result["untraced"], traced, import_s)
        usage = resource.RUSAGE_CHILDREN if a.workload == "cli-cold" else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024
        result["env"] = environment()
    Path(a.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
