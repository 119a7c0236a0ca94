"""Command-line interface: validation, discovery, comb and separability checks,
classical polytope tooling, and exemplar export.

Every command prints a JSON report to stdout and uses the exit-code contract:
0 = the checked property holds, 1 = it fails, 2 = usage or input error,
3 = internal failure (one JSON line on stderr, no traceback), 4 = no verdict
within the budget (``separability`` found no split in ``--max-iter``
iterations; the report is still printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import exemplars as ex
from .classical import (
    ClassicalProcess,
    causal_structure_deterministic,
    enumerate_deterministic_processes,
    polytope_membership,
    quantize,
    reversible_extension,
    validate_classical,
)
from .combs import bipartite_separability, comb_check, comb_search
from .fileio import (
    ProcessFileError,
    read_process_file,
    write_process_file,
)
from .graphs import discover
from .process import ProcessOperator, validate_process

EXEMPLAR_NAMES = (
    "switch",
    "reduced-switch",
    "af",
    "af-classical",
    "bw-extension",
    "classical-switch",
    "counterexample",
    "mix",
)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _emit(report: dict, started: float) -> None:
    report["runtime_s"] = round(time.time() - started, 3)
    json.dump(report, sys.stdout, indent=1)
    sys.stdout.write("\n")


def _as_quantum(loaded) -> ProcessOperator:
    if loaded.kind == "quantum":
        return loaded.process
    return quantize(loaded.process)


def _exemplar(name: str):
    """Build an exemplar by CLI name: (object, graph, metadata)."""
    if name == "switch":
        return ex.make_switch(2), ex.switch_causal_graph(), {"description": "order-controlling unitary process, qubit target"}
    if name == "reduced-switch":
        return ex.make_reduced_switch(2), ex.reduced_switch_causal_graph(), {"description": "order-controlling process with the leaf traced out"}
    if name == "af":
        return ex.make_af(), ex.af_causal_graph(), {"description": "diagonal process of the three-bit cyclic function"}
    if name == "af-classical":
        dp = ex.make_af_deterministic()
        return dp, causal_structure_deterministic(dp), {"description": "three-bit cyclic function process, classical table"}
    if name == "bw-extension":
        return ex.make_bw_extension(), None, {"description": "reversible dilation of the three-bit cyclic process"}
    if name == "classical-switch":
        dp = ex.make_classical_switch(2)
        return dp, causal_structure_deterministic(dp), {"description": "classical control of order, bit target"}
    if name == "counterexample":
        mce = ex.make_methods_counterexample()
        return mce.combined([0.5, 0.5]), None, {"description": "two mutually conditioned channels with uniform C input; not a process"}
    if name == "mix":
        return ex.make_mix_example(), None, {"description": "two-node no-signalling process with mixed inputs"}
    raise KeyError(name)


def cmd_validate(args) -> int:
    started = time.time()
    loaded = read_process_file(args.file)
    report = {"command": "validate", "input": args.file, "sha256": _sha256(args.file), "tol": args.tol}
    if loaded.kind == "quantum":
        verdict = validate_process(loaded.process, args.tol)
        report["kind"] = "quantum"
        report["valid"] = verdict.valid
        report["trace"] = verdict.trace
        report["expected_trace"] = verdict.expected_trace
        report["hermitian_residual"] = verdict.hermitian_residual
        report["min_eigenvalue"] = None if math.isnan(verdict.min_eigenvalue) else verdict.min_eigenvalue
        report["psd_ok"] = verdict.psd_ok
        report["forbidden_norm"] = verdict.forbidden_norm
        report["offending_types"] = list(verdict.offending_types)
        failed = []
        if not verdict.hermitian_ok:
            failed.append("hermitian")
        if not verdict.psd_ok:
            failed.append("positive-semidefinite")
        if not verdict.trace_ok:
            failed.append("total-trace")
        if not verdict.type_ok:
            failed.append("allowed-types")
        report["failed_conditions"] = failed
        ok = verdict.valid
    else:
        report["kind"] = "classical"
        ok = _report_classical_validity(report, loaded.process, args.tol)
    _emit(report, started)
    return 0 if ok else 1


def _report_classical_validity(report: dict, kp: ClassicalProcess, tol: float) -> bool:
    """Add the classical validity fields to ``report``; return the verdict."""
    verdict = validate_classical(kp, tol)
    report["valid"] = verdict.valid
    report["min_entry"] = verdict.min_entry
    report["max_normalization_error"] = verdict.max_normalization_error
    report["tuples_checked"] = verdict.tuples_checked
    return verdict.valid


def cmd_discover(args) -> int:
    started = time.time()
    loaded = read_process_file(args.file)
    sigma = _as_quantum(loaded)
    graph, mf = discover(sigma, args.tol)
    report = {
        "command": "discover",
        "input": args.file,
        "sha256": _sha256(args.file),
        "tol": args.tol,
        "vertices": sorted(graph.vertices),
        "edges": [list(e) for e in sorted(graph.edges)],
        "cyclic": graph.is_cyclic,
        "markov_accepted": mf.accepted,
        "product_residual": mf.product_residual,
    }
    if mf.accepted:
        report["factor_traces"] = {
            name: float(np.trace(ch.op.matrix).real) for name, ch in sorted(mf.factors.items())
        }
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(graph.to_dot())
        report["dot"] = args.dot
    _emit(report, started)
    return 0 if mf.accepted else 1


def cmd_comb(args) -> int:
    started = time.time()
    loaded = read_process_file(args.file)
    sigma = _as_quantum(loaded)
    report = {"command": "comb", "input": args.file, "sha256": _sha256(args.file), "tol": args.tol}
    if args.order:
        order = tuple(x.strip() for x in args.order.split(",") if x.strip())
        cv = comb_check(sigma, order, args.tol)
        report["order"] = list(order)
        report["residuals"] = list(cv.residuals)
        report["accepted"] = cv.accepted
        ok = cv.accepted
    else:
        found = comb_search(sigma, args.tol, args.budget)
        scanned = math.factorial(len(sigma.nodes))
        if found is None:
            report["found"] = None
            report["message"] = f"no compatible order ({scanned} scanned)"
            ok = False
        else:
            report["found"] = list(found)
            report["residuals"] = list(comb_check(sigma, found, args.tol).residuals)
            ok = True
    _emit(report, started)
    return 0 if ok else 1


def cmd_separability(args) -> int:
    started = time.time()
    loaded = read_process_file(args.file)
    sigma = _as_quantum(loaded)
    sv = bipartite_separability(sigma, args.tol, args.max_iter)
    report = {
        "command": "separability",
        "input": args.file,
        "sha256": _sha256(args.file),
        "tol": args.tol,
        "max_iter": args.max_iter,
        "status": sv.status,
        "residual": sv.residual,
        "iterations": sv.iterations,
    }
    if sv.separable:
        report["weight_second_order"] = sv.weight
    _emit(report, started)
    return 0 if sv.separable else 4


def _require_classical(loaded) -> ClassicalProcess:
    if loaded.kind != "classical":
        raise ProcessFileError("this command needs a classical process file")
    return loaded.process


def cmd_classical(args) -> int:
    started = time.time()
    loaded = read_process_file(args.file)
    base = {"command": f"classical {args.subcommand}", "input": args.file, "sha256": _sha256(args.file)}

    if args.subcommand == "validate":
        base["tol"] = args.tol
        ok = _report_classical_validity(base, _require_classical(loaded), args.tol)
        _emit(base, started)
        return 0 if ok else 1

    if args.subcommand == "polytope":
        kp = _require_classical(loaded)
        verdict = polytope_membership(kp, tol=args.tol, budget=args.budget)
        base["tol"] = args.tol
        base["inside"] = verdict.inside
        base["residual"] = verdict.residual
        base["n_vertices"] = int(verdict.weights.shape[0]) if verdict.weights is not None else 0
        _emit(base, started)
        return 0 if verdict.inside else 1

    if args.subcommand == "extend":
        kp = _require_classical(loaded)
        vertices = enumerate_deterministic_processes(kp.nodes, args.budget)
        verdict = polytope_membership(kp, vertices, tol=args.tol)
        base["tol"] = args.tol
        base["inside"] = verdict.inside
        if not verdict.inside:
            base["message"] = "process lies outside the deterministic hull; no reversible extension"
            _emit(base, started)
            return 1
        mixture = [
            (float(w), vert)
            for w, vert in zip(verdict.weights, vertices)
            if w > 1e-12
        ]
        total = sum(w for w, _ in mixture)
        mixture = [(w / total, vert) for w, vert in mixture]
        ext = reversible_extension(mixture)
        marg = ext.marginal()
        exact = bool(np.array_equal(marg.table, kp.table)) or bool(
            np.abs(marg.table - kp.table).max() <= max(args.tol, verdict.residual * 4)
        )
        base["marginal_max_error"] = float(np.abs(marg.table - kp.table).max())
        base["marginal_reproduced"] = exact
        base["branches"] = len(mixture)
        if args.out:
            meta = {"lambda_distribution": [float(v) for v in ext.lambda_distribution]}
            write_process_file(args.out, ext.extension, metadata=meta)
            base["out"] = args.out
        _emit(base, started)
        return 0 if exact else 1

    if args.subcommand == "quantize":
        kp = _require_classical(loaded)
        sigma = quantize(kp)
        verdict = validate_process(sigma, args.tol)
        base["tol"] = args.tol
        base["valid"] = verdict.valid
        base["trace"] = verdict.trace
        if args.out:
            write_process_file(args.out, sigma)
            base["out"] = args.out
        _emit(base, started)
        return 0 if verdict.valid else 1

    raise AssertionError(f"unhandled subcommand {args.subcommand!r}")


def cmd_exemplar(args) -> int:
    started = time.time()
    try:
        obj, graph, metadata = _exemplar(args.name)
    except KeyError:
        sys.stderr.write(
            f"unknown exemplar {args.name!r}; available: {', '.join(EXEMPLAR_NAMES)}\n"
        )
        return 2
    out = args.out or f"{args.name}.json"
    write_process_file(out, obj, graph=graph, metadata=metadata)
    report = {
        "command": "exemplar",
        "name": args.name,
        "out": out,
        "sha256": _sha256(out),
    }
    _emit(report, started)
    return 0


def _at_least(low, kind):
    """An argparse type: a finite ``kind`` (float or int) no smaller than ``low``."""
    def number(text: str):
        if not low <= (value := kind(text)) < math.inf:
            raise argparse.ArgumentTypeError(f"must be a finite number >= {low}, got {text!r}")
        return value
    return number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalproc",
        description="Construct, validate, and causally analyze process operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check process validity")
    p.add_argument("file")
    p.add_argument("--tol", type=_at_least(0, float), default=1e-9)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("discover", help="recover the causal graph and Markov factorization")
    p.add_argument("file")
    p.add_argument("--tol", type=_at_least(0, float), default=1e-9)
    p.add_argument("--dot", help="write the graph in DOT format to this path")
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("comb", help="test or search fixed-order realizability")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--order", help="comma-separated node names to test")
    group.add_argument("--search", action="store_true", help="search all orders")
    p.add_argument("--tol", type=_at_least(0, float), default=1e-9)
    p.add_argument("--budget", type=int, default=8, help="maximum node count for --search")
    p.set_defaults(func=cmd_comb)

    p = sub.add_parser("separability", help="two-node convex split into one-way combs")
    p.add_argument("file")
    p.add_argument("--tol", type=_at_least(0, float), default=1e-6)
    p.add_argument("--max-iter", type=_at_least(1, int), default=5000)
    p.set_defaults(func=cmd_separability)

    p = sub.add_parser("classical", help="classical process tooling")
    p.add_argument("subcommand", choices=["validate", "polytope", "extend", "quantize"])
    p.add_argument("file")
    p.add_argument("--tol", type=_at_least(0, float), default=1e-9)
    p.add_argument("--budget", type=int, default=2**24)
    p.add_argument("--out", help="output path for extend/quantize results")
    p.set_defaults(func=cmd_classical)

    p = sub.add_parser("exemplar", help="write a built-in example process to a file")
    p.add_argument("name")
    p.add_argument("--out", help=f"output path (default NAME.json); names: {', '.join(EXEMPLAR_NAMES)}")
    p.set_defaults(func=cmd_exemplar)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        # LinAlgError is a ValueError, but a numerical failure, not bad input.
        usage = (ProcessFileError, OSError, KeyError, ValueError)
        if isinstance(exc, usage) and not isinstance(exc, np.linalg.LinAlgError):
            sys.stderr.write(f"error: {exc}\n")
            return 2
        sys.stderr.write(json.dumps({"error": str(exc), "type": type(exc).__name__}) + "\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
