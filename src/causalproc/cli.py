"""Command-line interface: validation, discovery, comb and separability checks,
classical polytope tooling, and exemplar export.

Every command prints one JSON report to stdout. A command that reads a process
file opens its report with the envelope ``command``, ``input`` (the path),
``sha256`` (of the bytes it read, once, and parsed) and ``tol``, and ends it
with ``runtime_s``; ``exemplar`` prints ``name``, ``out``, ``sha256`` (of the
written file) and ``runtime_s``. Exit codes: 0 = the checked property holds,
1 = it fails, 2 = usage or input error (nothing on stdout), 3 = internal
failure (one JSON line on stderr, no traceback, nothing on stdout), 4 = no
verdict within the budget (``separability`` found no split in ``--max-iter``
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

# Comb, classical and exemplar names are read off the lazy package namespace,
# which imports their modules on first access: validate and discover on a
# quantum file never load them.
import causalproc as cp

from .fileio import ProcessFileError, _load, dict_to_process, write_process_file
from .graphs import discover
from .process import ENUMERATION_BUDGET, ProcessOperator, validate_process


def _with_structure(dp):
    return dp, cp.causal_structure_deterministic(dp)


# name -> (builder of (object, graph or None), description)
EXEMPLARS = {
    "switch": (
        lambda: (cp.make_switch(2), cp.switch_causal_graph()),
        "order-controlling unitary process, qubit target",
    ),
    "reduced-switch": (
        lambda: (cp.make_reduced_switch(2), cp.reduced_switch_causal_graph()),
        "order-controlling process with the leaf traced out",
    ),
    "af": (
        lambda: (cp.make_af(), cp.af_causal_graph()),
        "diagonal process of the three-bit cyclic function",
    ),
    "af-classical": (
        lambda: _with_structure(cp.make_af_deterministic()),
        "three-bit cyclic function process, classical table",
    ),
    "bw-extension": (lambda: (cp.make_bw_extension(), None), "reversible dilation of the three-bit cyclic process"),
    "classical-switch": (
        lambda: _with_structure(cp.make_classical_switch(2)),
        "classical control of order, bit target",
    ),
    "counterexample": (
        lambda: (cp.make_methods_counterexample().combined([0.5, 0.5]), None),
        "two mutually conditioned channels with uniform C input; not a process",
    ),
    "mix": (lambda: (cp.make_mix_example(), None), "two-node no-signalling process with mixed inputs"),
}
EXEMPLAR_NAMES = tuple(EXEMPLARS)

# validity condition -> the verdict flag that holds when it is met, in report order
CONDITIONS = {
    "hermitian": "hermitian_ok",
    "positive-semidefinite": "psd_ok",
    "total-trace": "trace_ok",
    "allowed-types": "type_ok",
}


def _emit(report: dict, started: float) -> None:
    report["runtime_s"] = round(time.time() - started, 3)
    json.dump(report, sys.stdout, indent=1)
    sys.stdout.write("\n")


def _run(command, args) -> int:
    """Read ``args.file`` once, let ``command(args, loaded, report)`` add its
    fields after the envelope, print the report and return the command's exit
    code. The envelope's ``sha256`` is of the bytes that were parsed."""
    started = time.time()
    digest = hashlib.sha256()
    loaded = dict_to_process(_load(args.file, digest))
    name = f"classical {args.subcommand}" if args.command == "classical" else args.command
    report = {"command": name, "input": args.file, "sha256": digest.hexdigest(), "tol": args.tol}
    code = command(args, loaded, report)
    _emit(report, started)
    return code


def _as_quantum(loaded) -> ProcessOperator:
    return loaded.process if loaded.kind == "quantum" else cp.quantize(loaded.process)


def cmd_validate(args, loaded, report) -> int:
    if loaded.kind == "classical":
        report["kind"] = "classical"
        return _classical_validity(args, loaded.process, report)
    verdict = validate_process(loaded.process, args.tol)
    report.update(
        kind="quantum", valid=verdict.valid, trace=verdict.trace, expected_trace=verdict.expected_trace,
        hermitian_residual=verdict.hermitian_residual,
        min_eigenvalue=None if math.isnan(verdict.min_eigenvalue) else verdict.min_eigenvalue,
        psd_ok=verdict.psd_ok, forbidden_norm=verdict.forbidden_norm, offending_types=list(verdict.offending_types),
        failed_conditions=[name for name, flag in CONDITIONS.items() if not getattr(verdict, flag)],
    )
    return 0 if verdict.valid else 1


def _classical_validity(args, kp: cp.ClassicalProcess, report) -> int:
    verdict = cp.validate_classical(kp, args.tol, args.budget)
    report.update(
        valid=verdict.valid, min_entry=verdict.min_entry,
        max_normalization_error=verdict.max_normalization_error, tuples_checked=verdict.tuples_checked,
    )
    return 0 if verdict.valid else 1


def cmd_discover(args, loaded, report) -> int:
    graph, mf = discover(_as_quantum(loaded), args.tol)
    report.update(
        vertices=sorted(graph.vertices), edges=[list(e) for e in sorted(graph.edges)], cyclic=graph.is_cyclic,
        markov_accepted=mf.accepted, product_residual=mf.product_residual,
    )
    if mf.accepted:
        report["factor_traces"] = mf.factor_traces
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(graph.to_dot())
        report["dot"] = args.dot
    return 0 if mf.accepted else 1


def cmd_comb(args, loaded, report) -> int:
    sigma = _as_quantum(loaded)
    if args.order is not None:
        # an empty name is kept, so that comb_check refuses the order
        cv = cp.comb_check(sigma, tuple(x.strip() for x in args.order.split(",")), args.tol)
        report.update(order=list(cv.order), residuals=list(cv.residuals), accepted=cv.accepted)
        return 0 if cv.accepted else 1
    found = cp.combs._search(sigma, args.tol, args.budget)
    if found is None:
        report.update(found=None, message=f"no compatible order ({math.factorial(len(sigma.nodes))} scanned)")
        return 1
    report.update(found=list(found.order), residuals=list(found.residuals))
    return 0


def cmd_separability(args, loaded, report) -> int:
    sv = cp.bipartite_separability(_as_quantum(loaded), args.tol, args.max_iter)
    report.update(max_iter=args.max_iter, status=sv.status, residual=sv.residual, iterations=sv.iterations)
    if sv.separable:
        report["weight_second_order"] = sv.weight
    return 0 if sv.separable else 4


def _polytope(args, kp: cp.ClassicalProcess, report) -> int:
    verdict = cp.polytope_membership(kp, tol=args.tol, budget=args.budget)
    report.update(inside=verdict.inside, residual=verdict.residual, n_vertices=len(verdict.weights))
    return 0 if verdict.inside else 1


def _extend(args, kp: cp.ClassicalProcess, report) -> int:
    found = cp.classical._extend_in_hull(kp, args.tol, args.budget)
    report["inside"] = found is not None
    if found is None:
        report["message"] = "process lies outside the deterministic hull; no reversible extension"
        return 1
    ext, branches, error, exact = found
    report.update(marginal_max_error=error, marginal_reproduced=exact, branches=branches)
    if args.out:
        meta = {"lambda_distribution": [float(v) for v in ext.lambda_distribution]}
        write_process_file(args.out, ext.extension, metadata=meta)
        report["out"] = args.out
    return 0 if exact else 1


def _quantize(args, kp: cp.ClassicalProcess, report) -> int:
    sigma = cp.quantize(kp)
    verdict = validate_process(sigma, args.tol)
    report.update(valid=verdict.valid, trace=verdict.trace)
    if args.out:
        write_process_file(args.out, sigma)
        report["out"] = args.out
    return 0 if verdict.valid else 1


CLASSICAL_COMMANDS = {"validate": _classical_validity, "polytope": _polytope, "extend": _extend, "quantize": _quantize}


def cmd_classical(args, loaded, report) -> int:
    if loaded.kind != "classical":
        raise ProcessFileError("this command needs a classical process file")
    return CLASSICAL_COMMANDS[args.subcommand](args, loaded.process, report)


def cmd_exemplar(args) -> int:
    started = time.time()
    if args.name not in EXEMPLARS:
        sys.stderr.write(f"unknown exemplar {args.name!r}; available: {', '.join(EXEMPLAR_NAMES)}\n")
        return 2
    build, description = EXEMPLARS[args.name]
    obj, graph = build()
    out = args.out or f"{args.name}.json"
    write_process_file(out, obj, graph=graph, metadata={"description": description})
    with open(out, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    _emit({"command": "exemplar", "name": args.name, "out": out, "sha256": digest}, started)
    return 0


def _at_least(low, kind):
    """An argparse type: a finite ``kind`` (float or int) no smaller than ``low``."""
    def number(text: str):
        if not low <= (value := kind(text)) < math.inf:
            raise argparse.ArgumentTypeError(f"must be a finite number >= {low}, got {text!r}")
        return value
    return number


def _reads_file(p, command, tol=1e-9):
    """Declare the process-file argument and ``--tol``; run ``command`` on the file."""
    p.add_argument("file")
    p.add_argument("--tol", type=_at_least(0, float), default=tol)
    p.set_defaults(func=lambda args: _run(command, args))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalproc",
        description="Construct, validate, and causally analyze process operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check process validity")
    _reads_file(p, cmd_validate)
    # a classical file is validated with the default enumeration budget
    p.set_defaults(budget=ENUMERATION_BUDGET)

    p = sub.add_parser("discover", help="recover the causal graph and Markov factorization")
    _reads_file(p, cmd_discover)
    p.add_argument("--dot", help="write the graph in DOT format to this path")

    p = sub.add_parser("comb", help="test or search fixed-order realizability")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--order", help="comma-separated node names to test")
    group.add_argument("--search", action="store_true", help="search all orders")
    _reads_file(p, cmd_comb)
    p.add_argument("--budget", type=_at_least(1, int), default=8, help="maximum node count for --search")

    p = sub.add_parser("separability", help="two-node convex split into one-way combs")
    _reads_file(p, cmd_separability, tol=1e-6)
    p.add_argument("--max-iter", type=_at_least(1, int), default=5000)

    p = sub.add_parser("classical", help="classical process tooling")
    p.add_argument("subcommand", choices=list(CLASSICAL_COMMANDS))
    _reads_file(p, cmd_classical)
    p.add_argument("--budget", type=_at_least(1, int), default=ENUMERATION_BUDGET)
    p.add_argument("--out", help="output path for extend/quantize results")

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
