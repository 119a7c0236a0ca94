"""The three workloads: set-up, operation lists, observations and golden checks.

An operation is one public library call or one CLI process. Its ``run`` is
what the benchmark times; its ``observe`` turns the result into a small,
JSON-able verdict record that is compared, after the timed phase, with the
golden record taken at the parent commit (``golden.json``). Records of seeded
inputs keep only seed-independent facts (flags, orders, residual below its
stated tolerance), so one golden entry covers every seed.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import causalproc as cp
import inputs

HERE = Path(__file__).resolve().parent
SHIM = HERE / "shim.py"
CLI_TIMEOUT_S = 150

# Stated tolerance for numbers compared against the golden record.
ATOL, RTOL = 1e-9, 1e-6

EXEMPLARS = ("switch", "reduced-switch", "af", "mix", "af-classical", "classical-switch", "counterexample")
TABLES = ("af-classical", "classical-switch", "counterexample")
# The commands dealt out to the seven exemplars in a pass: the same multiset
# every pass, so seeds change which exemplar gets which command, not the mix.
EXEMPLAR_COMMANDS = ("exemplar", "exemplar", "validate", "validate", "discover", "discover", "comb-search")
ENUMERATING = ("polytope:counterexample", "polytope:mixture", "extend:af-classical")
# Report fields that name files or time, not verdicts.
VOLATILE = {"runtime_s", "input", "sha256", "out", "dot"}


@dataclass
class Op:
    key: str  # golden entry
    run: Callable  # timed: run(ctx) -> result
    observe: Callable  # untimed: observe(ctx, result) -> record
    written: Callable | None = None  # bytes the operation wrote, from its result


class Context:
    """Where a workload runs: its work directory, child environment and, in
    the traced phase, the command prefix that installs the tracing shim."""

    def __init__(self, workdir: Path, env: dict):
        self.workdir = Path(workdir)
        self.env = env
        self.spans_dir: Path | None = None
        self.op_id = None
        self.objects: dict = {}

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def cli(self, args) -> subprocess.CompletedProcess:
        if self.spans_dir is None:
            prefix = [sys.executable, "-m", "causalproc"]
        else:
            prefix = [sys.executable, str(SHIM), str(self.spans_dir / f"{self.op_id}.json"), str(self.op_id)]
        return subprocess.run(
            prefix + list(args), cwd=self.workdir, env=self.env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
        )


# ---------------------------------------------------------------- records


def plain(value):
    """JSON-normal form: lists for tuples, None for NaN, Python scalars."""
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, frozenset, set)):
        items = [plain(v) for v in value]
        return sorted(items) if isinstance(value, (set, frozenset)) else items
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return None if math.isnan(value) else float(value)
    return value


def mismatches(got, want, where: str = "") -> list[str]:
    """Differences between an observed record and its golden record; numbers
    agree within ATOL + RTOL * |golden|, everything else exactly."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return [] if abs(got - want) <= ATOL + RTOL * abs(want) else [f"{where}: {got!r} != {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{where}: {got!r} != {want!r}"]


def payload(obj) -> np.ndarray:
    """The matrix or table a process file stores for ``obj``."""
    if isinstance(obj, cp.LoadedProcessFile):
        obj = obj.process
    if isinstance(obj, cp.UnitaryProcess):
        obj = obj.process
    if isinstance(obj, cp.DeterministicProcess):
        obj = obj.to_classical()
    return obj.op.matrix if isinstance(obj, cp.ProcessOperator) else obj.table


# ---------------------------------------------------------------- cli-cold


def _report(proc) -> dict:
    try:
        rep = json.loads(proc.stdout) if proc.stdout.strip() else {}
    except json.JSONDecodeError:
        rep = {"unparsed_stdout": proc.stdout[-200:]}
    rec = {k: v for k, v in rep.items() if k not in VOLATILE}
    rec["exit"] = proc.returncode
    return rec


def _below(rec: dict, field: str, tol: float) -> dict:
    """Replace a seed-dependent residual by 'residual is below its tolerance'."""
    value = rec.pop(field, None)
    rec[f"{field}_below_{tol:g}"] = value is not None and value <= tol
    return rec


def _cli(key: str, args, seeded: Callable | None = None, golden: str | None = None) -> Op:
    def observe(ctx, proc):
        rec = _report(proc)
        return seeded(rec) if seeded else rec

    return Op(golden or f"cli:{key}", lambda ctx: ctx.cli(args), observe)


def _exemplar_op(name: str) -> Op:
    out = f"exemplar-{name}.json"

    def observe(ctx, proc):
        rec = _report(proc)
        back = cp.read_process_file(ctx.path(out)) if proc.returncode == 0 else None
        rec["readback_exact"] = back is not None and bool(
            np.array_equal(payload(back), payload(ctx.objects[name]))
        )
        return rec

    return Op(
        f"cli:exemplar:{name}",
        lambda ctx: ctx.cli(["exemplar", name, "--out", out]),
        observe,
        written=lambda ctx, proc: os.path.getsize(ctx.path(out)) if proc.returncode == 0 else 0,
    )


def _dressed(rec):
    rec.pop("weight_second_order", None)
    rec["iterations_within_max"] = rec.pop("iterations", None) <= rec["max_iter"]
    return _below(rec, "residual", 1e-6)


def cli_catalog() -> dict[str, Op]:
    """Every cli-cold operation, by pass-selection key."""
    ops: dict[str, Op] = {}
    for name in EXEMPLARS:
        f = f"{name}.json"
        ops[f"exemplar:{name}"] = _exemplar_op(name)
        ops[f"validate:{name}"] = _cli(f"validate:{name}", ["validate", f])
        ops[f"discover:{name}"] = _cli(f"discover:{name}", ["discover", f])
        ops[f"comb-search:{name}"] = _cli(f"comb-search:{name}", ["comb", f, "--search"])
    for order in ("A,B", "B,A"):
        ops[f"comb-order:{order}"] = _cli(f"comb-order:mix:{order}", ["comb", "mix.json", "--order", order])
    ops["separability:mix"] = _cli("separability:mix", ["separability", "mix.json"])
    for name in TABLES:
        for sub in ("validate", "quantize"):
            ops[f"classical-{sub}:{name}"] = _cli(f"classical-{sub}:{name}", ["classical", sub, f"{name}.json"])
    for i in range(inputs.DRESSED_PAIRS):
        ops[f"separability:dressed{i}"] = _cli(
            f"separability:dressed{i}", ["separability", f"dressed{i}.json"], _dressed, "cli:separability:dressed"
        )
    ops["polytope:counterexample"] = _cli("polytope:counterexample", ["classical", "polytope", "counterexample.json"])
    ops["polytope:mixture"] = _cli(
        "polytope:mixture", ["classical", "polytope", "mixture.json"], lambda r: _below(r, "residual", 1e-7)
    )
    ops["extend:af-classical"] = _cli("extend:af-classical", ["classical", "extend", "af-classical.json"])
    return ops


def cli_setup(ctx: Context, rng: np.random.Generator) -> None:
    for name in EXEMPLARS:
        obj, graph, meta = inputs.exemplar(name)
        ctx.objects[name] = obj
        cp.write_process_file(ctx.path(f"{name}.json"), obj, graph=graph, metadata=meta)
    for i in range(inputs.DRESSED_PAIRS):
        cp.write_process_file(ctx.path(f"dressed{i}.json"), inputs.dressed_pair(rng))
    cp.write_process_file(ctx.path("mixture.json"), inputs.hull_mixture(rng))


def cli_warmup(ctx: Context) -> None:
    if ctx.cli(["validate", "mix.json"]).returncode != 0:
        raise RuntimeError("warm-up CLI call failed")


def cli_pass(ctx: Context, rng: np.random.Generator) -> list[Op]:
    """Every bundled exemplar once, under the seven EXEMPLAR_COMMANDS dealt
    out in a seeded order; one seeded other command (comb order or separability
    on ``mix``, a classical-table command, or separability of a dressed pair);
    and two of the three classical-enumeration calls. Every pass has the same
    composition: of its 10 calls the nearest-rank p50 (5th) is a plain call
    and the p90 (9th) the faster enumerating call. All three enumerating calls
    per pass would make p90 the middle of three, at 11-13 s more per run."""
    cat = cli_catalog()

    def pick(options):
        return options[int(rng.integers(len(options)))]

    others = ["comb-order:A,B", "comb-order:B,A", "separability:mix"]
    others += [f"classical-{sub}:{name}" for sub in ("validate", "quantize") for name in TABLES]
    others += [f"separability:dressed{i}" for i in range(inputs.DRESSED_PAIRS)]
    keys = [f"{cmd}:{name}" for cmd, name in zip(rng.permutation(EXEMPLAR_COMMANDS), EXEMPLARS)]
    keys.append(pick(others))
    keys += [ENUMERATING[i] for i in rng.permutation(len(ENUMERATING))[:2]]
    return [cat[k] for k in keys]


# ---------------------------------------------------------------- dense-analysis


def _validate_obs(kind: str):
    def observe(ctx, v):
        rec = {
            "valid": v.valid,
            "psd_ok": v.psd_ok,
            "psd_method": v.psd_method,
            "trace": v.trace,
            "expected_trace": v.expected_trace,
            "trace_ok": v.trace_ok,
            "type_ok": v.type_ok,
        }
        if kind == "haar":
            # which sectors lead depends on the draw; that they are reported does not
            rec["offending_count"] = len(v.offending_types)
        else:
            rec.update(
                offending_types=list(v.offending_types),
                hermitian_residual=v.hermitian_residual,
                forbidden_norm=v.forbidden_norm,
                min_eigenvalue=v.min_eigenvalue,
            )
        return plain(rec)

    return observe


def _discover_obs(kind: str):
    def observe(ctx, result):
        graph, mf = result
        rec = {"edges": plain(sorted(graph.edges)), "cyclic": graph.is_cyclic, "accepted": mf.accepted}
        if kind == "perm-chain":
            # which links a seeded permutation keeps depends on the draw; that
            # every edge points down the chain P, A, B, C, F does not
            order = "PABCF"
            rec["edges_follow_chain"] = all(order.index(a) < order.index(b) for a, b in rec.pop("edges"))
        return plain(rec)

    return observe


def _comb_obs(ctx, found):
    return {"found": plain(found)}


def _chain_comb_obs(sigma):
    def observe(ctx, found):
        # which of the orders a seeded chain admits comes first depends on the
        # draw; that the order found passes comb_check does not
        return {"found_is_comb": found is not None and cp.comb_check(sigma, found).accepted}

    return observe


def _analysis_ops(kind: str, sigma) -> list[Op]:
    comb_obs = _chain_comb_obs(sigma) if kind == "perm-chain" else _comb_obs
    return [
        Op(f"dense:validate:{kind}", lambda ctx: cp.validate_process(sigma), _validate_obs(kind)),
        Op(f"dense:discover:{kind}", lambda ctx: cp.discover(sigma), _discover_obs(kind)),
        Op(f"dense:comb_search:{kind}", lambda ctx: cp.comb_search(sigma), comb_obs),
    ]


def dense_setup(ctx: Context, rng: np.random.Generator) -> None:
    ctx.objects["switch3"] = inputs.permuted_switches(rng, inputs.SWITCHES)
    ctx.objects["perm-chain"] = inputs.permutation_chain(rng).process
    ctx.objects["mixture"] = [inputs.rank_two_mixture(rng) for _ in range(inputs.MIXTURES)]
    ctx.objects["haar"] = [inputs.haar_process(rng) for _ in range(inputs.HAARS)]


def dense_warmup(ctx: Context) -> None:
    sigma = cp.make_switch(2).process
    cp.validate_process(sigma)
    cp.discover(sigma)
    cp.comb_search(sigma)


def dense_pass(ctx: Context, rng: np.random.Generator) -> list[Op]:
    ops = [
        Op("dense:validate:switch3", lambda ctx, s=sigma: cp.validate_process(s), _validate_obs("switch3"))
        for sigma in ctx.objects["switch3"]
    ]
    ops += _analysis_ops("perm-chain", ctx.objects["perm-chain"])
    for kind in ("mixture", "haar"):
        for sigma in ctx.objects[kind]:
            ops += _analysis_ops(kind, sigma)
    return ops


# ---------------------------------------------------------------- file-roundtrip


def _roundtrip_ops(kind: str, name: str, obj) -> list[Op]:
    path_of = lambda ctx: ctx.path(f"{name}.json")  # noqa: E731

    def observe_read(ctx, loaded):
        return plain(
            {
                "kind": loaded.kind,
                "nodes": [[n.name, n.d_in, n.d_out] for n in loaded.process.nodes],
                "readback_exact": bool(np.array_equal(payload(loaded), payload(obj))),
            }
        )

    return [
        Op(
            f"file:write:{kind}",
            lambda ctx: cp.write_process_file(path_of(ctx), obj),
            lambda ctx, _: {"written": os.path.getsize(path_of(ctx)) > 0},
            written=lambda ctx, _: os.path.getsize(path_of(ctx)),
        ),
        Op(f"file:read:{kind}", lambda ctx: cp.read_process_file(path_of(ctx)), observe_read),
    ]


def file_setup(ctx: Context, rng: np.random.Generator) -> None:
    ctx.objects["perm-chain"] = inputs.permutation_chain(rng, inputs.FILE_SLOTS, inputs.FILE_MEMORY)
    ctx.objects["dense-chain"] = [cp.random_unitary_chain(inputs.FILE_SLOTS, rng) for _ in range(inputs.FILE_CASES)]


def file_warmup(ctx: Context) -> None:
    sw = cp.make_switch(2)
    cp.write_process_file(ctx.path("warmup.json"), sw)
    if not np.array_equal(payload(cp.read_process_file(ctx.path("warmup.json"))), payload(sw)):
        raise RuntimeError("warm-up round trip is not exact")


def file_pass(ctx: Context, rng: np.random.Generator) -> list[Op]:
    ops = _roundtrip_ops("perm-chain", "perm-chain", ctx.objects["perm-chain"])
    for i, chain in enumerate(ctx.objects["dense-chain"]):
        ops += _roundtrip_ops("dense-chain", f"dense-chain{i}", chain)
    return ops


@dataclass(frozen=True)
class Workload:
    setup: Callable  # generate inputs from the seed
    warmup: Callable
    make_pass: Callable  # one pass of operations, same composition every time
    catalog: Callable  # every operation the passes can draw, for golden.py


WORKLOADS = {
    "cli-cold": Workload(cli_setup, cli_warmup, cli_pass, lambda ctx: list(cli_catalog().values())),
    "dense-analysis": Workload(dense_setup, dense_warmup, dense_pass, lambda ctx: dense_pass(ctx, None)),
    "file-roundtrip": Workload(file_setup, file_warmup, file_pass, lambda ctx: file_pass(ctx, None)),
}
