"""Reference processes: the coherent control-of-order process, its classical
and reduced variants, the cyclic three-party fixed-point process with its
reversible dilation, signalling/mixing examples, and direct-sum decomposition
verifiers for the routing unitaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .channels import channel_from_unitary, influence_residuals
from .classical import (
    ClassicalNode,
    ClassicalProcess,
    DeterministicProcess,
    quantize,
    reversible_extension,
)
from .graphs import DirectedGraph, UnitaryProcess, directed_graph, make_unitary_process
from .labeled import (
    LabeledOperator,
    LinearMap,
    SystemLabel,
    apply_stage,
    identity_operator,
    partial_trace,
    permute_map,
    tensor,
)
from .process import ProcessOperator, QuantumNode, process_operator
from .rand import haar_unitary

__all__ = _EXPORTS["exemplars"]


def _swap_matrix(d1: int, d2: int) -> np.ndarray:
    """Permutation sending |x, y> to |y, x>."""
    return np.eye(d1 * d2).reshape(d1, d2, -1).swapaxes(0, 1).reshape(d1 * d2, -1)


def _coherent_copy(dp: DeterministicProcess, names=None) -> UnitaryProcess:
    """Unitary process of a bijective deterministic process: U|x> = |f(x)>.

    ``names`` maps the classical node names to the quantum ones; its order is
    the node order (default: the process's own names and order). The unitarity
    check of ``make_unitary_process`` rejects a function that is not a bijection.
    """
    kp = dp.to_classical()
    names = names or {nm: nm for nm in kp.node_names}
    order = [kp.node_names.index(nm) for nm in names]
    nodes = [QuantumNode(names[nm], kp.node(nm).in_card, kp.node(nm).out_card) for nm in names]
    # the 0/1 table kappa(ins, outs) with in-axes first is U[ins, outs]
    u = kp.table.transpose([2 * i for i in order] + [2 * i + 1 for i in order])
    um = LinearMap(
        u.reshape(math.prod(n.d_in for n in nodes), -1).astype(complex),
        tuple(n.out_system for n in nodes if n.d_out > 1),
        tuple(n.in_system for n in nodes if n.d_in > 1),
    )
    return make_unitary_process(nodes, um)


def make_switch(d: int = 2) -> UnitaryProcess:
    """Coherent control of the order of two channels, as a unitary process.

    Nodes A and B act on a d-dimensional target. The root P emits a control
    qubit and the initial target (composite dimension 2d, control most
    significant); the leaf F absorbs the control and the final target.
    Control value 0 routes the target through A then B, value 1 through B
    then A: the coherent copy of ``make_classical_switch(d)``.
    """
    return _coherent_copy(make_classical_switch(d))


def make_reduced_switch(d: int = 2) -> ProcessOperator:
    """The control-of-order process with the leaf node traced out."""
    sigma = make_switch(d)
    nf = sigma.node("F")
    reduced = partial_trace(sigma.op, [nf.in_system.key, nf.out_dual.key])
    return process_operator(sigma.nodes[:3], reduced)


def make_af_deterministic() -> DeterministicProcess:
    """Three-bit cyclic function process: each input is a function of the
    other two outputs (in = NOT(next) AND previous, cyclically)."""
    nodes = (ClassicalNode("A", 2, 2), ClassicalNode("B", 2, 2), ClassicalNode("C", 2, 2))
    a, b, c = np.indices((2, 2, 2), dtype=np.int64)
    return DeterministicProcess(nodes, np.stack([(1 - b) & c, (1 - c) & a, (1 - a) & b], axis=-1))


def make_af() -> ProcessOperator:
    """Diagonal process operator of the three-bit cyclic function process."""
    return quantize(make_af_deterministic().to_classical())


def make_bw_extension() -> UnitaryProcess:
    """Reversible dilation of the three-bit cyclic process.

    The root P emits three ancilla bits (one per node, A-major); the leaf F
    absorbs a copy of all three node outputs. The permutation XORs each
    ancilla with the corresponding function value:
    (a, b, c, (l, m, n)) -> (l + (!b & c), m + (!c & a), n + (!a & b), (a, b, c)),
    the coherent copy of the reversible extension of ``make_af_deterministic``.
    """
    ext = reversible_extension([(1.0, make_af_deterministic())]).extension
    return _coherent_copy(ext, {"A": "A", "B": "B", "C": "C", "root": "P", "leaf": "F"})


def make_classical_switch(d: int = 2) -> DeterministicProcess:
    """Classical control of order: a control bit routes the target through
    A then B or B then A, and the leaf records the control and final target."""
    if d < 2:
        raise ValueError("target cardinality must be at least 2")
    nodes = (
        ClassicalNode("A", d, d),
        ClassicalNode("B", d, d),
        ClassicalNode("P", 1, 2 * d),
        ClassicalNode("F", 2 * d, 1),
    )
    a, b, q, s = np.indices((d, d, 2, d), dtype=np.int64)
    first = q == 0
    func = np.stack(
        [np.where(first, s, b), np.where(first, a, s), np.zeros_like(a), np.where(first, b, d + a)],
        axis=-1,
    )
    return DeterministicProcess(nodes, func.reshape(d, d, 2 * d, 1, 4))


@dataclass(frozen=True)
class MethodsCounterexample:
    """Two mutually conditioned classical channels that admit no joint process.

    ``p_a`` holds P(A.in | B.out, C.out), axes (a_in, b_out, c_out);
    ``p_b`` holds P(B.in | A.out, C.out), axes (b_in, a_out, c_out).
    """

    p_a: np.ndarray
    p_b: np.ndarray

    def combined(self, p_c) -> ClassicalProcess:
        """Product table over three bit-nodes with the given C.in distribution."""
        p_c = np.asarray(p_c, dtype=float)
        if p_c.shape != (2,):
            raise ValueError("need a distribution over two C.in values")
        nodes = (ClassicalNode("A", 2, 2), ClassicalNode("B", 2, 2), ClassicalNode("C", 2, 2))
        # axes (a_in, a_out, b_in, b_out, c_in, c_out)
        table = np.einsum("adf,cbf,e->abcdef", self.p_a, self.p_b, p_c)
        return ClassicalProcess(nodes, table)


def make_methods_counterexample() -> MethodsCounterexample:
    """The fixed two-channel counterexample tables."""
    p_a = np.zeros((2, 2, 2))
    p_a[0] = [[0.4, 0.3], [0.8, 0.3]]
    p_a[1] = 1.0 - p_a[0]
    p_b = np.zeros((2, 2, 2))
    p_b[0] = [[0.5, 0.3], [0.25, 0.1]]
    p_b[1] = 1.0 - p_b[0]
    return MethodsCounterexample(p_a, p_b)


def make_mix_example() -> ProcessOperator:
    """Two-node qubit process with maximally mixed inputs at A and B and no
    signalling in either direction."""
    na = QuantumNode("A", 2, 2)
    nb = QuantumNode("B", 2, 2)
    op = tensor(
        LabeledOperator((na.in_system,), np.eye(2, dtype=complex) / 2),
        identity_operator([na.out_dual]),
        LabeledOperator((nb.in_system,), np.eye(2, dtype=complex) / 2),
        identity_operator([nb.out_dual]),
    )
    return process_operator((na, nb), op)


@dataclass(frozen=True)
class SwitchParts:
    """Direct-sum routing decomposition for a two-slot control-of-order unitary.

    The control block i splits P.out into L x R factors of dimensions
    ``block_dims[i]``; ``v[i]`` maps A.out (x) L_i to B.in (x) FL_i and
    ``w[i]`` maps R_i (x) B.out to FR_i (x) A.in, with F.in split per block
    into ``f_block_dims[i]``. ``s`` and ``t`` are the boundary basis changes
    on P.out and F.in.
    """

    d: int
    block_dims: tuple
    f_block_dims: tuple
    s: np.ndarray
    t: np.ndarray
    v: tuple
    w: tuple


def switch_decomposition(d: int = 2) -> SwitchParts:
    """Concrete routing parts: identity boundaries, identity-or-swap blocks."""
    if d < 2:
        raise ValueError("target dimension must be at least 2")
    return SwitchParts(
        d=d,
        block_dims=((1, d), (d, 1)),
        f_block_dims=((1, d), (d, 1)),
        s=np.eye(2 * d),
        t=np.eye(2 * d),
        v=(np.eye(d), _swap_matrix(d, d)),
        w=(_swap_matrix(d, d), np.eye(d)),
    )


@dataclass(frozen=True)
class BWParts:
    """Direct-sum decomposition of the three-bit dilation unitary.

    All direct-sum indices are binary and every indexed interior space is
    one-dimensional. ``p[i][j]``, ``q[i][k]``, ``r[j][k]`` are the per-block
    single-qubit maps ancilla -> node input; ``s``/``t``/``v`` split the three
    node outputs into their index values and ``w`` collects the index triple
    into F.in (lexicographic i, j, k).
    """

    s: np.ndarray
    t: np.ndarray
    v: np.ndarray
    w: np.ndarray
    p: tuple
    q: tuple
    r: tuple


def bw_decomposition() -> BWParts:
    """Concrete parts: identity boundaries, identity-or-NOT blocks."""
    eye = np.eye(2)
    not_ = np.array([[0.0, 1.0], [1.0, 0.0]])
    p = tuple(tuple(not_ if ((1 - i) & j) else eye for j in range(2)) for i in range(2))
    q = tuple(tuple(not_ if ((1 - k) & i) else eye for k in range(2)) for i in range(2))
    r = tuple(tuple(not_ if ((1 - j) & k) else eye for k in range(2)) for j in range(2))
    return BWParts(s=np.eye(2), t=np.eye(2), v=np.eye(2), w=np.eye(8), p=p, q=q, r=r)


@dataclass(frozen=True)
class DecompositionReport:
    """Result of ``decomposition_report``: the largest entry of the
    reconstructed unitary's difference from u, each block's signalling
    residuals, whether every block meets its one-way or diagonal condition,
    and whether both pass."""

    passed: bool
    reconstruction_residual: float
    block_signalling: dict
    blocks_one_way: bool
    tol: float


def _systems_in_order(labels, wanted_names) -> list:
    """``labels`` with the systems named in ``wanted_names`` first, in that
    order; any other system must be trivial (dimension one) and goes last."""
    names = [s.name for s in labels]
    for nm in wanted_names:
        if nm not in names:
            raise ValueError(f"expected a system named {nm!r}, found {names}")
    rest = [s for s in labels if s.name not in wanted_names]
    for s in rest:
        if s.dim != 1:
            raise ValueError(f"unexpected nontrivial system {s!r}")
    return [labels[names.index(nm)] for nm in wanted_names] + rest


def _aligned_matrix(u: LinearMap, codomain_names, domain_names) -> np.ndarray:
    """Matrix of u with its systems listed as the decomposition expects them."""
    cod = _systems_in_order(u.codomain, codomain_names)
    dom = _systems_in_order(u.domain, domain_names)
    return permute_map(u, dom, cod).matrix


def _switch_report(u: LinearMap, parts: SwitchParts, tol: float) -> DecompositionReport:
    d = parts.d
    dp = sum(l * r for l, r in parts.block_dims)
    df = sum(l * r for l, r in parts.f_block_dims)
    if parts.s.shape != (dp, dp) or parts.t.shape != (df, df):
        raise ValueError("boundary matrices do not match the block dimensions")

    # middle stage on (A.out, sum-block, B.out) -> (B.in, f-sum-block, A.in);
    # block i is v_i (x) w_i on (A.out, L_i, R_i, B.out) -> (B.in, FL_i, FR_i, A.in)
    mid = np.zeros((d, df, d, d, dp, d), dtype=complex)
    off_in = 0
    off_out = 0
    for i, ((ld, rd), (fld, frd)) in enumerate(zip(parts.block_dims, parts.f_block_dims)):
        if parts.v[i].shape != (d * fld, d * ld):
            raise ValueError(f"block {i}: v has shape {parts.v[i].shape}, expected {(d * fld, d * ld)}")
        if parts.w[i].shape != (frd * d, rd * d):
            raise ValueError(f"block {i}: w has shape {parts.w[i].shape}, expected {(frd * d, rd * d)}")
        block = np.einsum(
            "yfal,gxrb->yfgxalrb", parts.v[i].reshape(d, fld, d, ld), parts.w[i].reshape(frd, d, rd, d)
        )
        mid[:, off_out:off_out + fld * frd, :, :, off_in:off_in + ld * rd, :] = block.reshape(
            d, fld * frd, d, d, ld * rd, d
        )
        off_in += ld * rd
        off_out += fld * frd

    stage1 = np.kron(np.kron(np.eye(d), parts.s), np.eye(d))
    stage3 = np.kron(np.kron(np.eye(d), parts.t), np.eye(d))
    u_rec = stage3 @ mid.reshape(d * df * d, d * dp * d) @ stage1
    u_target = _aligned_matrix(u, ["B.in", "F.in", "A.in"], ["A.out", "P.out", "B.out"])
    resid = float(np.abs(u_rec - u_target).max())

    block_sig = {}
    one_way = True
    aout = SystemLabel("A.out", d)
    bout = SystemLabel("B.out", d)
    ain = SystemLabel("A.in", d)
    bin_ = SystemLabel("B.in", d)
    for i, ((ld, rd), (fld, frd)) in enumerate(zip(parts.block_dims, parts.f_block_dims)):
        pl = SystemLabel("P.L", ld)
        pr = SystemLabel("P.R", rd)
        fl = SystemLabel("F.L", fld)
        fr = SystemLabel("F.R", frd)
        ch_v = channel_from_unitary(LinearMap(parts.v[i].astype(complex), (aout, pl), (bin_, fl)))
        ch_w = channel_from_unitary(LinearMap(parts.w[i].astype(complex), (pr, bout), (fr, ain)))
        r_ab = influence_residuals(ch_v)[("A.out", "B.in")]
        r_ba = influence_residuals(ch_w)[("B.out", "A.in")]
        block_sig[i] = {"A->B": r_ab, "B->A": r_ba}
        if r_ab > tol and r_ba > tol:
            one_way = False

    passed = resid <= max(tol, 1e-12) and one_way
    return DecompositionReport(bool(passed), resid, block_sig, bool(one_way), tol)


def _bw_report(u: LinearMap, parts: BWParts, tol: float) -> DecompositionReport:
    for mat, nm in [(parts.s, "s"), (parts.t, "t"), (parts.v, "v")]:
        if mat.shape != (2, 2):
            raise ValueError(f"boundary {nm} must be 2x2")
    if parts.w.shape != (8, 8):
        raise ValueError("w must be 8x8")

    # middle stage on (lC, i, lB, j, k, lA) -> (C.in, B.in, A.in, sum-ijk):
    # block (i, j, k) is p[i][j] (x) q[i][k] (x) r[j][k] on (lC, lB, lA)
    mid = np.zeros((2,) * 12, dtype=complex)
    for i, j, k in np.ndindex(2, 2, 2):
        mid[:, :, :, i, j, k, :, i, :, j, k, :] = np.einsum(
            "zn,ym,xl->zyxnml", parts.p[i][j], parts.q[i][k], parts.r[j][k]
        )
    stage1 = np.kron(np.kron(np.kron(np.eye(2), parts.s), np.kron(np.eye(2), parts.t)),
                     np.kron(parts.v, np.eye(2)))
    stage3 = np.kron(np.eye(8), parts.w)
    u_rec = stage3 @ mid.reshape(64, 64) @ stage1

    arr = _aligned_matrix(u, ["C.in", "B.in", "A.in", "F.in"], ["A.out", "B.out", "C.out", "P.out"])
    # split P.out (A-major l, m, n) and bring the domain to (n, a, m, b, c, l)
    arr = arr.reshape(2, 2, 2, 8, 2, 2, 2, 2, 2, 2)
    u_target = np.transpose(arr, (0, 1, 2, 3, 9, 4, 8, 5, 6, 7)).reshape(64, 64)
    resid = float(np.abs(u_rec - u_target).max())

    block_sig = {}
    lam = tuple(SystemLabel(f"anc.{nm}", 2) for nm in "CBA")
    ins = tuple(SystemLabel(f"{nm}.in", 2) for nm in "CBA")
    for i, j, k in np.ndindex(2, 2, 2):
        block = np.kron(np.kron(parts.p[i][j], parts.q[i][k]), parts.r[j][k])
        ch = channel_from_unitary(LinearMap(block.astype(complex), lam, ins))
        block_sig[(i, j, k)] = {
            f"{src}->{dst}": r
            for (src, dst), r in sorted(influence_residuals(ch).items())
            if src != f"anc.{dst.removesuffix('.in')}"
        }
    one_way = not any(r > tol for cross in block_sig.values() for r in cross.values())
    passed = resid <= max(tol, 1e-12) and one_way
    return DecompositionReport(bool(passed), resid, block_sig, bool(one_way), tol)


def decomposition_report(u: LinearMap, parts, tol: float = 1e-9) -> DecompositionReport:
    """Reconstruct the direct-sum sandwich from the parts and compare to u.

    Also evaluates the per-block signalling structure: for the two-slot shape,
    each block may signal A to B or B to A but not both; for the three-bit
    shape every block must be influence-diagonal (ancilla i to node i only).
    """
    if isinstance(parts, SwitchParts):
        return _switch_report(u, parts, tol)
    if isinstance(parts, BWParts):
        return _bw_report(u, parts, tol)
    raise TypeError(f"unsupported parts type {type(parts).__name__}")


def verify_decomposition(u: LinearMap, parts, tol: float = 1e-9) -> bool:
    """True iff the parts reconstruct u and satisfy the block conditions."""
    return decomposition_report(u, parts, tol).passed


def random_unitary_chain(n_slots: int, rng: np.random.Generator) -> UnitaryProcess:
    """Random qubit-wire chain comb as a unitary process.

    A root node emits the first wire plus a memory qubit; Haar-random
    two-qubit stages thread the memory through the slots in a fixed order;
    the leaf absorbs the last wire and the memory.
    """
    if n_slots < 1:
        raise ValueError("need at least one slot")
    slot_names = [chr(ord("A") + i) for i in range(n_slots)]
    nodes = [QuantumNode(nm, 2, 2) for nm in slot_names]
    np_ = QuantumNode("P", 1, 4)
    nf = QuantumNode("F", 4, 1)

    mem = SystemLabel("mem", 2)
    u = LinearMap(
        haar_unitary(4, rng),
        (np_.out_system,),
        (nodes[0].in_system, mem),
    )
    for i in range(n_slots):
        if i + 1 < n_slots:
            cod = (nodes[i + 1].in_system, mem)
        else:
            cod = (nf.in_system,)
        stage = LinearMap(haar_unitary(4, rng), (nodes[i].out_system, mem), cod)
        u = apply_stage(u, stage)
    return make_unitary_process(nodes + [np_, nf], u)


def switch_causal_graph() -> DirectedGraph:
    """Influence graph of the control-of-order process: 7 edges."""
    return directed_graph(
        ["A", "B", "P", "F"],
        [("P", "A"), ("P", "B"), ("P", "F"), ("A", "B"), ("B", "A"), ("A", "F"), ("B", "F")],
    )


def reduced_switch_causal_graph() -> DirectedGraph:
    """Influence graph of the leaf-traced control-of-order process."""
    return directed_graph(["A", "B", "P"], [("P", "A"), ("P", "B"), ("A", "B"), ("B", "A")])


def af_causal_graph() -> DirectedGraph:
    """Complete directed graph on the three-bit cyclic process nodes."""
    return directed_graph(
        ["A", "B", "C"],
        [("A", "B"), ("B", "A"), ("B", "C"), ("C", "B"), ("C", "A"), ("A", "C")],
    )
