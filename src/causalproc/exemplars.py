"""Reference processes: the coherent control-of-order process, its classical
and reduced variants, the cyclic three-party fixed-point process with its
reversible dilation, and signalling/mixing examples. The two cyclic unitaries
come with a ``BlockDecomposition`` each: a coherently controlled direct sum of
blocks, checked by reconstruction and by the acyclic influence graph of every
block.
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
    tensor_maps,
)
from .process import ProcessOperator, QuantumNode, process_operator
from .rand import haar_unitary

__all__ = _EXPORTS["exemplars"]


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
class BlockDecomposition:
    """A unitary u written as a coherently controlled direct sum of blocks.

    Once each system named in ``splits`` (pairs of a name and its digit
    labels) is split into its row-major digits and the trivial systems are
    dropped, u equals  Σ_c |c⟩⟨c| (control_out ← control_in) ⊗ blocks[c],  with
    c running row-major over the control digits. Every block acts on the same
    systems. The decomposition shows a causal order per block when each
    block's influence graph is acyclic, reading a system named ``X.suffix``
    as node X.
    """

    splits: tuple
    control_in: tuple
    control_out: tuple
    blocks: tuple


def _wire(src: SystemLabel, dst: SystemLabel, flip: bool = False) -> LinearMap:
    """An identity wire from ``src`` to ``dst``, or a NOT gate on a bit."""
    return LinearMap(np.array([[0.0, 1.0], [1.0, 0.0]]) if flip else np.eye(src.dim), (src,), (dst,))


def switch_decomposition(d: int = 2) -> BlockDecomposition:
    """P.out and F.in split into a control bit and a target; control 0 wires
    the target through A then B, control 1 through B then A."""
    if d < 2:
        raise ValueError("target dimension must be at least 2")
    ain, aout, bin_, bout = (SystemLabel(nm, d) for nm in ("A.in", "A.out", "B.in", "B.out"))
    pc, pt, fc, ft = SystemLabel("P.ctl", 2), SystemLabel("P.tgt", d), SystemLabel("F.ctl", 2), SystemLabel("F.tgt", d)
    return BlockDecomposition(
        splits=(("P.out", (pc, pt)), ("F.in", (fc, ft))),
        control_in=(pc,),
        control_out=(fc,),
        blocks=(
            tensor_maps(_wire(pt, ain), _wire(aout, bin_), _wire(bout, ft)),
            tensor_maps(_wire(pt, bin_), _wire(bout, ain), _wire(aout, ft)),
        ),
    )


def bw_decomposition() -> BlockDecomposition:
    """The node outputs (a, b, c) control, and are copied into F.in's three
    bits; P.out splits into one ancilla bit per node, which block (a, b, c)
    wires to that node's input through NOT where its function value is 1."""
    outs = tuple(SystemLabel(f"{nm}.out", 2) for nm in "ABC")
    ins = tuple(SystemLabel(f"{nm}.in", 2) for nm in "ABC")
    anc = tuple(SystemLabel(f"P.{nm}", 2) for nm in "ABC")
    copy = tuple(SystemLabel(f"F.{nm}", 2) for nm in "ABC")
    blocks = tuple(
        tensor_maps(*(_wire(x, y, bool(f)) for x, y, f in zip(anc, ins, ((1 - b) & c, (1 - c) & a, (1 - a) & b))))
        for a, b, c in np.ndindex(2, 2, 2)
    )
    return BlockDecomposition((("P.out", anc), ("F.in", copy)), outs, copy, blocks)


@dataclass(frozen=True)
class DecompositionReport:
    """Result of ``decomposition_report``: the largest entry of the
    reconstructed unitary's difference from u, each block's largest influence
    residual per node pair ("A->B"), whether every block's influence graph is
    acyclic, and whether both pass."""

    passed: bool
    reconstruction_residual: float
    block_signalling: dict
    blocks_one_way: bool
    tol: float


def _nontrivial(m: LinearMap) -> LinearMap:
    """The same map without its dimension-one systems."""
    return LinearMap(m.matrix, [s for s in m.domain if s.dim > 1], [s for s in m.codomain if s.dim > 1])


def _split(systems, splits: dict) -> tuple:
    """``systems`` with each one named in ``splits`` replaced by its digits."""
    out = ()
    for s in systems:
        digits = splits.get(s.name, (s,))
        if math.prod(t.dim for t in digits) != s.dim:
            raise ValueError(f"digits {digits} do not split {s!r}")
        out += tuple(digits)
    return out


def decomposition_report(u: LinearMap, parts: BlockDecomposition, tol: float = 1e-9) -> DecompositionReport:
    """Reconstruct the controlled sum from the parts and compare it to u, and
    read each block's influence graph from its channel's influence residuals.
    """
    blocks = [_nontrivial(b) for b in parts.blocks]
    k = len(blocks)
    if math.prod(s.dim for s in parts.control_in) != k or math.prod(s.dim for s in parts.control_out) != k:
        raise ValueError(f"{k} blocks for controls {parts.control_in} -> {parts.control_out}")
    first = blocks[0]
    for c, b in enumerate(blocks):
        if set(b.domain) != set(first.domain) or set(b.codomain) != set(first.codomain):
            raise ValueError(f"block {c} maps {b.domain} to {b.codomain}, block 0 {first.domain} to {first.codomain}")

    u = _nontrivial(u)
    splits = dict(parts.splits)
    dom, cod = _split(u.domain, splits), _split(u.codomain, splits)
    want_dom, want_cod = parts.control_in + first.domain, parts.control_out + first.codomain
    for have, want in ((dom, want_dom), (cod, want_cod)):
        if missing := [s.name for s in want if s not in have]:
            raise ValueError(f"expected a system named {missing[0]!r}, found {have}")
        if extra := [s for s in have if s not in want]:
            raise ValueError(f"unexpected nontrivial system {extra[0]!r}")
    target = permute_map(LinearMap(u.matrix, dom, cod), want_dom, want_cod).matrix

    m, n = first.matrix.shape
    rec = np.zeros((k, m, k, n), dtype=complex)
    block_sig = {}
    one_way = True
    for c, b in enumerate(blocks):
        rec[c, :, c, :] = permute_map(b, first.domain, first.codomain).matrix
        pairs = {}
        for (src, dst), r in influence_residuals(channel_from_unitary(b)).items():
            pairs.setdefault((src.rsplit(".", 1)[0], dst.rsplit(".", 1)[0]), []).append(r)
        worst = {pair: float(np.max(rs)) for pair, rs in sorted(pairs.items())}
        graph = DirectedGraph(tuple({v for pair in worst for v in pair}), frozenset(p for p, r in worst.items() if not r <= tol))
        block_sig[c] = {f"{src}->{dst}": r for (src, dst), r in worst.items()}
        one_way = one_way and not graph.is_cyclic
    resid = float(np.abs(rec.reshape(k * m, k * n) - target).max())
    passed = resid <= max(tol, 1e-12) and one_way
    return DecompositionReport(bool(passed), resid, block_sig, bool(one_way), tol)


def verify_decomposition(u: LinearMap, parts: BlockDecomposition, tol: float = 1e-9) -> bool:
    """True iff the parts reconstruct u and every block is causally ordered."""
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
