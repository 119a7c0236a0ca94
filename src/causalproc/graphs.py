"""Causal structure of processes: influence graphs, Markov factorizations,
compatibility of a process with a directed graph via unitary extensions.

The causal structure of a unitary process is read off from which inputs of
the unitary can influence which outputs. A directed graph (cycles allowed)
is confirmed for a process either intrinsically, by factoring the process
into commuting channel factors indexed by the graph's parent sets, or
extrinsically, by exhibiting a unitary extension whose influence pattern
matches the graph. The factorization's residuals are read by ``labeled``'s
kernels (``_commutator_residuals``, ``_product_distance``), so this module
does no kernel arithmetic.
"""

from __future__ import annotations

import heapq
from collections import Counter, deque
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .channels import ChannelOperator, influence_residuals, input_signals
from .labeled import (
    LinearMap,
    SystemLabel,
    _commutator_residuals,
    _product_distance,
    cj_operator,
    distance,
    dual,
    is_unitary,
    partial_trace,
    permute_map,
    product,
    split_system,
)
from .process import ProcessOperator, canonical_systems, is_isometric, measure_prepare_element, process_operator, validate_process

__all__ = _EXPORTS["graphs"]


@dataclass(frozen=True)
class DirectedGraph:
    """Immutable directed graph over named vertices; cycles are permitted."""

    vertices: tuple[str, ...]
    edges: frozenset

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", frozenset(tuple(e) for e in self.edges))
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise ValueError("duplicate vertices")
        for a, b in self.edges:
            if a not in vs or b not in vs:
                raise ValueError(f"edge ({a!r}, {b!r}) leaves the vertex set")

    def _successors(self) -> dict:
        return {v: self.children(v) for v in sorted(self.vertices)}

    def _kahn_order(self) -> list:
        """Kahn's algorithm with a min-heap: the lexicographic topological order, cut short by a cycle."""
        succ, indegree = self._successors(), Counter(b for _, b in self.edges)
        heap, order = [v for v in succ if not indegree[v]], []
        while heap:
            order.append(heapq.heappop(heap))
            for w in succ[order[-1]]:
                indegree[w] -= 1
                if not indegree[w]:
                    heapq.heappush(heap, w)
        return order

    def parents(self, v: str) -> tuple[str, ...]:
        return tuple(sorted(a for a, b in self.edges if b == v))

    def children(self, v: str) -> tuple[str, ...]:
        return tuple(sorted(b for a, b in self.edges if a == v))

    def has_edge(self, a: str, b: str) -> bool:
        return (a, b) in self.edges

    @property
    def is_cyclic(self) -> bool:
        return len(self._kahn_order()) < len(self.vertices)

    def cycle(self) -> tuple[str, ...] | None:
        """Some cycle as a vertex tuple, smallest-then-lexicographic; None if acyclic."""
        # BFS from s over vertices above s, successors sorted: first arrival is the least shortest path.
        succ, best = self._successors(), None
        for s in succ:
            paths, queue = {s: (s,)}, deque([s])
            while queue and (best is None or len(paths[queue[0]]) < len(best)):
                u = queue.popleft()
                if s in succ[u]:
                    best = paths[u]
                    break
                for w in succ[u]:
                    if w > s and w not in paths:
                        paths[w] = paths[u] + (w,)
                        queue.append(w)
        return best

    def topological_order(self) -> tuple[str, ...]:
        """Deterministic (lexicographic tie-break) topological order; ValueError if cyclic."""
        if len(order := self._kahn_order()) < len(self.vertices):
            raise ValueError(f"graph has no topological order: it has the cycle {self.cycle()}")
        return tuple(order)

    def to_dot(self) -> str:
        """The graph in DOT, vertices and edges sorted; each name is a quoted
        DOT string, with its backslashes and double quotes escaped."""
        name = {v: '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"' for v in self.vertices}
        lines = ["digraph causal {"]
        for v in sorted(self.vertices):
            lines.append(f"  {name[v]};")
        for a, b in sorted(self.edges):
            lines.append(f"  {name[a]} -> {name[b]};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def directed_graph(vertices, edges) -> DirectedGraph:
    """A DirectedGraph that refuses a self-loop."""
    g = DirectedGraph(vertices, edges)
    for a, b in g.edges:
        if a == b:
            raise ValueError(f"self-loop at {a!r}")
    return g


def complete_graph(vertices) -> DirectedGraph:
    vs = tuple(vertices)
    return DirectedGraph(vs, frozenset((a, b) for a in vs for b in vs if a != b))


@dataclass(frozen=True)
class UnitaryProcess(ProcessOperator):
    """A process operator that is the CJ operator of ``unitary``.

    The unitary maps the tensor of all node out-spaces to the tensor of all
    node in-spaces.
    """

    unitary: LinearMap

    @property
    def process(self) -> UnitaryProcess:
        """The process itself, for code that reads ``up.process``."""
        return self


def make_unitary_process(nodes, u: LinearMap, tol: float = 1e-9) -> UnitaryProcess:
    """Build the process operator of a unitary from out-spaces to in-spaces.

    The result is not auto-certified: not every unitary of the right shape is
    a valid process (e.g. wiring a node's output straight back into its own
    input fails the support condition).
    """
    nodes = tuple(nodes)
    dom_pad = list(u.domain)
    cod_pad = list(u.codomain)
    dom_keys = {s.key for s in u.domain}
    cod_keys = {s.key for s in u.codomain}
    for n in nodes:
        if n.out_system.key not in dom_keys and n.d_out == 1:
            dom_pad.append(n.out_system)
        if n.in_system.key not in cod_keys and n.d_in == 1:
            cod_pad.append(n.in_system)
    u = LinearMap(u.matrix, tuple(dom_pad), tuple(cod_pad))
    dom = sorted(s.key for s in u.domain)
    cod = sorted(s.key for s in u.codomain)
    if dom != sorted((f"{n.name}.out", False) for n in nodes):
        raise ValueError(f"unitary domain {dom} does not cover the node out-spaces")
    if cod != sorted((f"{n.name}.in", False) for n in nodes):
        raise ValueError(f"unitary codomain {cod} does not cover the node in-spaces")
    if not is_unitary(u, tol):
        raise ValueError("map is not unitary within tolerance")
    # the CJ vector, as a one-column map, put in canonical order before vv† is formed
    systems = u.codomain + tuple(dual(s) for s in u.domain)
    v = permute_map(LinearMap(u.matrix.reshape(-1, 1), (), systems), codomain=[s.key for s in canonical_systems(nodes)])
    sigma = process_operator(nodes, cj_operator(v))
    return UnitaryProcess(sigma.nodes, sigma.op, u)


def causal_structure_unitary(sigma: ProcessOperator, tol: float = 1e-9) -> DirectedGraph:
    """Influence graph of the process read as a channel: edge j -> i (j != i)
    unless the residual of A_j.out on A_i.in is within tol (NaN is not). It is
    the causal structure only of a process that passes ``is_isometric``: a
    mixture of unitary processes can signal along edges that none of them has."""
    node_of = {s.name: n.name for n in sigma.nodes for s in (n.in_system, n.out_system)}
    edges = {
        (node_of[j], node_of[i])
        for (j, i), r in influence_residuals(sigma.channel).items()
        if not r <= tol and node_of[j] != node_of[i]
    }
    return DirectedGraph(tuple(sigma.node_names), frozenset(edges))


def marginal_factor(sigma: ProcessOperator, node_name: str, parents) -> ChannelOperator:
    """Candidate channel factor for one node given a parent set.

    Traces every in-space except the node's own and every out-dual outside
    the parent set, rescaled so the result is trace-preserving whenever the
    parents screen the node off (the defining property the Markov check then
    verifies).
    """
    node = sigma.node(node_name)
    parents = set(parents)
    for p in parents:
        sigma.node(p)
    traced = []
    scale = 1.0
    for n in sigma.nodes:
        if n.name != node_name:
            traced.append(n.in_system.key)
        if n.name not in parents:
            traced.append(n.out_dual.key)
            scale /= n.d_out
    marg = partial_trace(sigma.op, traced) * scale
    outs = (node.in_system,)
    ins = tuple(sigma.node(p).out_system for p in sorted(parents))
    return ChannelOperator(marg, outs, ins)


@dataclass(frozen=True)
class MarkovFactorization:
    """Result of ``markov_check``: each node's channel factor, its
    ``cptp_residuals``, the commutator residual of each pair of factors, the
    distance of their ordered product from σ, and whether all are within tol."""

    graph: DirectedGraph
    factors: dict
    channel_residuals: dict
    commutator_residuals: dict
    product_residual: float
    accepted: bool
    tol: float

    @property
    def factor_traces(self) -> dict:
        """Each factor's trace, by node name in sorted order (on a sparse factor's stored entries)."""
        return {name: float(partial_trace(ch.op, ch.op.systems).matrix[0, 0].real) for name, ch in sorted(self.factors.items())}


def markov_check(sigma: ProcessOperator, graph: DirectedGraph, tol: float = 1e-9) -> MarkovFactorization:
    """Does sigma factor into commuting channels, one per node, along the graph?

    Each node's factor conditions on its graph parents. Accepted iff every
    factor is a channel (PSD, trace-preserving), all factors commute, and the
    ordered product reproduces sigma, each residual within tol (NaN is not).
    The commutator residuals come from ``labeled._commutator_residuals`` and
    the product residual from ``labeled._product_distance``, on stored entries
    where the factors are routed on them.
    """
    if set(graph.vertices) != set(sigma.node_names):
        raise ValueError("graph vertices must match the process nodes")
    factors = {n.name: marginal_factor(sigma, n.name, graph.parents(n.name)) for n in sigma.nodes}

    chres = {name: ch.cptp_residuals() for name, ch in factors.items()}
    comm = _commutator_residuals({name: factor.op for name, factor in factors.items()})
    pres = _product_distance([factor.op for factor in factors.values()], sigma.op)
    ok = all(r["hermitian"] <= tol and r["min_eigenvalue"] >= -tol and r["trace_preserving"] <= tol for r in chres.values())
    ok = ok and all(r <= tol for r in comm.values()) and pres <= tol
    return MarkovFactorization(graph, factors, chres, comm, pres, bool(ok), tol)


@dataclass(frozen=True)
class FaithfulnessReport:
    """Result of ``faithfulness_check``: whether each edge's parent signals
    to its child's factor, and whether every edge does."""

    edge_signalling: dict
    faithful: bool
    tol: float


def faithfulness_check(mf: MarkovFactorization) -> FaithfulnessReport:
    """Is every edge of an accepted factorization load-bearing, at ``mf.tol``?

    An edge p -> c is confirmed when the factor at c actually depends on
    p's out-space; a faithful graph has no removable edges.
    """
    report = {(a, b): bool(input_signals(mf.factors[b], f"{a}.out", mf.tol)) for a, b in sorted(mf.graph.edges)}
    return FaithfulnessReport(report, all(report.values()), mf.tol)


@dataclass(frozen=True)
class CompatibilityVerdict:
    """Result of ``compatibility_check``: whether the extension is a valid
    process, the distance of its marginal from σ, and the influence residual
    of every pair the graph forbids; compatible iff all three pass at tol."""

    compatible: bool
    extension_valid: bool
    marginal_residual: float
    influence_residuals: dict
    tol: float


def compatibility_check(
    sigma: ProcessOperator,
    graph: DirectedGraph,
    extension: ProcessOperator,
    lambda_states,
    tol: float = 1e-9,
) -> CompatibilityVerdict:
    """Confirm a causal structure for sigma via a unitary extension: any
    process that is the CJ operator of a unitary, one read from a file too.
    One that fails ``is_isometric`` (a mixture can hide correlated memory) raises ValueError.

    The extension must add exactly one root node (trivial in-space, out-space
    split into one memory system per node of sigma) and one leaf node
    (trivial out-space). Compatibility requires: the extension is itself a
    valid process; preparing the product of ``lambda_states`` at the root and
    discarding the leaf reproduces sigma; and the extension's unitary shows
    no influence from A_j.out to A_i.in unless the graph has edge j -> i,
    none from A_i.out back to A_i.in, and none from the j-th memory system
    to A_i.in for j != i.
    """
    sig_names = list(sigma.node_names)
    extras = [n for n in extension.nodes if n.name not in set(sig_names)]
    if len(extras) != 2:
        raise ValueError("extension must add exactly a root and a leaf node")
    roots = [n for n in extras if n.d_in == 1 and n.d_out > 1]
    leaves = [n for n in extras if n.d_out == 1]
    if len(roots) != 1 or len(leaves) != 1 or roots[0].name == leaves[0].name:
        raise ValueError("could not identify root and leaf among the extra nodes")
    root, leaf = roots[0], leaves[0]
    if not is_isometric(extension, tol):
        raise ValueError("extension is not the process of a unitary: it is not v v† for one vector v")
    for name in sig_names:
        a, b = sigma.node(name), extension.node(name)
        if (a.d_in, a.d_out) != (b.d_in, b.d_out):
            raise ValueError(f"node {name!r} has different dimensions in the extension")

    lams = [np.asarray(l, dtype=complex) for l in lambda_states]
    if len(lams) != len(sig_names):
        raise ValueError("need one memory state per node of sigma")
    dims = [l.shape[0] for l in lams]
    if int(np.prod(dims)) != root.d_out:
        raise ValueError("memory dimensions do not multiply to the root out-space")

    ext_valid = validate_process(extension, tol).valid

    # Marginal reproduction: prepare the memory product at the root, discard the leaf.
    prep = lams[0]
    for l in lams[1:]:
        prep = np.kron(prep, l)
    tau_root = measure_prepare_element(root, np.eye(1), prep)
    contracted = product([extension.op, tau_root])
    marg = partial_trace(
        contracted,
        [root.in_system.key, root.out_dual.key, leaf.in_system.key, leaf.out_dual.key],
    )
    marginal_residual = distance(marg, sigma.op)

    # Influence pattern of the unitary, with the root out-space split per node.
    lam_labels = [SystemLabel(f"{root.name}[{nm}]", d) for nm, d in zip(sig_names, dims)]
    ch = extension.channel
    chop = ch.op
    if root.d_out > 1:
        chop = split_system(chop, (f"{root.name}.out", True), [SystemLabel(l.name, l.dim, dual=True) for l in lam_labels])
    new_inputs = tuple(t for s in ch.inputs for t in (lam_labels if s.name == f"{root.name}.out" else [s]))
    ch2 = ChannelOperator(chop, ch.outputs, new_inputs)

    slot_in = {sigma.node(nm).in_system.name: nm for nm in sig_names}
    slot_out = {sigma.node(nm).out_system.name: nm for nm in sig_names}
    memory = {lam.name: nm for nm, lam in zip(sig_names, lam_labels)}
    influence = {
        f"{src} -/-> {dst}": r
        for (src, dst), r in influence_residuals(ch2).items()
        if dst in slot_in
        and (
            (src in slot_out and not graph.has_edge(slot_out[src], slot_in[dst]))
            or (src in memory and memory[src] != slot_in[dst])
        )
    }
    ok = all(r <= tol for r in influence.values())
    compatible = bool(ok and ext_valid and marginal_residual <= tol)
    return CompatibilityVerdict(compatible, bool(ext_valid), float(marginal_residual), influence, tol)


def discover(sigma: ProcessOperator, tol: float = 1e-9) -> tuple[DirectedGraph, MarkovFactorization]:
    """Read a candidate causal structure off the process and try to confirm it.

    Edge j -> i is proposed iff the marginal on A_i.in (with all other
    in-spaces traced) depends on A_j's out-dual factor: the influence graph
    of the process read as a channel, as for a unitary process. The returned
    factorization's ``accepted`` flag says whether the graph is confirmed
    intrinsically.
    """
    graph = causal_structure_unitary(sigma, tol)
    return graph, markov_check(sigma, graph, tol)
