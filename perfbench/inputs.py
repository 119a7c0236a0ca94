"""Seeded inputs for the three workloads, with cheap property assertions.

Every generator takes a ``numpy.random.Generator`` built from the run's seed,
so one seed always yields the same inputs. The program under test only ever
sees the objects (or files) built here.
"""

from __future__ import annotations

import numpy as np

import causalproc as cp
from causalproc.labeled import apply_stage

CHAIN_SLOTS = 3  # three qubit slots plus root and leaf: a 1024-dim process
# dense-analysis pass: validate_process on SWITCHES seeded 2916-dim permuted
# switch(3) processes (sparse, Cholesky path), and validate, discover and
# comb_search on 1 + MIXTURES + HAARS 1024-dim cases (the sparse permutation
# chain, the rank-two mixtures, the Haar processes): 18 operations. Sorted by
# cost they group as the 5 comb searches, the 10 discovers and eigh
# validations and the 3 Cholesky validations, so the nearest-rank p50 (9th) is
# the 4th of the middle ten and the p90 (17th) the middle Cholesky validation,
# each inside a group of calls of like cost rather than at an edge where
# run-to-run noise would swap in a call of another cost.
SWITCHES = 3
MIXTURES = 2
HAARS = 2
# file-roundtrip pass: one sparse 576-dim permutation chain (FILE_SLOTS qubit
# slots, a FILE_MEMORY-dim memory) and FILE_CASES seeded dense 256-dim chains,
# each written then read. Per pass the dense reads cost about 0.15 s, the
# dense writes and the sparse read 0.3-0.6 s and the sparse write 1.5 s. Over
# ten passes (60 operations) the nearest-rank p50 (30th) is the 10th of the
# 30 middle calls and the p90 (54th) the 4th of the 10 sparse writes.
FILE_CASES = 2
FILE_SLOTS = 2
FILE_MEMORY = 3
DRESSED_PAIRS = 3
MIXTURE_VERTICES = 4


def _chain_nodes():
    slots = [cp.QuantumNode(chr(ord("A") + i), 2, 2) for i in range(CHAIN_SLOTS)]
    return slots, cp.QuantumNode("P", 1, 4), cp.QuantumNode("F", 4, 1)


def permutation_chain(rng: np.random.Generator, slots: int = CHAIN_SLOTS, mem_dim: int = 2) -> cp.UnitaryProcess:
    """Chain comb shaped like ``random_unitary_chain`` (qubit slots, a memory
    of ``mem_dim`` threaded through them) whose root and stages are seeded
    permutations: a sparse, rank-one, valid process of 4**slots * (2 *
    mem_dim)**2 dims, 1024 by default."""
    width = 2 * mem_dim
    nodes = [cp.QuantumNode(chr(ord("A") + i), 2, 2) for i in range(slots)]
    root, leaf = cp.QuantumNode("P", 1, width), cp.QuantumNode("F", width, 1)
    mem = cp.SystemLabel("mem", mem_dim)

    def perm():
        return np.eye(width, dtype=complex)[:, rng.permutation(width)]

    u = cp.LinearMap(perm(), (root.out_system,), (nodes[0].in_system, mem))
    for i, node in enumerate(nodes):
        cod = (nodes[i + 1].in_system, mem) if i + 1 < len(nodes) else (leaf.in_system,)
        u = cp.tensor_maps(u, cp.identity_map([node.out_system]))
        u = apply_stage(u, cp.LinearMap(perm(), (node.out_system, mem), cod))
    up = cp.make_unitary_process(nodes + [root, leaf], u)
    dim = 4**slots * width**2
    assert up.process.dim == dim and np.count_nonzero(up.process.op.matrix) == dim
    return up


def permuted_switches(rng: np.random.Generator, count: int) -> list[cp.ProcessOperator]:
    """``make_switch(3)`` with seeded permutations of the root's output and the
    leaf's input: sparse, real, rank-one, valid 2916-dim processes, above the
    2048 dims where ``validate_process`` takes the Cholesky path."""
    sw = cp.make_switch(3)
    u = sw.unitary
    p_out = next(s for s in u.domain if s.name == "P.out")
    f_in = next(s for s in u.codomain if s.name == "F.in")
    rest_dom = tuple(s for s in u.domain if s.name != "P.out")
    rest_cod = tuple(s for s in u.codomain if s.name != "F.in")

    def perm(label):
        return cp.LinearMap(np.eye(label.dim, dtype=complex)[:, rng.permutation(label.dim)], (label,), (label,))

    out = []
    for _ in range(count):
        dress_p = cp.tensor_maps(cp.identity_map(rest_dom), perm(p_out))
        dress_f = cp.tensor_maps(cp.identity_map(rest_cod), perm(f_in))
        sigma = cp.make_unitary_process(sw.process.nodes, cp.compose_maps(dress_f, cp.compose_maps(u, dress_p))).process
        assert sigma.dim == 2916 and np.count_nonzero(sigma.op.matrix) == 54 * 54
        out.append(sigma)
    return out


def rank_two_mixture(rng: np.random.Generator) -> cp.ProcessOperator:
    """w * chain1 + (1 - w) * chain2 for two Haar chain combs: dense, valid
    (a convex mixture of valid processes) and of rank two."""
    c1 = cp.random_unitary_chain(CHAIN_SLOTS, rng).process
    c2 = cp.random_unitary_chain(CHAIN_SLOTS, rng).process
    assert c1.op.systems == c2.op.systems
    # rank two <=> the two rank-one CJ vectors are linearly independent
    v1 = c1.op.matrix[:, np.argmax(np.abs(c1.op.matrix).max(axis=0))]
    v2 = c2.op.matrix[:, np.argmax(np.abs(c2.op.matrix).max(axis=0))]
    gram = np.array([[np.vdot(a, b) for b in (v1, v2)] for a in (v1, v2)])
    assert abs(np.linalg.det(gram)) > 1e-6 * np.linalg.norm(v1) ** 2 * np.linalg.norm(v2) ** 2
    w = float(rng.uniform(0.2, 0.8))
    op = cp.LabeledOperator(c1.op.systems, w * c1.op.matrix + (1.0 - w) * c2.op.matrix)
    sigma = cp.process_operator(c1.nodes, op)
    assert sigma.dim <= 1024
    return sigma


def haar_process(rng: np.random.Generator) -> cp.ProcessOperator:
    """Haar unitary from all node outputs to all node inputs over the chain's
    node set: rank one and generically invalid (it signals every node to
    itself). At 1024 dims validate_process still lists the offending types."""
    slots, root, leaf = _chain_nodes()
    nodes = slots + [root, leaf]
    dom = tuple(n.out_system for n in nodes if n.d_out > 1)
    cod = tuple(n.in_system for n in nodes if n.d_in > 1)
    d = int(np.prod([s.dim for s in dom]))
    up = cp.make_unitary_process(nodes, cp.LinearMap(cp.haar_unitary(d, rng), dom, cod))
    assert up.process.dim <= 1024
    return up.process


def dressed_pair(rng: np.random.Generator) -> cp.ProcessOperator:
    """Two-node process from the order-control unitary dressed by Haar local
    unitaries on the control preparation and the final wire, conditioned on a
    random control state, with the leaf discarded."""
    sw = cp.make_switch(2)
    u = sw.unitary
    p_out = next(s for s in u.domain if s.name == "P.out")
    f_in = next(s for s in u.codomain if s.name == "F.in")
    rest_dom = tuple(s for s in u.domain if s.name != "P.out")
    rest_cod = tuple(s for s in u.codomain if s.name != "F.in")
    dress_p = cp.tensor_maps(cp.identity_map(rest_dom), cp.LinearMap(cp.haar_unitary(4, rng), (p_out,), (p_out,)))
    dress_f = cp.tensor_maps(cp.identity_map(rest_cod), cp.LinearMap(cp.haar_unitary(4, rng), (f_in,), (f_in,)))
    up = cp.make_unitary_process(sw.process.nodes, cp.compose_maps(dress_f, cp.compose_maps(u, dress_p)))
    tau = cp.random_state(4, rng)
    element = cp.measure_prepare_element(up.process.node("P"), np.eye(1, dtype=complex), tau)
    cond = cp.conditional_process(up.process, "P", element)
    leaf = cond.node("F")
    marg = cp.partial_trace(cond.op, [leaf.in_system.key, leaf.out_dual.key])
    pair = cp.process_operator([cond.node("A"), cond.node("B")], marg)
    assert len(pair.nodes) == 2
    return pair


def _random_ordered_function(rng: np.random.Generator, nodes) -> cp.DeterministicProcess:
    """Deterministic process in which each node's input is a seeded function of
    the outputs of the nodes before it in a seeded causal order."""
    order = rng.permutation(len(nodes))
    func = np.zeros((2, 2, 2, 3), dtype=np.int64)
    tables = [rng.integers(0, 2, size=(2,) * pos) for pos in range(len(nodes))]
    for outs in np.ndindex(2, 2, 2):
        for pos, node in enumerate(order):
            earlier = tuple(outs[j] for j in order[:pos])
            func[outs + (node,)] = tables[pos][earlier]
    return cp.DeterministicProcess(nodes, func)


def hull_mixture(rng: np.random.Generator) -> cp.ClassicalProcess:
    """Dirichlet-weighted mixture of three-bit deterministic processes (the
    cyclic one plus seeded causally ordered ones), so it lies inside the
    deterministic hull by construction, without enumerating the hull."""
    af = cp.make_af_deterministic()
    vertices = [af] + [_random_ordered_function(rng, af.nodes) for _ in range(MIXTURE_VERTICES - 1)]
    for dp in vertices:
        ok, _ = cp.validate_deterministic(dp)
        assert ok
    weights = rng.dirichlet(np.ones(len(vertices)))
    assert np.all(weights > 0) and abs(weights.sum() - 1.0) < 1e-12
    table = sum(w * dp.to_classical().table for w, dp in zip(weights, vertices))
    return cp.ClassicalProcess(af.nodes, table)


def exemplar(name: str):
    """Bundled exemplar by CLI name, as (object, graph, metadata) for writing."""
    if name == "switch":
        return cp.make_switch(2), cp.switch_causal_graph(), {}
    if name == "reduced-switch":
        return cp.make_reduced_switch(2), cp.reduced_switch_causal_graph(), {}
    if name == "af":
        return cp.make_af(), cp.af_causal_graph(), {}
    if name == "af-classical":
        dp = cp.make_af_deterministic()
        return dp, cp.causal_structure_deterministic(dp), {}
    if name == "classical-switch":
        dp = cp.make_classical_switch(2)
        return dp, cp.causal_structure_deterministic(dp), {}
    if name == "counterexample":
        return cp.make_methods_counterexample().combined([0.5, 0.5]), None, {}
    if name == "mix":
        return cp.make_mix_example(), None, {}
    raise KeyError(name)
