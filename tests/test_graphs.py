from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import norm as sparse_norm

from causalproc import (
    LabeledOperator,
    DirectedGraph,
    LinearMap,
    ProcessOperator,
    QuantumNode,
    SystemLabel,
    af_causal_graph,
    cj_operator,
    compatibility_check,
    complete_graph,
    compose_maps,
    causal_structure_unitary,
    directed_graph,
    discover,
    distance,
    embed,
    faithfulness_check,
    identity_map,
    identity_operator,
    make_af,
    make_bw_extension,
    make_mix_example,
    make_switch,
    make_unitary_process,
    markov_check,
    partial_trace,
    process_operator,
    product,
    random_unitary_chain,
    read_process_file,
    reorder,
    tensor,
    tensor_maps,
    validate_process,
    write_process_file,
)
from causalproc.graphs import marginal_factor
from causalproc.process import canonical_systems
from causalproc.labeled import _entries, _product_distance, apply_stage
from causalproc.rand import haar_unitary, random_state
from conftest import random_one_way_comb


def test_directed_graph_basics():
    g = directed_graph(["A", "B", "P"], [("P", "A"), ("P", "B"), ("A", "B")])
    assert g.parents("B") == ("A", "P")
    assert g.children("P") == ("A", "B")
    assert not g.is_cyclic
    assert g.cycle() is None
    assert g.topological_order() == ("P", "A", "B")


def test_directed_graph_cycle_detection():
    g = directed_graph(["A", "B"], [("A", "B"), ("B", "A")])
    assert g.is_cyclic
    assert g.cycle() == ("A", "B")
    with pytest.raises(ValueError, match=r"\('A', 'B'\)"):
        g.topological_order()


def oracle(g):
    """Brute force over vertex sequences: (canonical cycle or None, topological order or None).

    The canonical cycle is the shortest one, written from its smallest vertex,
    and the lexicographically smallest among those. The topological order is
    the lexicographically smallest sequence with every edge pointing forward.
    """
    vs = sorted(g.vertices)
    for k in range(1, len(vs) + 1):
        for seq in itertools.permutations(vs, k):
            if seq[0] == min(seq) and all((seq[i], seq[(i + 1) % k]) in g.edges for i in range(k)):
                return seq, None
    for seq in itertools.permutations(vs):
        pos = {v: i for i, v in enumerate(seq)}
        if all(pos[a] < pos[b] for a, b in g.edges):
            return None, seq
    raise AssertionError("an acyclic graph has a topological order")


def check_against_oracle(g):
    cycle, order = oracle(g)
    assert g.is_cyclic == (cycle is not None)
    assert g.cycle() == cycle
    if order is not None:
        assert g.topological_order() == order


def test_graph_questions_match_oracle_on_every_small_graph():
    # Vertices listed out of name order, so insertion order cannot pass for name order.
    names = ("c", "a", "d", "b")
    count = 0
    for n in range(1, 5):
        vs = names[:n]
        pairs = list(itertools.product(vs, vs))
        for mask in range(2 ** len(pairs)):
            edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
            check_against_oracle(directed_graph(vs, edges, allow_self_loops=True))
            count += 1
    assert count == 2 + 2**4 + 2**9 + 2**16


def test_graph_questions_match_oracle_on_random_graphs():
    rng = np.random.default_rng(20201)
    for _ in range(300):
        n = int(rng.integers(5, 8))
        vs = [f"v{i}" for i in rng.permutation(12)[:n]]
        density = rng.uniform(0.05, 0.4)
        edges = [(a, b) for a in vs for b in vs if rng.random() < (density / 4 if a == b else density)]
        check_against_oracle(directed_graph(vs, edges, allow_self_loops=True))


def test_directed_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        directed_graph(["A"], [("A", "A")])
    with pytest.raises(ValueError):
        directed_graph(["A"], [("A", "B")])
    g = directed_graph(["A"], [("A", "A")], allow_self_loops=True)
    assert g.has_edge("A", "A")


def test_complete_graph_edge_count():
    g = complete_graph(["A", "B", "C"])
    assert len(g.edges) == 6
    assert g.is_cyclic


def test_to_dot_deterministic_and_sorted():
    g = directed_graph(["B", "A"], [("B", "A"), ("A", "B")])
    dot = g.to_dot()
    assert dot == g.to_dot()
    assert dot.index('"A"') < dot.index('"B"')
    assert dot.startswith("digraph causal {")
    assert dot.endswith("}\n")


def test_to_dot_escapes_quotes_and_backslashes():
    g = directed_graph(['a"b', "c\\"], [('a"b', "c\\")])
    assert g.to_dot() == 'digraph causal {\n  "a\\"b";\n  "c\\\\";\n  "a\\"b" -> "c\\\\";\n}\n'


def test_unitary_process_routing_structure():
    np_, na, nf = QuantumNode("P", 1, 2), QuantumNode("A", 2, 2), QuantumNode("F", 2, 1)
    um = LinearMap(np.eye(4, dtype=complex), (np_.out_system, na.out_system),
                   (na.in_system, nf.in_system))
    up = make_unitary_process([np_, na, nf], um)
    assert validate_process(up).valid
    g = causal_structure_unitary(up)
    assert set(g.edges) == {("P", "A"), ("A", "F")}



def test_a_unitary_process_is_its_own_process():
    up = make_switch(2)
    assert isinstance(up, ProcessOperator) and up.process is up
    assert up.channel.op is up.op
    assert up.channel.inputs == tuple(n.out_system for n in up.nodes)
    assert up.channel.outputs == tuple(n.in_system for n in up.nodes)


def test_compatibility_check_takes_an_extension_read_from_its_file(tmp_path):
    bw = make_bw_extension()
    write_process_file(tmp_path / "bw.json", bw)
    back = read_process_file(tmp_path / "bw.json").process
    assert type(back) is ProcessOperator
    ground = np.array([[1, 0], [0, 0]], dtype=complex)
    want = compatibility_check(make_af(), af_causal_graph(), bw, [ground] * 3)
    assert want.compatible
    assert compatibility_check(make_af(), af_causal_graph(), back, [ground] * 3) == want


def test_compatibility_check_refuses_a_mixture_of_unitary_extensions():
    # Two extensions send memory lambda_A to A.in and lambda_B to B.in, one of
    # them flipping both bits. Their equal mixture is a valid process that
    # reproduces the correlated inputs (|00><00| + |11><11|)/2 from ground
    # memories and shows no memory-to-other-node influence, though the empty
    # graph cannot produce the correlation.
    a, b = QuantumNode("A", 2, 2), QuantumNode("B", 2, 2)
    root, leaf = QuantumNode("L", 1, 4), QuantumNode("F", 4, 1)
    dom = (root.out_system, a.out_system, b.out_system)
    cod = (a.in_system, b.in_system, leaf.in_system)
    flip = np.kron(np.array([[0, 1], [1, 0]]), np.array([[0, 1], [1, 0]]))
    ups = [make_unitary_process([a, b, root, leaf], LinearMap(np.kron(m, np.eye(4)).astype(complex), dom, cod)) for m in (np.eye(4), flip)]
    mixed = LabeledOperator(ups[0].op.systems, (ups[0].op.matrix + reorder(ups[1].op, ups[0].op.systems).matrix) / 2)
    extension = process_operator(ups[0].nodes, mixed)
    assert validate_process(extension).valid
    sigma = process_operator(
        (a, b),
        tensor(LabeledOperator((a.in_system, b.in_system), np.diag([0.5, 0, 0, 0.5]).astype(complex)), identity_operator([a.out_dual, b.out_dual])),
    )
    ground = np.array([[1, 0], [0, 0]], dtype=complex)
    empty = directed_graph(["A", "B"], [])
    assert not compatibility_check(sigma, empty, ups[0], [ground] * 2).compatible
    with pytest.raises(ValueError, match="not the process of a unitary"):
        compatibility_check(sigma, empty, extension, [ground] * 2)

def test_make_unitary_process_rejects_nonunitary():
    np_, na, nf = QuantumNode("P", 1, 2), QuantumNode("A", 2, 2), QuantumNode("F", 2, 1)
    um = LinearMap(np.eye(4, dtype=complex) * 1.5, (np_.out_system, na.out_system),
                   (na.in_system, nf.in_system))
    with pytest.raises(ValueError):
        make_unitary_process([np_, na, nf], um)


@pytest.mark.parametrize(
    "make",
    [lambda: make_switch(2), lambda: make_switch(3), make_bw_extension]
    + [lambda n=n, seed=seed: random_unitary_chain(n, np.random.default_rng(seed)) for n in (1, 2, 3) for seed in (0, 7)],
)
def test_unitary_process_is_formed_in_canonical_order_bit_for_bit(make):
    """σ is vv† of the CJ vector put in canonical order first: the same
    entries, held the same way, as the outer product in the unitary's own
    order reordered afterwards."""
    up = make()
    want = process_operator(up.nodes, cj_operator(up.unitary)).op
    assert up.op.systems == want.systems
    got_entries, want_entries = _entries(up.op), _entries(want)
    assert (got_entries is None) == (want_entries is None)
    held = zip(got_entries, want_entries) if got_entries is not None else [(up.op.matrix, want.matrix)]
    for a, b in held:
        assert a.dtype == b.dtype and np.array_equal(a.view(np.uint8), b.view(np.uint8))


def test_exchange_unitary_is_not_a_process():
    na, nb = QuantumNode("A", 2, 2), QuantumNode("B", 2, 2)
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[j * 2 + i, i * 2 + j] = 1.0
    um = LinearMap(swap, (na.out_system, nb.out_system), (na.in_system, nb.in_system))
    up = make_unitary_process([na, nb], um)
    v = validate_process(up)
    assert not v.valid
    assert v.offending_types == ("A.in*A.out'*B.in*B.out'",)


def test_markov_check_accepts_chain(rng):
    sigma = random_one_way_comb(rng)
    g = directed_graph(["A", "B"], [("A", "B")])
    mf = markov_check(sigma, g)
    assert mf.accepted
    assert mf.product_residual < 1e-9
    assert set(mf.factors) == {"A", "B"}
    assert max(mf.commutator_residuals.values(), default=0.0) < 1e-9
    fr = faithfulness_check(mf)
    assert fr.faithful
    assert fr.edge_signalling[("A", "B")]


def test_markov_check_of_a_dense_chain_never_holds_the_product():
    # sigma is a dense 1024-dim operator (16 MiB): the ordered product is
    # compared with it row block by row block, not formed whole
    sigma = random_unitary_chain(3, np.random.default_rng(0)).process
    assert _entries(sigma.op) is None and sigma.dim == 1024
    order = ["P", "A", "B", "C", "F"]
    tracemalloc.start()
    try:
        mf = markov_check(sigma, directed_graph(order, itertools.combinations(order, 2)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mf.accepted and mf.product_residual < 1e-12
    assert peak <= 8 * 2**20, peak


@pytest.mark.parametrize("wires", [[32], [16, 2], [2, 16]])
def test_product_residual_of_a_process_with_wide_wires_matches_the_whole_product(wires):
    # wires of these dims run from P through a line of nodes to F (1024 dims
    # in all), so the last contraction has long row axes or few rows; a
    # block holds at least one whole last row axis: with one wire the product
    # has a single row, so its one block is the whole product (16 MiB)
    rng = np.random.default_rng(0)
    names = [chr(ord("A") + i) for i in range(len(wires) - 1)]
    nodes = [QuantumNode(n, wires[i], wires[i + 1]) for i, n in enumerate(names)]
    p, f = QuantumNode("P", 1, wires[0]), QuantumNode("F", wires[-1], 1)
    ins = [nd.in_system for nd in nodes] + [f.in_system]
    u = LinearMap(haar_unitary(wires[0], rng), (p.out_system,), ins[:1])
    for nd, to in zip(nodes, ins[1:]):
        u = apply_stage(u, LinearMap(haar_unitary(to.dim, rng), (nd.out_system,), (to,)))
    sigma = make_unitary_process([p, *nodes, f], u).process
    order = ["P", *names, "F"]
    assert _entries(sigma.op) is None and sigma.dim == 1024
    graph = directed_graph(order, list(zip(order, order[1:])))
    ops = [marginal_factor(sigma, n, graph.parents(n)).op for n in order]
    whole = distance(product(ops, sigma.op.systems), sigma.op)
    tracemalloc.start()
    try:
        residual = _product_distance(ops, sigma.op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(residual - whole) <= 1e-15 and whole < 1e-12
    assert markov_check(sigma, graph).product_residual == residual
    assert peak <= (17 if len(wires) == 1 else 5) * 2**20, peak


def test_markov_check_of_a_one_node_process(rng):
    # the product of one factor is that factor: its distance from sigma is read directly
    na = QuantumNode("A", 2, 2)
    rho = random_state(2, rng)
    sigma = process_operator([na], tensor(LabeledOperator((na.in_system,), rho), identity_operator([na.out_dual])))
    mf = markov_check(sigma, directed_graph(["A"], []), tol=1e-9)
    assert mf.accepted and mf.commutator_residuals == {}
    assert mf.product_residual < 1e-12


def test_markov_check_rejects_missing_edge(rng):
    sigma = random_one_way_comb(rng)
    mf = markov_check(sigma, directed_graph(["A", "B"], []))
    assert not mf.accepted
    assert mf.product_residual > 1e-6


def test_superfluous_edge_is_unfaithful(rng):
    na, nb = QuantumNode("A", 2, 2), QuantumNode("B", 2, 2)
    op = tensor(
        LabeledOperator((na.in_system,), random_state(2, rng)),
        identity_operator([na.out_dual]),
        LabeledOperator((nb.in_system,), random_state(2, rng)),
        identity_operator([nb.out_dual]),
    )
    sigma = process_operator([na, nb], op)
    mf = markov_check(sigma, directed_graph(["A", "B"], [("A", "B")]))
    assert mf.accepted
    fr = faithfulness_check(mf)
    assert not fr.faithful
    assert not fr.edge_signalling[("A", "B")]


def test_discover_chain(rng):
    sigma = random_one_way_comb(rng)
    g, mf = discover(sigma)
    assert set(g.edges) == {("A", "B")}
    assert mf.accepted


def _embedded(op, systems):
    """``embed(op, systems).matrix`` as a CSR matrix: op ⊗ 1 on the missing
    systems, rows and columns permuted into the order of ``systems``."""
    have = {s.key for s in op.systems}
    padded = op.systems + tuple(s for s in systems if s.key not in have)
    pad = math.prod(s.dim for s in padded[len(op.systems) :])
    m = sparse.kron(sparse.csr_matrix(op.matrix), sparse.identity(pad), format="csr")
    axis = {s.key: i for i, s in enumerate(padded)}
    index = np.arange(m.shape[0]).reshape([s.dim for s in padded])
    index = index.transpose([axis[s.key] for s in systems]).reshape(-1)
    return m[index][:, index]


def _matmul_chain(ops, systems):
    out = sparse.identity(math.prod(s.dim for s in systems), dtype=complex, format="csr")
    for op in ops:
        out = out @ _embedded(op, systems)
    return out


def _reference_markov(sigma, graph, tol=1e-9):
    """``markov_check`` with every product a matmul chain of full embeddings."""
    factors = {n.name: marginal_factor(sigma, n.name, graph.parents(n.name)) for n in sigma.nodes}
    channels = {name: f.cptp_residuals() for name, f in factors.items()}
    ok = all(
        r["hermitian"] <= tol and not r["min_eigenvalue"] < -tol and r["trace_preserving"] <= tol
        for r in channels.values()
    )
    ops = {name: f.op for name, f in factors.items()}
    commutators = {}
    for a, b in itertools.combinations(ops, 2):
        union = tuple({s.key: s for s in ops[a].systems + ops[b].systems}.values())
        diff = _matmul_chain([ops[a], ops[b]], union) - _matmul_chain([ops[b], ops[a]], union)
        scale = max(1.0, np.linalg.norm(ops[a].matrix) * np.linalg.norm(ops[b].matrix))
        commutators[(a, b)] = sparse_norm(diff) / scale
    prod = _matmul_chain(list(ops.values()), sigma.op.systems)
    entries = _entries(sigma.op)
    if entries is None:
        target = sparse.csr_matrix(sigma.op.matrix)
    else:
        index, values = entries
        target = sparse.csr_matrix((values, np.divmod(index, sigma.dim)), shape=(sigma.dim,) * 2)
    residual = sparse_norm(prod - target) / max(1.0, sparse_norm(prod), sparse_norm(target))
    ok = ok and max(commutators.values(), default=0.0) <= tol and residual <= tol
    return ok, channels, commutators, residual


def _permutation_chain(rng, slots=2):
    """Chain comb P -> A -> B ... -> F whose root and stages are seeded
    permutations of (slot wire, qubit memory)."""
    nodes = [QuantumNode(chr(ord("A") + i), 2, 2) for i in range(slots)]
    root, leaf = QuantumNode("P", 1, 4), QuantumNode("F", 4, 1)
    mem = SystemLabel("mem", 2)

    def perm():
        return np.eye(4, dtype=complex)[:, rng.permutation(4)]

    u = LinearMap(perm(), (root.out_system,), (nodes[0].in_system, mem))
    for i, node in enumerate(nodes):
        cod = (nodes[i + 1].in_system, mem) if i + 1 < slots else (leaf.in_system,)
        u = apply_stage(tensor_maps(u, identity_map([node.out_system])), LinearMap(perm(), (node.out_system, mem), cod))
    return make_unitary_process(nodes + [root, leaf], u)


def _rank_two_mixture(rng):
    c1, c2 = (random_unitary_chain(3, rng) for _ in range(2))
    w = float(rng.uniform(0.2, 0.8))
    return process_operator(c1.nodes, LabeledOperator(c1.op.systems, w * c1.op.matrix + (1 - w) * c2.op.matrix))


def _signalling_edges(sigma, tol=1e-9):
    """j -> i iff the marginal on A_i.in (other in-spaces traced) changes when
    A_j's out-dual is replaced by the maximally mixed input."""
    edges = set()
    for i in sigma.nodes:
        marginal = partial_trace(sigma.op, [n.in_system.key for n in sigma.nodes if n is not i])
        for j in sigma.nodes:
            if j is not i:
                mixed = embed(partial_trace(marginal, [j.out_dual.key]) * (1 / j.d_out), marginal.systems)
                if distance(marginal, mixed) > tol:
                    edges.add((j.name, i.name))
    return edges


def _dressed_switch(rng):
    """switch(2) with its root's output and its leaf's input relabelled by
    seeded permutations with phases: a sparse, complex, valid process."""
    sw = make_switch(2)
    u = sw.unitary

    def dress(systems, name):
        s = next(x for x in systems if x.name == name)
        local = np.eye(s.dim)[:, rng.permutation(s.dim)] * rng.choice([1.0, -1.0, 1j, -1j], size=s.dim)
        return tensor_maps(identity_map([x for x in systems if x is not s]), LinearMap(local, (s,), (s,)))

    u = compose_maps(dress(u.codomain, "F.in"), compose_maps(u, dress(u.domain, "P.out")))
    return make_unitary_process(sw.nodes, u)


def test_markov_check_matches_matmul_of_embeddings():
    rng = np.random.default_rng(2002)
    cases = {
        "switch": make_switch(2),
        "switch(3)": make_switch(3),
        "dressed switch": _dressed_switch(rng),
        "af": make_af(),
        "mix": make_mix_example(),
        "bw-extension": make_bw_extension(),
        "permutation chain": _permutation_chain(rng),
        "rank-two mixture": _rank_two_mixture(rng),
    }
    assert all(_entries(cases[name].op) is not None for name in ("switch(3)", "dressed switch"))
    verdicts = set()
    for name, sigma in cases.items():
        graph, mf = discover(sigma)
        assert graph.edges == _signalling_edges(sigma), name
        for g in (graph, directed_graph(graph.vertices, [])):
            got = mf if g is graph else markov_check(sigma, g)
            accepted, channels, commutators, residual = _reference_markov(sigma, g)
            assert got.accepted == accepted, name
            verdicts.add(accepted)
            assert got.channel_residuals.keys() == channels.keys()
            for node, r in channels.items():
                for key, value in r.items():
                    np.testing.assert_allclose(got.channel_residuals[node][key], value, rtol=0, atol=1e-12)
            assert got.commutator_residuals.keys() == commutators.keys()
            for pair, value in commutators.items():
                assert abs(got.commutator_residuals[pair] - value) <= 1e-12, (name, pair)
            assert abs(got.product_residual - residual) <= 1e-12, name
    assert verdicts == {True, False}


def _compatibility(sigma_nodes=None, states=2):
    """compatibility_check of the switch's unitary process as the extension
    of a process on ``sigma_nodes`` (by default its A and B), with ``states``
    ground memory states, or the states given."""
    ext = make_switch(2).process
    nodes = sigma_nodes or ext.nodes[:2]
    sigma = process_operator(nodes, identity_operator(canonical_systems(nodes)))
    ground = np.array([[1, 0], [0, 0]], dtype=complex)
    lams = [ground] * states if isinstance(states, int) else states
    return compatibility_check(sigma, directed_graph([n.name for n in nodes], []), ext, lams)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: DirectedGraph(("A", "A"), ()), "duplicate vertices", id="repeated vertex"),
        pytest.param(
            lambda: make_unitary_process([QuantumNode("A", 2, 2)], LinearMap(np.eye(2), (SystemLabel("X", 2),), (SystemLabel("A.in", 2),))),
            "does not cover the node out-spaces",
            id="domain",
        ),
        pytest.param(
            lambda: make_unitary_process([QuantumNode("A", 2, 2)], LinearMap(np.eye(2), (SystemLabel("A.out", 2),), (SystemLabel("X", 2),))),
            "does not cover the node in-spaces",
            id="codomain",
        ),
        pytest.param(lambda: markov_check(make_af(), directed_graph(["A", "B"], [])), "graph vertices must match the process nodes", id="markov graph"),
        pytest.param(lambda: _compatibility(make_switch(2).process.nodes), "exactly a root and a leaf", id="no extra nodes"),
        pytest.param(
            lambda: _compatibility((QuantumNode("A", 2, 2), QuantumNode("P", 1, 4))),
            "could not identify root and leaf",
            id="no root",
        ),
        pytest.param(
            lambda: _compatibility((QuantumNode("A", 2, 2), QuantumNode("B", 1, 2))),
            "node 'B' has different dimensions",
            id="node dimensions",
        ),
        pytest.param(lambda: _compatibility(states=3), "one memory state per node", id="memory count"),
        pytest.param(lambda: _compatibility(states=[np.eye(2) / 2, np.eye(3) / 3]), "do not multiply to the root out-space", id="memory dimensions"),
    ],
)
def test_graph_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()
