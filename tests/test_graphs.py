from __future__ import annotations

import itertools

import numpy as np
import pytest

from causalproc import (
    LabeledOperator,
    LinearMap,
    QuantumNode,
    SystemLabel,
    channel_from_unitary,
    comb_from_circuit,
    complete_graph,
    causal_structure_unitary,
    directed_graph,
    discover,
    faithfulness_check,
    identity_operator,
    make_unitary_process,
    markov_check,
    process_operator,
    tensor,
    validate_process,
)
from causalproc.rand import haar_unitary, random_state


def chain_comb(rng):
    w0 = SystemLabel("w0", 2)
    init = LabeledOperator((w0,), random_state(2, rng))
    ch = channel_from_unitary(
        LinearMap(haar_unitary(2, rng), (SystemLabel("wA", 2),), (SystemLabel("w1", 2),))
    )
    na, nb = QuantumNode("A", 2, 2), QuantumNode("B", 2, 2)
    return comb_from_circuit(init, [ch], [(na, "w0", "wA"), (nb, "w1", "wB")])


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


def test_unitary_process_routing_structure():
    np_, na, nf = QuantumNode("P", 1, 2), QuantumNode("A", 2, 2), QuantumNode("F", 2, 1)
    um = LinearMap(np.eye(4, dtype=complex), (np_.out_system, na.out_system),
                   (na.in_system, nf.in_system))
    up = make_unitary_process([np_, na, nf], um)
    assert validate_process(up.process).valid
    g = causal_structure_unitary(up)
    assert set(g.edges) == {("P", "A"), ("A", "F")}


def test_make_unitary_process_rejects_nonunitary():
    np_, na, nf = QuantumNode("P", 1, 2), QuantumNode("A", 2, 2), QuantumNode("F", 2, 1)
    um = LinearMap(np.eye(4, dtype=complex) * 1.5, (np_.out_system, na.out_system),
                   (na.in_system, nf.in_system))
    with pytest.raises(ValueError):
        make_unitary_process([np_, na, nf], um)


def test_exchange_unitary_is_not_a_process():
    na, nb = QuantumNode("A", 2, 2), QuantumNode("B", 2, 2)
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[j * 2 + i, i * 2 + j] = 1.0
    um = LinearMap(swap, (na.out_system, nb.out_system), (na.in_system, nb.in_system))
    up = make_unitary_process([na, nb], um)
    v = validate_process(up.process)
    assert not v.valid
    assert v.offending_types == ("A.in*A.out'*B.in*B.out'",)


def test_markov_check_accepts_chain(rng):
    sigma = chain_comb(rng)
    g = directed_graph(["A", "B"], [("A", "B")])
    mf = markov_check(sigma, g)
    assert mf.accepted
    assert mf.product_residual < 1e-9
    assert set(mf.factors) == {"A", "B"}
    assert max(mf.commutator_residuals.values(), default=0.0) < 1e-9
    fr = faithfulness_check(mf)
    assert fr.faithful
    assert fr.edge_signalling[("A", "B")]


def test_markov_check_rejects_missing_edge(rng):
    sigma = chain_comb(rng)
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
    sigma = chain_comb(rng)
    g, mf = discover(sigma)
    assert set(g.edges) == {("A", "B")}
    assert mf.accepted
