"""Properties that hold for every process: invariance under local unitaries,
the theorem for unitary processes (a comb order exists iff the influence
graph is acyclic), and Markov checks on stored entries that match the dense
ones."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from causalproc import (
    LinearMap,
    QuantumNode,
    SystemLabel,
    causal_structure_unitary,
    comb_search,
    compose_maps,
    directed_graph,
    haar_unitary,
    identity_map,
    make_af,
    make_mix_example,
    make_reduced_switch,
    make_switch,
    make_unitary_process,
    markov_check,
    process_operator,
    tensor_maps,
    type_norms,
    validate_process,
)
from causalproc.labeled import LabeledOperator, _dense_reference, _entries, _from_entries, apply_stage, sorted_coo

seeds = st.integers(0, 2**32 - 1)


def _permutation(rng, d):
    return np.eye(d, dtype=complex)[:, rng.permutation(d)]


def _dressed(sigma, local):
    """sigma conjugated by one local unitary per system, ``local(d)`` each."""
    w = np.ones((1, 1), dtype=complex)
    for s in sigma.op.systems:
        w = np.kron(w, local(s.dim))
    op = LabeledOperator(sigma.op.systems, w @ sigma.op.matrix @ w.conj().T)
    return process_operator(sigma.nodes, op)


def _self_wired():
    # Each node's output wired straight back into its own input: invalid.
    nodes = [QuantumNode("A", 2, 2), QuantumNode("B", 2, 2)]
    dom = tuple(n.out_system for n in nodes)
    cod = tuple(n.in_system for n in nodes)
    return make_unitary_process(nodes, LinearMap(np.eye(4, dtype=complex), dom, cod))


BASES = {
    "switch": make_switch(2),
    "reduced-switch": make_reduced_switch(2),
    "af": make_af(),
    "mix": make_mix_example(),
    "self-wired": _self_wired(),
}


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(sorted(BASES)), seed=seeds)
def test_validity_and_type_norms_are_invariant_under_local_unitaries(name, seed):
    rng = np.random.default_rng(seed)
    sigma = BASES[name]
    by_permutations = _dressed(sigma, lambda d: _permutation(rng, d))
    by_haar = _dressed(sigma, lambda d: haar_unitary(d, rng))
    # A permutation dressing keeps the operator sparse; a Haar one fills it.
    assert sorted_coo(by_permutations.op.matrix) is not None
    assert sorted_coo(by_haar.op.matrix) is None

    want = validate_process(sigma)
    norms = type_norms(sigma.op)
    scale = np.linalg.norm(sigma.op.matrix)
    for dressed in (by_permutations, by_haar):
        got = validate_process(dressed)
        for field in ("valid", "hermitian_ok", "psd_ok", "trace_ok", "type_ok", "psd_method", "offending_types"):
            assert getattr(got, field) == getattr(want, field), field
        assert abs(got.forbidden_norm - want.forbidden_norm) <= 1e-12 * scale
        got_norms = type_norms(dressed.op)
        for key in set(norms) | set(got_norms):
            assert abs(got_norms.get(key, 0.0) - norms.get(key, 0.0)) <= 1e-12 * scale, key


def _permutation_chain(rng):
    """Chain comb in which the slots, named in a random order, are wired by a
    seeded permutation stage each, with a memory threaded through them."""
    slots = int(rng.integers(1, 4))
    mem = SystemLabel("mem", int(rng.integers(1, 3)))
    names = rng.permutation(list("ABC"[:slots]))
    nodes = [QuantumNode(str(nm), 2, 2) for nm in names]
    width = 2 * mem.dim
    root, leaf = QuantumNode("P", 1, width), QuantumNode("F", width, 1)
    u = LinearMap(_permutation(rng, width), (root.out_system,), (nodes[0].in_system, mem))
    for i, node in enumerate(nodes):
        cod = (nodes[i + 1].in_system, mem) if i + 1 < slots else (leaf.in_system,)
        u = tensor_maps(u, identity_map([node.out_system]))
        u = apply_stage(u, LinearMap(_permutation(rng, width), (node.out_system, mem), cod))
    return make_unitary_process(nodes + [root, leaf], u)


def _dressed_switch(rng):
    """The order-control unitary between seeded local unitaries on every
    node's output and input (permutations or Haar, drawn per system)."""
    sw = make_switch(2)

    def local(systems):
        maps = []
        for s in systems:
            m = _permutation(rng, s.dim) if rng.integers(2) else haar_unitary(s.dim, rng)
            maps.append(LinearMap(m, (s,), (s,)))
        return tensor_maps(*maps)

    u = compose_maps(local(sw.unitary.codomain), compose_maps(sw.unitary, local(sw.unitary.domain)))
    return make_unitary_process(sw.nodes, u)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, switch=st.booleans())
def test_comb_order_exists_iff_unitary_influence_is_acyclic(seed, switch):
    rng = np.random.default_rng(seed)
    up = _dressed_switch(rng) if switch else _permutation_chain(rng)
    assert validate_process(up).valid
    cyclic = causal_structure_unitary(up).is_cyclic
    assert cyclic == switch
    assert (comb_search(up) is None) == cyclic


@settings(max_examples=25, deadline=None)
@given(seed=seeds, switch=st.booleans())
def test_markov_check_on_stored_entries_matches_the_densified_copy(seed, switch):
    rng = np.random.default_rng(seed)
    base = _dressed(BASES["switch"], lambda d: _permutation(rng, d) * rng.choice([1, -1, 1j], size=d)) if switch else _permutation_chain(rng)
    m = base.op.matrix
    sigma = process_operator(base.nodes, _from_entries(base.op.systems, *sorted_coo(m)))
    dense = process_operator(base.nodes, _dense_reference(base.op.systems, m))
    assert _entries(sigma.op) is not None and _entries(dense.op) is None
    names = sigma.node_names
    drawn = directed_graph(names, [(a, b) for a in names for b in names if a != b and rng.random() < 0.4])
    for graph in (causal_structure_unitary(sigma), drawn):
        got, want = markov_check(sigma, graph), markov_check(dense, graph)
        assert got.accepted == want.accepted
        assert abs(got.product_residual - want.product_residual) <= 1e-12
        assert got.commutator_residuals.keys() == want.commutator_residuals.keys()
        for pair, value in want.commutator_residuals.items():
            assert abs(got.commutator_residuals[pair] - value) <= 1e-12, pair
        for node, residuals in want.channel_residuals.items():
            for key, value in residuals.items():
                assert abs(got.channel_residuals[node][key] - value) <= 1e-12, (node, key)
