from __future__ import annotations

import numpy as np
import pytest

from causalproc import (
    ClassicalNode,
    ClassicalProcess,
    DeterministicProcess,
    causal_structure_deterministic,
    classical_compatibility_check,
    classical_joint_probabilities,
    classical_markov_check,
    directed_graph,
    enumerate_deterministic_processes,
    find_process_outside_hull,
    markov_check,
    polytope_membership,
    quantize,
    reversible_extension,
    validate_classical,
    validate_deterministic,
    validate_process,
)

BITS2 = (ClassicalNode("A", 2, 2), ClassicalNode("B", 2, 2))


def chain_process():
    # B.in copies A.out; A.in is constant 0
    func = np.zeros((2, 2, 2), dtype=np.int64)
    func[..., 1] = np.arange(2)[:, None]
    return DeterministicProcess(BITS2, func)


def test_single_bit_node_vertices_are_constants():
    node = (ClassicalNode("A", 2, 2),)
    lib = enumerate_deterministic_processes(node)
    assert len(lib) == 2
    for dp in lib:
        # constant functions only: no dependence on the out-value
        assert np.array_equal(dp.function[0], dp.function[1])
        ok, _ = validate_deterministic(dp)
        assert ok
    # the identity function admits zero or two consistent assignments
    ident = DeterministicProcess(node, np.arange(2, dtype=np.int64).reshape(2, 1))
    ok, witness = validate_deterministic(ident)
    assert not ok
    assert witness is not None


def test_chain_process_structure_and_markov():
    chain = chain_process()
    ok, _ = validate_deterministic(chain)
    assert ok
    g = causal_structure_deterministic(chain)
    assert set(g.edges) == {("A", "B")}
    kp = chain.to_classical()
    assert validate_classical(kp).valid
    mk = classical_markov_check(kp, directed_graph(["A", "B"], [("A", "B")]))
    assert mk.accepted
    assert mk.product_residual < 1e-12
    mk0 = classical_markov_check(kp, directed_graph(["A", "B"], []))
    assert not mk0.accepted


def test_classical_joint_probabilities_chain():
    kp = chain_process().to_classical()
    # A: read the input, output a uniform random bit; B: report the input, output 0
    ch_a = np.zeros((2, 2, 2))
    for k in range(2):
        for o in range(2):
            ch_a[k, o, k] = 0.5
    ch_b = np.zeros((2, 2, 2))
    for k in range(2):
        ch_b[k, 0, k] = 1.0
    p = classical_joint_probabilities(kp, [ch_a, ch_b])
    assert np.abs(p - np.array([[0.5, 0.5], [0.0, 0.0]])).max() < 1e-12


def test_two_way_loop_table_is_invalid():
    bad = np.zeros((2, 2, 2, 2))
    for a in range(2):
        for b in range(2):
            bad[b, a, a, b] = 1.0
    kp = ClassicalProcess(BITS2, bad)
    v = validate_classical(kp)
    assert not v.valid
    sig = quantize(kp)
    vq = validate_process(sig)
    assert not vq.valid
    assert "A.in*A.out'*B.in*B.out'" in vq.offending_types


def test_quantize_agrees_with_classical_markov():
    kp = chain_process().to_classical()
    sig = quantize(kp)
    assert validate_process(sig).valid
    for edges in ([("A", "B")], []):
        g = directed_graph(["A", "B"], edges)
        assert classical_markov_check(kp, g).accepted == markov_check(sig, g).accepted


def test_polytope_membership_of_mixture(rng):
    lib = enumerate_deterministic_processes(BITS2)
    w = rng.dirichlet(np.ones(len(lib)))
    table = sum(wi * dp.to_classical().table for wi, dp in zip(w, lib))
    kp = ClassicalProcess(BITS2, table)
    assert validate_classical(kp).valid
    verdict = polytope_membership(kp)
    assert verdict.inside
    assert verdict.residual < 1e-9
    recon = sum(
        wi * dp.to_classical().table for wi, dp in zip(verdict.weights, lib)
    )
    assert np.abs(recon - table).max() < 1e-9


def test_reversible_extension_marginal_exact(rng):
    lib = enumerate_deterministic_processes(BITS2)
    w = rng.dirichlet(np.ones(len(lib)))
    mixture = [(float(wi), dp) for wi, dp in zip(w, lib)]
    ext = reversible_extension(mixture)
    ok, _ = validate_deterministic(ext.extension)
    assert ok
    marg = ext.marginal()
    oracle = np.zeros_like(mixture[0][1].to_classical().table)
    for wi, dp in mixture:
        oracle = oracle + wi * dp.to_classical().table
    assert np.array_equal(marg.table, oracle)


def test_outside_hull_process_is_outside():
    nodes = (ClassicalNode("A", 2, 2), ClassicalNode("B", 2, 2), ClassicalNode("C", 2, 2))
    kp, dist = find_process_outside_hull(nodes)
    assert validate_classical(kp).valid
    verdict = polytope_membership(kp)
    assert not verdict.inside
    assert verdict.residual > 1e-7
    assert dist > 1e-7


def test_classical_compatibility_chain():
    chain = chain_process()
    kp = chain.to_classical()
    ext = reversible_extension([(1.0, chain)])
    g = directed_graph(["A", "B"], [("A", "B")])
    cv = classical_compatibility_check(kp, g, ext.extension, ext.lambda_distribution)
    assert cv.compatible
    bad = classical_compatibility_check(
        kp, directed_graph(["A", "B"], []), ext.extension, ext.lambda_distribution
    )
    assert not bad.compatible
    assert bad.violations
    for dist in ([1.0], np.append(ext.lambda_distribution, 0.0)):
        with pytest.raises(ValueError, match="one weight per root value"):
            classical_compatibility_check(kp, g, ext.extension, dist)


def test_validate_classical_rejects_negative_and_unnormalized():
    table = np.full((2, 2, 2, 2), 0.25)
    assert validate_classical(ClassicalProcess(BITS2, table)).valid
    neg = table.copy()
    neg[0, 0, 0, 0] = -0.1
    v = validate_classical(ClassicalProcess(BITS2, neg))
    assert not v.valid
    assert v.min_entry < 0
    scaled = 1.5 * table
    v2 = validate_classical(ClassicalProcess(BITS2, scaled))
    assert not v2.valid
    assert v2.max_normalization_error > 0.1
