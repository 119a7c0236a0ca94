from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causalproc import (
    ClassicalNode,
    LabeledOperator,
    LinearMap,
    QuantumNode,
    SystemLabel,
    comb_check,
    comb_search,
    compose_maps,
    conditional_process,
    discover,
    distance,
    embed,
    enumerate_deterministic_processes,
    hs,
    identity_operator,
    labeled,
    make_af_deterministic,
    make_classical_switch,
    make_methods_counterexample,
    make_mix_example,
    make_reduced_switch,
    make_switch,
    make_unitary_process,
    measure_prepare_element,
    process_operator,
    project_trivial,
    quantize,
    reorder,
    random_unitary_chain,
    signalling_residual,
    tensor,
    type_norms,
    validate_process,
)
from causalproc.process import canonical_systems
from causalproc.labeled import partial_trace, sorted_coo
from causalproc.rand import haar_unitary, random_state
from conftest import one_way_comb


def product_process(rho_a, rho_b):
    na, nb = QuantumNode("A", 2, 2), QuantumNode("B", 2, 2)
    op = tensor(
        LabeledOperator((na.in_system,), rho_a),
        identity_operator([na.out_dual]),
        LabeledOperator((nb.in_system,), rho_b),
        identity_operator([nb.out_dual]),
    )
    return process_operator([na, nb], op)


def test_validate_product_process(rng):
    sigma = product_process(random_state(2, rng), random_state(2, rng))
    v = validate_process(sigma)
    assert v.valid
    assert v.psd_ok and v.trace_ok and v.type_ok
    assert abs(v.trace - 4) < 1e-12
    assert v.expected_trace == 4
    assert v.offending_types == ()


def test_validate_rejects_wrong_trace(rng):
    sigma = product_process(random_state(2, rng), random_state(2, rng))
    bad = process_operator(sigma.nodes, LabeledOperator(sigma.op.systems, 2 * sigma.op.matrix))
    v = validate_process(bad)
    assert not v.valid and not v.trace_ok
    assert v.psd_ok


def test_validate_rejects_non_psd():
    na = QuantumNode("A", 2, 2)
    z = np.diag([1.1, -0.1]).astype(complex)
    op = tensor(LabeledOperator((na.in_system,), z), identity_operator([na.out_dual]))
    v = validate_process(process_operator([na], op))
    assert not v.valid and not v.psd_ok
    assert v.min_eigenvalue < -0.05
    assert v.trace_ok


def test_validate_rejects_forbidden_type():
    na = QuantumNode("A", 2, 2)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    op = tensor(LabeledOperator((na.in_system,), np.eye(2) / 2),
                identity_operator([na.out_dual]))
    bump = tensor(LabeledOperator((na.in_system,), 0.1 * x),
                  LabeledOperator((na.out_dual,), x.astype(complex)))
    sig = process_operator([na], op + bump)
    v = validate_process(sig)
    assert not v.valid and not v.type_ok
    assert v.forbidden_norm > 0.1
    assert "A.in*A.out'" in v.offending_types
    assert v.trace_ok


def test_hermitian_residual_reported(rng):
    na = QuantumNode("A", 2, 2)
    m = np.eye(4, dtype=complex)
    m[0, 1] = 0.3j
    sig = process_operator([na], LabeledOperator((na.in_system, na.out_dual), m))
    v = validate_process(sig)
    assert not v.valid
    assert v.hermitian_residual > 0.1


def test_signalling_residual_of_product(rng):
    sigma = product_process(random_state(2, rng), random_state(2, rng))
    assert signalling_residual(sigma, ["A"]) < 1e-12
    assert signalling_residual(sigma, ["B"]) < 1e-12


def test_chain_comb_signals_one_way(rng):
    # state -> A -> unitary wire -> B: A signals to B, B does not signal back
    u = haar_unitary(2, rng)
    sigma = one_way_comb(QuantumNode("A", 2, 2), QuantumNode("B", 2, 2), random_state(2, rng), u)
    assert validate_process(sigma).valid
    assert signalling_residual(sigma, ["B"]) < 1e-12
    assert signalling_residual(sigma, ["A"]) > 0.1


def dense_conditional(sigma, node_name, tau):
    """Tr_X[sigma tau] over its outcome weight, as one dense einsum, in the
    canonical order of the other nodes' systems.

    Node X's (in, out*) pair is one axis of side D for sigma's rows and one
    for its columns, and the rest one axis of side R each; the trace pairs
    sigma[a r, b s] with tau[b, a]. The weight is the trace of the result
    over the product of the other nodes' out-dimensions.
    """
    node = sigma.node(node_name)
    rest = [n for n in sigma.nodes if n is not node]
    pair = [node.in_system.key, node.out_dual.key]
    side = node.d_in * node.d_out
    s = reorder(sigma.op, pair + [x.key for x in canonical_systems(rest)]).matrix
    m = np.einsum("arbs,ba->rs", s.reshape(side, -1, side, s.shape[0] // side), reorder(tau, pair).matrix)
    return m / (np.trace(m).real / math.prod(n.d_out for n in rest))


@pytest.mark.parametrize("name", ["mix", "switch", "reduced-switch", "af", "chain"])
def test_conditional_process_matches_the_dense_trace_rule(name, rng):
    sigma = {
        "mix": make_mix_example,
        "switch": lambda: make_switch(2).process,
        "reduced-switch": make_reduced_switch,
        "af": lambda: quantize(make_af_deterministic().to_classical()),
        "chain": lambda: random_unitary_chain(2, np.random.default_rng(3)).process,
    }[name]()
    dense = process_operator(sigma.nodes, labeled._dense_reference(sigma.op.systems, sigma.op.matrix))
    for node in sigma.nodes:
        others = [n.name for n in sigma.nodes if n is not node]
        if signalling_residual(sigma, others) <= 1e-9:
            # no other node signals to this one, so any outcome leaves a valid process
            effect, prep = random_state(node.d_in, rng), random_state(node.d_out, rng)
        else:
            # a multiple of the identity does too; a basis-state preparation makes the element sparse
            effect, prep = np.eye(node.d_in) / 2, np.diag(np.eye(node.d_out)[-1])
        tau = measure_prepare_element(node, effect, prep)
        want = dense_conditional(sigma, node.name, tau)
        dense_tau = labeled._dense_reference(tau.systems, tau.matrix)
        for s, e in ((sigma, tau), (dense, dense_tau)):
            got = conditional_process(s, node.name, e)
            assert got.op.systems == tuple(canonical_systems(got.nodes)), node.name
            assert np.abs(got.op.matrix - want).max() < 1e-12, node.name


def test_conditional_process_on_product(rng):
    rho_a, rho_b = random_state(2, rng), random_state(2, rng)
    sigma = product_process(rho_a, rho_b)
    el = measure_prepare_element(sigma.node("B"), np.eye(2, dtype=complex), random_state(2, rng))
    cond = conditional_process(sigma, "B", el)
    assert [n.name for n in cond.nodes] == ["A"]
    want = tensor(
        LabeledOperator((sigma.node("A").in_system,), rho_a),
        identity_operator([sigma.node("A").out_dual]),
    )
    assert np.abs(cond.op.matrix - want.matrix).max() < 1e-10



@pytest.mark.parametrize("k", [0, 1])
def test_conditional_process_divides_by_the_outcome_weight(k, rng):
    # reading B's input in the computational basis: outcome k has weight
    # rho_b[k, k], and A's process is the same after either reading
    rho_a, rho_b = random_state(2, rng), random_state(2, rng)
    sigma = product_process(rho_a, rho_b)
    el = measure_prepare_element(sigma.node("B"), np.diag(np.eye(2)[k]), random_state(2, rng))
    weight = rho_b[k, k].real
    cond = conditional_process(sigma, "B", el, tol=weight * (1 - 1e-9))
    want = tensor(
        LabeledOperator((sigma.node("A").in_system,), rho_a),
        identity_operator([sigma.node("A").out_dual]),
    )
    assert np.abs(cond.op.matrix - want.matrix).max() < 1e-10
    with pytest.raises(ValueError, match=r"\(near-\)zero weight"):
        conditional_process(sigma, "B", el, tol=weight * (1 + 1e-9))


@pytest.mark.parametrize("prep", ["zero", "one", "complex"])
def test_conditional_process_chain_copies_output(prep, rng):
    # B reads exactly what A prepared through the identity wire; a preparation
    # with complex coherences tells rho from its transpose
    na, nb = QuantumNode("A", 2, 2), QuantumNode("B", 2, 2)
    sigma = one_way_comb(na, nb, np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex))
    rho = {"zero": np.diag([1.0, 0.0]), "one": np.diag([0.0, 1.0]), "complex": random_state(2, rng)}[prep].astype(complex)
    if prep == "complex":
        assert np.abs(rho - rho.T).max() > 1e-3
    cond = conditional_process(sigma, "A", measure_prepare_element(sigma.node("A"), np.eye(2), rho))
    b = cond.node("B")
    want = tensor(LabeledOperator((b.in_system,), rho), identity_operator([b.out_dual]))
    assert distance(cond.op, reorder(want, cond.op.systems)) < 1e-12


@pytest.mark.parametrize("d_in, d_out", [(2, 2), (3, 2), (1, 4)])
def test_readout_elements_sum_to_a_trace_preserving_element(d_in, d_out, rng):
    # reading the input in a basis and preparing one state: the outcomes' tau
    # sum to the element that discards the input, whose trace is d_in
    node = QuantumNode("A", d_in, d_out)
    prep = random_state(d_out, rng)
    readouts = [measure_prepare_element(node, np.diag(np.eye(d_in)[k]), prep) for k in range(d_in)]
    whole = measure_prepare_element(node, np.eye(d_in), prep)
    for tau in readouts + [whole]:
        assert set(tau.systems) == {node.in_system, node.out_dual}
    assert np.abs(sum(tau.matrix for tau in readouts) - whole.matrix).max() < 1e-12
    assert abs(np.trace(whole.matrix) - d_in) < 1e-12
    # the dual out-space carries the transposed preparation
    out = partial_trace(whole, [node.in_system.key])
    assert np.abs(out.matrix - d_in * prep.T).max() < 1e-12

@pytest.mark.parametrize("n", [3, 4])
def test_conditioning_a_sparse_switch_densifies_nothing(n, monkeypatch):
    # the outcome's weight is a 1x1 partial trace on the stored entries
    sigma = make_switch(n).process
    p = sigma.node("P")
    prep = np.zeros((p.d_out, p.d_out), dtype=complex)
    prep[0, 0] = 1.0
    el = measure_prepare_element(p, np.eye(p.d_in), prep)
    if n == 3:
        dense = process_operator(sigma.nodes, labeled._dense_reference(sigma.op.systems, sigma.op.matrix))
        want = conditional_process(dense, "P", el)

    def refuse(*args):
        raise AssertionError("densified")

    monkeypatch.setattr(labeled, "_densify", refuse)
    cond = conditional_process(sigma, "P", el)
    monkeypatch.undo()
    assert [x.name for x in cond.nodes] == ["A", "B", "F"]
    if n == 3:
        assert distance(cond.op, reorder(want.op, cond.op.systems)) < 1e-12


def test_process_operator_rejects_extra_systems(rng):
    na = QuantumNode("A", 2, 2)
    extra = SystemLabel("junk", 2)
    op = tensor(
        LabeledOperator((na.in_system,), random_state(2, rng)),
        identity_operator([na.out_dual, extra]),
    )
    with pytest.raises(ValueError):
        process_operator([na], op)


def test_conditional_process_raises_when_conditioning_breaks_validity(rng):
    # B's output reaches A's input; post-selecting A's reading fixes what B
    # emitted, which no single-node process allows.
    na, nb = QuantumNode("A", 2, 2), QuantumNode("B", 2, 2)
    sigma = one_way_comb(nb, na, random_state(2, rng), np.eye(2, dtype=complex))
    assert validate_process(sigma).valid
    zero = np.diag([1.0, 0.0]).astype(complex)
    el = measure_prepare_element(sigma.node("A"), zero, random_state(2, rng))
    with pytest.raises(ValueError, match="conditioning produced an invalid operator"):
        conditional_process(sigma, "A", el)


def test_process_operator_is_frozen(rng):
    sigma = product_process(random_state(2, rng), random_state(2, rng))
    assert validate_process(sigma).valid
    with pytest.raises(dataclasses.FrozenInstanceError):
        sigma.op = sigma.op


def test_offending_types_listed_above_1024_dims():
    # Each node's input is the other's output through an identity wire:
    # valid except for the one term supported on all four spaces.
    d = 6
    na, nb = QuantumNode("A", d, d), QuantumNode("B", d, d)
    v = np.eye(d).reshape(-1)
    wire = np.outer(v, v)
    sigma = process_operator((na, nb), LabeledOperator(
        (na.in_system, nb.out_dual, nb.in_system, na.out_dual), np.kron(wire, wire)
    ))
    assert sigma.dim > 1024
    verdict = validate_process(sigma)
    assert verdict.psd_ok and verdict.trace_ok and not verdict.type_ok
    assert verdict.offending_types == ("A.in*A.out'*B.in*B.out'",)


# Reference formulas: the allowed-type condition as chains of projections.
# 1 - D_out + D_out,in removes, at one node, the types trivial on its out-dual
# factor but not on its in factor (the types that node witnesses).


def _drop_out_witness(op, node):
    od, ik = node.out_dual.key, node.in_system.key
    return op - project_trivial(op, [od]) + project_trivial(op, [od, ik])


def _reference_forbidden(sigma):
    cur = sigma.op
    for n in sigma.nodes:
        cur = _drop_out_witness(cur, n)
    return cur - project_trivial(sigma.op, [s.key for s in sigma.op.systems])


def _reference_offenders(forbidden, threshold):
    names = [
        (val, "*".join(name + ("'" if is_dual else "") for name, is_dual in key))
        for key, val in type_norms(forbidden).items()
        if val > threshold
    ]
    return tuple(label for _, label in sorted(names, reverse=True)[:16])


def _reference_signalling(sigma, from_nodes):
    lhs, refs = sigma.op, []
    for n in sigma.nodes:
        if n.name in from_nodes:
            lhs = _drop_out_witness(lhs, n)
            refs += [n.out_dual.key, n.in_system.key]
    return distance(lhs, project_trivial(sigma.op, refs))


def _random_hermitian_process(rng):
    dims = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)]
    nodes = [QuantumNode(name, *dims[rng.integers(len(dims))]) for name in "ABC"[: rng.integers(2, 4)]]
    systems = [s for n in nodes for s in (n.in_system, n.out_dual)]
    d = int(np.prod([s.dim for s in systems]))
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = (m + m.conj().T) * rng.uniform(0.01, 1.0)
    return process_operator(nodes, LabeledOperator(tuple(systems), m))


def _random_sparse_hermitian_process(rng):
    """Like _random_hermitian_process, with about a fifth of the entries
    stored, so that validation and type_norms read the stored entries."""
    dims = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)]
    while True:
        nodes = [QuantumNode(name, *dims[rng.integers(len(dims))]) for name in "ABC"[: rng.integers(2, 4)]]
        systems = [s for n in nodes for s in (n.in_system, n.out_dual)]
        d = int(np.prod([s.dim for s in systems]))
        if d >= 4:
            break
    m = np.zeros(d * d, dtype=complex)
    picked = rng.choice(d * d, size=d * d // 10, replace=False)
    m[picked] = rng.normal(size=picked.size) + 1j * rng.normal(size=picked.size)
    m = m.reshape(d, d)
    sigma = process_operator(nodes, LabeledOperator(tuple(systems), m + m.conj().T))
    assert sorted_coo(sigma.op.matrix) is not None
    return sigma


def test_type_table_matches_projector_formulas():
    cases = [(seed, make) for seed in range(40) for make in (_random_hermitian_process, _random_sparse_hermitian_process)]
    for seed, make in cases:
        sigma = make(np.random.default_rng(seed))
        if seed % 2:  # a valid type pattern, up to rounding
            sigma = process_operator(sigma.nodes, sigma.op - _reference_forbidden(sigma))
        verdict = validate_process(sigma)
        forbidden = _reference_forbidden(sigma)
        assert abs(verdict.forbidden_norm - np.linalg.norm(forbidden.matrix)) < 1e-12, seed
        assert verdict.offending_types == _reference_offenders(forbidden, verdict.forbidden_threshold), seed
        names = sigma.node_names
        for k in range(1, len(names)):
            for from_nodes in itertools.combinations(names, k):
                want = _reference_signalling(sigma, from_nodes)
                assert abs(signalling_residual(sigma, from_nodes) - want) < 1e-12, (seed, from_nodes)


def _scattered_blocks(rng, d, blocks, dtype):
    """d×d matrix holding the given Hermitian blocks on disjoint, randomly
    interleaved sets of rows; the rows left over are all zero."""
    rows = rng.permutation(d)
    m = np.zeros((d, d), dtype=dtype)
    start = 0
    for b in blocks:
        at = rows[start : start + len(b)]
        m[np.ix_(at, at)] = b
        start += len(b)
    return m


def _gram(rng, size, dtype, shift):
    a = rng.normal(size=(size, size))
    if dtype == complex:
        a = a + 1j * rng.normal(size=(size, size))
    return a @ a.conj().T + shift * np.eye(size)


def _path(rng, size, dtype, shift):
    """Tridiagonal block: its nonzero graph is a path, the slowest shape
    for label propagation."""
    off = rng.uniform(0.5, 1.0, size - 1).astype(dtype)
    return np.diag(np.full(size, 2.0 + shift)).astype(dtype) + np.diag(off, 1) + np.diag(off, -1)


@pytest.mark.parametrize("d, dtype, sizes, shifts", [
    # PSD blocks, a diagonal-only row and zero rows
    (40, complex, (5, 3, 1, 9), (0.1, 0.0, 0.7, 0.0)),
    # one negative block
    (40, complex, (5, 3, 1, 9), (0.1, -30.0, 0.7, 0.0)),
    # a path block whose smallest eigenvalue is the operator's
    (40, complex, (5, 3, 1, 9), (0.1, 0.0, 0.7, -3.0)),
    # positive definite: no zero row contributes an eigenvalue 0
    (12, complex, (2, 3, 2, 2, 3), (0.1, 0.2, 0.3, 0.4, 0.5)),
    # Cholesky path, certified and refuted
    (2100, float, (5, 3, 1, 9), (0.1, 0.0, 0.7, 0.0)),
    (2100, float, (5, 3, 1, 9), (0.1, -30.0, -0.7, 0.0)),
])
def test_blockwise_psd_test_matches_full_matrix(d, dtype, sizes, shifts):
    rng = np.random.default_rng(d + len(sizes) + int(shifts[1]) + int(shifts[-1]))
    # The last block of four is a path; the others are dense Gram blocks.
    makers = [_gram] * (len(sizes) - 1) + [_path if len(sizes) == 4 else _gram]
    h = _scattered_blocks(rng, d, [f(rng, n, dtype, s) for f, n, s in zip(makers, sizes, shifts)], dtype)
    assert sorted_coo(h) is not None
    node = QuantumNode("A", d, 1)
    verdict = validate_process(process_operator([node], LabeledOperator((node.in_system, node.out_dual), h)))
    tol = verdict.tol
    assert verdict.psd_method == ("cholesky" if d > 2048 else "eigh")
    if verdict.psd_method == "cholesky":
        try:
            np.linalg.cholesky(h + tol * np.eye(d))
        except np.linalg.LinAlgError:
            pass
        else:
            assert verdict.psd_ok and np.isnan(verdict.min_eigenvalue)
            return
    want = np.linalg.eigvalsh(h)[0]
    assert abs(verdict.min_eigenvalue - want) < 1e-12
    assert verdict.psd_ok == (want >= -tol)
    assert verdict.psd_ok == (min(shifts) >= 0)


def _verdict_and_signalling(sigma):
    names = sigma.node_names
    from_sets = [c for k in range(1, len(names)) for c in itertools.combinations(names, k)]
    return validate_process(sigma), [signalling_residual(sigma, f) for f in from_sets]


def _permuted_switch3(seed):
    """make_switch(3) with seeded permutations of the root's output and the
    leaf's input: a sparse, real, valid 2916-dim process."""
    rng = np.random.default_rng(seed)
    sw = make_switch(3)
    u = sw.unitary
    dressed = []
    for systems in (u.domain, u.codomain):
        perm = [np.eye(s.dim)[:, rng.permutation(s.dim)] if s.name in ("P.out", "F.in") else np.eye(s.dim) for s in systems]
        dressed.append(LinearMap(functools.reduce(np.kron, perm).astype(complex), systems, systems))
    return make_unitary_process(sw.nodes, compose_maps(dressed[1], compose_maps(u, dressed[0])))


def test_sparse_and_dense_paths_agree(switch_up, reduced_switch, af_process, bw_up):
    cx = make_methods_counterexample()
    bits = (ClassicalNode("A", 2, 2), ClassicalNode("B", 2, 2))
    cases = [switch_up, reduced_switch, af_process, make_mix_example()]
    # Equal-norm offending sectors: their order must not depend on the path.
    cases += [quantize(cx.combined(np.array(dist))) for dist in ([1.0, 0.0], [0.5, 0.5], [0.9, 0.1])]
    cases += [quantize(dp.to_classical()) for dp in enumerate_deterministic_processes(bits)]
    assert all(sorted_coo(sigma.op.matrix) is not None for sigma in cases)
    sparse = [_verdict_and_signalling(sigma) for sigma in cases]
    # The type-norm table alone on larger operators and more quantized tables.
    tabled = cases + [make_switch(3), _permuted_switch3(7), bw_up]
    tabled += [quantize(table) for table in (make_af_deterministic().to_classical(), make_classical_switch(2).to_classical())]
    tables = [hs._table(*hs._sparse_type_squares(sigma.op.systems, *sorted_coo(sigma.op.matrix))) for sigma in tabled]
    for sigma, got in zip(tabled, tables):
        want = type_norms(labeled._dense_reference(sigma.op.systems, sigma.op.matrix))
        assert set(got) == set(want), (sigma.node_names, len(got), len(want))
        bound = 1e-12 * float(np.linalg.norm(sigma.op.matrix))
        assert all(abs(got[key] - want[key]) <= bound for key in want), sigma.node_names
    for sigma, (got, got_signalling) in zip(cases, sparse):
        # A copy that every kernel routes dense: the reference for the entry kernels.
        dense = process_operator(sigma.nodes, labeled._dense_reference(sigma.op.systems, sigma.op.matrix))
        want, want_signalling = _verdict_and_signalling(dense)
        for field in ("valid", "hermitian_ok", "psd_ok", "trace_ok", "type_ok", "psd_method", "offending_types"):
            assert getattr(got, field) == getattr(want, field), (sigma.node_names, field)
        for field in ("hermitian_residual", "forbidden_norm", "min_eigenvalue"):
            assert abs(getattr(got, field) - getattr(want, field)) <= 1e-12, (sigma.node_names, field)
        assert np.allclose(got_signalling, want_signalling, rtol=0, atol=1e-12)


def _spectral(rng, d, dtype, eigenvalues):
    """Exactly Hermitian d×d matrix with these nonzero eigenvalues, on random
    orthonormal vectors; every other eigenvalue is 0."""
    a = rng.normal(size=(d, len(eigenvalues)))
    if dtype == complex:
        a = a + 1j * rng.normal(size=a.shape)
    q = np.linalg.qr(a)[0]
    m = (q * np.asarray(eigenvalues)) @ q.conj().T
    return (m + m.conj().T) / 2


def _dense_verdict(m, tol=1e-9):
    """validate_process of m on one node, held and checked dense."""
    node = QuantumNode("A", len(m), 1)
    return validate_process(process_operator([node], labeled._dense_reference((node.in_system, node.out_dual), m)), tol)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("d", [16, 64, 256, 1024])
def test_low_rank_certificate_matches_eigvalsh(d, dtype):
    rng = np.random.default_rng(d + (dtype == complex))
    top = math.isqrt(d)
    eps = np.finfo(float).eps
    for rank in sorted({1, 2, top // 2, top}):
        m = _spectral(rng, d, dtype, rng.uniform(0.1, 2.0, rank))
        verdict = _dense_verdict(m)
        want = np.linalg.eigvalsh(m)[0]
        assert verdict.psd_ok == (want >= -verdict.tol) and verdict.psd_method == "eigh"
        assert abs(verdict.min_eigenvalue - want) <= 2 * d * eps * np.linalg.norm(m), rank
    # Where the factor cannot certify, the eigenvalue is computed as before.
    fallbacks = [
        (_spectral(rng, d, dtype, rng.uniform(0.1, 2.0, top + 1)), 1e-9),
        (_spectral(rng, d, dtype, rng.uniform(0.1, 2.0, d)), 1e-9),
        (_spectral(rng, d, dtype, [*rng.uniform(0.1, 2.0, 2), -1e-3]), 1e-9),
        (_spectral(rng, d, dtype, rng.uniform(0.1, 2.0, 2)), 0.0),
    ]
    for m, tol in fallbacks:
        verdict = _dense_verdict(m, tol)
        want = float(np.linalg.eigvalsh(m[None]).min())
        assert verdict.min_eigenvalue == want and verdict.psd_ok == (want >= -tol)
    zero = _dense_verdict(np.zeros((d, d), dtype=dtype))
    assert zero.psd_ok and zero.min_eigenvalue == 0.0 and not np.signbit(zero.min_eigenvalue)


def _pipeline_before(m, tol=1e-9):
    """(hermitian_residual, psd_ok, min_eigenvalue, certified) of a dense
    validation as it ran when the certificate was read off the Hermitian part
    h: h first, real where its imaginary part is zero, then the pivoted
    Cholesky certificate on h, else eigvalsh."""
    herm, h = labeled._hermitian_part(m)
    if np.iscomplexobj(h) and not h.imag.any():
        h = h.real
    if not math.isfinite(herm):
        return herm, False, math.nan, False
    d, eps = len(h), np.finfo(float).eps
    norm = math.sqrt(np.vdot(h, h).real)
    diag = h.diagonal().real.copy()
    l = np.zeros((d, min(math.isqrt(d), d - 1)), dtype=h.dtype)
    k = 0
    while diag.max() > eps * norm and k < l.shape[1]:
        p = int(np.argmax(diag))
        l[:, k] = (h[:, p] - l[:, :k] @ l[p, :k].conj()) / math.sqrt(diag[p])
        diag -= np.abs(l[:, k]) ** 2
        k += 1
    if diag.max() <= eps * norm:
        l = l[:, :k]
        delta = np.linalg.norm(h - l @ l.conj().T) + 4 * (k + 2) * eps * np.linalg.norm(l) ** 2
        if delta <= tol and delta <= d * eps * norm:
            return herm, True, -delta, True
    min_eig = float(np.linalg.eigvalsh(h[None]).min())
    return herm, min_eig >= -tol, min_eig, False


@pytest.mark.parametrize("kind", ["real", "complex", "complex-held real"])
@pytest.mark.parametrize("d", [1, 3, 127, 128, 129, 300, 1024])
def test_certificate_read_off_the_operator_matches_the_hermitian_part_pipeline(d, kind, monkeypatch):
    rng = np.random.default_rng(d + len(kind))
    dtype = complex if kind == "complex" else float
    top = math.isqrt(d)
    # At 1024 dims the chain cases stand in for the costlier spectra, whose
    # eigvalsh oracle dominates the test's time.
    ranks = {1, 2} if d == 1024 else {1, 2, top // 2, top}
    cases = [(_spectral(rng, d, dtype, rng.uniform(0.1, 2.0, rank)), 1e-9) for rank in sorted(ranks) if rank <= d]
    cases.append((_spectral(rng, d, dtype, rng.uniform(0.1, 2.0, min(top + 1, d))), 1e-9))  # beyond the pivot cap
    if d == 1024:  # a chain comb, moved off its mirror by one entry: within tol, and beyond it
        chain = random_unitary_chain(3, rng).op.matrix
        chain = chain.real.copy() if dtype == float else chain
        cases += [(chain, 1e-9)]
        for skew in (1e-13, 1e-6):
            skewed = chain.copy()
            skewed[0, 1] += skew
            cases.append((skewed, 1e-9))
    else:  # full rank, a negative eigenvalue, no tolerance, and a non-Hermitian m within tol
        cases += [
            (_spectral(rng, d, dtype, rng.uniform(0.1, 2.0, d)), 1e-9),
            (_spectral(rng, d, dtype, [*rng.uniform(0.1, 2.0, min(2, d - 1)), -1e-3]), 1e-9),
            (_spectral(rng, d, dtype, rng.uniform(0.1, 2.0, min(2, d))), 0.0),
        ]
        skewed = cases[1][0].copy()
        skewed[-1, 0] += np.spacing(abs(skewed[-1, 0]))  # about one ulp off its mirror
        cases.append((skewed, 1e-9))
    for value in (np.nan, np.inf):
        broken = cases[0][0].copy()
        broken[d // 2, 0] = value
        cases.append((broken, 1e-9))
    if kind == "complex-held real":
        cases = [(m.astype(complex), tol) for m, tol in cases]
    eps = np.finfo(float).eps

    def refuse(m):
        raise AssertionError("the certified path formed the Hermitian part")

    certified = 0
    for m, tol in cases:
        with np.errstate(invalid="ignore", over="ignore"):
            herm, psd_ok, min_eig, was_certified = _pipeline_before(m, tol)
        with monkeypatch.context() as patch:
            if was_certified:
                patch.setattr(labeled, "_hermitian_part", refuse)
            with np.errstate(invalid="ignore", over="ignore"):
                verdict = _dense_verdict(m, tol)
        assert np.array_equal(verdict.hermitian_residual, herm, equal_nan=True)  # herm is _hermitian_part(m)[0]
        assert verdict.psd_ok == psd_ok and verdict.psd_method == "eigh"
        if was_certified:
            certified += 1
            want = float(np.linalg.eigvalsh(m[None] if kind != "complex-held real" else m.real[None]).min())
            assert -tol <= verdict.min_eigenvalue <= 0.0
            assert abs(verdict.min_eigenvalue - want) <= 2 * d * eps * np.linalg.norm(m)
        else:  # the same fallback as before, bit for bit
            assert np.array_equal(verdict.min_eigenvalue, min_eig, equal_nan=True)
    assert certified >= (1 if d < 100 else 4)  # the skewed matrices within tol among them


def test_low_rank_dense_processes_skip_the_eigendecomposition(monkeypatch):
    rng = np.random.default_rng(3)
    c1, c2 = (random_unitary_chain(3, rng) for _ in range(2))
    mixture = process_operator(c1.nodes, LabeledOperator(c1.op.systems, 0.3 * c1.op.matrix + 0.7 * c2.op.matrix))

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh was called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for sigma in (c1, mixture):
        assert sigma.dim == 1024 and labeled._entries(sigma.op) is None
        verdict = validate_process(sigma)
        assert verdict.valid and verdict.psd_method == "eigh" and -1e-12 < verdict.min_eigenvalue <= 0.0


def test_dense_validation_peaks_below_two_operators():
    """A fresh dense 1024-dim Haar process and a rank-two mixture validate with
    at most two operators' bytes traced at once: the Hermitian part, and the
    type-norm table's copy once the part is freed."""
    rng = np.random.default_rng(24)
    nodes = [QuantumNode(x, 2, 2) for x in "ABC"] + [QuantumNode("P", 1, 4), QuantumNode("F", 4, 1)]
    dom = tuple(n.out_system for n in nodes if n.d_out > 1)
    cod = tuple(n.in_system for n in nodes if n.d_in > 1)
    haar = make_unitary_process(nodes, LinearMap(haar_unitary(32, rng), dom, cod)).process
    c1, c2 = (random_unitary_chain(3, rng).process for _ in range(2))
    mixture = process_operator(c1.nodes, LabeledOperator(c1.op.systems, 0.4 * c1.op.matrix + 0.6 * c2.op.matrix))
    for sigma in (haar, mixture):
        size = sigma.op.matrix.nbytes
        assert labeled._entries(sigma.op) is None and size == 16 * 2**20
        tracemalloc.start()
        try:
            verdict = validate_process(sigma)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict.psd_ok and verdict.psd_method == "eigh" and verdict.type_ok == (sigma is mixture)
        assert peak <= 2 * size, peak


def _traced_peak(sigma):
    """validate_process(sigma) and the peak of the bytes traced while it ran."""
    tracemalloc.start()
    try:
        verdict = validate_process(sigma)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return verdict, peak


def test_certified_dense_validation_peaks_at_the_type_tables_copy():
    """A certified validation of a fresh dense 1024-dim Haar process or rank-two
    mixture forms no Hermitian part: the type-norm table's one copy of the
    operator is all it holds of that size."""
    rng = np.random.default_rng(28)
    nodes = [QuantumNode(x, 2, 2) for x in "ABC"] + [QuantumNode("P", 1, 4), QuantumNode("F", 4, 1)]
    dom = tuple(n.out_system for n in nodes if n.d_out > 1)
    cod = tuple(n.in_system for n in nodes if n.d_in > 1)
    haar = make_unitary_process(nodes, LinearMap(haar_unitary(32, rng), dom, cod)).process
    c1, c2 = (random_unitary_chain(3, rng).process for _ in range(2))
    mixture = process_operator(c1.nodes, LabeledOperator(c1.op.systems, 0.4 * c1.op.matrix + 0.6 * c2.op.matrix))
    for sigma in (haar, mixture):
        size = sigma.op.matrix.nbytes
        assert labeled._entries(sigma.op) is None and size == 16 * 2**20
        verdict, peak = _traced_peak(sigma)
        assert verdict.psd_ok and -1e-12 < verdict.min_eigenvalue <= 0.0 and verdict.type_ok == (sigma is mixture)
        assert peak <= 1.1 * size, peak / size


def test_dense_cholesky_validation_peaks_at_two_operators():
    """Above 2048 dims the Cholesky method shifts the Hermitian part's diagonal
    in place: the part and the factor are all it holds of the operator's size."""
    rng = np.random.default_rng(21)
    nodes = [QuantumNode("A", 3, 4), QuantumNode("B", 5, 5), QuantumNode("C", 7, 1)]
    d = 2100
    a = rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3))
    sigma = process_operator(nodes, LabeledOperator(tuple(canonical_systems(nodes)), a @ a.conj().T))
    assert sigma.dim == d and labeled._entries(sigma.op) is None
    verdict, peak = _traced_peak(sigma)
    assert verdict.psd_ok and verdict.psd_method == "cholesky" and math.isnan(verdict.min_eigenvalue)
    assert peak <= 2.1 * sigma.op.matrix.nbytes, peak / sigma.op.matrix.nbytes


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_nan_or_infinite_entry_fails_validation_without_an_eigensolver(value):
    # A non-finite Hermitian residual skips the PSD step, whose eigensolver
    # would not converge: positivity is refuted with a NaN eigenvalue.
    chain, switch = random_unitary_chain(3, np.random.default_rng(0)), make_switch(2)
    index, values = labeled._entries(switch.op)
    on = index % (switch.dim + 1) == 0
    cases = []
    for i, j in [(5, 5), (3, 700)]:
        m = chain.op.matrix.copy()
        m[i, j] = value
        cases.append(process_operator(chain.nodes, LabeledOperator(chain.op.systems, m)))
    for k in (np.flatnonzero(on)[0], np.flatnonzero(~on)[0]):
        v = values.copy()
        v[k] = value
        cases.append(process_operator(switch.nodes, labeled._from_entries(switch.op.systems, index, v)))
    assert [labeled._entries(sigma.op) is None for sigma in cases] == [True, True, False, False]
    for sigma in cases:
        with np.errstate(invalid="ignore", over="ignore"):
            verdict = validate_process(sigma)
        assert not math.isfinite(verdict.hermitian_residual)
        assert not verdict.valid and not verdict.psd_ok and math.isnan(verdict.min_eigenvalue)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("make", [lambda: make_switch(2), make_mix_example], ids=["switch", "mix"])
def test_a_nan_or_infinite_entry_passes_no_check_on_either_storage(make, value):
    # A NaN residual compares False with every bound, so each check must pass
    # only where its residual is within tol, never where it is not above it.
    sigma = make()
    m = sigma.op.matrix.copy()
    m[0, 0] = value
    held = [LabeledOperator(sigma.op.systems, m), labeled._dense_reference(sigma.op.systems, m)]
    assert [labeled._entries(op) is None for op in held] == [False, True]
    verdicts = []
    for op in held:
        broken = process_operator(sigma.nodes, op)
        with np.errstate(invalid="ignore", over="ignore"):
            verdict = validate_process(broken)
            graph, mf = discover(broken)
            passing = [o for o in itertools.permutations(broken.node_names) if comb_check(broken, o).accepted]
            verdicts.append((
                verdict.valid, verdict.type_ok, mf.accepted, passing, comb_search(broken),
                signalling_residual(broken, ["A"]) <= 1e-9, len(type_norms(op)), graph.edges,
            ))
        assert all(math.isnan(r["min_eigenvalue"]) for r in mf.channel_residuals.values())
    assert verdicts[0] == verdicts[1]
    valid, type_ok, accepted, passing, found, silent, types, _ = verdicts[0]
    assert not valid and not type_ok and not accepted and not silent
    assert passing == [] and found is None
    assert types == 2 ** sum(s.dim > 1 for s in sigma.op.systems)  # no NaN type is dropped


def _witnessed(key, nodes) -> bool:
    """The key rule: type ``key`` is allowed iff some node's in key is in it
    and that node's out-dual key is not."""
    return any(n.in_system.key in key and n.out_dual.key not in key for n in nodes)


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3),
    identities=st.integers(0, 2**6 - 1),
    density=st.sampled_from([1.0, 0.1, 0.01]),
    nans=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_type_verdicts_follow_the_key_rule_on_type_norms(dims, identities, density, nans, seed):
    # A random operator on some of the nodes' systems, padded by identities on
    # the others (bit i of ``identities`` pads system i), so that whole types
    # are exactly zero; thinned to a sparse pattern, and with NaN entries.
    rng = np.random.default_rng(seed)
    nodes = [QuantumNode("ABC"[i], d_in, d_out) for i, (d_in, d_out) in enumerate(dims)]
    systems = tuple(canonical_systems(nodes))
    assume(math.prod(s.dim for s in systems) <= 324)
    kept = tuple(s for i, s in enumerate(systems) if not identities >> i & 1)
    d = math.prod(s.dim for s in kept)
    g = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) * (rng.random((d, d)) < density)
    m = embed(LabeledOperator(kept, g), systems).matrix.copy()
    m.reshape(-1)[rng.integers(0, m.size, nans)] = np.nan
    for op in (LabeledOperator(systems, m), labeled._dense_reference(systems, m)):
        sigma = process_operator(nodes, op)
        with np.errstate(invalid="ignore", over="ignore"):
            verdict = validate_process(sigma)
            table = type_norms(op)
        forbidden = [(key, val) for key, val in table.items() if key and not _witnessed(key, nodes)]
        assert repr(verdict.forbidden_norm) == repr(math.hypot(*(val for _, val in forbidden)))
        named = [(val, "*".join(n + "'" * dual for n, dual in key)) for key, val in forbidden if val > verdict.forbidden_threshold]
        named.sort(key=lambda item: (float(f"{item[0]:.12g}"), item[1]), reverse=True)
        assert verdict.offending_types == tuple(label for _, label in named[:16])
        for r in range(1, len(nodes)):
            for group in itertools.combinations(nodes, r):
                factors = {k for n in group for k in (n.in_system.key, n.out_dual.key)}
                unwitnessed = [(key, val) for key, val in table.items() if not _witnessed(key, group)]
                residual = math.hypot(*(val for key, val in unwitnessed if factors.intersection(key)))
                want = residual / max(1.0, math.hypot(*(val for _, val in unwitnessed)))
                assert repr(signalling_residual(sigma, [n.name for n in group])) == repr(want), group


def _two_qubit_nodes():
    return QuantumNode("A", 2, 2), QuantumNode("B", 2, 2)


def _flat_process(nodes):
    """The identity on the nodes' spaces, read as a process (not validated)."""
    return process_operator(nodes, identity_operator(canonical_systems(nodes)))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda a, b: QuantumNode("C", 0, 2), "node dimensions must be positive", id="empty node space"),
        pytest.param(lambda a, b: process_operator([a, a], identity_operator(canonical_systems([a]))), "node names must be unique", id="repeated node"),
        pytest.param(
            lambda a, b: process_operator([a], identity_operator([SystemLabel("A.in", 3), a.out_dual])),
            "missing system .* or has wrong dimension",
            id="wrong dimension",
        ),
        pytest.param(lambda a, b: signalling_residual(_flat_process([a, b]), []), "nonempty proper subset", id="empty from-set"),
        pytest.param(lambda a, b: signalling_residual(_flat_process([a, b]), ["A", "B"]), "nonempty proper subset", id="whole from-set"),
        pytest.param(
            lambda a, b: conditional_process(_flat_process([a, b]), "A", measure_prepare_element(b, np.eye(2), np.eye(2) / 2)),
            "element belongs to a different node",
            id="condition on a foreign element",
        ),
        # the element is its operator tau: one on B's systems, or on A's
        # in-space and B's out-dual, is not A's
        pytest.param(
            lambda a, b: conditional_process(make_mix_example(), "A", measure_prepare_element(b, np.eye(2), np.eye(2) / 2)),
            "element belongs to a different node than 'A'",
            id="condition on B's element as A's",
        ),
        pytest.param(
            lambda a, b: conditional_process(make_mix_example(), "A", LabeledOperator((a.in_system, b.out_dual), np.eye(4))),
            "element belongs to a different node than 'A'",
            id="condition on an element across two nodes",
        ),
        pytest.param(
            lambda a, b: conditional_process(_flat_process([a]), "A", measure_prepare_element(a, np.eye(2), np.eye(2) / 2)),
            "only node",
            id="condition the only node",
        ),
        pytest.param(
            lambda a, b: conditional_process(_flat_process([a, b]), "A", measure_prepare_element(a, np.zeros((2, 2)), np.eye(2) / 2)),
            r"\(near-\)zero weight",
            id="zero-weight outcome",
        ),
        # two primal wires of one name are two systems with one key, which no operator holds
        pytest.param(lambda a, b: LabeledOperator((SystemLabel("w0", 2), SystemLabel("w0", 2)), np.eye(4)), "duplicate system labels", id="repeated wire name"),
    ],
)
def test_process_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call(*_two_qubit_nodes())
