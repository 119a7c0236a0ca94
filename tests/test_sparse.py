"""Operators held as sorted COO: each kernel that works on entries against the
dense path it replaces, and the permutation processes run end to end without
a dense copy.

Permutations of entries (``reorder``) and products
(``cj_operator``, scalar ``*`` and unary ``-``) must give bitwise the dense
matrix; sums (partial traces, projections, distances, comb residuals) agree
within 1e-12 with equal verdicts.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import math
import pickle
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalproc import (
    LabeledOperator,
    LinearMap,
    QuantumNode,
    SystemLabel,
    bipartite_separability,
    causal_structure_unitary,
    cj_operator,
    comb_check,
    comb_search,
    discover,
    distance,
    embed,
    identity_map,
    identity_operator,
    is_isometric,
    labeled,
    make_af,
    make_bw_extension,
    make_mix_example,
    make_reduced_switch,
    make_switch,
    make_unitary_process,
    partial_trace,
    process_operator,
    product,
    project_trivial,
    read_process_file,
    reorder,
    tensor,
    tensor_maps,
    unitary_causal_separability,
    validate_process,
    write_process_file,
)
from causalproc.labeled import apply_stage, sorted_coo


def _bits(m: np.ndarray) -> tuple:
    return m.dtype, m.shape, m.tobytes()


def _random_systems(rng, count=None):
    dims = rng.choice([1, 2, 3], size=count or int(rng.integers(2, 5)))
    return tuple(SystemLabel(f"s{i}", int(k), bool(rng.integers(2))) for i, k in enumerate(dims))


def _signed_zeros(rng, values):
    """Some parts set to -0.0 or +0.0, a few entries to -0.0-0.0j."""
    values = values.copy()
    for part in (values.real, values.imag) if values.dtype == complex else (values,):
        part[rng.random(values.size) < 0.15] = -0.0
        part[rng.random(values.size) < 0.1] = 0.0
    return values


def _random_sparse(rng, systems, real=False):
    """Random operator held as sorted COO, with signed zeros."""
    d = math.prod(s.dim for s in systems)
    count = int(rng.integers(0, d * d // 4 + 1))
    index = np.sort(rng.choice(d * d, size=count, replace=False))
    values = rng.normal(size=count) if real else rng.normal(size=count) + 1j * rng.normal(size=count)
    op = labeled._from_entries(systems, index, _signed_zeros(rng, values))
    assert labeled._entries(op) is not None
    return op


def _dense(op: LabeledOperator) -> LabeledOperator:
    """A copy that every kernel routes dense: the reference path."""
    return labeled._dense_reference(op.systems, op.matrix)


def _operators(seeds=range(30)):
    for seed in seeds:
        rng = np.random.default_rng(seed)
        yield rng, _random_sparse(rng, _random_systems(rng), real=seed % 3 == 0)


def test_dense_held_inputs_route_on_their_entries_and_matrix_is_not_cached():
    """A matrix given to the constructor is kept as it is, counted once, and
    routed on the entries the count finds: its kernel results come back held
    as sorted COO, bitwise those of the dense reference."""
    a, b = SystemLabel("a", 2), SystemLabel("b", 2)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0
    op = LabeledOperator((a, b), m)
    assert op.matrix is m and op._dense is m
    assert repr(op) == "LabeledOperator((a(2), b(2)), 1 stored entries)"
    assert repr(_dense(op)) == "LabeledOperator((a(2), b(2)), dense)"
    entries = labeled._entries(op)
    assert labeled._entries(op) is entries and all(_bits(x) == _bits(y) for x, y in zip(entries, sorted_coo(m)))
    with pytest.raises(ValueError):
        entries[1][0] = 2.0
    for got, want in ((reorder(op, [b, a]), reorder(_dense(op), [b, a])), (op * 2.0, _dense(op) * 2.0)):
        assert got._dense is None and want._dense is not None and _bits(got.matrix) == _bits(want.matrix)
    sparse = labeled._from_entries((a, b), *sorted_coo(m))
    first = sparse.matrix
    first[1, 1] = 5.0
    assert sparse.matrix is not first and _bits(sparse.matrix) == _bits(m)


def _plain_coo(m: np.ndarray):
    """``sorted_coo`` by its definition, with one full-size mask: every entry
    with a nonzero bit, or None when more than a quarter are stored."""
    flat = np.ascontiguousarray(m, dtype=np.result_type(m.dtype, np.float64)).reshape(-1)
    index = np.flatnonzero(flat.view(np.uint64).reshape(flat.size, -1).any(axis=1))
    return (index, flat[index]) if 4 * index.size <= m.shape[0] ** 2 else None


def _same_coo(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return all(_bits(x) == _bits(y) for x, y in zip(got, want))


def test_sorted_coo_of_the_exemplars_is_their_stored_entries():
    ops = [make_switch(2).process.op, make_switch(3).process.op, make_reduced_switch(2).op, make_af().op,
           make_bw_extension().process.op, make_mix_example().op]
    for op in ops:
        m = op.matrix
        assert _same_coo(sorted_coo(m), _plain_coo(m))


# Words per sorted_coo slice in the tests below: a complex matrix of side
# 363 or more spans several slices, and stored entries are drawn at their edges.
_SLICE = 1 << 18


@st.composite
def dense_held_patterns(draw):
    """A square float or complex matrix with up to a quarter of its entries
    stored, or a few more, with signed zeros and entries with one zero part;
    some stored entries sit either side of a slice edge."""
    side, real = draw(st.integers(1, 40) | st.integers(363, 520)), draw(st.booleans())
    size, per = side * side, 1 if real else 2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    where = rng.choice(size, size=min(size, draw(st.integers(0, size // 4 + 2))), replace=False)
    edges = [k * _SLICE // per + off for k in range(1, per * size // _SLICE + 1) for off in (-1, 0)]
    # an edge at the matrix's end (side 512) has no entry after it
    where = np.concatenate([where, [e for e in edges if e < size and draw(st.booleans())]]).astype(np.intp)
    m = np.zeros(size, dtype=float if real else complex)
    for part in (m,) if real else (m.real, m.imag):
        part[where] = rng.choice([0.0, -0.0, 1.0, -2.5, 1e-300], size=where.size)
    return m.reshape(side, side)


@settings(max_examples=60, deadline=None)
@given(m=dense_held_patterns())
def test_sorted_coo_slices_give_the_stored_entries(m):
    assert _same_coo(sorted_coo(m), _plain_coo(m))


def test_sorted_coo_of_a_dense_held_4096_dim_matrix_needs_no_full_size_mask():
    m = make_bw_extension().process.op.matrix  # 256 MiB, 4096 stored entries
    tracemalloc.start()
    try:
        got = sorted_coo(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _same_coo(got, labeled._entries(make_bw_extension().process.op))
    assert peak <= 2 * 2**20, peak


def test_operators_copy_and_pickle_in_either_form():
    sigma = make_switch(2)
    for op in (sigma.op, LabeledOperator(sigma.op.systems, sigma.op.matrix)):
        for back in (copy.deepcopy(op), pickle.loads(pickle.dumps(op))):
            assert back.systems == op.systems and (back._dense is None) == (op._dense is None)
            assert _bits(back.matrix) == _bits(op.matrix)
    with pytest.raises(AttributeError):
        sigma.op.systems = ()


def test_cj_operator_entries_are_those_of_the_outer_product():
    for seed in range(60):
        rng = np.random.default_rng(seed)
        dom, cod = _random_systems(rng, 3), (SystemLabel("x", int(rng.integers(1, 4))),)
        shape = (math.prod(s.dim for s in cod), math.prod(s.dim for s in dom))
        real = seed % 2 == 0
        u = rng.normal(size=shape) if real else rng.normal(size=shape) + 1j * rng.normal(size=shape)
        # a scattered pattern (dense for some seeds), negative parts and -0.0
        u = _signed_zeros(rng, u.reshape(-1)).reshape(shape)
        u[rng.random(shape) < rng.choice([0.5, 0.8, 0.95])] = 0.0
        v = u.reshape(-1)
        want = np.outer(v, v.conj())
        got = cj_operator(LinearMap(u, dom, cod))
        assert _bits(got.matrix) == _bits(want), seed
        entries = sorted_coo(want)
        assert (got._dense is not None) == (entries is None), seed
        if entries is not None:
            assert all(_bits(x) == _bits(y) for x, y in zip(got._coo, entries)), seed


@pytest.mark.parametrize("kind", ["reversal", "cycle", "random"])
def test_reorder_on_entries_inverts_and_composes_bitwise(kind):
    # the result is sorted COO, p then p is the square of p, and p then the
    # first order is op again
    for rng, op in _operators():
        n, keys = len(op.systems), [s.key for s in op.systems]
        p = {"reversal": np.arange(n)[::-1], "cycle": np.roll(np.arange(n), 1), "random": rng.permutation(n)}[kind]
        once = reorder(op, [keys[i] for i in p])
        twice = reorder(once, [once.systems[i].key for i in p])
        square = reorder(op, [keys[i] for i in p[p]])
        back = reorder(once, keys)
        assert labeled._entries(once) is not None and np.all(np.diff(labeled._entries(once)[0]) > 0)
        assert back.systems == op.systems and _same_coo(labeled._entries(back), labeled._entries(op))
        assert twice.systems == square.systems and _same_coo(labeled._entries(twice), labeled._entries(square))


def test_permutations_and_scalar_products_are_bitwise_dense():
    for rng, op in _operators():
        dense = _dense(op)
        order = [op.systems[i].key for i in rng.permutation(len(op.systems))]
        pairs = [
            (reorder(op, order), reorder(dense, order)),
            (-op, -dense),
        ]
        for scalar in (0.0, -1.0, 2.5, 1j - 0.5):
            pairs += [(op * scalar, dense * scalar), (scalar * op, scalar * dense)]
        for got, want in pairs:
            assert got.systems == want.systems
            assert _bits(got.matrix) == _bits(want.matrix)
            entries = sorted_coo(want.matrix)
            assert (got._dense is not None) == (entries is None)
            if entries is not None:
                assert all(_bits(x) == _bits(y) for x, y in zip(got._coo, entries))


def test_traces_projections_and_distances_match_dense():
    for rng, op in _operators():
        dense = _dense(op)
        for k in range(len(op.systems) + 1):
            for refs in itertools.combinations([s.key for s in op.systems], k):
                got, want = partial_trace(op, refs), partial_trace(dense, refs)
                assert got.systems == want.systems
                assert np.abs(got.matrix - want.matrix).max(initial=0.0) <= 1e-12
                if got._dense is None:
                    assert 4 * got._coo[0].size <= got.dim**2
                if k:
                    got, want = project_trivial(op, refs), project_trivial(dense, refs)
                    assert np.abs(got.matrix - want.matrix).max(initial=0.0) <= 1e-12
                    assert abs(distance(op, got) - distance(dense, want)) <= 1e-12
        other = _random_sparse(rng, op.systems)
        order = [s.key for s in reversed(op.systems)]
        assert abs(distance(op, reorder(other, order)) - distance(dense, _dense(other))) <= 1e-12


def test_distance_of_a_sparse_and_a_dense_operand_never_densifies(monkeypatch):
    """The dense operand, or 0 minus it, with the stored entries added in place
    is bitwise the dense a - b; at operand norms below 1 the normalization is
    1, so the distances are equal bit for bit."""
    cases = []
    for rng, op in _operators():
        op = op * (0.9 / max(1.0, float(np.linalg.norm(labeled._entries(op)[1]))))
        d = op.dim
        m = rng.normal(size=d * d) + (1j * rng.normal(size=d * d) if rng.integers(2) else 0.0)
        m[rng.random(d * d) < 0.3] = 0.0
        m = _signed_zeros(rng, m) * (0.9 / max(1.0, float(np.linalg.norm(m))))
        other = LabeledOperator(tuple(reversed(op.systems)), m.reshape(d, d))
        assert op._dense is None and other._dense is not None
        cases.append((op, other, distance(_dense(op), other), distance(other, _dense(op))))

    def refuse(side, index, values):
        raise AssertionError(f"a {side}x{side} operator was made dense")

    monkeypatch.setattr(labeled, "_densify", refuse)
    for op, other, forward, backward in cases:
        assert distance(op, other) == forward
        assert distance(other, op) == backward


def _held_as_the_rule_finds(op: LabeledOperator) -> bool:
    return (op._dense is None) == (sorted_coo(op.matrix) is not None)


def test_products_padding_tensors_and_sums_on_entries_match_dense():
    """Sparse operands, and 1x1 ones, are multiplied, padded, tensored, added
    and subtracted on their stored entries: padded entries and sums equal the
    dense path's, products agree within 1e-12, and each such result is held
    as the rule finds it. Dense operands keep the dense path, a product
    written straight into its target order is bitwise the default-order
    product reordered, and the Markov check's product residual equals
    ``distance`` of the product whichever route it takes."""
    one = LabeledOperator((SystemLabel("u", 1),), np.array([[2.5 - 1j]]))
    for seed in range(40):
        rng = np.random.default_rng(seed)
        pool = _random_systems(rng, 4)
        other = tuple(SystemLabel(f"t{i}", s.dim, s.dual) for i, s in enumerate(_random_systems(rng, 2)))

        def sparse(systems):
            return _random_sparse(rng, tuple(systems[i] for i in rng.permutation(len(systems))), real=seed % 3 == 0)

        x, y, z = (sparse(pool[: rng.integers(1, 5)]) for _ in range(3))
        order = tuple(pool[i] for i in rng.permutation(4)) + (one.systems[0],)
        for ops in ([x, y], [x, one, y, z], [one, x], [x, y, z]):
            dense = [_dense(op) for op in ops]
            scale = math.prod(max(1.0, float(np.linalg.norm(op.matrix))) for op in ops)
            for systems in (None, order):
                got, want = product(ops, systems), product(dense, systems)
                assert got.systems == want.systems
                assert np.abs(got.matrix - want.matrix).max(initial=0.0) <= 1e-12 * scale
            union = tuple({s.key: s for op in ops for s in op.systems}.values())
            for systems in (order, tuple(union[i] for i in rng.permutation(len(union))) + one.systems * (one not in ops)):
                d = math.prod(s.dim for s in systems)
                target = LabeledOperator(systems, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
                for factors in (ops, dense):
                    got = labeled._product_distance(factors, target)
                    assert abs(got - distance(product(dense, systems), target)) <= 1e-12
            assert _held_as_the_rule_finds(labeled._multiply(ops[0], ops[1]))
            step = labeled._multiply(dense[0], dense[1])
            target = tuple(step.systems[i] for i in rng.permutation(len(step.systems))) + one.systems[-1:] * (one not in ops[:2])
            direct = labeled._multiply(dense[0], dense[1], target)
            assert direct.systems == target and _bits(direct.matrix) == _bits(embed(step, target).matrix)
        padded = embed(x, order)
        missing = [s for s in order if s.key not in {t.key for t in x.systems}]
        want = reorder(tensor(_dense(x), identity_operator(missing)), [s.key for s in order])
        assert padded.systems == want.systems and labeled._entries(padded) is not None
        assert np.array_equal(padded.matrix, want.matrix)
        w = sparse(other)
        for factors, on_entries in (([x, w], True), ([one, w], True), ([w, _dense(x)], False)):
            got = tensor(*factors)
            want = np.array([[1.0 + 0j]])
            for op in factors:
                want = np.kron(want, op.matrix)
            if on_entries:
                # np.kron's complex products may round differently in the last bit
                assert _held_as_the_rule_finds(got) and np.allclose(got.matrix, want, rtol=1e-15, atol=0)
            else:
                assert got._dense is not None and _bits(got.matrix) == _bits(want)
        same = _random_sparse(rng, tuple(reversed(x.systems)))
        for got, want in ((x + same, _dense(x) + _dense(same)), (x - same, _dense(x) - _dense(same))):
            assert got.systems == want.systems and _held_as_the_rule_finds(got)
            assert np.array_equal(got.matrix, want.matrix)
        same = reorder(same, x.systems)
        for got, want in ((x + _dense(same), x.matrix + same.matrix), (_dense(x) - same, x.matrix - same.matrix)):
            assert got._dense is not None and _bits(got.matrix) == _bits(want)


def _permutation_chain(rng, slots):
    """Chain comb P -> A -> B ... -> F whose stages are seeded permutations of
    (slot wire, qubit memory), with a seeded phase sign per stage."""
    nodes = [QuantumNode(chr(ord("A") + i), 2, 2) for i in range(slots)]
    root, leaf = QuantumNode("P", 1, 4), QuantumNode("F", 4, 1)
    mem = SystemLabel("mem", 2)

    def perm():
        return np.eye(4, dtype=complex)[:, rng.permutation(4)] * rng.choice([1.0, -1.0, 1j])

    u = LinearMap(perm(), (root.out_system,), (nodes[0].in_system, mem))
    for i, node in enumerate(nodes):
        cod = (nodes[i + 1].in_system, mem) if i + 1 < slots else (leaf.in_system,)
        u = apply_stage(tensor_maps(u, identity_map([node.out_system])), LinearMap(perm(), (node.out_system, mem), cod))
    return make_unitary_process(nodes + [root, leaf], u)


def _processes():
    """Sparse processes: permutation chains (combs), switch(2) (cyclic), and
    random operators on two or three nodes with dim-1 factors."""
    yield make_switch(2)
    for seed in range(6):
        rng = np.random.default_rng(100 + seed)
        yield _permutation_chain(rng, 1 + seed % 2)
        dims = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)]
        nodes = [QuantumNode(n, *dims[rng.integers(len(dims))]) for n in "ABC"[: 2 + seed % 2]]
        systems = tuple(s for n in nodes for s in (n.in_system, n.out_dual))
        if math.prod(s.dim for s in systems) > 1:
            yield process_operator(nodes, _random_sparse(rng, systems))


def test_comb_residuals_search_and_isometry_match_dense():
    verdicts = set()
    for sigma in _processes():
        assert labeled._entries(sigma.op) is not None
        dense = process_operator(sigma.nodes, _dense(sigma.op))
        for order in itertools.permutations(sigma.node_names):
            got, want = comb_check(sigma, order), comb_check(dense, order)
            assert got.accepted == want.accepted
            assert np.allclose(got.residuals, want.residuals, rtol=0, atol=1e-12)
        found = comb_search(sigma)
        assert found == comb_search(dense)
        isometric = is_isometric(sigma)
        assert isometric == is_isometric(dense)
        scaled = process_operator(sigma.nodes, sigma.op * 2.0)
        assert is_isometric(scaled) == is_isometric(process_operator(sigma.nodes, _dense(scaled.op)))
        verdicts.add((found is not None, isometric))
    # the corpus holds isometric combs (the chains), an isometric non-comb
    # (switch(2)) and non-isometric operators
    assert {(True, True), (False, True)} <= verdicts and any(not iso for _, iso in verdicts)


@pytest.fixture()
def no_densify(monkeypatch):
    def refuse(side, index, values):
        raise AssertionError(f"a {side}x{side} operator was made dense")

    monkeypatch.setattr(labeled, "_densify", refuse)


def _end_to_end(up, path):
    sigma = up
    verdict = validate_process(sigma)
    assert verdict.valid and verdict.psd_method == "cholesky"
    assert comb_search(sigma) is None
    assert causal_structure_unitary(up).is_cyclic
    assert is_isometric(sigma)
    write_process_file(path, up)
    back = read_process_file(path).process.op
    assert back.systems == sigma.op.systems
    assert all(_bits(x) == _bits(y) for x, y in zip(labeled._entries(back), labeled._entries(sigma.op)))


@pytest.mark.parametrize("make", [make_bw_extension, lambda: make_switch(4)], ids=["bw", "switch(4)"])
def test_permutation_processes_never_densify(make, no_densify, tmp_path):
    up = make()
    assert labeled._entries(up.op)[0].size == up.dim
    _end_to_end(up, tmp_path / "process.json")


def _held_dense(op: LabeledOperator) -> LabeledOperator:
    """A copy of a sparse operator that every kernel routes dense, made
    without ``labeled._densify``."""
    index, values = labeled._entries(op)
    m = np.zeros(op.dim * op.dim, dtype=values.dtype)
    m[index] = values
    return labeled._dense_reference(op.systems, m.reshape(op.dim, op.dim))


def test_sparse_comb_verdicts_never_densify_and_match_dense(no_densify):
    # The last marginal of a comb check is a 1x1 operator, built inline.
    chain = _permutation_chain(np.random.default_rng(7), 2)
    for sigma in (make_switch(3), chain):
        assert labeled._entries(sigma.op) is not None
        dense = process_operator(sigma.nodes, _held_dense(sigma.op))
        for order in itertools.permutations(sigma.node_names):
            got, want = comb_check(sigma, order), comb_check(dense, order)
            assert got.accepted == want.accepted
            assert np.allclose(got.residuals, want.residuals, rtol=0, atol=1e-12)
        assert comb_search(sigma) == comb_search(dense)
    got = unitary_causal_separability(chain)
    want = unitary_causal_separability(process_operator(chain.nodes, _held_dense(chain.op)))
    assert got.separable and (got.order, got.cycle, got.graph) == (want.order, want.cycle, want.graph)
    assert got.comb.accepted and np.allclose(got.comb.residuals, want.comb.residuals, rtol=0, atol=1e-12)


def test_bw_end_to_end_memory_bound(no_densify, tmp_path):
    tracemalloc.start()
    try:
        _end_to_end(make_bw_extension(), tmp_path / "bw.json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20, peak


def test_switch5_unitary_separability_memory_bound(no_densify):
    # The isometry guard reads one column of the 62500-dim operator, so the
    # theorem decides it in a few MiB with no dense copy.
    up = make_switch(5)
    tracemalloc.start()
    try:
        verdict = unitary_causal_separability(up)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not verdict.separable and verdict.cycle == ("A", "B")
    assert peak <= 64 * 2**20, peak


@pytest.mark.parametrize(
    "make, seconds",
    [
        (lambda: make_switch(2), 0.1),
        (lambda: make_switch(3), 0.1),
        (make_bw_extension, 0.3),
        (lambda: _permutation_chain(np.random.default_rng(7), 3), 0.1),
    ],
    ids=["switch(2)", "switch(3)", "bw", "1024-dim chain"],
)
def test_discover_never_densifies(make, seconds, no_densify):
    # The root's 1x1 Markov factor joins the sparse products on its one entry.
    sigma = make()
    assert labeled._entries(sigma.op) is not None
    start = time.perf_counter()
    graph, mf = discover(sigma)
    elapsed = time.perf_counter() - start
    assert mf.accepted and mf.product_residual <= 1e-12 and graph.edges
    assert elapsed <= seconds, elapsed


def _agree(got, want) -> bool:
    """Equal verdicts field by field, with every float within 1e-14 (NaN
    matching NaN) and operators compared entry by entry."""
    if isinstance(got, LabeledOperator):
        return got.systems == want.systems and np.abs(got.matrix - want.matrix).max(initial=0.0) <= 1e-14
    if dataclasses.is_dataclass(got):
        return type(got) is type(want) and all(_agree(getattr(got, f.name), getattr(want, f.name)) for f in dataclasses.fields(got))
    if isinstance(got, dict):
        return got.keys() == want.keys() and all(_agree(got[k], want[k]) for k in got)
    if isinstance(got, (tuple, list)):
        return len(got) == len(want) and all(map(_agree, got, want))
    if isinstance(got, float):
        return (math.isnan(got) and math.isnan(want)) or abs(got - want) <= 1e-14
    return got == want


def _best_seconds(call, repeats=5) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return min(times)


@pytest.mark.parametrize("make", [lambda: make_switch(3), make_bw_extension], ids=["switch(3)", "bw"])
def test_dense_held_copies_route_and_run_as_the_sparse_held(make):
    """A copy of switch(3) or bw held dense is counted once, on first use, and
    then routed on its stored entries: validation, discovery, the comb search
    and the paper's theorem give the sparse-held verdicts, with residuals
    within 1e-14, each within twice the sparse-held time; and a fresh copy of
    bw is discovered, its one count included, in under 0.15 s."""
    sparse = make()
    m = sparse.op.matrix
    dense = dataclasses.replace(sparse, op=LabeledOperator(sparse.op.systems, m))
    assert labeled._entries(sparse.op) is not None and dense.op.matrix is m
    assert all(_bits(x) == _bits(y) for x, y in zip(labeled._entries(dense.op), labeled._entries(sparse.op)))
    for call in (validate_process, discover, comb_search, unitary_causal_separability):
        assert _agree(call(dense), call(sparse)), call.__name__
        held, reference = _best_seconds(lambda: call(dense)), _best_seconds(lambda: call(sparse))
        assert held <= 2 * reference, (call.__name__, held, reference)
    if sparse.dim == 4096:
        fresh = [dataclasses.replace(sparse, op=LabeledOperator(sparse.op.systems, m)) for _ in range(3)]
        assert min(_best_seconds(lambda: discover(sigma), 1) for sigma in fresh) < 0.15


DISCOVER_SWITCH4 = """
import resource, subprocess, sys, time
code = "import sys; sys.path.insert(0, {src!r}); from causalproc import discover, make_switch; print(discover(make_switch(4))[1].accepted)"
start = time.perf_counter()
accepted = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout.strip()
print(accepted, time.perf_counter() - start, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_discover_on_switch4_fits_in_a_fresh_process():
    # 16384 dims: the dense commutators alone would need 8.7 GB. A child's
    # peak RSS counts the RSS of the process that started it, so the child is
    # started from a fresh interpreter, not from this one.
    pytest.importorskip("resource")
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", DISCOVER_SWITCH4.format(src=src)], capture_output=True, text=True, check=True, timeout=120)
    accepted, seconds, peak_kib = out.stdout.split()
    assert accepted == "True" and float(seconds) <= 10, out.stdout
    assert int(peak_kib) <= 2**20, out.stdout  # ru_maxrss is in KiB on Linux


def test_separability_fast_path_keeps_a_sparse_process_sparse(monkeypatch, tmp_path):
    """A one-way comb read from its file is split without a dense copy of it.
    The comb check's last marginal is a 1x1 operator, dense by the sparsity
    rule, so only a full-size dense copy is refused here."""
    path = tmp_path / "mix.json"
    write_process_file(path, make_mix_example())
    sigma = read_process_file(path).process
    assert labeled._entries(sigma.op) is not None
    densify = labeled._densify

    def refuse_full_size(side, index, values):
        assert side < sigma.dim, f"the {side}x{side} process was made dense"
        return densify(side, index, values)

    monkeypatch.setattr(labeled, "_densify", refuse_full_size)
    sv = bipartite_separability(sigma)
    assert (sv.status, sv.iterations) == ("separable", 0)
    assert labeled._entries(sv.second_component) is not None


def test_matrix_beyond_the_byte_budget_is_refused_before_allocating():
    # one stored entry on 32768 dims: the dense matrix would need 16 GiB
    op = labeled._from_entries((SystemLabel("a", 2**15),), np.array([0]), np.array([1.0 + 0j]))
    assert labeled._entries(op) is not None
    with pytest.raises(ValueError, match=f"would need {16 * 4**15} bytes, more than {labeled.MAX_DENSE_BYTES}"):
        op.matrix
