from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalproc import (
    LabeledOperator,
    LinearMap,
    QuantumNode,
    SystemLabel,
    haar_unitary,
    identity_operator,
    make_af_deterministic,
    make_classical_switch,
    make_methods_counterexample,
    make_switch,
    make_unitary_process,
    partial_trace,
    project_trivial,
    quantize,
    random_unitary_chain,
    reorder,
    tensor,
    type_norms,
    validate_process,
)
from causalproc import hs
from causalproc.hs import _SLICE, _class_weights, _dense_type_squares, _helmert, _mirrored, _sparse_type_squares, _table
from causalproc.labeled import _dense_reference, _entries, sorted_coo
from causalproc.rand import random_state


def test_type_norms_sum_to_squared_frobenius(rng):
    a, b = SystemLabel("a", 2), SystemLabel("b", 2)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = m + m.conj().T
    x = LabeledOperator((a, b), m)
    norms = type_norms(x)
    total = sum(v * v for v in norms.values())
    assert abs(total - np.linalg.norm(m) ** 2) < 1e-10


def test_type_norms_of_identity():
    a, b = SystemLabel("a", 2), SystemLabel("b", 3)
    one = identity_operator([a, b])
    norms = type_norms(one)
    assert list(norms.keys()) == [()]


def test_type_norms_leaves_its_input_unchanged(rng):
    a, b = SystemLabel("a", 3), SystemLabel("b", 2, True)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    cases = [
        # one system: the interleaving transpose is the identity
        LabeledOperator((a,), m),
        LabeledOperator((a, b), np.kron(m, m[:2, :2])),
        LabeledOperator((a, b), np.arange(36).reshape(6, 6)),
    ]
    for x in cases:
        before = x.matrix.copy()
        norms = type_norms(x)
        assert x.matrix.dtype == before.dtype
        assert np.array_equal(x.matrix, before)
        assert abs(sum(v * v for v in norms.values()) - np.linalg.norm(before) ** 2) < 1e-9


def test_project_trivial_idempotent(rng):
    a, b = SystemLabel("a", 2), SystemLabel("b", 2)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    x = LabeledOperator((a, b), m)
    p = project_trivial(x, [b])
    pp = project_trivial(p, [b])
    assert np.abs(p.matrix - pp.matrix).max() < 1e-12
    # projection is orthogonal: the residual has no overlap with the range
    r = x - p
    overlap = np.trace(r.matrix.conj().T @ p.matrix)
    assert abs(overlap) < 1e-10


def test_project_trivial_on_product_state(rng):
    a, b = SystemLabel("a", 2), SystemLabel("b", 3)
    ra, rb = random_state(2, rng), random_state(3, rng)
    x = tensor(LabeledOperator((a,), ra), LabeledOperator((b,), rb))
    p = project_trivial(x, [b])
    want = np.kron(ra, np.trace(rb) * np.eye(3) / 3)
    assert np.abs(p.matrix - want).max() < 1e-12


def test_project_trivial_matches_trace_then_tensor(rng):
    systems = (SystemLabel("a", 2), SystemLabel("b", 3, True), SystemLabel("c", 1), SystemLabel("d", 2))
    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    x = LabeledOperator(systems, m)
    keys = [s.key for s in systems]
    for refs in ([systems[1]], [systems[3], systems[0]], [systems[2], systems[1]], list(systems)):
        labels = [x.system(r) for r in refs]
        scale = np.prod([s.dim for s in labels])
        ref = reorder(tensor(partial_trace(x, refs), identity_operator(labels)), keys)
        got = project_trivial(x, refs)
        assert got.systems == systems
        assert np.abs(got.matrix - ref.matrix / scale).max() < 1e-12


def test_type_norms_of_pauli_sum():
    a, one, b = SystemLabel("a", 2), SystemLabel("one", 1), SystemLabel("b", 2)
    px = np.array([[0, 1], [1, 0]], dtype=complex)
    py = np.array([[0, -1j], [1j, 0]])
    pz = np.diag([1.0, -1.0]).astype(complex)
    x = LabeledOperator((a, one, b), np.kron(px, np.eye(2)) + 2 * np.kron(pz, py))
    norms = type_norms(x)
    assert set(norms) == {(a.key,), (a.key, b.key)}
    # ‖X⊗1‖_F = 2 and ‖2·Z⊗Y‖_F = 4
    assert abs(norms[(a.key,)] - 2.0) < 1e-12
    assert abs(norms[(a.key, b.key)] - 4.0) < 1e-12


def test_counterexample_offending_types_order():
    cx = make_methods_counterexample()
    verdict = validate_process(quantize(cx.combined([0.5, 0.5])))
    # The two sectors have equal norm; the report keeps this order.
    assert verdict.offending_types == ("A.in*A.out'*B.in*B.out'*C.out'", "A.in*A.out'*B.in*B.out'")


def _projector_norms(x: LabeledOperator, todo, key=(), weight=1.0) -> dict:
    """Type norms by the projector formula: the component of type T is
    Π_{i∈T}(1 − P_i) Π_{i∉T} P_i x, with P_i = project_trivial(·, [i]). As
    P_i y = Tr_i(y)/d_i ⊗ 1 has the norm of Tr_i(y)/√d_i, and the other P_j
    act on Tr_i(y) alone, a trivial branch goes on with the partial trace."""
    if not todo:
        norm = weight * float(np.linalg.norm(x.matrix))
        return {key: norm} if norm > 0.0 else {}
    s, rest = todo[0], todo[1:]
    trivial = _projector_norms(partial_trace(x, [s]), rest, key, weight / np.sqrt(s.dim))
    return trivial | _projector_norms(x - project_trivial(x, [s]), rest, key + (s.key,), weight)


def _assert_matches_projector_formula(x: LabeledOperator, got: dict):
    want = _projector_norms(x, [s for s in x.systems if s.dim > 1])
    bound = 1e-12 * max(1.0, float(np.linalg.norm(x.matrix)))
    for key in set(got) | set(want):
        assert abs(got.get(key, 0.0) - want.get(key, 0.0)) <= bound, key


def _dense_table(x: LabeledOperator) -> dict:
    """type_norms of x read by the dense kernel, whatever its stored count."""
    return type_norms(_dense_reference(x.systems, x.matrix))


@pytest.mark.parametrize("dtype", ["real", "complex", "integer"])
def test_dense_type_norms_match_the_projector_formula(dtype, rng):
    for _ in range(15):
        dims = rng.integers(1, 5, size=rng.integers(1, 5))
        systems = tuple(SystemLabel(f"s{i}", int(d), bool(rng.integers(2))) for i, d in enumerate(dims))
        side = int(np.prod(dims))
        m = {
            "real": lambda: rng.normal(size=(side, side)),
            "complex": lambda: rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side)),
            "integer": lambda: rng.choice([-3, -2, -1, 1, 2, 3], size=(side, side)),
        }[dtype]()
        assert sorted_coo(m) is None
        x = LabeledOperator(systems, m)
        before = m.copy()
        got = type_norms(x)
        assert x.matrix.dtype == before.dtype and np.array_equal(x.matrix, before)
        _assert_matches_projector_formula(x, got)


def test_dense_type_norms_with_at_most_one_nontrivial_factor(rng):
    one, two, b = SystemLabel("one", 1), SystemLabel("two", 1, True), SystemLabel("b", 3)
    for systems in [(), (one,), (one, two), (b,), (one, b, two), (two, SystemLabel("c", 4))]:
        side = int(np.prod([s.dim for s in systems]))
        x = LabeledOperator(systems, rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side)))
        got = _dense_table(x)  # a 1×1 routes on its entry by content
        assert set(got) <= {()} | {(s.key,) for s in systems if s.dim > 1}
        _assert_matches_projector_formula(x, got)


def test_dense_type_norms_of_1024_dim_processes(rng):
    """The dense 1024-dim processes of the benchmark's analysis pass: a rank-two
    mixture of chain combs (valid) and a Haar unitary process (invalid)."""
    c1, c2 = random_unitary_chain(3, rng), random_unitary_chain(3, rng)
    mixture = LabeledOperator(c1.op.systems, 0.3 * c1.op.matrix + 0.7 * c2.op.matrix)
    nodes = [QuantumNode(name, 2, 2) for name in "ABC"] + [QuantumNode("P", 1, 4), QuantumNode("F", 4, 1)]
    dom = tuple(n.out_system for n in nodes if n.d_out > 1)
    cod = tuple(n.in_system for n in nodes if n.d_in > 1)
    haar = make_unitary_process(nodes, LinearMap(haar_unitary(32, rng), dom, cod))
    for x in (mixture, haar.op):
        assert x.dim == 1024 and _entries(x) is None
        got = type_norms(x)
        assert len(got) == 2**8
        _assert_matches_projector_formula(x, got)


def _unblocked_type_squares(op: LabeledOperator) -> tuple[list, np.ndarray]:
    """The dense table as built before it was blocked: each factor's Helmert
    pass over the whole interleaved copy, then the squares, then the class
    sums, each in a new array."""
    dims = [s.dim for s in op.systems]
    n = len(dims)
    interleaved = [ax for i in range(n) for ax in (i, n + i)]
    m = np.array(op.as_tensor().transpose(interleaved), dtype=np.result_type(op.matrix.dtype, np.float64), order="C")
    for i, d in enumerate(dims):
        _helmert(np.moveaxis(m.reshape(math.prod(dims[:i]) ** 2, d * d, -1)[:, :: d + 1], 1, 0))
    parts = m.reshape(-1).view(np.float64)
    np.square(parts, out=parts)
    a = np.add(parts[0::2], parts[1::2]) if np.iscomplexobj(m) else parts
    keys = []
    for i, d in enumerate(dims):
        if d > 1:
            a = np.matmul(_class_weights(d), a.reshape(-1, d * d, math.prod(dims[i + 1 :]) ** 2))
            keys.append(op.systems[i].key)
    return keys, a.reshape(-1)


def test_blocked_dense_type_squares_equal_the_unblocked_ones_bit_for_bit(rng):
    c1, c2 = random_unitary_chain(3, rng), random_unitary_chain(3, rng)
    nodes = [QuantumNode(name, 2, 2) for name in "ABC"] + [QuantumNode("P", 1, 4), QuantumNode("F", 4, 1)]
    dom = tuple(n.out_system for n in nodes if n.d_out > 1)
    cod = tuple(n.in_system for n in nodes if n.d_in > 1)
    haar = make_unitary_process(nodes, LinearMap(haar_unitary(32, rng), dom, cod))
    switch = make_switch(3).op
    assert not switch.matrix.imag.any()
    cases = [
        LabeledOperator(c1.op.systems, 0.3 * c1.op.matrix + 0.7 * c2.op.matrix),
        haar.op,
        LabeledOperator(switch.systems, switch.matrix.real),  # 2916 dims, held dense and real
    ]
    for dims in [(3, 1, 5, 2), (5, 3, 1, 3, 2), (1, 5, 1), (300,), (1,), (1, 1)]:
        systems = tuple(SystemLabel(f"s{i}", d, bool(i % 2)) for i, d in enumerate(dims))
        side = math.prod(dims)
        m = rng.normal(size=(side, side))
        cases += [LabeledOperator(systems, m), LabeledOperator(systems, m + 1j * rng.normal(size=m.shape))]
    assert cases[2].dim == 2916 and cases[-6].dim ** 2 > _SLICE  # one factor's block is larger than a slice
    for op in cases:
        keys, squares = _dense_type_squares(op)
        want_keys, want = _unblocked_type_squares(op)
        assert keys == want_keys and squares.dtype == want.dtype and squares.tobytes() == want.tobytes(), op.systems
        assert squares.base is None or squares.base.nbytes == squares.nbytes  # not a view that keeps the copy


def test_dense_type_norms_give_exact_zeros():
    """Equal diagonal entries give an exactly zero traceless part for d <= 4,
    so identities, Pauli sums and quantized classical tables get exact key
    sets from the dense kernel too."""
    systems = (SystemLabel("a", 2), SystemLabel("b", 3, True), SystemLabel("c", 4))
    for scale in (1.0, 1 / 3, 0.1, 0.7, np.pi):
        assert list(_dense_table(scale * identity_operator(systems))) == [()]

    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]
    qubits = (SystemLabel("q0", 2), SystemLabel("one", 1), SystemLabel("q1", 2, True), SystemLabel("q2", 2))
    strings = list(itertools.product(range(4), repeat=3))
    for seed in range(5):
        pick = np.random.default_rng(seed)
        terms = {strings[k]: int(pick.integers(1, 4)) for k in pick.choice(len(strings), 6, replace=False)}
        m = sum(c * np.kron(np.kron(paulis[p[0]], paulis[p[1]]), paulis[p[2]]) for p, c in terms.items())
        want = {}
        for p, c in terms.items():
            key = tuple(s.key for s, i in zip((qubits[0], qubits[2], qubits[3]), p) if i)
            want[key] = want.get(key, 0.0) + 8.0 * c * c
        got = _dense_table(LabeledOperator(qubits, m))
        assert set(got) == set(want)
        for key, val in want.items():
            assert abs(got[key] - np.sqrt(val)) <= 1e-12 * np.sqrt(val)

    tables = [
        make_af_deterministic().to_classical(),
        make_classical_switch(2).to_classical(),
        make_methods_counterexample().combined([0.5, 0.5]),
    ]
    for table in tables:
        x = quantize(table).op
        sparse = _table(*_sparse_type_squares(x.systems, *sorted_coo(x.matrix)))
        got = _dense_table(x)
        assert set(got) == set(sparse)
        _assert_matches_projector_formula(x, got)


# Parts of entries: signed zeros and values equal often enough to cancel exactly.
parts = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1 / 3, 0.1]),
    st.floats(-4.0, 4.0, allow_subnormal=False).filter(lambda x: x == 0.0 or abs(x) > 1e-100),
)


@st.composite
def sorted_coo_operators(draw):
    """Operators on 1 to 3 factors of dims 1 to 5 with at most a quarter of
    their entries stored, complex or real."""
    dims = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    systems = tuple(SystemLabel(f"s{i}", d, draw(st.booleans())) for i, d in enumerate(dims))
    size = int(np.prod(dims)) ** 2
    where = draw(st.lists(st.integers(0, size - 1), max_size=size // 4, unique=True))
    m = np.zeros(size, dtype=complex)
    m[where] = [complex(draw(parts), draw(parts)) for _ in where]
    m = m.reshape(int(np.prod(dims)), -1)
    return LabeledOperator(systems, m.real.copy() if draw(st.booleans()) else m)


@settings(max_examples=200, deadline=None)
@given(x=sorted_coo_operators())
def test_sparse_and_dense_type_norms_have_the_same_types(x):
    entries = sorted_coo(x.matrix)
    assert entries is not None
    got, want = _table(*_sparse_type_squares(x.systems, *entries)), _dense_table(x)
    assert set(got) == set(want)
    bound = 1e-12 * float(np.linalg.norm(x.matrix))
    assert all(abs(got[key] - want[key]) <= bound for key in want)


def _coo(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """m's entries by ``sorted_coo``'s rule (stored unless both parts are
    +0.0), however many there are."""
    flat = np.ascontiguousarray(m).reshape(-1)
    index = np.flatnonzero(flat.view(np.uint64).reshape(flat.size, -1).any(axis=1))
    return index, flat[index]


@pytest.fixture()
def first_pass(monkeypatch):
    """Records the entry count and the call count of the sparse table's
    Helmert passes: the first pass sees every entry it will change."""
    sizes = []

    def counted(flat, *rest, real=hs._helmert_pass):
        sizes.append(flat.size)
        return real(flat, *rest)

    monkeypatch.setattr(hs, "_helmert_pass", counted)
    return sizes


def _assert_tables_agree(x: LabeledOperator, got: tuple, want: tuple):
    """Equal keys and nonzero types, and norms within 1e-12·‖x‖_F per type."""
    assert got[0] == want[0] and np.array_equal(got[1] != 0.0, want[1] != 0.0)
    bound = 1e-12 * float(np.linalg.norm(x.matrix))
    assert np.abs(np.sqrt(got[1]) - np.sqrt(want[1])).max(initial=0.0) <= bound


@settings(max_examples=200, deadline=None)
@given(x=sorted_coo_operators())
def test_hermitian_sparse_type_norms_run_on_half_and_match_the_dense_ones(x):
    # adding +0.0 turns each -0.0 into +0.0, so the stored pattern is symmetric too
    h = LabeledOperator(x.systems, (x.matrix + x.matrix.conj().T) / 2 + 0.0)
    index, values = _coo(h.matrix)
    assert _mirrored(index, values, h.dim)
    got, want = _table(*_sparse_type_squares(h.systems, index, values)), _dense_table(h)
    assert set(got) == set(want)
    bound = 1e-12 * float(np.linalg.norm(h.matrix))
    assert all(abs(got[key] - want[key]) <= bound for key in want)


def _hermitian_case(rng) -> LabeledOperator:
    """A sparse complex Hermitian operator on factors of dims 2, 1 and 3 (one
    dual), with a quarter of its entries stored."""
    systems = (SystemLabel("a", 2), SystemLabel("one", 1), SystemLabel("b", 3, True))
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    m[rng.random((6, 6)) < 0.8] = 0.0
    m = (m + m.conj().T) / 2 + 0.0
    m[0, 0] = 1.0  # a nonzero trace: the identity type
    m[0, 5] = 0.5 - 0.25j  # off every factor's diagonal: a pair on type (a, b) alone
    m[5, 0] = np.conj(m[0, 5])
    return LabeledOperator(systems, m)


def test_an_entry_one_ulp_off_its_mirror_takes_the_every_entry_loop(rng, first_pass):
    x = _hermitian_case(rng)
    index, values = _coo(x.matrix)
    upper = np.count_nonzero(index // x.dim <= index % x.dim)
    assert _mirrored(index, values, x.dim) and upper < index.size
    _sparse_type_squares(x.systems, index, values)
    assert first_pass[0] == upper
    m = x.matrix.copy()
    m[5, 0] = complex(np.nextafter(m[5, 0].real, np.inf), m[5, 0].imag)
    skewed = LabeledOperator(x.systems, m)
    index, values = _coo(m)
    assert not _mirrored(index, values, skewed.dim)
    first_pass.clear()
    got = _sparse_type_squares(skewed.systems, index, values)
    assert first_pass[0] == index.size
    _assert_tables_agree(skewed, got, _dense_type_squares(_dense_reference(skewed.systems, skewed.matrix)))


def test_a_nan_entry_takes_the_every_entry_loop_and_gives_nan_norms(rng, first_pass):
    x = _hermitian_case(rng)
    m = x.matrix.copy()
    m[0, 5] = m[5, 0] = complex(np.nan, 0.0)  # a stored pattern still symmetric
    index, values = _coo(m)
    assert not _mirrored(index, values, x.dim)
    keys, squares = _sparse_type_squares(x.systems, index, values)
    assert first_pass[0] == index.size
    norms = _table(keys, squares)
    nan_type = (x.systems[0].key, x.systems[2].key)
    assert math.isnan(norms.pop(nan_type))
    assert () in norms and not any(math.isnan(v) for v in norms.values())


def test_a_chunk_just_above_the_slice_is_split_and_sums_as_one(monkeypatch, first_pass):
    switch = make_switch(2).op
    index, values = _entries(switch)
    want = _sparse_type_squares(switch.systems, index, values)
    unsplit = list(first_pass)
    assert len(unsplit) == 6 and max(unsplit) + 1 <= _SLICE  # one pass per nontrivial factor, on one chunk
    # the first pass's output holds the second pass's input count of entries
    monkeypatch.setattr(hs, "_SLICE", unsplit[1] - 1)
    first_pass.clear()
    got = _sparse_type_squares(switch.systems, index, values)
    assert first_pass[0] == unsplit[0] and len(first_pass) > len(unsplit) and sum(first_pass[1:]) >= unsplit[1]
    _assert_tables_agree(switch, got, want)
