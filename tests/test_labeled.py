from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from causalproc import (
    LabeledOperator,
    LinearMap,
    QuantumNode,
    SystemLabel,
    cj_operator,
    compose_maps,
    distance,
    dual,
    embed,
    identity_map,
    identity_operator,
    is_unitary,
    labeled,
    partial_trace,
    permute_map,
    process_operator,
    product,
    project_trivial,
    reorder,
    split_system,
    tensor,
    tensor_maps,
)
from causalproc.labeled import MAX_DENSE_BYTES, apply_stage
from causalproc.process import canonical_systems
from causalproc.rand import haar_unitary, random_state


def test_system_label_dual_involution():
    a = SystemLabel("A.in", 3)
    assert dual(a).dual and dual(a).name == "A.in" and dual(a).dim == 3
    assert dual(dual(a)) == a
    assert a.key == ("A.in", False)
    assert dual(a).key == ("A.in", True)


def test_reorder_round_trip(rng):
    a, b, c = SystemLabel("a", 2), SystemLabel("b", 3), SystemLabel("c", 2)
    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    x = LabeledOperator((a, b, c), m)
    y = reorder(reorder(x, [c, a, b]), [a, b, c])
    assert y.systems == (a, b, c)
    assert np.abs(y.matrix - m).max() < 1e-14


@pytest.mark.parametrize("held", ["dense", "entries"])
def test_reorder_to_its_own_order_returns_the_operator(held, rng):
    a, b, c = SystemLabel("a", 2), SystemLabel("b", 3), SystemLabel("c", 2, dual=True)
    m = np.zeros((12, 12), dtype=complex)
    m[rng.integers(12, size=5), rng.integers(12, size=5)] = 1.0 + 2.0j
    x = LabeledOperator((a, b, c), rng.normal(size=(12, 12)) if held == "dense" else m)
    assert (labeled._entries(x) is None) == (held == "dense")
    assert reorder(x, [a, b, c]) is x
    assert reorder(x, ["a", "b", ("c", True)]) is x


def test_reorder_matches_kron_swap(rng):
    a, b = SystemLabel("a", 2), SystemLabel("b", 3)
    ma = rng.normal(size=(2, 2))
    mb = rng.normal(size=(3, 3))
    x = tensor(LabeledOperator((a,), ma), LabeledOperator((b,), mb))
    assert np.abs(x.matrix - np.kron(ma, mb)).max() < 1e-14
    y = reorder(x, [b, a])
    assert np.abs(y.matrix - np.kron(mb, ma)).max() < 1e-14


def test_addition_aligns_system_order(rng):
    a, b = SystemLabel("a", 2), SystemLabel("b", 2)
    m = rng.normal(size=(4, 4))
    x = LabeledOperator((a, b), m)
    y = reorder(x, [b, a])
    z = x + y
    assert np.abs(z.matrix - 2 * m).max() < 1e-14
    assert distance(x, y) < 1e-14


def test_partial_trace_of_product_state(rng):
    a, b = SystemLabel("a", 2), SystemLabel("b", 3)
    ra, rb = random_state(2, rng), random_state(3, rng)
    x = tensor(LabeledOperator((a,), ra), LabeledOperator((b,), rb))
    y = partial_trace(x, [b])
    assert y.systems == (a,)
    assert np.abs(y.matrix - ra).max() < 1e-14
    full = partial_trace(x, [a, b])
    assert abs(full.matrix[0, 0] - 1) < 1e-12


def test_embed_pads_with_identity(rng):
    a, b = SystemLabel("a", 2), SystemLabel("b", 3)
    ra = random_state(2, rng)
    x = LabeledOperator((a,), ra)
    y = embed(x, [a, b])
    assert np.abs(y.matrix - np.kron(ra, np.eye(3))).max() < 1e-14


def test_split_system_is_row_major_over_its_parts(rng):
    a, b, c = SystemLabel("a", 2), SystemLabel("b", 3), SystemLabel("c", 2)
    ma, mb = rng.normal(size=(2, 2)), rng.normal(size=(3, 3))
    x = LabeledOperator((SystemLabel("ab", 6), c), np.kron(np.kron(ma, mb), np.eye(2)))
    split = split_system(x, "ab", [a, b])
    assert split.systems == (a, b, c)
    assert np.array_equal(split.matrix, x.matrix)
    # the first part is the most significant digit of the composite index
    assert np.abs(partial_trace(split, ["b", "c"]).matrix - 2 * np.trace(mb) * ma).max() < 1e-12
    with pytest.raises(ValueError, match="do not multiply"):
        split_system(x, "ab", [a, c])
    # each part keeps the split system's dual flag, which is checked, not dropped
    p, q = SystemLabel("p", 2), SystemLabel("q", 2)
    dual_x = LabeledOperator((SystemLabel("x", 4, dual=True),), np.eye(4))
    assert split_system(dual_x, ("x", True), [dual(p), dual(q)]).systems == (dual(p), dual(q))
    for parts, op, ref in (([p, q], dual_x, ("x", True)), ([a, dual(b)], x, "ab")):
        with pytest.raises(ValueError, match="dual flag"):
            split_system(op, ref, parts)


def test_system_label_refuses_a_dimension_below_one():
    # a dimension-0 system would reach the kernels, which divide by its size
    for dim in (0, -1):
        with pytest.raises(ValueError, match="dimension at least 1"):
            SystemLabel("a", dim)
    with pytest.raises(ValueError, match="dimension at least 1"):
        partial_trace(LabeledOperator((SystemLabel("a", 0), SystemLabel("b", 2)), np.zeros((0, 0))), ["a"])


def test_product_embeds_factors(rng):
    a, b = SystemLabel("a", 2), SystemLabel("b", 2)
    ma = rng.normal(size=(2, 2))
    mb = rng.normal(size=(2, 2))
    x = LabeledOperator((a,), ma)
    y = LabeledOperator((b,), mb)
    z = product([x, y])
    assert np.abs(z.matrix - np.kron(ma, mb)).max() < 1e-14
    # same-space factors multiply as matrices
    w = product([LabeledOperator((a,), ma), LabeledOperator((a,), mb)])
    assert np.abs(w.matrix - ma @ mb).max() < 1e-14


def test_product_matches_dense_embedding(rng):
    a, b, c = SystemLabel("a", 2), SystemLabel("b", 3, True), SystemLabel("c", 2)
    systems = (a, b, c)
    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    x = LabeledOperator(systems, m)
    # Small and large factors: (c, a) and (c, b, a) have sub.dim² ≥ 12 = d.
    for sub in ((b,), (c, a), (b, c), (c, b, a)):
        d = int(np.prod([s.dim for s in sub]))
        y = LabeledOperator(sub, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        got = product([x, y], systems)
        assert np.abs(got.matrix - m @ embed(y, systems).matrix).max() < 1e-12


def _random_factor(rng, pool):
    """Dense or sorted-COO operator on a random subset of ``pool``, in random order."""
    sub = tuple(pool[i] for i in rng.permutation(len(pool))[: rng.integers(0, len(pool) + 1)])
    d = math.prod(s.dim for s in sub)
    if rng.random() < 0.5:
        return LabeledOperator(sub, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    index = np.sort(rng.choice(d * d, size=int(rng.integers(0, d * d // 4 + 1)), replace=False))
    op = labeled._from_entries(sub, index, rng.normal(size=index.size) + 1j * rng.normal(size=index.size))
    assert op._coo is not None
    return op


def test_product_matches_matmul_of_embeddings():
    rng = np.random.default_rng(15)
    for _ in range(200):
        dims = rng.integers(1, 4, size=4)
        flags = rng.integers(0, 2, size=3).astype(bool)
        # "a" appears with both dual flags, so keys and not names tell systems apart
        pool = (
            SystemLabel("a", int(dims[0])),
            SystemLabel("a", int(dims[0]), True),
            SystemLabel("b", int(dims[1]), flags[0]),
            SystemLabel("c", int(dims[2]), flags[1]),
            SystemLabel("e", int(dims[3]), flags[2]),
        )
        ops = [_random_factor(rng, pool) for _ in range(rng.integers(0, 5))]
        seen = tuple({s.key: s for op in ops for s in op.systems}.values())
        for systems in (None, tuple(pool[i] for i in rng.permutation(len(pool)))):
            got = product(ops, systems)
            want_systems = seen if systems is None else systems
            assert got.systems == want_systems
            want = np.eye(got.dim, dtype=complex)
            scale = 1.0
            for op in ops:
                e = embed(op, want_systems).matrix
                want = want @ e
                scale *= max(1.0, np.linalg.norm(e))
            assert np.linalg.norm(got.matrix - want) <= 1e-12 * scale
        used = [s for s in seen if rng.random() < 0.5]
        if used:
            with pytest.raises(ValueError, match="must contain"):
                product(ops, [s for s in pool if s not in used])


def test_product_refuses_mismatched_dims_and_oversized_unions():
    o2, o3 = SystemLabel("o", 2), SystemLabel("o", 3)
    with pytest.raises(ValueError, match="dimension"):
        product([identity_operator([o2]), identity_operator([o3])])
    # A dense and a sparse 512-dim operator sharing one qubit: the union has
    # 2**17 dims, so the dense product would need 2**39 bytes. Two sparse ones
    # are multiplied on their stored entries into the sparse identity.
    a, b = SystemLabel("a", 256), SystemLabel("b", 256)
    eye = np.arange(512) * 513
    x = labeled._from_entries((a, o2), eye, np.ones(512))
    y = labeled._from_entries((o2, b), eye, np.ones(512))
    dense = LabeledOperator((a, o2), np.ones((512, 512)))
    assert x._coo is not None and y._coo is not None
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=str(MAX_DENSE_BYTES)):
            product([dense, y])
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        joined = product([x, y])
        _, joined_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2**20, peak
    assert joined.systems == (a, o2, b) and joined_peak <= 64 * 2**20, joined_peak
    assert np.array_equal(joined._coo[0], np.arange(2**17) * (2**17 + 1)) and np.all(joined._coo[1] == 1)



def test_tensor_refuses_an_oversized_product_before_allocating():
    # A dense and a sparse 512-dim operator on disjoint systems: the tensor
    # product has 2**18 dims, so the dense result alone would need 2**40
    # bytes. Two sparse ones give the sparse identity from their stored entries.
    a, b, c, e = SystemLabel("a", 256), SystemLabel("b", 2), SystemLabel("c", 256), SystemLabel("e", 2)
    eye = np.arange(512) * 513
    x = labeled._from_entries((a, b), eye, np.ones(512))
    y = labeled._from_entries((c, e), eye, np.ones(512))
    dense = LabeledOperator((a, b), np.ones((512, 512)))
    assert x._coo is not None and y._coo is not None
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=str(MAX_DENSE_BYTES)):
            tensor(dense, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2**20, peak
    joined = tensor(x, y)
    assert np.array_equal(joined._coo[0], np.arange(2**18) * (2**18 + 1)) and np.all(joined._coo[1] == 1)


def test_embed_refuses_its_product_and_reordered_copy_before_allocating(monkeypatch, rng):
    # Padding a qubit to 512 dims in front of it: the np.kron product alone
    # fits the budget exactly, but it and its reordered copy are held at once.
    monkeypatch.setattr(labeled, "MAX_DENSE_BYTES", 16 * 512**2)
    a, b = SystemLabel("a", 2), SystemLabel("b", 256)
    op = LabeledOperator((a,), random_state(2, rng))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=str(labeled.MAX_DENSE_BYTES)):
            embed(op, (b, a))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2**20, peak
    assert embed(op, (a, SystemLabel("c", 128))).dim == 256


def test_permute_map_matches_permutation_matrix(rng):
    a, b, c = SystemLabel("a", 2), SystemLabel("b", 3), SystemLabel("c", 2)
    x, y = SystemLabel("x", 3), SystemLabel("y", 4)
    u = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    f = LinearMap(u, (a, b, c), (x, y))

    def perm(old, new):
        # p[i, j] = 1 iff composite index i in ``new`` order and j in ``old``
        # order name the same basis state.
        dims = [s.dim for s in old]
        p = np.zeros((np.prod(dims), np.prod(dims)))
        for j, digits in enumerate(np.ndindex(*dims)):
            state = dict(zip(old, digits))
            i = np.ravel_multi_index([state[s] for s in new], [s.dim for s in new])
            p[i, j] = 1.0
        return p

    g = permute_map(f, domain=(c, a, b), codomain=(y, x))
    assert g.domain == (c, a, b) and g.codomain == (y, x)
    ref = perm((x, y), (y, x)) @ u @ perm((a, b, c), (c, a, b)).T
    assert np.abs(g.matrix - ref).max() < 1e-12
    with pytest.raises(ValueError):
        permute_map(f, domain=(a, a, b))


def test_identity_operator_trace():
    a, b = SystemLabel("a", 2), SystemLabel("b", 3)
    one = identity_operator([a, b])
    assert abs(np.trace(one.matrix) - 6) < 1e-12


def test_compose_maps_matches_matrix_product(rng):
    a, b, c = SystemLabel("a", 2), SystemLabel("b", 2), SystemLabel("c", 2)
    u = haar_unitary(2, rng)
    v = haar_unitary(2, rng)
    f = LinearMap(u, (a,), (b,))
    g = LinearMap(v, (b,), (c,))
    h = compose_maps(g, f)
    assert h.domain == (a,) and h.codomain == (c,)
    assert np.abs(h.matrix - v @ u).max() < 1e-14


def test_compose_maps_aligns_permuted_codomain(rng):
    a, b, c, d = (SystemLabel(s, 2) for s in "abcd")
    u = haar_unitary(4, rng)
    f = LinearMap(u, (a, b), (c, d))
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[j * 2 + i, i * 2 + j] = 1.0
    g = LinearMap(swap.astype(complex), (d, c), (a, b))
    h = compose_maps(g, f)
    # g expects (d, c); f produces (c, d); composition must insert the permutation
    direct = swap @ np.kron(np.eye(2), np.eye(2))
    ref = compose_maps(permute_map(g, domain=(c, d)), f)
    assert np.abs(h.matrix - ref.matrix).max() < 1e-14
    assert is_unitary(h)


def test_tensor_maps_kron(rng):
    a, b, c, d = (SystemLabel(s, 2) for s in "abcd")
    u = haar_unitary(2, rng)
    v = haar_unitary(2, rng)
    t = tensor_maps(LinearMap(u, (a,), (c,)), LinearMap(v, (b,), (d,)))
    assert t.domain == (a, b) and t.codomain == (c, d)
    assert np.abs(t.matrix - np.kron(u, v)).max() < 1e-14
    ident = identity_map([a, b])
    assert np.abs(ident.matrix - np.eye(4)).max() < 1e-14



def test_apply_stage_pads_fresh_inputs(rng):
    a, b, c, m, x = (SystemLabel(s, 2) for s in "abcmx")
    current = LinearMap(haar_unitary(4, rng), (a, b), (c, m))
    stage = LinearMap(haar_unitary(4, rng), (c, x), (a, b))
    got = apply_stage(current, stage)
    want = apply_stage(tensor_maps(current, identity_map([x])), stage)
    assert got.domain == want.domain == (a, b, x) and got.codomain == want.codomain == (a, b, m)
    assert got.matrix.tobytes() == want.matrix.tobytes()

def test_is_unitary(rng):
    a, b = SystemLabel("a", 3), SystemLabel("b", 3)
    u = haar_unitary(3, rng)
    assert is_unitary(LinearMap(u, (a,), (b,)))
    assert not is_unitary(LinearMap(u + 0.01, (a,), (b,)))
    # an isometry into a larger space is not square
    assert not is_unitary(LinearMap(u[:, :2], (SystemLabel("c", 2),), (b,)))


def test_cj_operator_of_unitary(rng):
    a, b = SystemLabel("A.out", 2), SystemLabel("B.in", 2)
    u = haar_unitary(2, rng)
    cj = cj_operator(LinearMap(u, (a,), (b,)))
    assert cj.systems == (b, dual(a))
    # rank one, PSD, trace equals the input dimension
    evals = np.linalg.eigvalsh(cj.matrix)
    assert (evals > 1e-9).sum() == 1
    assert abs(np.trace(cj.matrix) - 2) < 1e-12
    # identity map gives the unnormalized maximally entangled state
    cj_id = cj_operator(LinearMap(np.eye(2, dtype=complex), (a,), (b,)))
    phi = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            phi[i * 2 + i, j * 2 + j] = 1.0
    assert np.abs(cj_id.matrix - phi).max() < 1e-14


def test_labeled_operator_rejects_mismatched_shape():
    a = SystemLabel("a", 2)
    with pytest.raises(ValueError):
        LabeledOperator((a,), np.zeros((3, 3)))


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def _exact_norm(x: np.ndarray) -> float:
    """‖x‖_F from an exactly rounded sum of the squared parts; np.linalg.norm's
    strided dot products drift by a few ulps at 1024 dims."""
    parts = np.ascontiguousarray(x).reshape(-1).view(np.float64)
    return math.sqrt(math.fsum((parts * parts).tolist()))


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("side", [1, 3, 127, 128, 129, 300, 1024])
def test_hermitian_part_matches_the_dense_formulas(side, dtype):
    rng = np.random.default_rng(side + (dtype is complex))
    x = rng.normal(size=(side, side)).astype(dtype)
    if dtype is complex:
        x += 1j * rng.normal(size=x.shape)
    # a real matrix held complex: the signs of h's zero imaginary parts must match too
    cases = [x, (x + x.conj().T) / 2] + ([x.real.astype(complex)] if dtype is complex else [])
    for m in cases:
        m.flags.writeable = False
        kept = m.copy()
        residual, h = labeled._hermitian_part(m)
        want = (m + m.conj().T) / 2
        assert np.array_equal(h, want) and np.array_equal(_bits(h), _bits(want))
        assert abs(residual - _exact_norm(m - m.conj().T)) <= 1e-15 * max(1.0, np.linalg.norm(m))
        assert np.array_equal(_bits(m), _bits(kept)) and not m.flags.writeable
    # exactly Hermitian: the residual is exactly zero
    assert labeled._hermitian_part(cases[1])[0] == 0.0


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_hermitian_part_of_nan_and_inf_entries(value, dtype):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(300, 300)).astype(dtype)
    x = (x + x.conj().T) / 2
    for i, j in [(0, 0), (7, 200), (299, 150)]:
        m = x.copy()
        m[i, j] = value
        with np.errstate(invalid="ignore"):
            residual, h = labeled._hermitian_part(m)
            want = (m + m.conj().T) / 2
        assert np.array_equal(_bits(h), _bits(want))
        # the residual is NaN or inf, so no tolerance accepts it
        assert not residual <= 1e300, (i, j, residual)


_A, _B = SystemLabel("a", 2), SystemLabel("b", 2)
_PRIMAL_AND_DUAL = LabeledOperator((_A, dual(_A)), np.eye(4))


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: _PRIMAL_AND_DUAL.index("a"), KeyError, "system name 'a' is ambiguous or absent", id="ambiguous name"),
        pytest.param(lambda: _PRIMAL_AND_DUAL.index(3), TypeError, "cannot interpret system reference 3", id="reference type"),
        pytest.param(lambda: _PRIMAL_AND_DUAL.index(("b", False)), KeyError, "no system", id="absent key"),
        pytest.param(lambda: _PRIMAL_AND_DUAL + 1, TypeError, "expected a LabeledOperator", id="sum with a number"),
        pytest.param(lambda: reorder(_PRIMAL_AND_DUAL, [("a", False)]), ValueError, "is not a permutation", id="partial order"),
        pytest.param(lambda: reorder(_PRIMAL_AND_DUAL, [("a", False), ("a", True), ("a", True)]), ValueError, "is not a permutation", id="repeated system in an order"),
        pytest.param(lambda: reorder(_PRIMAL_AND_DUAL, [_A, dual(_A), _B]), ValueError, "is not a permutation", id="extra system in an order"),
        pytest.param(lambda: reorder(_PRIMAL_AND_DUAL, ["b", dual(_A)]), KeyError, "system name 'b' is ambiguous or absent", id="absent name in an order"),
        pytest.param(lambda: LinearMap(np.eye(3), (_A,), (_B,)), ValueError, r"matrix shape \(3, 3\), expected \(2, 2\)", id="map shape"),
        pytest.param(lambda: project_trivial(_PRIMAL_AND_DUAL, [("b", False)]), KeyError, "no systems", id="projection onto an absent system"),
        pytest.param(
            lambda: process_operator([QuantumNode("A", 2, 2)], identity_operator(canonical_systems([QuantumNode("A", 2, 2)]))).node("B"),
            KeyError,
            "no node named 'B'",
            id="absent node",
        ),
    ],
)
def test_kernel_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()
