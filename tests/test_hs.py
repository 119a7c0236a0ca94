from __future__ import annotations

import numpy as np

from causalproc import (
    LabeledOperator,
    SystemLabel,
    identity_operator,
    make_methods_counterexample,
    partial_trace,
    project_trivial,
    quantize,
    reorder,
    tensor,
    type_norms,
    validate_process,
)
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
