from __future__ import annotations

import itertools
import json
import math
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalproc import (
    ClassicalNode,
    DeterministicProcess,
    LabeledOperator,
    LinearMap,
    QuantumNode,
    bipartite_separability,
    comb_check,
    comb_search,
    combs,
    compose_maps,
    conditional_process,
    distance,
    identity_map,
    is_isometric,
    labeled,
    causal_structure_unitary,
    make_af,
    make_bw_extension,
    make_mix_example,
    make_switch,
    make_unitary_process,
    measure_prepare_element,
    partial_trace,
    process_operator,
    project_trivial,
    quantize,
    read_process_file,
    reorder,
    switch_decomposition,
    tensor_maps,
    unitary_causal_separability,
    validate_process,
    verify_decomposition,
    write_process_file,
)
from causalproc.cli import EXEMPLARS, main
from causalproc.exemplars import random_unitary_chain
from causalproc.rand import haar_unitary, random_state
from conftest import one_way_comb, random_one_way_comb


def order_mixture(rng):
    """0.37 times an A-before-B comb plus 0.63 times a B-before-A comb."""
    ab = random_one_way_comb(rng, "A", "B")
    ba = random_one_way_comb(rng, "B", "A")
    w = 0.37
    mixed = w * ab.op.matrix + (1 - w) * reorder(ba.op, ab.op.systems).matrix
    return process_operator(ab.nodes, LabeledOperator(ab.op.systems, mixed))


def test_comb_check_chain_orders(rng):
    sigma = random_one_way_comb(rng)
    good = comb_check(sigma, ("A", "B"))
    assert good.accepted
    assert max(good.residuals) < 1e-9
    bad = comb_check(sigma, ("B", "A"))
    assert not bad.accepted
    assert max(bad.residuals) > 1e-3


@pytest.mark.parametrize("a_in, wire, b_out", [(3, 2, 2), (2, 3, 2), (2, 2, 3), (1, 2, 1)])
def test_comb_check_of_a_one_way_comb_of_unequal_dims(a_in, wire, b_out, rng):
    # A's output reaches B's input through a Haar unitary; the comb is valid,
    # fits A before B and not B before A, whatever the dims of the three spaces
    a, b = QuantumNode("A", a_in, wire), QuantumNode("B", wire, b_out)
    sigma = one_way_comb(a, b, random_state(a_in, rng), haar_unitary(wire, rng))
    assert validate_process(sigma).valid
    good = comb_check(sigma, ("A", "B"))
    assert good.accepted
    assert max(good.residuals) < 1e-9
    bad = comb_check(sigma, ("B", "A"))
    assert not bad.accepted
    assert max(bad.residuals) > 1e-3


def test_comb_check_validates_order(rng):
    sigma = random_one_way_comb(rng)
    with pytest.raises(ValueError):
        comb_check(sigma, ("A",))
    with pytest.raises(ValueError):
        comb_check(sigma, ("A", "A"))


def test_comb_search_finds_chain_order(rng):
    for n in (1, 2, 3):
        up = random_unitary_chain(n, rng)
        order = comb_search(up)
        assert order is not None
        assert comb_check(up, order).accepted
        expected = ("P",) + tuple(chr(ord("A") + i) for i in range(n)) + ("F",)
        assert comb_check(up, expected).accepted


def test_comb_search_respects_budget(rng):
    up = random_unitary_chain(2, rng)
    with pytest.raises(ValueError):
        comb_search(up, budget=2)


def test_is_isometric(switch_up, reduced_switch):
    assert is_isometric(switch_up)
    assert not is_isometric(reduced_switch)


def test_is_isometric_means_v_v_dagger_on_either_storage():
    # -2|ψ⟩⟨ψ|, the idempotent x yᵀ (yᵀx = 1) and the nilpotent (x - y) yᵀ
    # all square to their trace times themselves, yet none is v v†, the
    # process of an isometry.
    node = QuantumNode("A", 2, 2)
    systems = (node.in_system, node.out_dual)
    psi = np.array([1.0, 1.0j, 0.0, 0.0]) / np.sqrt(2)
    x, y = np.array([1.0, 1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0])
    cases = {
        "zero": (np.zeros((4, 4), dtype=complex), True),
        "2 psi psi": (2 * np.outer(psi, psi.conj()), True),
        "-2 psi psi": (-2 * np.outer(psi, psi.conj()), False),
        "x y^T": (np.outer(x, y).astype(complex), False),
        "nilpotent": (np.outer(x - y, y).astype(complex), False),
    }
    for name, (m, want) in cases.items():
        m = m + 0.0  # -0.0 becomes +0.0, which the sparse storage does not keep
        dense = process_operator((node,), labeled._dense_reference(systems, m))
        sparse = process_operator((node,), labeled._from_entries(systems, np.arange(16), m.reshape(-1)))
        assert labeled._entries(dense.op) is None and labeled._entries(sparse.op) is not None
        assert is_isometric(dense) == is_isometric(sparse) == want, name


def test_unitary_separability_of_chain(rng):
    up = random_unitary_chain(2, rng)
    ver = unitary_causal_separability(up)
    assert ver.separable
    assert ver.cycle is None
    assert ver.order == ver.graph.topological_order()
    assert ver.comb.accepted


def test_unitary_separability_of_switch(switch_up):
    ver = unitary_causal_separability(switch_up)
    assert not ver.separable
    assert ver.cycle == ("A", "B")
    assert ver.order is None and ver.comb is None


def test_unitary_verdicts_of_a_switch_read_from_its_file(tmp_path):
    up = make_switch(2)
    write_process_file(tmp_path / "switch.json", up)
    back = read_process_file(tmp_path / "switch.json").process
    assert causal_structure_unitary(back) == causal_structure_unitary(up)
    assert unitary_causal_separability(back) == unitary_causal_separability(up)


def test_unitary_separability_refuses_a_mixture_of_orders(rng):
    # A mixture of an A-before-B and a B-before-A comb signals both ways, so
    # its influence graph is cyclic, yet it is separable: a cycle certifies
    # nonseparability only for the process of a unitary.
    sigma = order_mixture(rng)
    assert causal_structure_unitary(sigma).is_cyclic
    assert bipartite_separability(sigma).separable
    with pytest.raises(ValueError, match="not the process of a unitary"):
        unitary_causal_separability(sigma)


def test_bipartite_separability_fast_path(rng):
    sigma = random_one_way_comb(rng)
    sv = bipartite_separability(sigma)
    assert sv.separable
    assert sv.iterations == 0
    assert sv.weight in (0.0, 1.0)


def test_bipartite_separability_of_mixture(rng):
    sigma = order_mixture(rng)
    assert validate_process(sigma).valid
    sv = bipartite_separability(sigma, tol=1e-6, max_iter=5000)
    assert sv.separable
    assert sv.residual < 1e-6
    assert 0.0 <= sv.weight <= 1.0
    # components sum back to the input process
    total = sv.first_component + sv.second_component
    assert distance(total, sigma.op) < 1e-6
    # each component combs in its own order after normalization
    for comp, order in ((sv.first_component, ("A", "B")), (sv.second_component, ("B", "A"))):
        tr = float(np.trace(comp.matrix).real)
        if tr < 1e-6:
            continue
        part = process_operator(sigma.nodes, LabeledOperator(comp.systems, comp.matrix * (4.0 / tr)))
        assert comb_check(part, order, tol=1e-4).accepted


def test_separability_skips_the_recheck_of_a_negligible_component(rng, monkeypatch):
    # 1e-8 of a B-before-A comb: no fast path at 1e-9, and the split gives
    # the B-before-A component a weight within tol, which is not re-checked
    ab, ba = random_one_way_comb(rng, "A", "B"), random_one_way_comb(rng, "B", "A")
    mixed = (1 - 1e-8) * ab.op.matrix + 1e-8 * reorder(ba.op, ab.op.systems).matrix
    sigma = process_operator(ab.nodes, LabeledOperator(ab.op.systems, mixed))
    checked = []
    validate = combs.validate_process

    def recording(normalized, tol):
        checked.append(normalized)
        return validate(normalized, tol)

    monkeypatch.setattr(combs, "validate_process", recording)
    sv = bipartite_separability(sigma)
    assert sv.separable and sv.iterations > 0
    assert 0.0 < sv.weight <= 1e-6
    assert len(checked) == 1


def test_separability_is_inconclusive_when_a_component_fails_the_recheck(rng, monkeypatch):
    sigma = order_mixture(rng)
    assert bipartite_separability(sigma).separable
    monkeypatch.setattr(combs, "validate_process", lambda normalized, tol: SimpleNamespace(valid=False))
    sv = bipartite_separability(sigma)
    assert sv.status == "inconclusive" and not sv.separable
    assert sv.residual <= sv.tol and math.isnan(sv.weight)


@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
def test_separability_refuses_a_nan_entry_before_the_split_search(dense):
    # The split search's eigensolver would not converge on a NaN entry.
    sigma = make_mix_example()
    m = sigma.op.matrix.copy()
    m[0, 0] = np.nan
    op = labeled._dense_reference(sigma.op.systems, m) if dense else LabeledOperator(sigma.op.systems, m)
    assert (labeled._entries(op) is None) == dense
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=r"entry \[0, 0\] is \(nan") as info:
        bipartite_separability(process_operator(sigma.nodes, op))
    assert not isinstance(info.value, np.linalg.LinAlgError)


def test_order_projectors_compose_to_one_projection(rng):
    """The (A before B) and (B before A) type projectors commute, and their
    product is the one projection over both out-spaces that the split search
    uses as its affine step; one-dimensional spaces included."""

    def order_projector(x, first, second):
        a = project_trivial(x, [second.out_dual.key])
        b = project_trivial(x, [second.out_dual.key, second.in_system.key])
        c = project_trivial(x, [second.out_dual.key, second.in_system.key, first.out_dual.key])
        return a - b + c

    for _ in range(20):
        na, nb = (QuantumNode(name, *(int(k) for k in rng.choice([1, 2, 3], size=2))) for name in "AB")
        systems = (na.in_system, na.out_dual, nb.in_system, nb.out_dual)
        d = int(np.prod([s.dim for s in systems]))
        x = LabeledOperator(systems, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        both = project_trivial(x, [na.out_dual.key, nb.out_dual.key])
        ab_ba = order_projector(order_projector(x, nb, na), na, nb)
        ba_ab = order_projector(order_projector(x, na, nb), nb, na)
        assert np.abs(ab_ba.matrix - both.matrix).max() < 1e-12
        assert np.abs(ba_ab.matrix - both.matrix).max() < 1e-12


def test_separability_cli_exits_four_without_a_verdict(rng, tmp_path, capsys):
    """An inconclusive search is no verdict (exit 4), not a negative one (exit 1)."""
    path = tmp_path / "orders.json"
    write_process_file(path, order_mixture(rng))
    assert main(["separability", "--max-iter", "1", str(path)]) == 4
    report = json.loads(capsys.readouterr().out)
    assert (report["status"], report["iterations"]) == ("inconclusive", 1)
    assert main(["separability", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "separable"
    mix = tmp_path / "mix.json"
    write_process_file(mix, make_mix_example())
    assert main(["separability", "--max-iter", "1", str(mix)]) == 0


def test_bipartite_separability_of_conditioned_reduced_switch(reduced_switch, rng):
    psi = haar_unitary(4, rng)[:, 0]
    prep = np.outer(psi, psi.conj())
    el = measure_prepare_element(reduced_switch.node("P"), np.eye(1, dtype=complex), prep)
    marg = conditional_process(reduced_switch, "P", el)
    sv = bipartite_separability(marg, tol=1e-6, max_iter=5000)
    assert sv.separable
    assert sv.residual < 1e-6
    assert sv.iterations <= 5000


def test_switch_type_decomposition_check(switch_up):
    assert verify_decomposition(switch_up.unitary, switch_decomposition(2))
    bad = switch_decomposition(2)
    import dataclasses

    bad = dataclasses.replace(bad, blocks=(bad.blocks[0], bad.blocks[0]))
    assert not verify_decomposition(switch_up.unitary, bad)


def reference_residual(sigma):
    """Comb residuals by the operator walk, with the marginal of each traced
    prefix kept: residual(traced, name) projects the marginal after tracing
    out ``traced`` (in that order) onto operators trivial on name's output."""
    nodes = {n.name: n for n in sigma.nodes}
    marginals = {(): sigma.op}

    def marginal(traced):
        if traced not in marginals:
            node = nodes[traced[-1]]
            marginals[traced] = partial_trace(marginal(traced[:-1]), [node.in_system.key, node.out_dual.key])
        return marginals[traced]

    def residual(traced, name):
        op = marginal(traced)
        return distance(op, project_trivial(op, [nodes[name].out_dual.key]))

    return residual


def reference_search(sigma, residual, tol=1e-9):
    """comb_search's depth-first search over choices of the last node."""
    dead = set()

    def dfs(remaining, traced):
        if not remaining:
            return ()
        if remaining in dead:
            return None
        for name in sorted(remaining):
            if residual(traced, name) <= tol:
                sub = dfs(remaining - {name}, traced + (name,))
                if sub is not None:
                    return sub + (name,)
        dead.add(remaining)
        return None

    return dfs(frozenset(sigma.node_names), ())


def assert_table_matches_walk(sigma, orders=None, atol=1e-14):
    """The residuals of every order (or of ``orders``) within atol of the
    walk, equal verdicts, and the walk's search order; returns the set of
    verdicts seen."""
    assert labeled._entries(sigma.op) is None
    residual = reference_residual(sigma)
    verdicts = set()
    for order in orders or itertools.permutations(sigma.node_names):
        got = comb_check(sigma, order)
        want = [residual(order[k + 1 :][::-1], name) for k, name in enumerate(order)]
        assert np.allclose(got.residuals, want, rtol=0, atol=atol), (order, got.residuals, want)
        assert got.accepted == (max(want) <= got.tol)
        verdicts.add(got.accepted)
    assert comb_search(sigma) == reference_search(sigma, residual)
    return verdicts


def dense_copy(sigma):
    return process_operator(sigma.nodes, labeled._dense_reference(sigma.op.systems, sigma.op.matrix.copy()))


def haar_all_to_all(rng, slots=2):
    """A Haar unitary from every output of a chain's nodes to every input:
    rank one and invalid, since each node signals to itself."""
    nodes = [QuantumNode(chr(ord("A") + i), 2, 2) for i in range(slots)]
    nodes += [QuantumNode("P", 1, 4), QuantumNode("F", 4, 1)]
    dom = tuple(n.out_system for n in nodes if n.d_out > 1)
    cod = tuple(n.in_system for n in nodes if n.d_in > 1)
    d = int(np.prod([s.dim for s in dom]))
    return make_unitary_process(nodes, LinearMap(haar_unitary(d, rng), dom, cod)).process


def test_dense_comb_residuals_and_search_match_the_operator_walk(rng):
    # on a 1024-dim chain, the chain's order and its reverse
    assert assert_table_matches_walk(random_unitary_chain(3, rng).process, [tuple("PABCF"), tuple("FCBAP")]) == {True, False}
    chains = [random_unitary_chain(2, rng).process for _ in range(2)]
    mixtures = []
    for _ in range(2):
        c1, c2 = (random_unitary_chain(2, rng).process for _ in range(2))
        w = float(rng.uniform(0.2, 0.8))
        mixtures.append(process_operator(c1.nodes, LabeledOperator(c1.op.systems, w * c1.op.matrix + (1 - w) * c2.op.matrix)))
    haars = [haar_all_to_all(rng) for _ in range(2)]
    exemplars = [dense_copy(make_switch(2).process), dense_copy(make_af()), dense_copy(make_mix_example())]
    for sigma in chains + mixtures:
        assert assert_table_matches_walk(sigma) == {True, False}
    for sigma in haars:
        assert assert_table_matches_walk(sigma) == {False}
    for sigma in exemplars:
        assert_table_matches_walk(sigma)


def test_the_search_keeps_the_residuals_comb_check_reads(rng):
    """The search's verdict carries the residuals it read along its path: bit
    for bit those ``comb_check`` reads for the order found, dense or sparse."""
    nodes = (ClassicalNode("A", 2, 2), ClassicalNode("B", 2, 2), ClassicalNode("C", 2, 2))
    outs = np.indices((2, 2, 2))
    chain = quantize(DeterministicProcess(nodes, np.stack([0 * outs[0], outs[0], outs[1]], axis=-1)).to_classical())
    mix = make_mix_example()
    for sigma in (random_unitary_chain(3, rng).process, chain, mix, dense_copy(mix)):
        found = combs._search(sigma, 1e-9, 8)
        assert found == comb_check(sigma, found.order) and found.order == comb_search(sigma)
    for sigma in (make_af(), make_switch(2).process):
        assert combs._search(sigma, 1e-9, 8) is None and comb_search(sigma) is None


def comb_projection(x, nodes):
    """The projection of x onto operators that are combs for ``nodes`` in
    order: with P_S project_trivial over the systems S, the last node
    contributes P_o - P_{o,i} and the rest recurse on P_{o,i} x."""
    if not nodes:
        return x
    last = nodes[-1]
    out = project_trivial(x, [last.out_dual.key])
    both = project_trivial(out, [last.in_system.key])
    return out - both + comb_projection(both, nodes[:-1])


@settings(max_examples=40, deadline=None)
@given(
    dims=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=2, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    valid=st.booleans(),
)
def test_dense_comb_residuals_match_the_walk_on_random_operators(dims, seed, valid):
    """Random dense operators on 2-3 nodes with dims 1 to 3: Hermitian ones,
    generically no comb and no process, or valid processes that are combs for
    a random order (the comb projection of a random matrix, shifted by a
    multiple of the identity to be positive, or the identity itself where that
    shift leaves zero, and scaled to the process trace)."""
    rng = np.random.default_rng(seed)
    nodes = [QuantumNode(name, d_in, d_out) for name, (d_in, d_out) in zip("ABC", dims)]
    systems = tuple(s for n in nodes for s in (n.in_system, n.out_dual))
    d = int(np.prod([s.dim for s in systems]))
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    x = LabeledOperator(systems, m + m.conj().T)
    if valid:
        x = comb_projection(x, [nodes[k] for k in rng.permutation(len(nodes))])
        h = (x.matrix + x.matrix.conj().T) / 2
        h = h - min(0.0, np.linalg.eigvalsh(h)[0]) * np.eye(d)
        if np.trace(h).real <= 1e-9 * np.linalg.norm(x.matrix):
            # h was a non-positive multiple of the identity, so the shift
            # zeroed it: dims like [(1, 1), (1, 3)] admit no other comb.
            h = np.eye(d)
        x = LabeledOperator(systems, h * (np.prod([n.d_out for n in nodes]) / np.trace(h).real))
    sigma = process_operator(nodes, labeled._dense_reference(systems, x.matrix))
    if valid:
        assert validate_process(sigma).valid
    assert_table_matches_walk(sigma)


def test_bipartite_separability_refuses_three_nodes():
    with pytest.raises(ValueError, match="needs exactly two nodes"):
        bipartite_separability(make_af())


READERS = Path(__file__).parent / "data" / "comb-readers.json"


def dressed_pairs(rng, count):
    """Two-node processes built as the order-control acceptance test builds
    them: the switch dressed by Haar unitaries on P's output and F's input,
    conditioned on a random control state, its leaf traced out."""
    sw = make_switch(2)
    u = sw.unitary
    p_out = next(s for s in u.domain if s.name == "P.out")
    f_in = next(s for s in u.codomain if s.name == "F.in")
    rest_domain = tuple(s for s in u.domain if s.name != "P.out")
    rest_codomain = tuple(s for s in u.codomain if s.name != "F.in")
    for _ in range(count):
        dress_p = tensor_maps(identity_map(rest_domain), LinearMap(haar_unitary(4, rng), (p_out,), (p_out,)))
        dress_f = tensor_maps(identity_map(rest_codomain), LinearMap(haar_unitary(4, rng), (f_in,), (f_in,)))
        up = make_unitary_process(sw.process.nodes, compose_maps(dress_f, compose_maps(u, dress_p)))
        element = measure_prepare_element(up.process.node("P"), np.eye(1, dtype=complex), random_state(4, rng))
        cond = conditional_process(up.process, "P", element)
        leaf = cond.node("F")
        yield process_operator([cond.node("A"), cond.node("B")], partial_trace(cond.op, [leaf.in_system.key, leaf.out_dual.key]))


def recorded_readers(tmp_path) -> dict:
    """What ``tests/data/comb-readers.json`` pins, floats as ``float.hex``:
    every ``comb_check`` residual tuple over every node order of the eight
    exemplar files (the classical ones quantized), ``make_switch(3)`` and
    ``make_bw_extension()``, each as built and as a dense copy, so both of
    ``hs._comb_residual``'s routes are read; and ``bipartite_separability``'s
    status, weight, residual, iterations and each component's trace and
    Frobenius norm on ``mix``, three dressed order-control pairs and a mixture
    of the two one-way orders."""
    files = {}
    for name, (build, _) in EXEMPLARS.items():
        obj, graph = build()
        write_process_file(tmp_path / f"{name}.json", obj, graph=graph)
        loaded = read_process_file(tmp_path / f"{name}.json")
        files[name] = loaded.process if loaded.kind == "quantum" else quantize(loaded.process)
    residuals = {}
    for name, sigma in {**files, "make_switch(3)": make_switch(3).process, "make_bw_extension()": make_bw_extension().process}.items():
        for key, s in ((name, sigma), (f"{name} dense", dense_copy(sigma))):
            residuals[key] = {",".join(order): [r.hex() for r in comb_check(s, order).residuals]
                              for order in itertools.permutations(s.node_names)}
    pairs = {"mix": files["mix"]}
    pairs.update((f"dressed pair {k}", pair) for k, pair in enumerate(dressed_pairs(np.random.default_rng(20260816), 3)))
    pairs["two orders"] = order_mixture(np.random.default_rng(20260816))
    splits = {}
    for name, pair in pairs.items():
        sv = bipartite_separability(pair)
        splits[name] = {"status": sv.status, "weight": sv.weight.hex(), "residual": sv.residual.hex(), "iterations": sv.iterations,
                        "components": [None if c is None else {"trace": float(np.trace(c.matrix).real).hex(),
                                                               "norm": float(np.linalg.norm(c.matrix)).hex()}
                                       for c in (sv.first_component, sv.second_component)]}
    return {"comb_check": residuals, "bipartite_separability": splits}


def close(got, want) -> bool:
    """Equal keys, lists, strings and ints; floats recorded as hex within
    1e-12 + 1e-9|want| (another BLAS may round the last bits differently, as
    the separability loop's eigensolver does); NaN matches NaN."""
    if isinstance(want, dict) and isinstance(got, dict):
        return list(got) == list(want) and all(close(got[k], want[k]) for k in want)
    if isinstance(want, list) and isinstance(got, list):
        return len(got) == len(want) and all(close(g, w) for g, w in zip(got, want))
    if isinstance(want, str) and isinstance(got, str) and want != got and "0x" in want + got:
        g, w = float.fromhex(got), float.fromhex(want)
        return abs(g - w) <= 1e-12 + 1e-9 * abs(w) or (g != g and w != w)
    return type(got) is type(want) and got == want


def test_comb_readers_match_the_recorded_values(tmp_path):
    """The comb residual reader and the separability split as recorded, with
    status and iteration count exact; set CAUSALPROC_RECORD_READERS=1 to write
    the record afresh."""
    got = recorded_readers(tmp_path)
    if os.environ.get("CAUSALPROC_RECORD_READERS") == "1":
        READERS.write_text(json.dumps(got, indent=1) + "\n")
    want = json.loads(READERS.read_text())
    assert list(got["comb_check"]) == list(want["comb_check"])
    for name, tuples in want["comb_check"].items():
        assert close(got["comb_check"][name], tuples), name
    for name, split in want["bipartite_separability"].items():
        assert close(got["bipartite_separability"][name], split), name
    assert list(got["bipartite_separability"]) == list(want["bipartite_separability"])
    assert not close("0x1.0p+0", "0x1.0000001p+0") and close("nan", "nan")
