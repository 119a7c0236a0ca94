from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from causalproc import (
    BlockDecomposition,
    LabeledOperator,
    LinearMap,
    SystemLabel,
    af_causal_graph,
    bw_decomposition,
    causal_structure_deterministic,
    causal_structure_unitary,
    decomposition_report,
    distance,
    faithfulness_check,
    make_classical_switch,
    make_methods_counterexample,
    make_mix_example,
    make_switch,
    markov_check,
    partial_trace,
    process_operator,
    quantize,
    random_unitary_chain,
    read_process_file,
    reduced_switch_causal_graph,
    signalling_residual,
    switch_causal_graph,
    switch_decomposition,
    validate_classical,
    validate_deterministic,
    validate_process,
    verify_decomposition,
    write_process_file,
)
from causalproc.cli import main


def test_switch_process_is_rank_one_with_right_trace(switch_up):
    v = validate_process(switch_up)
    assert v.valid
    assert abs(v.trace - 16) < 1e-12
    evals = np.linalg.eigvalsh(switch_up.op.matrix)
    assert int((evals > 1e-9).sum()) == 1


def test_switch_rejects_trivial_target_dimension():
    with pytest.raises(ValueError):
        make_switch(1)


def _with_extra_system(u: LinearMap) -> LinearMap:
    """u ⊗ 1 on one more qubit, which the decomposition does not expect."""
    return LinearMap(np.kron(u.matrix, np.eye(2)), u.domain + (SystemLabel("X", 2),), u.codomain + (SystemLabel("Y", 2),))


_QUBIT_MAP = LinearMap(np.eye(2), (SystemLabel("X", 2),), (SystemLabel("Y", 2),))


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: make_methods_counterexample().combined([1.0]), ValueError, "distribution over two C.in values", id="C.in distribution"),
        pytest.param(lambda: switch_decomposition(1), ValueError, "target dimension must be at least 2", id="switch parts dimension"),
        pytest.param(lambda: decomposition_report(_QUBIT_MAP, switch_decomposition()), ValueError, "expected a system named 'P.ctl'", id="missing system"),
        pytest.param(
            lambda: decomposition_report(_with_extra_system(make_switch(2).unitary), switch_decomposition()),
            ValueError,
            "unexpected nontrivial system",
            id="extra system",
        ),
        pytest.param(
            lambda: decomposition_report(_QUBIT_MAP, dataclasses.replace(switch_decomposition(), blocks=(switch_decomposition().blocks[0], _QUBIT_MAP))),
            ValueError,
            r"block 1 maps \(X\(2\),\) to \(Y\(2\),\)",
            id="switch block",
        ),
        pytest.param(lambda: random_unitary_chain(0, np.random.default_rng(0)), ValueError, "need at least one slot", id="no slot"),
    ],
)
def test_exemplar_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_switch_causal_structure(switch_up):
    g = causal_structure_unitary(switch_up)
    want = switch_causal_graph()
    assert g.vertices == want.vertices
    assert g.edges == want.edges
    assert len(want.edges) == 7
    assert g.is_cyclic and g.cycle() == ("A", "B")


def test_reduced_switch_markov_and_faithful(reduced_switch):
    assert validate_process(reduced_switch).valid
    mf = markov_check(reduced_switch, reduced_switch_causal_graph())
    assert mf.accepted
    fr = faithfulness_check(mf)
    assert fr.faithful
    assert set(fr.edge_signalling) == set(reduced_switch_causal_graph().edges)


def test_af_deterministic_function_matches_closed_form(af_dp):
    ok, _ = validate_deterministic(af_dp)
    assert ok
    for a in range(2):
        for b in range(2):
            for c in range(2):
                want = ((1 - b) & c, (1 - c) & a, (1 - a) & b)
                assert tuple(af_dp.function[a, b, c]) == want


def test_af_quantized_is_diagonal_table(af_process, af_dp):
    v = validate_process(af_process)
    assert v.valid
    assert abs(v.trace - 8) < 1e-12
    table = af_dp.to_classical().table
    diag = np.diag(af_process.op.matrix).real
    assert np.array_equal(diag, table.reshape(-1))
    assert np.abs(af_process.op.matrix - np.diag(diag)).max() == 0.0


def test_af_causal_structure_is_full_triangle(af_dp):
    g = causal_structure_deterministic(af_dp)
    assert g.edges == af_causal_graph().edges
    assert len(g.edges) == 6
    mf = markov_check(quantize(af_dp.to_classical()), af_causal_graph())
    assert mf.accepted


def test_bw_extension_is_valid_process(bw_up):
    v = validate_process(bw_up)
    assert v.valid
    assert v.psd_method == "cholesky"
    assert abs(v.trace - 64) < 1e-9


def test_bw_nodes_and_dimensions(bw_up):
    names = [n.name for n in bw_up.nodes]
    assert names == ["A", "B", "C", "P", "F"]
    assert bw_up.node("P").d_out == 8
    assert bw_up.node("F").d_in == 8
    assert bw_up.dim == 4096


@pytest.mark.parametrize("d", [2, 3, 4])
def test_switch_decomposition_reconstructs_exactly(d):
    rep = decomposition_report(make_switch(d).unitary, switch_decomposition(d))
    assert rep.passed
    assert rep.reconstruction_residual == 0.0
    assert rep.blocks_one_way
    # block 0 runs A before B, block 1 the reverse
    assert rep.block_signalling[0]["A->B"] > 0.1
    assert rep.block_signalling[0]["B->A"] == 0.0
    assert rep.block_signalling[1]["A->B"] == 0.0
    assert rep.block_signalling[1]["B->A"] > 0.1


def test_bw_decomposition_reconstructs_exactly(bw_up):
    rep = decomposition_report(bw_up.unitary, bw_decomposition())
    assert rep.passed
    assert rep.reconstruction_residual == 0.0
    assert rep.blocks_one_way
    # each block wires only P's ancillas to the node inputs
    assert all(r == 0.0 for sig in rep.block_signalling.values() for key, r in sig.items() if not key.startswith("P->"))


def test_one_block_decomposition_is_acyclic_only_for_an_ordered_unitary(switch_up, bw_up):
    """The whole unitary as its single block always reconstructs; the block's
    influence graph is cyclic for the two cyclic exemplars and acyclic for a
    chain comb."""
    for up, ordered in ((switch_up, False), (bw_up, False), (random_unitary_chain(2, np.random.default_rng(45)), True)):
        rep = decomposition_report(up.unitary, BlockDecomposition((), (), (), (up.unitary,)))
        assert rep.reconstruction_residual == 0.0
        assert rep.blocks_one_way is ordered
        assert rep.passed is ordered


def test_perturbed_decompositions_are_rejected(switch_up, bw_up):
    sw = switch_decomposition(2)
    swapped = decomposition_report(switch_up.unitary, dataclasses.replace(sw, blocks=sw.blocks[::-1]))
    assert not swapped.passed and swapped.reconstruction_residual == 1.0 and swapped.blocks_one_way
    bw = bw_decomposition()
    # block 0 has no NOT gate: wiring it under every control drops the function
    assert not verify_decomposition(bw_up.unitary, dataclasses.replace(bw, blocks=(bw.blocks[0],) * 8))
    phased = dataclasses.replace(bw, blocks=bw.blocks[:7] + (LinearMap(-bw.blocks[7].matrix, bw.blocks[7].domain, bw.blocks[7].codomain),))
    assert decomposition_report(bw_up.unitary, phased).reconstruction_residual == 2.0


def test_decomposition_dimension_errors(switch_up):
    sw = switch_decomposition(2)
    wide = LinearMap(np.eye(3), (SystemLabel("A.out", 3),), (SystemLabel("B.in", 3),))
    with pytest.raises(ValueError, match=r"block 1 maps \(A.out\(3\),\)"):
        verify_decomposition(switch_up.unitary, dataclasses.replace(sw, blocks=(sw.blocks[0], wide)))
    for blocks in (sw.blocks + sw.blocks[:1], ()):
        with pytest.raises(ValueError, match=f"{len(blocks)} blocks for controls"):
            verify_decomposition(switch_up.unitary, dataclasses.replace(sw, blocks=blocks))


def test_classical_switch_matches_quantum_structure():
    cs = make_classical_switch(2)
    ok, _ = validate_deterministic(cs)
    assert ok
    g = causal_structure_deterministic(cs)
    assert g.edges == switch_causal_graph().edges
    assert validate_process(quantize(cs.to_classical())).valid


def test_methods_counterexample_tables():
    mce = make_methods_counterexample()
    assert np.abs(mce.p_a.sum(axis=0) - 1).max() < 1e-12
    assert np.abs(mce.p_b.sum(axis=0) - 1).max() < 1e-12
    assert mce.p_a[0, 0, 0] == 0.4 and mce.p_a[0, 1, 0] == 0.8
    assert mce.p_b[0, 0, 0] == 0.5 and mce.p_b[0, 1, 0] == 0.25
    kp = mce.combined([0.5, 0.5])
    assert not validate_classical(kp).valid


def test_mix_example_signals_neither_way():
    mix = make_mix_example()
    assert validate_process(mix).valid
    assert signalling_residual(mix, ["A"]) <= 1e-9 and signalling_residual(mix, ["B"]) <= 1e-9


def test_bw_marginal_equals_af(bw_up, af_process):
    from causalproc import conditional_process, measure_prepare_element

    prep = np.zeros((8, 8), dtype=complex)
    prep[0, 0] = 1.0
    el = measure_prepare_element(bw_up.node("P"), np.eye(1, dtype=complex), prep)
    cond = conditional_process(bw_up, "P", el)
    nf = cond.node("F")
    marg = partial_trace(cond.op, [nf.in_system.key, nf.out_dual.key])
    sig = process_operator([n for n in cond.nodes if n.name in "ABC"], marg)
    assert distance(sig.op, af_process.op) == 0.0


# sha256 of each `causalproc exemplar NAME` file, and of the raw bytes of the
# dense make_switch(3) process operator, as written before the switch and
# three-bit dilation unitaries were derived from their classical processes.
# The switch and bw-extension files hold their CJ vectors (format 5).
EXEMPLAR_DIGESTS = {
    "switch": "9770bd9911f9d58048b3ec685e6b82cec28aef1e8373875bb27324d737c8c6c2",
    "reduced-switch": "b16b3033c4c5348662abccdccb8eaa79d5ea901d335d13fa3e2ad3fc4d084465",
    "af": "6066876ffde342aaf5a42fd88feb0bd0282d22defaaad2bb8a20b462a78cfc2e",
    "af-classical": "00d08889361031a334b4e90c2e9424d4d04000efdee60b9fa80d011933600371",
    "bw-extension": "467d5b2a2d401b436af9bb12a8f3f965fb5a656f7b061d6602a0312bfce9e25a",
    "classical-switch": "288c2535265c18db692cc2266f1ec13e45898685e8af466843cbd0172cada506",
    "counterexample": "371d9a172bcb5bab6ca8d3f6ab5b658b939a729ed1f7df9725509c7cb9cfe5d4",
    "mix": "6b5fe30e419786fa0f0bc8d5367691aada739f9c29f28969f77b0baad52bbb7f",
    "switch(3) matrix": "6b2d061f36e0cb6e3ff40bd961044df41a5d0e997d1cb2e8706f49646ec4d42a",
}


@pytest.mark.parametrize("name", list(EXEMPLAR_DIGESTS))
def test_exemplar_content_is_pinned(name, tmp_path, capsys):
    if name == "switch(3) matrix":
        data = make_switch(3).op.matrix.tobytes()
    else:
        out = tmp_path / "exemplar.json"
        assert main(["exemplar", name, "--out", str(out)]) == 0
        data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == EXEMPLAR_DIGESTS[name]


# sha256 of the switch and bw-extension files as the format-2 writer wrote
# them, from their matrices (EXEMPLAR_DIGESTS before they held their vectors)
MATRIX_DIGESTS = {
    "switch": "495679e5e1fad362113810c704271b1dc1dfa1b22a6c2136b1ef56e8a055be4b",
    "bw-extension": "fc1d8187ae376da379d7225279fa13506127a2a4bde19026c87c47d30ed56219",
}


@pytest.mark.parametrize("name", list(MATRIX_DIGESTS))
def test_a_vector_exemplar_keeps_its_matrix(name, tmp_path, capsys):
    # the exemplar as read, on a copy of its matrix that keeps no vector,
    # writes the format-2 file it was written as before
    out = tmp_path / "exemplar.json"
    assert main(["exemplar", name, "--out", str(out)]) == 0
    loaded = read_process_file(out)
    sigma = loaded.process
    copy = process_operator(sigma.nodes, LabeledOperator(sigma.op.systems, sigma.op.matrix.copy()))
    write_process_file(out, copy, graph=loaded.graph, metadata=loaded.metadata)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MATRIX_DIGESTS[name]
