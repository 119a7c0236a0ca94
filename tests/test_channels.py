from __future__ import annotations

import numpy as np

from causalproc import (
    ChannelOperator,
    LabeledOperator,
    LinearMap,
    QuantumNode,
    SystemLabel,
    apply_channel,
    channel_from_unitary,
    channel_influence_residual,
    channel_no_influence,
    cj_from_kraus,
    influence_residuals,
    input_signals,
    instrument_from_kraus,
    preparation_instrument,
    random_unitary_chain,
    readout_instrument,
)
from causalproc.labeled import _dense_reference, _entries
from causalproc.rand import (
    haar_unitary,
    random_cptp,
    random_instrument_kraus,
    random_signalling_channel,
    random_state,
)

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def test_apply_channel_matches_conjugation(rng):
    a, b = SystemLabel("a", 2), SystemLabel("b", 2)
    u = haar_unitary(2, rng)
    ch = channel_from_unitary(LinearMap(u, (a,), (b,)))
    rho = random_state(2, rng)
    out = apply_channel(ch, LabeledOperator((a,), rho))
    assert out.systems == (b,)
    assert np.abs(out.matrix - u @ rho @ u.conj().T).max() < 1e-12


def test_cj_from_kraus_agrees_with_unitary(rng):
    a, b = SystemLabel("a", 2), SystemLabel("b", 2)
    u = haar_unitary(2, rng)
    ch1 = channel_from_unitary(LinearMap(u, (a,), (b,)))
    ch2 = cj_from_kraus([u], (a,), (b,))
    assert np.abs(ch1.op.matrix - ch2.op.matrix).max() < 1e-12


def test_haar_unitary_draws_bitwise_what_scipy_draws():
    from scipy.stats import unitary_group  # the oracle; slow to import, so only here

    for d in (2, 3, 4, 8, 16, 32):
        for seed in range(10):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            u = haar_unitary(d, ours)
            v = unitary_group.rvs(d, random_state=theirs)
            assert u.shape == v.shape == (d, d)
            assert np.array_equal(u.view(float).view(np.uint64), v.view(float).view(np.uint64)), (d, seed)
            assert ours.random() == theirs.random(), (d, seed)


def test_random_cptp_trace_preserving(rng):
    kraus = random_cptp(2, 3, rng)
    acc = sum(k.conj().T @ k for k in kraus)
    assert np.abs(acc - np.eye(2)).max() < 1e-10
    a, b = SystemLabel("a", 2), SystemLabel("b", 3)
    ch = cj_from_kraus(kraus, (a,), (b,))
    # CJ trace equals the input dimension for a trace-preserving map
    assert abs(np.trace(ch.op.matrix) - 2) < 1e-10
    rho = random_state(2, rng)
    out = apply_channel(ch, LabeledOperator((a,), rho))
    assert abs(np.trace(out.matrix) - 1) < 1e-10


def test_influence_pattern_of_product_unitary(rng):
    a, b, c, d = (SystemLabel(s, 2) for s in ("a", "b", "c", "d"))
    u = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
    ch = channel_from_unitary(LinearMap(u, (a, b), (c, d)))
    assert channel_influence_residual(ch, "a", "d") < 1e-12
    assert channel_influence_residual(ch, "b", "c") < 1e-12
    assert channel_no_influence(ch, "a", "d")
    assert channel_no_influence(ch, "b", "c")


def test_influence_pattern_of_cnot():
    a, b, c, d = (SystemLabel(s, 2) for s in ("a", "b", "c", "d"))
    ch = channel_from_unitary(LinearMap(CNOT, (a, b), (c, d)))
    # influence is the coherent notion: phase kickback lets the target act
    # back on the control, so a CNOT influences in both directions
    assert channel_influence_residual(ch, "a", "d") > 0.1
    assert channel_influence_residual(ch, "b", "c") > 0.1
    assert not channel_no_influence(ch, "a", "d")


def test_influence_pattern_of_swap():
    a, b, c, d = (SystemLabel(s, 2) for s in ("a", "b", "c", "d"))
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[j * 2 + i, i * 2 + j] = 1.0
    ch = channel_from_unitary(LinearMap(swap, (a, b), (c, d)))
    # routing is strictly one way per wire pair
    assert channel_influence_residual(ch, "a", "c") < 1e-12
    assert channel_influence_residual(ch, "b", "d") < 1e-12
    assert channel_influence_residual(ch, "a", "d") > 0.1
    assert channel_influence_residual(ch, "b", "c") > 0.1
    assert channel_no_influence(ch, "a", "c")


def test_influence_residuals_match_the_per_pair_residual_bitwise(switch_up, bw_up, rng):
    a, b, c, d = (SystemLabel(s, 2) for s in ("a", "b", "c", "d"))
    cnot = channel_from_unitary(LinearMap(CNOT, (a, b), (c, d)))
    dense_cnot = ChannelOperator(_dense_reference(cnot.op.systems, cnot.op.matrix), cnot.outputs, cnot.inputs)
    chain = random_unitary_chain(2, rng)
    channels = [switch_up.channel, bw_up.channel, chain.channel, cnot, dense_cnot]
    assert {_entries(ch.op) is None for ch in channels} == {True, False}
    for ch in channels:
        matrix = influence_residuals(ch)
        # the process channels have one-dimensional legs (P.in, F.out) to skip
        pairs = {(i.name, o.name) for o in ch.outputs for i in ch.inputs if i.dim > 1 and o.dim > 1}
        assert set(matrix) == pairs
        for i, o in pairs:
            assert matrix[(i, o)].hex() == channel_influence_residual(ch, i, o).hex(), (i, o)


def test_input_signals_identity_vs_constant(rng):
    a, b = SystemLabel("a", 2), SystemLabel("b", 2)
    ident = channel_from_unitary(LinearMap(np.eye(2, dtype=complex), (a,), (b,)))
    assert input_signals(ident, "a")
    const = cj_from_kraus([np.array([[1, 0], [0, 0]], dtype=complex),
                           np.array([[0, 1], [0, 0]], dtype=complex)], (a,), (b,))
    assert not input_signals(const, "a")


def test_random_signalling_channel_signals(rng):
    a, b = SystemLabel("A.out", 2), SystemLabel("B.in", 2)
    for _ in range(5):
        ch = random_signalling_channel(a, b, a, rng)
        assert input_signals(ch, "A.out")
        assert abs(np.trace(ch.op.matrix) - 2) < 1e-9


def test_instrument_elements_sum_to_channel(rng):
    node = QuantumNode("A", 2, 2)
    kraus_lists = random_instrument_kraus(2, 2, 3, rng)
    inst = instrument_from_kraus(node, kraus_lists)
    assert len(inst.elements) == 3
    total = sum(el.tau.matrix for el in inst.elements)
    acc = sum(
        k.conj().T @ k for kl in kraus_lists for k in kl
    )
    assert np.abs(acc - np.eye(2)).max() < 1e-10
    # trace of the summed tau equals d_in for a trace-preserving instrument
    assert abs(np.trace(total) - 2) < 1e-9


def test_readout_instrument_outcomes():
    node = QuantumNode("A", 2, 2)
    inst = readout_instrument(node)
    assert len(inst.elements) == 2
    for el in inst.elements:
        assert el.node_name == "A"


def test_preparation_instrument_counts(rng):
    node = QuantumNode("A", 2, 2)
    preps = [random_state(2, rng), random_state(2, rng), random_state(2, rng)]
    inst = preparation_instrument(node, preps)
    assert len(inst.elements) == 3
