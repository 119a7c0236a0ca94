from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalproc import (
    ChannelOperator,
    LabeledOperator,
    LinearMap,
    SystemLabel,
    channel_from_unitary,
    channel_influence_residual,
    cj_from_kraus,
    discover,
    influence_residuals,
    input_signals,
    make_mix_example,
    make_switch,
    process_operator,
    random_unitary_chain,
)
from causalproc.hs import _marginal_residual, project_trivial
from causalproc.labeled import _dense_reference, _entries, distance, dual, partial_trace, product
from causalproc.rand import (
    haar_unitary,
    random_cptp,
    random_signalling_channel,
    random_state,
)

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def _applied(ch: ChannelOperator, rho: np.ndarray) -> LabeledOperator:
    """E(rho) = Tr_{A*}[J (1 ⊗ rho^T)], J the CJ operator of E on B ⊗ A*."""
    (a,) = ch.inputs
    return partial_trace(product([ch.op, LabeledOperator((dual(a),), rho.T)]), [dual(a).key])


def test_cj_operator_contracts_to_conjugation(rng):
    a, b = SystemLabel("a", 2), SystemLabel("b", 2)
    u = haar_unitary(2, rng)
    ch = channel_from_unitary(LinearMap(u, (a,), (b,)))
    rho = random_state(2, rng)
    out = _applied(ch, rho)
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
    out = _applied(ch, rho)
    assert abs(np.trace(out.matrix) - 1) < 1e-10


def test_random_cptp_needs_an_isometry():
    # a Stinespring isometry of a d_in -> d_out channel has d_out * d_in rows,
    # so a zero out-dimension leaves none
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError, match="no isometry"):
        random_cptp(2, 0, rng)
    # a refused call draws nothing, and a valid one draws the isometry's columns
    fresh = np.random.default_rng(7)
    kraus = random_cptp(4, 1, rng)
    v = haar_unitary(4, fresh)[:, :4]
    assert [k.shape for k in kraus] == [(1, 4)] * 4
    assert np.array_equal(np.concatenate(kraus), v)
    assert np.abs(sum(k.conj().T @ k for k in kraus) - np.eye(4)).max() < 1e-10



@pytest.mark.parametrize(
    "d_in, d_out, digest",
    [
        (1, 3, "e739265f6a94f040053ea1def1ca07b2529c4056264d36a7c354733664f9489b"),
        (2, 2, "51a4ffe0d2641372d38fb156e4d030bb6c8d521a5402555930df32b69958ae14"),
        (2, 3, "dacae99ad08dd0370aa44dd1de936f64be915b782889fbc2c0fae4e37818c2ef"),
        (4, 1, "30fa6ea984ddf9737d0274bc0e954a91556984a98726ca3a995c2a55778fd416"),
    ],
)
def test_random_cptp_draw_is_pinned(d_in, d_out, digest):
    # sha256 of the Kraus matrices' bytes, recorded when the Kraus rank was a
    # parameter defaulting to d_in: the fixed rank draws the same channels
    kraus = random_cptp(d_in, d_out, np.random.default_rng(20261020))
    assert [k.shape for k in kraus] == [(d_out, d_in)] * d_in
    assert hashlib.sha256(b"".join(k.tobytes() for k in kraus)).hexdigest() == digest

def test_influence_pattern_of_product_unitary(rng):
    a, b, c, d = (SystemLabel(s, 2) for s in ("a", "b", "c", "d"))
    u = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
    ch = channel_from_unitary(LinearMap(u, (a, b), (c, d)))
    assert channel_influence_residual(ch, "a", "d") < 1e-12
    assert channel_influence_residual(ch, "b", "c") < 1e-12


def test_influence_pattern_of_cnot():
    a, b, c, d = (SystemLabel(s, 2) for s in ("a", "b", "c", "d"))
    ch = channel_from_unitary(LinearMap(CNOT, (a, b), (c, d)))
    # influence is the coherent notion: phase kickback lets the target act
    # back on the control, so a CNOT influences in both directions
    assert channel_influence_residual(ch, "a", "d") > 0.1
    assert channel_influence_residual(ch, "b", "c") > 0.1


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


def _walked(ch: ChannelOperator, traced, inp: SystemLabel) -> float:
    """The oracle: the marginal after tracing out ``traced``, its projection
    trivial on the input's dual factor, and their normalized distance."""
    marg = partial_trace(ch.op, [s.key for s in traced])
    return distance(marg, project_trivial(marg, [(inp.name, True)]))


def _assert_residuals_match_the_walk(ch: ChannelOperator) -> None:
    """Every ``influence_residuals`` entry and every ``input_signals``
    residual within 1e-14 of the walk's, with the walk's verdict at 1e-9."""
    matrix = influence_residuals(ch)
    assert set(matrix) == {(i.name, o.name) for o in ch.outputs for i in ch.inputs if i.dim > 1 and o.dim > 1}
    for out in ch.outputs:
        for inp in ch.inputs:
            if (inp.name, out.name) in matrix:
                got, want = matrix[(inp.name, out.name)], _walked(ch, [s for s in ch.outputs if s != out], inp)
                assert abs(got - want) <= 1e-14 and (got <= 1e-9) == (want <= 1e-9), (inp, out, got, want)
    for inp in ch.inputs:
        got, want = _marginal_residual(ch.op, [], (inp.name, True)), _walked(ch, [], inp)
        assert abs(got - want) <= 1e-14, (inp, got, want)
        assert input_signals(ch, inp) == (want > 1e-9), (inp, got, want)


def test_influence_residuals_match_the_marginal_walk(switch_up, bw_up, af_process, rng):
    a, b, c, d = (SystemLabel(s, 2) for s in ("a", "b", "c", "d"))
    channels = [
        switch_up.channel,
        make_switch(3).channel,
        bw_up.channel,
        af_process.channel,
        make_mix_example().channel,
        random_unitary_chain(2, rng).channel,
        channel_from_unitary(LinearMap(CNOT, (a, b), (c, d))),
    ]
    routes = set()
    for ch in channels:
        matrix = ch.op.matrix
        if ch.op.dim > 1024:  # switch(3) and bw: real entries, so a dense copy held real, at half the bytes
            assert not matrix.imag.any()
            matrix = matrix.real
        dense = ChannelOperator(_dense_reference(ch.op.systems, matrix), ch.outputs, ch.inputs)
        for held in (ch, dense):
            routes.add(_entries(held.op) is None)
            _assert_residuals_match_the_walk(held)
    assert routes == {True, False}
    with pytest.raises(KeyError):
        channel_influence_residual(channels[-1], SystemLabel("x", 2), "c")


def _random_channel(in_dims, out_dims, rank, permutation, seed) -> ChannelOperator:
    """Kraus operators cut from a Stinespring isometry: the first columns of a
    Haar unitary (dense) or of a permutation (a sparse CJ operator)."""
    rng = np.random.default_rng(seed)
    ins = tuple(SystemLabel(f"i{k}", dim) for k, dim in enumerate(in_dims))
    outs = tuple(SystemLabel(f"o{k}", dim) for k, dim in enumerate(out_dims))
    d_in, d_out = int(np.prod(in_dims)), int(np.prod(out_dims))
    width = d_out * max(rank, -(-d_in // d_out))
    u = np.eye(width, dtype=complex)[:, rng.permutation(width)] if permutation else haar_unitary(width, rng)
    return cj_from_kraus([u[e : e + d_out, :d_in] for e in range(0, width, d_out)], ins, outs)


_random_channels = dict(
    in_dims=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    out_dims=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    rank=st.integers(1, 3),
    permutation=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=40, deadline=None)
@given(**_random_channels)
def test_influence_residuals_match_the_walk_on_random_channels(in_dims, out_dims, rank, permutation, seed):
    _assert_residuals_match_the_walk(_random_channel(in_dims, out_dims, rank, permutation, seed))


def _assert_cptp_residuals_agree_dense(ch: ChannelOperator) -> bool:
    """ch.cptp_residuals() against its ``_dense_reference`` copy's; True iff ch is held dense."""
    dense = ChannelOperator(_dense_reference(ch.op.systems, ch.op.matrix), ch.outputs, ch.inputs)
    got, want = ch.cptp_residuals(), dense.cptp_residuals()
    assert abs(got["hermitian"] - want["hermitian"]) <= 1e-14, (got, want)
    assert abs(got["trace_preserving"] - want["trace_preserving"]) <= 1e-14, (got, want)
    assert abs(got["min_eigenvalue"] - want["min_eigenvalue"]) <= 1e-12, (got, want)
    return _entries(ch.op) is None


def test_cptp_residuals_agree_on_either_storage(switch_up, bw_up, af_process, rng):
    routes, factors = set(), []
    for sigma in (switch_up, make_switch(3), bw_up, af_process, random_unitary_chain(3, rng)):
        factors += discover(sigma)[1].factors.values()
    for ch in factors:
        routes.add(_assert_cptp_residuals_agree_dense(ch))
    assert routes == {True, False}
    # A NaN entry reports a NaN eigenvalue on both storages, never a passing one.
    for ch in (f for f in factors if f.op.dim > 1):
        m = ch.op.matrix.copy()
        m[0, 0] = np.nan
        for op in (LabeledOperator(ch.op.systems, m), _dense_reference(ch.op.systems, m)):
            with np.errstate(invalid="ignore"):
                r = ChannelOperator(op, ch.outputs, ch.inputs).cptp_residuals()
            assert math.isnan(r["hermitian"]) and math.isnan(r["min_eigenvalue"]), r


@settings(max_examples=40, deadline=None)
@given(**_random_channels)
def test_cptp_residuals_agree_on_either_storage_on_random_channels(in_dims, out_dims, rank, permutation, seed):
    _assert_cptp_residuals_agree_dense(_random_channel(in_dims, out_dims, rank, permutation, seed))


def test_input_signals_identity_vs_constant(rng):
    a, b = SystemLabel("a", 2), SystemLabel("b", 2)
    ident = channel_from_unitary(LinearMap(np.eye(2, dtype=complex), (a,), (b,)))
    assert input_signals(ident, "a")
    const = cj_from_kraus([np.array([[1, 0], [0, 0]], dtype=complex),
                           np.array([[0, 1], [0, 0]], dtype=complex)], (a,), (b,))
    assert not input_signals(const, "a")


def test_a_nan_entry_signals_from_every_input_on_either_storage():
    # A NaN residual is not within tol, so it reads as "signals". A
    # one-dimensional input is trivial on every type and never signals.
    sigma = make_switch(2).process
    m = sigma.op.matrix.copy()
    m[0, 0] = np.nan
    held = [LabeledOperator(sigma.op.systems, m), _dense_reference(sigma.op.systems, m)]
    assert [_entries(op) is None for op in held] == [False, True]
    for op in held:
        ch = process_operator(sigma.nodes, op).channel
        with np.errstate(invalid="ignore"):
            got = {s.name: input_signals(ch, s) for s in ch.inputs}
        assert got == {s.name: s.dim > 1 for s in ch.inputs} == {"A.out": True, "B.out": True, "P.out": True, "F.out": False}


def test_random_signalling_channel_signals(rng):
    a, b = SystemLabel("A.out", 2), SystemLabel("B.in", 2)
    for _ in range(5):
        ch = random_signalling_channel(a, b, a, rng)
        assert input_signals(ch, "A.out")
        assert abs(np.trace(ch.op.matrix) - 2) < 1e-9


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda a, b: ChannelOperator(LabeledOperator((b, dual(a)), np.eye(4)), (a,), (b,)),
            "do not match channel legs",
            id="legs",
        ),
        pytest.param(lambda a, b: cj_from_kraus([np.eye(3)], a, b), r"Kraus shape \(3, 3\), expected \(2, 2\)", id="Kraus shape"),
    ],
)
def test_channel_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call(SystemLabel("a", 2), SystemLabel("b", 2))
