"""The type-norm table is built once per operator and kept on it.

An operator marks its stored arrays read-only, so the table it keeps cannot
disagree with its matrix; every table reader (``type_norms``,
``validate_process``, ``signalling_residual``, the dense comb residuals)
shares it, and no result depends on which reader built it first. The
influence residuals of ``discover`` and ``unitary_causal_separability`` read
it too.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib.util
import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from causalproc import (
    ClassicalProcess,
    DeterministicProcess,
    LabeledOperator,
    SystemLabel,
    bipartite_separability,
    comb_check,
    comb_search,
    discover,
    identity_operator,
    influence_residuals,
    make_mix_example,
    make_switch,
    process_operator,
    quantize,
    reorder,
    signalling_residual,
    type_norms,
    unitary_causal_separability,
    validate_process,
    write_process_file,
)
from causalproc import hs, labeled
from causalproc.cli import EXEMPLARS, main
from causalproc.exemplars import random_unitary_chain
from conftest import random_one_way_comb


def _inputs_module():
    """perfbench/inputs.py, the benchmark's seeded input generators."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _dense(sigma):
    """A copy that every kernel routes dense: the reference path."""
    return process_operator(sigma.nodes, labeled._dense_reference(sigma.op.systems, sigma.op.matrix))


def _fresh(sigma):
    """A copy of sigma held the same way, sharing no array and no table."""
    op = sigma.op
    if op._dense is not None:
        return process_operator(sigma.nodes, LabeledOperator(op.systems, op.matrix.copy()))
    return process_operator(sigma.nodes, labeled._from_entries(op.systems, *(a.copy() for a in op._coo)))


@pytest.fixture()
def builds(monkeypatch):
    """Records one entry per table built: the operator for a dense build,
    its systems for a build on stored entries."""
    made = []
    for name, real in (("_dense_type_squares", hs._dense_type_squares), ("_sparse_type_squares", hs._sparse_type_squares)):

        def counted(first, *rest, real=real):
            made.append(first)
            return real(first, *rest)

        monkeypatch.setattr(hs, name, counted)
    return made


def test_operators_freeze_the_arrays_they_hold(rng):
    a = SystemLabel("a", 4)
    m = rng.normal(size=(4, 4))
    op = LabeledOperator((a,), m)
    assert op.matrix is m
    for target in (op.matrix, m):
        with pytest.raises(ValueError):
            target[0, 0] = 1.0
    with pytest.raises(ValueError):
        m += 1.0
    sparse = identity_operator((a,))
    assert sparse._coo is not None
    for stored in sparse._coo:
        with pytest.raises(ValueError):
            stored[0] = 0
    # a sparse operator's matrix is built anew, and it is the caller's to write
    dense = sparse.matrix
    dense[0, 0] = 2.0
    assert sparse.matrix[0, 0] == 1.0


def test_the_table_is_kept_read_only_and_rebuilt_bitwise_after_pickling():
    switch = make_switch(2).process
    for op in (switch.op, LabeledOperator(switch.op.systems, switch.op.matrix)):
        keys, squares = hs._type_squares(op)
        assert hs._type_squares(op)[1] is squares
        with pytest.raises(ValueError):
            squares[0] = 0.0
        for back in (pickle.loads(pickle.dumps(op)), copy.deepcopy(op)):
            assert back._squares is None and (back._dense is None) == (op._dense is None)
            again_keys, again = hs._type_squares(back)
            assert again_keys == keys and again.dtype == squares.dtype and again.tobytes() == squares.tobytes()


def test_one_table_per_operator_across_every_reader(builds):
    switch = make_switch(2).process
    chain = random_unitary_chain(2, np.random.default_rng(5)).process
    held_dense = process_operator(switch.nodes, LabeledOperator(switch.op.systems, switch.op.matrix))
    assert labeled._entries(switch.op) is not None and labeled._entries(chain.op) is None
    # the switch four ways: held sparse, held dense but sparse by the rule,
    # routed dense, and the dense chain
    for sigma in (switch, held_dense, _dense(switch), chain):
        builds.clear()
        assert validate_process(sigma).valid
        order = comb_search(sigma)
        comb_check(sigma, order or sigma.node_names)
        signalling_residual(sigma, sigma.node_names[:1])
        type_norms(sigma.op)
        assert len(builds) == 1


def test_validate_discover_and_separability_build_one_table(builds):
    # the dense 1024-dim chain reads it for the edges and the comb check of
    # its order; the sparse switch(3) for the edges (its graph is cyclic)
    chain = random_unitary_chain(3, np.random.default_rng(0)).process
    switch = make_switch(3).process
    assert labeled._entries(chain.op) is None and labeled._entries(switch.op) is not None
    for sigma, built in ((chain, chain.op), (switch, switch.op.systems)):
        builds.clear()
        assert validate_process(sigma).valid
        graph = discover(sigma)[0]
        verdict = unitary_causal_separability(sigma)
        assert verdict.graph == graph and verdict.separable == (sigma is chain)
        comb_check(sigma, verdict.order or sigma.node_names)
        assert len(builds) == 1 and builds[0] is built
        # a cold discover builds the table itself: its edges are read off it
        cold = _fresh(sigma)
        builds.clear()
        assert discover(cold)[0] == graph
        assert len(builds) == 1 and cold.op._squares is not None


def test_bipartite_separability_builds_one_table_for_sigma(builds, rng):
    # mix is a one-way comb: routed dense, both comb checks of sigma read one table
    mix = _dense(make_mix_example())
    verdict = bipartite_separability(mix)
    assert verdict.separable and verdict.iterations == 0
    assert len(builds) == 1 and mix.op._squares is not None
    # a mixture of the two orders: one table for sigma's two comb checks, and
    # one for each normalized component's validation and comb check
    ab, ba = random_one_way_comb(rng, "A", "B"), random_one_way_comb(rng, "B", "A")
    mixed = 0.37 * ab.op.matrix + 0.63 * reorder(ba.op, ab.op.systems).matrix
    sigma = process_operator(ab.nodes, LabeledOperator(ab.op.systems, mixed))
    builds.clear()
    verdict = bipartite_separability(sigma)
    assert verdict.separable and verdict.iterations > 0
    assert len(builds) == 3 and builds.count(sigma.op) == 1


def test_comb_search_on_the_cli_builds_one_table(builds, tmp_path, capsys):
    path = tmp_path / "chain.json"
    write_process_file(path, random_unitary_chain(3, np.random.default_rng(0)))
    assert main(["comb", "--search", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["found"] and len(report["residuals"]) == len(report["found"])
    assert len(builds) == 1


def _bits(verdict) -> tuple:
    """Every field of a verdict, with floats as their exact hex form (so NaN
    equals NaN and -0.0 differs from 0.0)."""
    return tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(verdict))


def _corpus():
    for make, _ in EXEMPLARS.values():
        obj = make()[0]
        if isinstance(obj, DeterministicProcess):
            obj = obj.to_classical()
        yield quantize(obj) if isinstance(obj, ClassicalProcess) else getattr(obj, "process", obj)
    inputs = _inputs_module()
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        yield from inputs.permuted_switches(rng, inputs.SWITCHES)
        yield inputs.permutation_chain(rng).process
        yield from (inputs.rank_two_mixture(rng) for _ in range(inputs.MIXTURES))
        yield from (inputs.haar_process(rng) for _ in range(inputs.HAARS))


def test_results_do_not_depend_on_which_reader_built_the_table():
    for sigma in _corpus():
        # one copy's table is built by validation, the other's by the comb
        # residuals (a sparse one's by the influence residuals: its comb
        # residuals walk the marginals)
        warm, fresh = _fresh(sigma), _fresh(sigma)
        verdict = validate_process(warm)
        assert warm.op._squares is not None and fresh.op._squares is None
        orders = (sigma.node_names, sigma.node_names[::-1])
        residuals = [comb_check(fresh, order).residuals for order in orders]
        assert residuals == [comb_check(warm, order).residuals for order in orders]
        found = comb_search(fresh)
        assert comb_search(warm) == found
        if found is not None:
            assert comb_check(fresh, found).residuals == comb_check(warm, found).residuals
        assert influence_residuals(fresh.channel) == influence_residuals(warm.channel)
        assert _bits(validate_process(fresh)) == _bits(verdict) == _bits(validate_process(warm))


def test_only_the_array_passed_in_is_frozen_so_callers_who_write_pass_a_copy():
    # the frozen-array contract: the base of the view passed in stays writable,
    # and a write through it leaves the kept entries and table stale; an
    # operator built on a copy does not see the write
    systems = (SystemLabel("a", 2), SystemLabel("b", 2))
    big = np.eye(4)
    on_view, on_copy = LabeledOperator(systems, big.reshape(4, 4)[:]), LabeledOperator(systems, big.copy())
    table = type_norms(on_view)
    assert not on_view.matrix.flags.writeable and big.flags.writeable
    big[0, 1] = 1.0
    assert on_view.matrix[0, 1] == 1.0 and type_norms(on_view) == table
    assert labeled._entries(on_view)[0].tolist() == [0, 5, 10, 15]
    assert type_norms(on_copy) == table != type_norms(LabeledOperator(systems, big.copy()))
