from __future__ import annotations

import hashlib
import itertools
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from causalproc import cli
from causalproc import (
    ClassicalNode,
    ClassicalProcess,
    DeterministicProcess,
    ReversibleExtension,
    causal_structure_deterministic,
    classical_joint_probabilities,
    classical_markov_check,
    compatibility_check,
    directed_graph,
    enumerate_deterministic_processes,
    find_process_outside_hull,
    make_af_deterministic,
    make_classical_switch,
    markov_check,
    polytope_membership,
    quantize,
    reversible_extension,
    validate_classical,
    validate_deterministic,
    validate_process,
)
from causalproc import classical
from causalproc.classical import _normalization_rows
from causalproc.exemplars import _coherent_copy
from causalproc.process import ENUMERATION_BUDGET

BITS2 = (ClassicalNode("A", 2, 2), ClassicalNode("B", 2, 2))


def chain_process():
    # B.in copies A.out; A.in is constant 0
    func = np.zeros((2, 2, 2), dtype=np.int64)
    func[..., 1] = np.arange(2)[:, None]
    return DeterministicProcess(BITS2, func)


def test_single_bit_node_vertices_are_constants():
    node = (ClassicalNode("A", 2, 2),)
    lib = enumerate_deterministic_processes(node)
    assert len(lib) == 2
    for dp in lib:
        # constant functions only: no dependence on the out-value
        assert np.array_equal(dp.function[0], dp.function[1])
        ok, _ = validate_deterministic(dp)
        assert ok
    # the identity function admits zero or two consistent assignments
    ident = DeterministicProcess(node, np.arange(2, dtype=np.int64).reshape(2, 1))
    ok, witness = validate_deterministic(ident)
    assert not ok
    assert witness is not None


def test_chain_process_structure_and_markov():
    chain = chain_process()
    ok, _ = validate_deterministic(chain)
    assert ok
    g = causal_structure_deterministic(chain)
    assert set(g.edges) == {("A", "B")}
    kp = chain.to_classical()
    assert validate_classical(kp).valid
    mk = classical_markov_check(kp, directed_graph(["A", "B"], [("A", "B")]))
    assert mk.accepted
    assert mk.product_residual < 1e-12
    mk0 = classical_markov_check(kp, directed_graph(["A", "B"], []))
    assert not mk0.accepted


def test_classical_joint_probabilities_chain():
    kp = chain_process().to_classical()
    # A: read the input, output a uniform random bit; B: report the input, output 0
    ch_a = np.zeros((2, 2, 2))
    for k in range(2):
        for o in range(2):
            ch_a[k, o, k] = 0.5
    ch_b = np.zeros((2, 2, 2))
    for k in range(2):
        ch_b[k, 0, k] = 1.0
    p = classical_joint_probabilities(kp, [ch_a, ch_b])
    assert np.abs(p - np.array([[0.5, 0.5], [0.0, 0.0]])).max() < 1e-12


def test_two_way_loop_table_is_invalid():
    bad = np.zeros((2, 2, 2, 2))
    for a in range(2):
        for b in range(2):
            bad[b, a, a, b] = 1.0
    kp = ClassicalProcess(BITS2, bad)
    v = validate_classical(kp)
    assert not v.valid
    sig = quantize(kp)
    vq = validate_process(sig)
    assert not vq.valid
    assert "A.in*A.out'*B.in*B.out'" in vq.offending_types


def test_quantize_agrees_with_classical_markov():
    kp = chain_process().to_classical()
    sig = quantize(kp)
    assert validate_process(sig).valid
    for edges in ([("A", "B")], []):
        g = directed_graph(["A", "B"], edges)
        assert classical_markov_check(kp, g).accepted == markov_check(sig, g).accepted


def test_polytope_membership_of_mixture(rng):
    lib = enumerate_deterministic_processes(BITS2)
    w = rng.dirichlet(np.ones(len(lib)))
    table = sum(wi * dp.to_classical().table for wi, dp in zip(w, lib))
    kp = ClassicalProcess(BITS2, table)
    assert validate_classical(kp).valid
    verdict = polytope_membership(kp)
    assert verdict.inside
    assert verdict.residual < 1e-9
    recon = sum(
        wi * dp.to_classical().table for wi, dp in zip(verdict.weights, lib)
    )
    assert np.abs(recon - table).max() < 1e-9


def test_reversible_extension_marginal_exact(rng):
    lib = enumerate_deterministic_processes(BITS2)
    w = rng.dirichlet(np.ones(len(lib)))
    mixture = [(float(wi), dp) for wi, dp in zip(w, lib)]
    ext = reversible_extension(mixture)
    ok, _ = validate_deterministic(ext.extension)
    assert ok
    marg = ext.marginal()
    oracle = np.zeros_like(mixture[0][1].to_classical().table)
    for wi, dp in mixture:
        oracle = oracle + wi * dp.to_classical().table
    assert np.array_equal(marg.table, oracle)


def test_extension_reproduces_the_table_within_four_lp_residuals_or_tol(monkeypatch):
    """``classical._extend_in_hull``'s rule at its boundary: the marginal's
    error against max(tol, 4 × the LP residual), and no extension outside."""
    table = chain_process().to_classical().table.copy()
    table[0, 0, 0, 0] += 1e-9  # inside: within the LP's 1e-7 of a vertex
    kp = ClassicalProcess(BITS2, table)
    ext, branches, error, exact = classical._extend_in_hull(kp, 0.0, ENUMERATION_BUDGET)
    assert (branches, exact) == (1, True) and 0 < error < 1e-8
    assert np.array_equal(ext.marginal().table, chain_process().to_classical().table)
    real = classical.polytope_membership
    for residual, want in ((error / 4, True), (float(np.nextafter(error / 4, 0)), False)):
        monkeypatch.setattr(classical, "polytope_membership", lambda *a, r=residual, **k: replace(real(*a, **k), residual=r))
        assert classical._extend_in_hull(kp, 0.0, ENUMERATION_BUDGET)[3] is want
        assert classical._extend_in_hull(kp, error, ENUMERATION_BUDGET)[3] is True
    table[0, 0, 0, 0] += 1e-3
    assert classical._extend_in_hull(ClassicalProcess(BITS2, table), 0.0, ENUMERATION_BUDGET) is None


def test_outside_hull_process_is_outside():
    nodes = (ClassicalNode("A", 2, 2), ClassicalNode("B", 2, 2), ClassicalNode("C", 2, 2))
    kp, dist = find_process_outside_hull(nodes)
    assert validate_classical(kp).valid
    verdict = polytope_membership(kp)
    assert not verdict.inside
    assert verdict.residual > 1e-7
    assert dist > 1e-7


def test_outside_hull_search_names_a_failed_validity_lp(monkeypatch):
    import causalproc.classical as classical

    monkeypatch.setattr(classical, "_simplex", lambda *args: ("infeasible", None))
    with pytest.raises(RuntimeError, match="validity LP ended infeasible"):
        find_process_outside_hull(BITS2)


def _compatibility(dp: DeterministicProcess, graph, extension: DeterministicProcess | None = None):
    """The unitary-extension check on quantize(dp), with the coherent copy of
    dp's reversible extension (or of ``extension``) and |0><0| in every memory."""
    extension = extension or reversible_extension([(1.0, dp)]).extension
    memories = [np.diag(np.eye(node.in_card)[0]) for node in dp.nodes]
    return compatibility_check(quantize(dp.to_classical()), graph, _coherent_copy(extension), memories)


@pytest.mark.parametrize("cards", [(2, 2), (3, 2)], ids=["2-2", "3-2"])
def test_compatibility_of_each_vertex_is_its_influence_graph(cards):
    # node A has in-card cards[0], B is a bit; every vertex on every graph over A, B
    nodes = (ClassicalNode("A", cards[0], 2), ClassicalNode("B", 2, 2))
    arrows = [("A", "B"), ("B", "A")]
    graphs = [directed_graph(["A", "B"], kept) for k in range(3) for kept in itertools.combinations(arrows, k)]
    vertices = enumerate_deterministic_processes(nodes)
    assert len(vertices) * len(graphs) == {(2, 2): 48, (3, 2): 96}[cards]
    for dp in vertices:
        needed = causal_structure_deterministic(dp).edges
        for g in graphs:
            cv = _compatibility(dp, g)
            assert cv.extension_valid and cv.marginal_residual <= 1e-12
            assert cv.compatible == (needed <= g.edges), (dp.function.tolist(), g.edges, cv.influence_residuals)


def test_reversible_extension_marginal_needs_one_weight_per_root_value():
    ext = reversible_extension([(1.0, chain_process())])
    for dist in ([1.0], np.append(ext.lambda_distribution, 0.0)):
        with pytest.raises(ValueError, match="one weight per root value"):
            ReversibleExtension(ext.extension, dist, ext.base_nodes).marginal()


def test_classical_markov_check_counts_a_negative_factor_entry():
    # Every factor sums to one, but A's marginal is (1.5, -0.5): only the
    # negative entry makes it no stochastic channel.
    table = np.full((2, 2, 2, 2), 0.25)
    table[0, 0, 0, 0] += 4.0
    table[1, 0, 0, 0] -= 4.0
    mk = classical_markov_check(ClassicalProcess(BITS2, table), directed_graph(["A", "B"], []))
    assert np.array_equal(mk.factors["A"], [1.5, -0.5])
    assert mk.stochastic_residual == 0.5 and not mk.accepted


def test_compatibility_names_root_factors_read_by_the_other_node():
    # The chain's extension with the root factors swapped: A.in = root[B] and
    # B.in = root[A] xor A.out, still a bijection with the same marginal, but
    # each node reads the other's memory.
    chain = chain_process()
    ext = reversible_extension([(1.0, chain)])
    func = ext.extension.function.copy()
    split = func.reshape(2, 2, 2, 2, 1, 4)  # axes: root A, root B, A.out, B.out, leaf, component
    split[..., 1] = np.arange(2).reshape(1, 2, 1, 1, 1)
    split[..., 2] = (np.arange(2).reshape(2, 1, 1, 1, 1) + np.arange(2).reshape(1, 1, 2, 1, 1)) % 2
    g = directed_graph(["A", "B"], [("A", "B")])
    cv = _compatibility(chain, g, DeterministicProcess(ext.extension.nodes, func))
    assert cv.extension_valid and cv.marginal_residual == 0.0 and not cv.compatible
    assert {k for k, r in cv.influence_residuals.items() if r > 1e-9} == {"root[B] -/-> A.in", "root[A] -/-> B.in"}


def test_validate_classical_rejects_negative_and_unnormalized():
    table = np.full((2, 2, 2, 2), 0.25)
    assert validate_classical(ClassicalProcess(BITS2, table)).valid
    neg = table.copy()
    neg[0, 0, 0, 0] = -0.1
    v = validate_classical(ClassicalProcess(BITS2, neg))
    assert not v.valid
    assert v.min_entry < 0
    scaled = 1.5 * table
    v2 = validate_classical(ClassicalProcess(BITS2, scaled))
    assert not v2.valid
    assert v2.max_normalization_error > 0.1


def _brute_force_library(cards):
    """Every function from out-values to in-values, in id order (first out-value
    most significant), kept iff each tuple of local maps has one fixed point."""
    in_cards = [c[0] for c in cards]
    out_cards = [c[1] for c in cards]
    in_space = int(np.prod(in_cards))
    out_space = int(np.prod(out_cards))
    ids = np.arange(in_space**out_space)
    flat_ins = ids[:, None] // in_space ** np.arange(out_space - 1, -1, -1) % in_space
    per_node_maps = [list(itertools.product(range(o), repeat=i)) for i, o in cards]
    in_grid = np.indices(in_cards).reshape(len(cards), in_space)
    valid = np.ones(len(ids), dtype=bool)
    for g in itertools.product(*per_node_maps):
        # flat in-value -> flat out-value under the local maps g
        gflat = np.ravel_multi_index([np.array(g[i])[in_grid[i]] for i in range(len(cards))], out_cards)
        valid &= (gflat[flat_ins] == np.arange(out_space)).sum(axis=1) == 1
    funcs = np.stack(np.unravel_index(flat_ins[valid], in_cards), axis=-1)
    return funcs.reshape((-1,) + tuple(out_cards) + (len(cards),))


@pytest.mark.parametrize(
    "cards",
    [((2, 3), (3, 2)), ((1, 2), (2, 2), (2, 1)), ((2, 2), (1, 3)), ((3, 2),), ((2, 3),), ((2, 1),)],
)
def test_enumeration_matches_brute_force_oracle(cards):
    nodes = tuple(ClassicalNode(f"N{i}", i_card, o_card) for i, (i_card, o_card) in enumerate(cards))
    lib = enumerate_deterministic_processes(nodes)
    oracle = _brute_force_library(cards)
    assert len(lib) == len(oracle) > 0
    funcs = np.stack([dp.function for dp in lib])
    assert funcs.dtype == np.int64
    assert np.array_equal(funcs, oracle)


def test_three_bit_library_is_pinned():
    bits3 = tuple(ClassicalNode(x, 2, 2) for x in "ABC")
    lib = enumerate_deterministic_processes(bits3)
    assert len(lib) == 744
    digest = hashlib.sha256(np.stack([dp.function for dp in lib]).tobytes()).hexdigest()
    assert digest == "58d87613577cfbecd23368af0062f3238ee627ab0c0abbe946c8769e3acaf785"


PARITY_SIGNATURES = {
    "2-2": (ClassicalNode("A", 2, 2), ClassicalNode("B", 2, 2)),
    "3-2": (ClassicalNode("A", 3, 2), ClassicalNode("B", 3, 2)),
    "2-3": (ClassicalNode("A", 2, 3), ClassicalNode("B", 2, 3)),
    "bits3": tuple(ClassicalNode(x, 2, 2) for x in "ABC"),
    "PABF": (ClassicalNode("P", 1, 2), ClassicalNode("A", 2, 2), ClassicalNode("B", 2, 2), ClassicalNode("F", 2, 1)),
}


def _sha256(arr: np.ndarray) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()


# sha256 of the stacked vertex functions and of the LP's validity rows, recorded
# from an integer fixed-point count and the instruments' outer product
PARITY_DIGESTS = {
    "2-2": (
        "1fb04f40d55bafba858bfdd8ca594b21b80d7b5f7f1a9e4800e4df628b391f72",
        "c121e6e7c918767165ab65b3b709a6116436ab7a6a5b6cdba4bfe5bea893f2c5",
    ),
    "3-2": (
        "37c3b173a8346f55478fab8b16fcb8d0c19f53c5575ca0eb69dee1f12bb1e553",
        "30690f7e1608962ef0504895700bdab3f26a5489f130d37d6e1e0a7c18a768d5",
    ),
    "2-3": (
        "9815c5d024dcf8e209992205df28aa4484e46bf0f4572caf4770c9f73da12e26",
        "b3af5e01fd543df3c11647f5bea9b53d7920464050c0fa246dffc0361f5165a7",
    ),
    "bits3": (
        "58d87613577cfbecd23368af0062f3238ee627ab0c0abbe946c8769e3acaf785",
        "6d9fb5d055a7ea40876604a3dbde427914be4de6abedbbf7cfbc0af3ee9a0f32",
    ),
    "PABF": (
        "061ac5fbc521a9c01aa6d74ccaa23d680e282abc997006091cdd0c7311a548f5",
        "d5e011bf188b862122ea4e67b8154be2127b57f566a572977efcaccb4388217c",
    ),
}


@pytest.mark.parametrize("name", list(PARITY_SIGNATURES))
def test_vertices_and_validity_rows_are_pinned(name):
    nodes = PARITY_SIGNATURES[name]
    lib = enumerate_deterministic_processes(nodes)
    rows = _normalization_rows(nodes, ENUMERATION_BUDGET)
    assert (_sha256(np.stack([dp.function for dp in lib])), _sha256(rows)) == PARITY_DIGESTS[name]


def _fixed_point_witness(nodes, func):
    """The loop reference for validate_deterministic: the first tuple of local
    maps, in itertools.product order, without exactly one out-value y with
    g(f(y)) = y, and that number of out-values."""
    per_node = [list(itertools.product(range(n.out_card), repeat=n.in_card)) for n in nodes]
    outs = list(itertools.product(*(range(n.out_card) for n in nodes)))
    for g in itertools.product(*per_node):
        count = sum(all(g[i][func[y][i]] == y[i] for i in range(len(nodes))) for y in outs)
        if count != 1:
            return g, count
    return None


@pytest.mark.parametrize("name", ["2-2", "3-2", "PABF"])
def test_validate_deterministic_matches_a_fixed_point_loop(name):
    nodes = PARITY_SIGNATURES[name]
    shape = tuple(n.out_card for n in nodes)
    for seed in range(150):
        rng = np.random.default_rng(seed)
        func = np.stack([rng.integers(0, n.in_card, size=shape) for n in nodes], axis=-1)
        ok, witness = validate_deterministic(DeterministicProcess(nodes, func))
        want = _fixed_point_witness(nodes, func)
        assert ok == (want is None)
        if witness is not None:
            maps, count = witness
            assert (tuple(tuple(int(v) for v in g) for g in maps), count) == want, seed


def _seeded_marginals(count: int) -> bytes:
    """The marginal tables of ``count`` seeded reversible extensions of
    Dirichlet mixtures of up to 20 vertices, cycling over three signatures."""
    libs = [enumerate_deterministic_processes(PARITY_SIGNATURES[name]) for name in ("2-2", "3-2", "bits3")]
    tables = []
    for seed in range(count):
        rng = np.random.default_rng(seed)
        lib = libs[seed % 3]
        k = int(rng.integers(1, min(len(lib), 20) + 1))
        picked = rng.choice(len(lib), k, replace=False)
        weights = rng.dirichlet(np.ones(k))
        ext = reversible_extension([(float(w), lib[j]) for w, j in zip(weights, picked)])
        tables.append(ext.marginal().table.tobytes())
    return b"".join(tables)


def test_extension_marginals_are_pinned_bit_for_bit():
    # recorded from a scatter-add (np.add.at) over the root values in order
    assert hashlib.sha256(_seeded_marginals(150)).hexdigest() == "f7d04f61caef138f6e032639d278e312e2a233fe0823c84760ae9484cea0a0d6"


def test_extension_marginal_of_a_one_cell_table_adds_branch_by_branch(rng):
    # every table has one cell, so all twelve weights land on it, in branch order
    (dp,) = enumerate_deterministic_processes((ClassicalNode("A", 1, 1),))
    for _ in range(20):
        weights = rng.dirichlet(np.ones(12))
        total = 0.0
        for w in weights:
            total += w
        marg = reversible_extension([(float(w), dp) for w in weights]).marginal()
        assert marg.table.shape == (1, 1) and marg.table[0, 0] == total


def test_single_node_with_many_in_values_enumerates_constants():
    lib = enumerate_deterministic_processes((ClassicalNode("F", 2**16, 1),))
    assert len(lib) == 2**16
    assert [int(dp.function[0, 0]) for dp in lib[:3]] == [0, 1, 2]


def test_enumeration_checks_the_surviving_stack_once(monkeypatch):
    """The enumerated functions are checked as one stack, and no vertex runs
    the constructor's per-object checks."""
    calls = {"post_init": 0, "stack": 0}
    post_init, check = DeterministicProcess.__post_init__, classical._check_functions

    def counted_post_init(self):
        calls["post_init"] += 1
        post_init(self)

    def counted_check(nodes, funcs):
        calls["stack"] += 1
        check(nodes, funcs)

    monkeypatch.setattr(DeterministicProcess, "__post_init__", counted_post_init)
    monkeypatch.setattr(classical, "_check_functions", counted_check)
    lib = enumerate_deterministic_processes(BITS2)
    assert calls == {"post_init": 0, "stack": 1} and len(lib) == 12
    assert all(dp == DeterministicProcess(dp.nodes, dp.function) for dp in lib)


def test_receive_only_nodes_are_counted_at_one_in_value():
    # a node with one out-value accepts every in-value under its one local map,
    # so the count's tables do not grow with its in-card
    nodes = (ClassicalNode("A", 2, 2), ClassicalNode("F", 2**12, 1), ClassicalNode("G", 2**12, 1))
    func = np.zeros((2, 1, 1, 3), dtype=np.int64)
    func[1, 0, 0] = (0, 4095, 7)
    tracemalloc.start()
    try:
        verdict = validate_deterministic(DeterministicProcess(nodes, func))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == (True, None) and peak < 4 * 2**20


def _witness(nodes, func):
    ok, witness = validate_deterministic(DeterministicProcess(nodes, np.asarray(func, dtype=np.int64)))
    assert not ok
    maps, count = witness
    return tuple(tuple(int(v) for v in g) for g in maps), count


def test_validate_deterministic_witnesses_are_the_first_bad_tuple():
    bit = (ClassicalNode("A", 2, 2),)
    assert _witness(bit, [[0], [1]]) == (((0, 1),), 2)
    assert _witness(bit, [[1], [0]]) == (((0, 1),), 0)
    swap = np.stack(np.indices((2, 2))[::-1], axis=-1)
    assert _witness(BITS2, swap) == (((0, 1), (0, 1)), 2)
    bits3 = tuple(ClassicalNode(x, 2, 2) for x in "ABC")
    o = np.indices((2, 2, 2))
    parity = np.stack([o[1] ^ o[2], o[0] ^ o[2], o[0] ^ o[1]], axis=-1)
    assert _witness(bits3, parity) == (((0, 0), (0, 1), (0, 1)), 2)
    cycle = np.stack([o[1], o[2], o[0]], axis=-1)
    assert _witness(bits3, cycle) == (((0, 1), (0, 1), (0, 1)), 2)
    mixed = (ClassicalNode("A", 2, 3), ClassicalNode("B", 3, 2))
    o = np.indices((3, 2))
    assert _witness(mixed, np.stack([o[1], o[0]], axis=-1)) == (((0, 1), (0, 1, 0)), 2)


BUDGET_REJECTED = """
import sys
sys.path.insert(0, {src!r})
import causalproc as cp
try:
    cp.polytope_membership(cp.make_classical_switch(2).to_classical(), budget=1)
except ValueError as exc:
    assert "exceed the budget" in str(exc)
else:
    raise AssertionError("the budget did not reject the call")
print("scipy.optimize" in sys.modules)
"""


def test_budget_rejected_polytope_call_does_not_import_the_lp_solver():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = BUDGET_REJECTED.format(src=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


HULL_COMMANDS_IN_FRESH_PROCESS = """
import contextlib, io, sys
sys.path.insert(0, {src!r})
from causalproc import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["classical", "polytope", {cx!r}]), cli.main(["classical", "extend", {af!r}])]
print("scipy" in sys.modules, *codes)
"""


def test_polytope_and_extend_do_not_import_scipy(tmp_path, capsys):
    cx, af = str(tmp_path / "counterexample.json"), str(tmp_path / "af-classical.json")
    assert cli.main(["exemplar", "counterexample", "--out", cx]) == 0
    assert cli.main(["exemplar", "af-classical", "--out", af]) == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = HULL_COMMANDS_IN_FRESH_PROCESS.format(src=src, cx=cx, af=af)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.split() == ["False", "1", "0"]



def _first_out_of_range(nodes, f):
    """The loop reference: the first node, in node order, with an in-value outside [0, in_card)."""
    for i, n in enumerate(nodes):
        if f[..., i].min() < 0 or f[..., i].max() >= n.in_card:
            return n.name
    return None


@pytest.mark.parametrize("seed", range(40))
def test_deterministic_process_names_the_first_node_with_an_out_of_range_in_value(seed):
    rng = np.random.default_rng(seed)
    nodes = tuple(ClassicalNode(x, int(rng.integers(1, 4)), int(rng.integers(1, 4))) for x in "ABC"[: rng.integers(1, 4)])
    shape = tuple(n.out_card for n in nodes)
    f = np.stack([rng.integers(0, n.in_card, size=shape) for n in nodes], axis=-1)
    for _ in range(int(rng.integers(0, 3))):  # a few in-values pushed one past either end
        k = tuple(int(rng.integers(0, c)) for c in shape)
        i = int(rng.integers(0, len(nodes)))
        f[k + (i,)] = rng.choice([-1, nodes[i].in_card])
    first = _first_out_of_range(nodes, f)
    if first is None:
        np.testing.assert_array_equal(DeterministicProcess(nodes, f).function, f)
    else:
        with pytest.raises(ValueError, match=f"^in-values for node '{first}' out of range$"):
            DeterministicProcess(nodes, f)


_BIT = ClassicalNode("A", 2, 2)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: ClassicalNode("A", 0, 2), ValueError, "cardinalities must be positive", id="cardinality"),
        pytest.param(lambda: ClassicalProcess((_BIT,), np.zeros((3, 3))), ValueError, r"table shape \(3, 3\), expected \(2, 2\)", id="table shape"),
        pytest.param(lambda: ClassicalProcess((_BIT,), np.zeros((2, 2))).node("Z"), KeyError, "no node named 'Z'", id="node name"),
        pytest.param(lambda: DeterministicProcess((_BIT,), np.zeros((3, 1), int)), ValueError, "function shape", id="function shape"),
        pytest.param(lambda: DeterministicProcess((_BIT,), np.full((2, 1), 0.5)), ValueError, "function must hold integers, got dtype float64", id="float function"),
        pytest.param(lambda: DeterministicProcess((_BIT,), np.zeros((2, 1), bool)), ValueError, "function must hold integers, got dtype bool", id="bool function"),
        pytest.param(
            lambda: classical_joint_probabilities(ClassicalProcess((_BIT,), np.zeros((2, 2))), []), ValueError, "one channel per node", id="channel count"
        ),
        pytest.param(
            lambda: classical_joint_probabilities(ClassicalProcess((_BIT,), np.zeros((2, 2))), [np.zeros((1, 3, 2))]),
            ValueError,
            r"channel 0 has shape \(1, 3, 2\), expected \(k, 2, 2\)",
            id="channel shape",
        ),
        pytest.param(
            lambda: causal_structure_deterministic(DeterministicProcess((_BIT,), np.array([[0], [1]]))),
            ValueError,
            "node 'A' input depends on its own output",
            id="self-influence",
        ),
        pytest.param(
            lambda: classical_markov_check(ClassicalProcess((_BIT,), np.zeros((2, 2))), directed_graph(["B"], [])),
            ValueError,
            "graph vertices must match the process nodes",
            id="markov graph",
        ),
        pytest.param(lambda: enumerate_deterministic_processes((_BIT,), budget=3), ValueError, "4 candidate functions exceed the budget 3", id="budget"),
        pytest.param(lambda: reversible_extension([]), ValueError, "mixture must be nonempty", id="empty mixture"),
        pytest.param(
            lambda: reversible_extension([(0.5, make_af_deterministic()), (0.5, make_classical_switch(2))]),
            ValueError,
            "share the same nodes",
            id="mixed nodes",
        ),
        pytest.param(
            lambda: reversible_extension([(0.5, make_af_deterministic()), (0.6, make_af_deterministic())]),
            ValueError,
            "probability distribution",
            id="weights",
        ),
        pytest.param(
            lambda: reversible_extension([(float("nan"), make_af_deterministic()), (1.0, make_af_deterministic())]),
            ValueError,
            "probability distribution",
            id="nan weight",
        ),
        # on two bits every valid process is a mixture of deterministic ones
        pytest.param(
            lambda: find_process_outside_hull((ClassicalNode("A", 2, 2), ClassicalNode("B", 2, 2))),
            RuntimeError,
            "no separating vertex",
            id="two-bit hull",
        ),
    ],
)
def test_classical_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()
