"""The in-package simplex behind the deterministic-hull LPs, on textbook cases
and against scipy's HiGHS as an oracle."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import linprog

from causalproc import (
    ClassicalNode,
    ClassicalProcess,
    enumerate_deterministic_processes,
    make_methods_counterexample,
    polytope_membership,
)
from causalproc import classical
from causalproc.classical import _normalization_rows, _simplex

BITS2 = (ClassicalNode("A", 2, 2), ClassicalNode("B", 2, 2))
BITS3 = (ClassicalNode("A", 2, 2), ClassicalNode("B", 2, 2), ClassicalNode("C", 2, 2))

# Beale's example, which cycles under Dantzig's rule with lowest-index ties
BEALE_C = np.array([0, 0, 0, -3 / 4, 150, -1 / 50, 6])
BEALE_A = np.array(
    [
        [1, 0, 0, 1 / 4, -60, -1 / 25, 9],
        [0, 1, 0, 1 / 2, -90, -1 / 50, 3],
        [0, 0, 1, 0, 0, 1, 0],
    ]
)
BEALE_B = np.array([0, 0, 1.0])


def test_beale_cycling_example_ends_at_the_optimum():
    status, x = _simplex(BEALE_C, BEALE_A, BEALE_B, basis=[0, 1, 2])
    assert status == "optimal"
    assert abs(BEALE_C @ x - (-0.05)) < 1e-12
    assert np.abs(x - [0.03, 0, 0, 0.04, 0, 1, 0]).max() < 1e-12


def test_pivot_limit_raises_instead_of_returning_a_verdict(monkeypatch):
    monkeypatch.setattr(classical, "_LP_MAX_PIVOTS", 1)
    with pytest.raises(RuntimeError, match="pivot limit"):
        _simplex(BEALE_C, BEALE_A, BEALE_B, basis=[0, 1, 2])


def test_infeasible_and_unbounded_systems_are_reported():
    assert _simplex([1, 1], [[1, 1], [1, 1]], [1, 2]) == ("infeasible", None)
    assert _simplex([0, 0], [[1, -1], [1, 1]], [-1, 0]) == ("infeasible", None)
    assert _simplex([-1, 0], [[1, -1]], [0]) == ("unbounded", None)


def test_duplicated_rows_are_dropped_after_phase_one():
    a = np.array([[1, 1, 1], [2, 2, 2], [1, -1, 0], [1, 1, 1], [3, 1, 2]], dtype=float)
    b = np.array([1, 2, 0, 1, 2])
    c = np.array([1, 2, 3])
    status, x = _simplex(c, a, b)
    assert status == "optimal"
    assert np.abs(a @ x - b).max() < 1e-12
    oracle = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
    assert abs(c @ x - oracle.fun) < 1e-12


def _l1_lp(v, p):
    m, nv = v.shape
    eye = np.eye(m)
    a = np.block([[v, -eye, eye], [np.ones((1, nv)), np.zeros((1, 2 * m))]])
    return np.concatenate([np.zeros(nv), np.ones(2 * m)]), a, np.append(p, 1.0)


def test_an_artificial_left_basic_at_zero_is_swapped_for_a_structural_column(monkeypatch):
    # Phase I ends with an artificial still basic, at level zero, in a row
    # that is not redundant: a structural column takes its place and every
    # row is kept.
    a = np.array([[1, 1, 1, -1], [-2, 1, -1, -2], [0, 1, -1, 1]], dtype=float)
    b = np.array([1.0, 1.0, 1.0])
    c = np.array([-1.0, -1.0, 0.0, 0.0])
    bases = []
    run = classical._simplex_run

    def recording(*args):
        out = run(*args)
        bases.append(args[3].copy())
        return out

    monkeypatch.setattr(classical, "_simplex_run", recording)
    status, x = _simplex(c, a, b)
    phase_one, phase_two = bases
    assert (phase_one >= a.shape[1]).any()
    assert phase_two.size == a.shape[0] and (phase_two < a.shape[1]).all()
    assert status == "optimal" and np.abs(a @ x - b).max() < 1e-12
    assert abs(c @ x - linprog(c, A_eq=a, b_eq=b, method="highs").fun) < 1e-12


def test_two_calls_return_bitwise_equal_solutions():
    lib = enumerate_deterministic_processes(BITS3)
    v = np.stack([dp.to_classical().table.reshape(-1) for dp in lib], axis=1)
    rng = np.random.default_rng(3)
    p = v[:, rng.choice(len(lib), 6, replace=False)] @ rng.dirichlet(np.ones(6))
    c, a, b = _l1_lp(v, p)
    first, second = _simplex(c, a, b)[1], _simplex(c, a, b)[1]
    assert first.tobytes() == second.tobytes()


@pytest.fixture(scope="module")
def libraries():
    out = {}
    for nodes in (BITS2, BITS3):
        lib = enumerate_deterministic_processes(nodes)
        out[nodes] = lib, np.stack([dp.to_classical().table.reshape(-1) for dp in lib], axis=1)
    return out


def _highs_hull(v, p):
    """The earlier HiGHS decision (exact feasibility, then an L-infinity check)
    and HiGHS's L1 distance from p to the hull."""
    m, nv = v.shape
    a_eq, b_eq = np.vstack([v, np.ones((1, nv))]), np.append(p, 1.0)
    feas = linprog(np.zeros(nv), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    inside = feas.status == 0 and np.abs(v @ feas.x - p).max() <= 1e-7
    c, a, b = _l1_lp(v, p)
    return inside, linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs").fun


def _check_against_highs(nodes, lib, v, table):
    verdict = polytope_membership(ClassicalProcess(nodes, table), lib)
    p = table.reshape(-1)
    inside, distance = _highs_hull(v, p)
    assert verdict.inside == inside
    if inside:
        w = verdict.weights
        assert w.min() >= 0
        assert abs(w.sum() - 1.0) < 1e-9
        assert np.abs(v @ w - p).max() < 1e-9
        assert verdict.residual < 1e-9
    else:
        assert abs(verdict.residual - distance) < 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_two_bit_dirichlet_mixtures_agree_with_highs(libraries, seed):
    lib, v = libraries[BITS2]
    w = np.random.default_rng(seed).dirichlet(np.full(len(lib), 0.5))
    _check_against_highs(BITS2, lib, v, (v @ w).reshape(2, 2, 2, 2))


@pytest.mark.parametrize("seed", range(8))
def test_three_bit_mixtures_of_random_vertex_subsets_agree_with_highs(libraries, seed):
    lib, v = libraries[BITS3]
    rng = np.random.default_rng(100 + seed)
    subset = rng.choice(len(lib), size=int(rng.integers(2, 40)), replace=False)
    table = v[:, subset] @ rng.dirichlet(np.ones(len(subset)))
    _check_against_highs(BITS3, lib, v, table.reshape((2,) * 6))


@pytest.mark.parametrize("dist", [[0.5, 0.5], [1, 0], [0, 1], [0.9, 0.1]])
def test_counterexample_distance_agrees_with_highs(libraries, dist):
    lib, v = libraries[BITS3]
    kp = make_methods_counterexample().combined(dist)
    _check_against_highs(BITS3, lib, v, kp.table)
    assert not polytope_membership(kp, lib).inside


def test_every_three_bit_vertex_is_its_own_decomposition(libraries):
    lib, _ = libraries[BITS3]
    for k, dp in enumerate(lib):
        verdict = polytope_membership(dp.to_classical(), lib)
        assert verdict.inside
        assert verdict.residual == 0.0
        assert np.flatnonzero(verdict.weights > 1e-12).tolist() == [k]


@pytest.mark.parametrize("nodes", [BITS2, BITS3], ids=["2-bit", "3-bit"])
def test_validity_polytope_optima_agree_with_highs(nodes):
    a = _normalization_rows(nodes, 2**24)
    b = np.ones(len(a))
    rng = np.random.default_rng(7)
    for _ in range(8):
        c = -rng.normal(size=a.shape[1])
        status, x = _simplex(c, a, b)
        assert status == "optimal"
        assert x.min() >= 0
        assert np.abs(a @ x - b).max() < 1e-9
        assert abs(c @ x - linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs").fun) < 1e-9
