"""Fixed-order (comb) structure of processes and bipartite causal separability.

A process is a comb for a total order when, for every prefix of the order,
tracing out the later nodes leaves an operator independent of the last
remaining node's output. Bipartite separability asks for a convex split into
the two one-way comb types; the solver certifies splits (or reports that it
could not find one) but never claims impossibility.

``comb_check`` and ``comb_search`` read their residuals from one function
built per process, ``hs._comb_residual``, which picks the operator's route.
The separability loop forms no Hermitian part: it reads ``labeled._psd_part``
and ``labeled._min_eig``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .graphs import DirectedGraph, causal_structure_unitary
from .hs import _comb_residual, project_trivial
from .labeled import LabeledOperator, _from_entries, _min_eig, _psd_part
from .process import ProcessOperator, is_isometric, process_operator, validate_process

__all__ = _EXPORTS["combs"]


@dataclass(frozen=True)
class CombVerdict:
    """Result of testing one total order: per-prefix residuals, first node first."""

    order: tuple
    residuals: tuple
    accepted: bool
    tol: float


def comb_check(sigma: ProcessOperator, order, tol: float = 1e-9) -> CombVerdict:
    """Test whether sigma is a comb for the given node-name order.

    For each l (from the last node down), the marginal over nodes after
    position l must be independent of node l's output. Residuals use the
    normalized distance and are reported in order positions 1..n. The order
    is accepted iff every residual is within tol, which a NaN one is not.
    """
    order = tuple(order)
    if sorted(order) != sorted(sigma.node_names):
        raise ValueError(f"order {order} is not a permutation of {sigma.node_names}")
    residual = _comb_residual(sigma.op, sigma.nodes)
    # position i's residual traces out the later nodes, last first
    residuals = tuple(residual(order[:i:-1], name) for i, name in enumerate(order))
    return CombVerdict(order, residuals, all(r <= tol for r in residuals), tol)


def comb_search(sigma: ProcessOperator, tol: float = 1e-9, budget: int = 8):
    """Find a node order for which sigma is a comb, or None if there is none.

    Depth-first over choices of the last node, pruning node subsets that
    cannot be completed. Returns the first order found (deterministic:
    candidates are tried in sorted name order). Every residual comes from the
    one function ``comb_check`` uses, so the order found passes it: read off
    the type-norm table for a dense operator, by the marginal walk for a
    sparse one. A cold table plus reads is faster there too (timings in
    ``hs._comb_residual``); the walk stays because the benchmark's
    ``combs.comb_search.nodes`` counter counts its projections.
    """
    found = _search(sigma, tol, budget)
    return None if found is None else found.order


def _search(sigma: ProcessOperator, tol: float, budget: int) -> CombVerdict | None:
    """``comb_search``'s walk: the accepted ``CombVerdict`` of the order found,
    with the residuals read along its path (those ``comb_check`` reads), or None."""
    nodes = sigma.node_names
    if len(nodes) > budget:
        raise ValueError(f"{len(nodes)} nodes exceeds the search budget ({budget})")
    residual = _comb_residual(sigma.op, sigma.nodes)
    dead: set = set()

    def dfs(remaining: frozenset, traced: tuple):
        if not remaining:
            return (), ()
        if remaining in dead:
            return None
        for name in sorted(remaining):
            if not (r := residual(traced, name)) <= tol:
                continue
            sub = dfs(remaining - {name}, traced + (name,))
            if sub is not None:
                return sub[0] + (name,), sub[1] + (r,)
        dead.add(remaining)
        return None

    found = dfs(frozenset(nodes), ())
    return None if found is None else CombVerdict(*found, True, tol)


@dataclass(frozen=True)
class UnitarySeparabilityVerdict:
    """Order witness (acyclic case) or cycle witness (cyclic case)."""

    separable: bool
    order: tuple | None
    cycle: tuple | None
    graph: DirectedGraph
    comb: CombVerdict | None


def unitary_causal_separability(sigma: ProcessOperator, tol: float = 1e-9) -> UnitarySeparabilityVerdict:
    """Decide fixed-order realizability of a unitary process via its influence graph.

    An acyclic influence graph yields a total order (any topological order
    works); the claim is cross-checked with comb_check. A cyclic graph rules
    out every fixed order and a shortest cycle is returned as the witness.
    That holds for a unitary only: sigma failing ``is_isometric`` (a mixture of
    two orders, say, signals both ways) raises ValueError.
    """
    if not is_isometric(sigma, tol):
        raise ValueError("not the process of a unitary: sigma is not v v† for one vector v")
    g = causal_structure_unitary(sigma, tol)
    if g.is_cyclic:
        return UnitarySeparabilityVerdict(False, None, g.cycle(), g, None)
    order = g.topological_order()
    cv = comb_check(sigma, order, tol)
    if not cv.accepted:
        raise RuntimeError(
            f"influence graph is acyclic but order {order} fails the comb test "
            f"(residuals {cv.residuals}); tolerances are inconsistent"
        )
    return UnitarySeparabilityVerdict(True, order, None, g, cv)


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Outcome of the bipartite split search.

    ``status`` is "separable" (certified split found) or "inconclusive".
    ``first_component`` is the part combing as (first node before second);
    ``second_component`` the reverse part; ``weight`` is the trace fraction
    of the reverse part. Components are unnormalized and sum to the input.
    """

    status: str
    weight: float
    first_component: LabeledOperator | None
    second_component: LabeledOperator | None
    residual: float
    iterations: int
    tol: float

    @property
    def separable(self) -> bool:
        return self.status == "separable"


def bipartite_separability(
    sigma: ProcessOperator,
    tol: float = 1e-6,
    max_iter: int = 5000,
) -> SeparabilityVerdict:
    """Search for a convex split of a two-node process into one-way combs.

    Writes sigma = X + Y with X of (A before B) type, Y of (B before A) type,
    and both positive semidefinite, where (A, B) are the process's two nodes
    in listed order. Dykstra's method alternates between the two positivity
    cones and the affine set of such Y, with corrections kept only for the
    cones. With P_S the ``project_trivial`` over systems S, the projector
    onto (1 before 2) types is L = P_{2o} - P_{2o,2i} + P_{2o,2i,1o}, and
    since P_S P_T = P_{S∪T} the two order projectors commute with product
    P_{Ao,Bo}. The affine projection is therefore one ``project_trivial``
    over both out-spaces plus the offset L_{B≺A}(sigma) - P_{Ao,Bo}(sigma).
    A found split is re-validated (normalized components must be valid
    processes) before "separable" is reported; otherwise the verdict is
    "inconclusive". A NaN or infinite entry, on which the loop's eigensolver
    would not converge, raises ValueError naming the entry.
    """
    if len(sigma.nodes) != 2:
        raise ValueError("bipartite separability needs exactly two nodes")
    a, b = sigma.node_names

    # Fast path: a pure one-way comb needs no iteration.
    for reverse_first, order in ((False, (a, b)), (True, (b, a))):
        cv = comb_check(sigma, order, min(tol, 1e-9))
        if cv.accepted:
            zero = _from_entries(sigma.op.systems, np.empty(0, np.intp), np.empty(0))
            x, y = (zero, sigma.op) if reverse_first else (sigma.op, zero)
            return SeparabilityVerdict(
                "separable", float(reverse_first), x, y, max(cv.residuals), 0, tol
            )

    sig = sigma.op
    s = sig.matrix
    if not np.isfinite(s).all():
        i, j = np.argwhere(~np.isfinite(s))[0]
        raise ValueError(f"sigma's entry [{i}, {j}] is {s[i, j]}, not finite")
    na, nb = sigma.nodes
    outs = [na.out_dual.key, nb.out_dual.key]
    a_out = project_trivial(sig, [na.out_dual.key])
    a_both = project_trivial(a_out, [na.in_system.key])
    ba_sig = a_out - a_both + project_trivial(a_both, [nb.out_dual.key])
    offset = (ba_sig - project_trivial(sig, outs)).matrix

    def p_aff(m: np.ndarray) -> np.ndarray:
        return project_trivial(LabeledOperator(sig.systems, m), outs).matrix + offset

    x = p_aff(0.5 * s)
    p1 = np.zeros_like(s)
    p2 = np.zeros_like(s)
    iterations = 0
    residual = float("inf")
    for it in range(1, max_iter + 1):
        iterations = it
        y1 = x + p1
        z1 = _psd_part(y1)
        p1 = y1 - z1
        y2 = z1 + p2
        z2 = s - _psd_part(s - y2)
        p2 = y2 - z2
        x = p_aff(z2)
        neg_y = -min(0.0, _min_eig(x))
        neg_x = -min(0.0, _min_eig(s - x))
        residual = max(neg_y, neg_x)
        if residual <= 0.25 * tol:
            break

    if residual > tol:
        return SeparabilityVerdict("inconclusive", float("nan"), None, None, residual, iterations, tol)

    y_comp = LabeledOperator(sig.systems, x)
    x_comp = LabeledOperator(sig.systems, s - x)
    total = float(np.trace(s).real)
    weight = float(np.trace(x).real) / total

    # Soundness: each component, normalized, must itself be a valid process
    # and a comb for its claimed order. The positivity slack scales with the
    # normalization, so the re-check tolerance carries that factor.
    for comp, order, tr_frac in ((x_comp, (a, b), 1.0 - weight), (y_comp, (b, a), weight)):
        if tr_frac * total <= tol * max(1.0, total):
            continue
        normalized = process_operator(sigma.nodes, comp * (1.0 / tr_frac))
        val_tol = max(tol, 2.0 * residual / tr_frac)
        verdict = validate_process(normalized, val_tol)
        cv = comb_check(normalized, order, val_tol * 10)
        if not verdict.valid or not cv.accepted:
            return SeparabilityVerdict(
                "inconclusive", float("nan"), None, None, residual, iterations, tol
            )
    return SeparabilityVerdict("separable", weight, x_comp, y_comp, residual, iterations, tol)
