"""Classical processes on split nodes: validity, enumeration, polytope tests.

A classical process over nodes X_1..X_n is a nonnegative table
kappa(X_1^in, X_1^out, ..., X_n^in, X_n^out) such that for every choice of
deterministic local functions g_i: X_i^in -> X_i^out the total weight
sum_ins kappa(ins, g(ins)) equals one. Deterministic processes are given by a
global function f mapping all out-values to all in-values; they are valid iff
f has exactly one consistent assignment against every local tuple g: that count is
the total weight of its 0/1 table [ins == f(outs)], which ``_totals`` alone forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .graphs import DirectedGraph
from .labeled import _from_entries
from .process import ENUMERATION_BUDGET, ProcessOperator, QuantumNode, canonical_systems, process_operator

__all__ = _EXPORTS["classical"]


@dataclass(frozen=True)
class ClassicalNode:
    """A split node with classical in/out variables of the given cardinalities."""

    name: str
    in_card: int
    out_card: int

    def __post_init__(self):
        if self.in_card < 1 or self.out_card < 1:
            raise ValueError("cardinalities must be positive")


def _interleaved_shape(nodes) -> tuple[int, ...]:
    return tuple(c for n in nodes for c in (n.in_card, n.out_card))


@dataclass(frozen=True)
class ClassicalProcess:
    """Probability table over interleaved (in, out) axes, one pair per node."""

    nodes: tuple[ClassicalNode, ...]
    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        t = np.asarray(self.table, dtype=float)
        want = _interleaved_shape(self.nodes)
        if t.shape != want:
            raise ValueError(f"table shape {t.shape}, expected {want}")
        object.__setattr__(self, "table", t)

    @property
    def node_names(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes)

    def node(self, name: str) -> ClassicalNode:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(f"no node named {name!r}")


@dataclass(frozen=True)
class DeterministicProcess:
    """Global function from all out-values to all in-values.

    ``function`` has one axis per node's out-variable (in node order) plus a
    trailing axis of length n holding each node's in-value.
    """

    nodes: tuple[ClassicalNode, ...]
    function: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        f = np.asarray(self.function)
        _check_functions(self.nodes, f[None])
        object.__setattr__(self, "function", f)

    @classmethod
    def _from_checked(cls, nodes: tuple, function: np.ndarray) -> DeterministicProcess:
        """The process of a function that ``_check_functions`` has passed,
        built without checking it again."""
        dp = object.__new__(cls)
        object.__setattr__(dp, "nodes", nodes)
        object.__setattr__(dp, "function", function)
        return dp

    def to_classical(self) -> ClassicalProcess:
        """The 0/1 table kappa(ins, outs) = [ins == f(outs)]."""
        return ClassicalProcess(self.nodes, _deterministic_tables(self.nodes, self.function[None])[0])


def _check_functions(nodes, funcs: np.ndarray) -> None:
    """A ValueError unless every function of the stack ``funcs`` (axis 0) is
    one ``DeterministicProcess`` takes: integer in-values of the nodes, in
    range, on one axis per node's out-variable and a trailing node axis."""
    if funcs.dtype.kind not in "iu":
        raise ValueError(f"function must hold integers, got dtype {funcs.dtype}")
    want = tuple(n.out_card for n in nodes) + (len(nodes),)
    if funcs.shape[1:] != want:
        raise ValueError(f"function shape {funcs.shape[1:]}, expected {want}")
    bad = (funcs < 0) | (funcs >= [n.in_card for n in nodes])
    if bad.any():
        first = bad.reshape(-1, len(nodes)).any(axis=0).argmax()
        raise ValueError(f"in-values for node {nodes[first].name!r} out of range")


def _deterministic_tables(nodes, funcs: np.ndarray) -> np.ndarray:
    """The integer 0/1 tables [ins == f(outs)] of functions ``funcs`` (axes:
    batch, out_1, ..., out_n, in-value of each node), stacked on axis 0."""
    batch, *outs = np.indices(funcs.shape[:-1], sparse=True)
    tables = np.zeros((len(funcs),) + _interleaved_shape(nodes), dtype=np.int64)
    tables[(batch,) + tuple(a for i, out in enumerate(outs) for a in (funcs[..., i], out))] = 1
    return tables


def _totals(tables: np.ndarray, channels) -> np.ndarray:
    """Total weight of each table (leading batch axes, then in_1, out_1, ...) on each
    tuple of outcomes of ``channels[i]`` (outcomes, out_i, in_i): batch axes, then outcomes."""
    n = len(channels)
    operands = [tables, [Ellipsis, *range(2 * n)]]
    for i, ch in enumerate(channels):
        operands += [ch, [2 * n + i, 2 * i + 1, 2 * i]]
    return np.einsum(*operands, [Ellipsis, *range(2 * n, 3 * n)], optimize="greedy")


def _consistent_counts(nodes, funcs: np.ndarray, instruments) -> np.ndarray:
    """Consistent assignments of each function of a batch (as for
    ``_deterministic_tables``) against each tuple of local maps: the totals of
    its table. A node with one out-value accepts every in-value under its one
    map, so its in-values are all counted as 0 and add nothing to the tables."""
    choosing = np.array([nd.out_card > 1 for nd in nodes])
    counted = [ClassicalNode(nd.name, nd.in_card if c else 1, nd.out_card) for nd, c in zip(nodes, choosing)]
    instruments = [inst if c else inst[..., :1] for inst, c in zip(instruments, choosing)]
    return _totals(_deterministic_tables(counted, funcs * choosing), instruments)


def _product_rows(card: int, length: int) -> np.ndarray:
    """All tuples of ``length`` values below ``card``, as rows in ``itertools.product`` order."""
    return np.arange(card**length)[:, None] // card ** np.arange(length - 1, -1, -1) % card


def _local_instruments(nodes, budget: int) -> list[np.ndarray]:
    """Per node, the classical instrument whose outcome is a local map g: in -> out.

    Array i holds integers, shape (out_i**in_i, out_i, in_i), with [g, y, x] = 1
    iff g(x) = y. The maps run in ``itertools.product`` order, so tuples of maps
    run in the C order of the outcome axes.
    """
    total = 1
    for n in nodes:
        total *= n.out_card**n.in_card
    if total > budget:
        raise ValueError(f"{total} local function tuples exceed the budget {budget}")
    instruments = []
    for n in nodes:
        maps = _product_rows(n.out_card, n.in_card)
        instruments.append((maps[:, None, :] == np.arange(n.out_card)[:, None]).astype(np.int64))
    return instruments


@dataclass(frozen=True)
class ClassicalValidationVerdict:
    """Verdict of ``validate_classical``: valid iff the smallest entry is at
    least -tol and the total weight on each of the ``tuples_checked`` tuples
    of deterministic local maps is within tol of one (worst deviation
    ``max_normalization_error``)."""

    valid: bool
    min_entry: float
    max_normalization_error: float
    tuples_checked: int
    tol: float


def validate_classical(
    kp: ClassicalProcess, tol: float = 1e-9, budget: int = ENUMERATION_BUDGET
) -> ClassicalValidationVerdict:
    """Nonnegativity plus unit total weight against every deterministic tuple."""
    min_entry = float(kp.table.min())
    totals = classical_joint_probabilities(kp, _local_instruments(kp.nodes, budget))
    worst = float(np.abs(totals - 1.0).max())
    valid = min_entry >= -tol and worst <= tol
    return ClassicalValidationVerdict(bool(valid), min_entry, worst, totals.size, tol)


def validate_deterministic(dp: DeterministicProcess, budget: int = ENUMERATION_BUDGET):
    """True iff every local tuple admits exactly one consistent assignment.

    Returns (valid, witness): the witness is the first offending tuple of local
    maps (or None), with its number of consistent assignments.
    """
    instruments = _local_instruments(dp.nodes, budget)
    counts = _consistent_counts(dp.nodes, dp.function[None], instruments)[0]
    bad = np.flatnonzero(counts != 1)
    if bad.size == 0:
        return True, None
    g = np.unravel_index(bad[0], counts.shape)
    maps = tuple(tuple(inst[gi].argmax(axis=0)) for inst, gi in zip(instruments, g))
    return False, (maps, int(counts[g]))


def classical_joint_probabilities(kp: ClassicalProcess, channels) -> np.ndarray:
    """Outcome distribution for local classical instruments.

    ``channels`` holds one array per node, shape (outcomes, out_card, in_card),
    giving P(k, out | in). Result axis i enumerates outcomes at node i.
    """
    if len(channels) != len(kp.nodes):
        raise ValueError("need one channel per node")
    channels = [np.asarray(ch, dtype=float) for ch in channels]
    for i, (ch, node) in enumerate(zip(channels, kp.nodes)):
        if ch.shape[1:] != (node.out_card, node.in_card):
            raise ValueError(f"channel {i} has shape {ch.shape}, expected (k, {node.out_card}, {node.in_card})")
    return _totals(kp.table, channels)


def _varies_along(comp: np.ndarray, axis: int) -> bool:
    """Does the in-value table ``comp`` change along ``axis``?"""
    ref = np.take(comp, [0], axis=axis)
    return not np.array_equal(comp, np.broadcast_to(ref, comp.shape))


def causal_structure_deterministic(dp: DeterministicProcess):
    """Influence graph of a deterministic process: j -> i iff f_i varies with X_j^out."""
    n = len(dp.nodes)
    edges = set()
    for i in range(n):
        comp = dp.function[..., i]
        for j in range(n):
            if _varies_along(comp, j):
                if i == j:
                    raise ValueError(
                        f"node {dp.nodes[i].name!r} input depends on its own output; "
                        "not a valid deterministic process"
                    )
                edges.add((dp.nodes[j].name, dp.nodes[i].name))
    return DirectedGraph(tuple(n.name for n in dp.nodes), frozenset(edges))


@dataclass(frozen=True)
class ClassicalMarkov:
    """Result of ``classical_markov_check``: the conditional factor of each
    node (axes in_i, then its parents' out-variables), the worst deviation of
    a factor from a stochastic channel, the largest entry of the product's
    difference from the table, and whether both are within tol."""

    graph: object
    factors: dict
    stochastic_residual: float
    product_residual: float
    accepted: bool
    tol: float


def classical_markov_check(kp: ClassicalProcess, graph, tol: float = 1e-9) -> ClassicalMarkov:
    """Does kappa factor into conditionals P(X_i^in | parent out-values)?

    Factor axes are (in_i,) followed by the parents' out-variables in process
    node order. Accepted iff each factor is a stochastic channel and their
    product reproduces the table.
    """
    if set(graph.vertices) != set(kp.node_names):
        raise ValueError("graph vertices must match the process nodes")
    n = len(kp.nodes)
    factors = {}
    stoch = 0.0
    operands = []
    covered_out = set()
    for i, node in enumerate(kp.nodes):
        parents = set(graph.parents(node.name))
        keep_axes = [2 * i]
        scale = 1.0
        for j, other in enumerate(kp.nodes):
            if other.name in parents:
                keep_axes.append(2 * j + 1)
            else:
                scale /= other.out_card
        covered_out.update(keep_axes[1:])
        # marginalize: sum over everything else
        axes = tuple(a for a in range(2 * n) if a not in keep_axes)
        fac = kp.table.sum(axis=axes) * scale
        # axes order after sum: kept axes in ascending order; bring in_i first
        kept_sorted = sorted(keep_axes)
        perm = [kept_sorted.index(a) for a in keep_axes]
        fac = np.transpose(fac, perm)
        factors[node.name] = fac
        stoch = max(stoch, float(np.abs(fac.sum(axis=0) - 1.0).max()))
        if fac.min() < -tol:
            stoch = max(stoch, -float(fac.min()))
        operands += [fac, keep_axes]

    for j, node in enumerate(kp.nodes):
        if 2 * j + 1 not in covered_out:
            operands.append(np.ones(node.out_card))
            operands.append([2 * j + 1])
    operands.append([a for i in range(n) for a in (2 * i, 2 * i + 1)])
    rec = np.einsum(*operands, optimize="greedy")
    prod_res = float(np.abs(rec - kp.table).max())
    accepted = stoch <= tol and prod_res <= tol
    return ClassicalMarkov(graph, factors, stoch, prod_res, bool(accepted), tol)


def enumerate_deterministic_processes(nodes, budget: int = ENUMERATION_BUDGET) -> list[DeterministicProcess]:
    """All valid deterministic processes over the nodes, ordered by function table.

    ``budget`` bounds both the number of functions from out-values to
    in-values, (prod in)^(prod out), and the number of tuples of local maps;
    a larger count raises ValueError. Only the functions in which no node's
    in-value reads its own out-value are scanned (any other one has no fixed
    point once the other nodes' maps are constant), and those with exactly
    one fixed point against every tuple of local maps are kept.
    """
    nodes = tuple(nodes)
    n = len(nodes)
    out_cards = tuple(nd.out_card for nd in nodes)
    out_space = int(np.prod(out_cards))
    total = int(np.prod([nd.in_card for nd in nodes])) ** out_space
    if total > budget:
        raise ValueError(f"{total} candidate functions exceed the budget {budget}")
    instruments = _local_instruments(nodes, budget)

    # candidate axes (one per node: its in-value as a table over the other
    # nodes' out-values), then the out-value axes and the component axis
    tables = [_product_rows(nd.in_card, out_space // nd.out_card) for nd in nodes]
    funcs = np.empty(tuple(len(t) for t in tables) + out_cards + (n,), dtype=np.int64)
    for i, t in enumerate(tables):
        own = (1,) * i + (-1,) + (1,) * (n - 1 - i)
        funcs[..., i] = t.reshape(own + out_cards[:i] + (1,) + out_cards[i + 1 :])
    funcs = funcs.reshape((-1,) + out_cards + (n,))

    counts = _consistent_counts(nodes, funcs, instruments)
    funcs = funcs[(counts == 1).reshape(len(funcs), -1).all(axis=1)]
    funcs = funcs[np.lexsort(funcs.reshape(len(funcs), -1).T[::-1])]
    _check_functions(nodes, funcs)
    return [DeterministicProcess._from_checked(nodes, f) for f in funcs]


_LP_TOL = 1e-9
_LP_MAX_PIVOTS = 20_000


def _simplex(c, a, b, basis=None):
    """Minimize c @ x subject to a @ x = b and x >= 0 with a dense revised simplex.

    ``basis`` names one column per row, giving a nonsingular square block
    whose basic solution is nonnegative. Without one, a phase I from one
    artificial column per row finds a basis, and rows whose artificial cannot
    leave it are redundant and dropped. Pricing is Devex. The ratio test
    breaks ties lexicographically against the starting basis, which is the
    simplex method on b perturbed by that basis times (eps, eps**2, ...), so
    no basis repeats and the method ends; more than ``_LP_MAX_PIVOTS``
    pivots raise RuntimeError. Returns (status, x), status being "optimal",
    "infeasible" or "unbounded" and x None unless optimal; an optimal x is
    solved again from the rows of ``a`` and ``b`` that were kept.
    """
    c, a, b = (np.asarray(z, dtype=float) for z in (c, a, b))
    m, n = a.shape
    used = 0
    if basis is None:
        sign = np.where(b < 0, -1.0, 1.0)
        a1 = np.hstack([a * sign[:, None], np.eye(m)])
        basis = np.arange(n, n + m)
        _, used = _simplex_run(np.concatenate([np.zeros(n), np.ones(m)]), a1, b * sign, basis, _LP_MAX_PIVOTS)
        binv = np.linalg.inv(a1[:, basis])
        if (binv @ (b * sign))[basis >= n].sum() > _LP_TOL * max(1.0, float(np.abs(b).max())):
            return "infeasible", None
        keep = np.ones(m, dtype=bool)
        for r in np.flatnonzero(basis >= n):
            row = np.abs(binv[r] @ a1[:, :n])
            if row.max() > _LP_TOL:
                basis[r] = int(row.argmax())
                binv = np.linalg.inv(a1[:, basis])
            else:
                keep[r] = False
        a, b, basis = a[keep], b[keep], basis[keep]
    basis = np.array(basis)
    status, _ = _simplex_run(c, a, b, basis, _LP_MAX_PIVOTS - used)
    if status != "optimal":
        return status, None
    x = np.zeros(n)
    x[basis] = np.maximum(np.linalg.solve(a[:, basis], b), 0.0)
    return status, x


def _simplex_run(c, a, b, basis, max_pivots: int) -> tuple[str, int]:
    """Pivot ``basis`` in place to an optimal one, or stop at an unbounded
    ray; returns "optimal" or "unbounded" and the number of pivots made.

    The inverse of the basis is updated by one elimination per pivot and
    computed afresh every 64 pivots and before optimality is declared.
    """
    start = a[:, basis]
    weights = np.ones(a.shape[1])
    pivots = updates = 0
    binv = None
    while True:
        if binv is None or updates == 64:
            binv = np.linalg.inv(a[:, basis])
            lex = binv @ start
            xb = binv @ b
            updates = 0
        d = c - (c[basis] @ binv) @ a
        improving = d < -_LP_TOL
        if not improving.any():
            if updates:
                binv = None
                continue
            return "optimal", pivots
        j = int(np.where(improving, d * d / weights, -1.0).argmax())
        alpha = binv @ a[:, j]
        rows = np.flatnonzero(alpha > _LP_TOL)
        if rows.size == 0:
            return "unbounded", pivots
        ratio = xb[rows] / alpha[rows]
        tied = rows[ratio <= ratio.min() + _LP_TOL]
        # lexicographic tie-break on the rows of binv @ start, in units of the tolerance
        keys = np.round(lex[tied] / (alpha[tied, None] * _LP_TOL))
        r = int(tied[np.lexsort(keys.T[::-1])[0]])
        if pivots == max_pivots:
            raise RuntimeError(f"simplex pivot limit {max_pivots} reached")
        pivots += 1
        # Devex reference weights
        ratio_row = (binv[r] @ a) / alpha[r]
        weights = np.maximum(weights, ratio_row**2 * weights[j])
        weights[basis[r]] = max(weights[j] / alpha[r] ** 2, 1.0)
        eta = alpha / alpha[r]
        eta[r] = 1.0 - 1.0 / alpha[r]
        binv -= np.outer(eta, binv[r])
        lex -= np.outer(eta, lex[r])
        xb -= eta * xb[r]
        basis[r] = j
        updates += 1


@dataclass(frozen=True)
class PolytopeVerdict:
    """Result of ``polytope_membership``: whether the table lies in the hull
    of the vertex tables, the LP's vertex weights, and the residual (the
    largest entry of the mixture's difference from the table if inside, else
    the L1 distance to the hull)."""

    inside: bool
    weights: np.ndarray
    residual: float


def polytope_membership(
    kp: ClassicalProcess, vertices=None, tol: float = 1e-8, budget: int = ENUMERATION_BUDGET
) -> PolytopeVerdict:
    """Is the table a convex combination of deterministic processes?

    Solves one LP for the L1 distance from the table p to the hull of the
    vertex tables V: minimize sum(u + w) subject to V q - u + w = p,
    sum(q) = 1 and q, u, w >= 0. The simplex starts at the vertex nearest p
    in L1, with u or w basic in each row by the sign of that vertex's
    residual, so a vertex table is optimal at once. The table is ``inside``
    iff the optimum is at most max(tol, 1e-7); ``residual`` is then
    max|V q - p|, and otherwise the optimum. ``weights`` is q.
    ``vertices`` defaults to the full enumeration for the node signature.
    """
    if vertices is None:
        vertices = enumerate_deterministic_processes(kp.nodes, budget)
    v = _deterministic_tables(kp.nodes, np.stack([vert.function for vert in vertices]))
    v = v.reshape(len(vertices), -1).astype(float).T
    target = kp.table.reshape(-1)
    m, nv = v.shape
    eye = np.eye(m)
    a = np.block([[v, -eye, eye], [np.ones((1, nv)), np.zeros((1, 2 * m))]])
    c = np.concatenate([np.zeros(nv), np.ones(2 * m)])
    nearest = int(np.abs(v - target[:, None]).sum(axis=0).argmin())
    slacks = np.where(target >= v[:, nearest], nv + m, nv) + np.arange(m)
    status, x = _simplex(c, a, np.append(target, 1.0), np.append(slacks, nearest))
    if x is None:
        raise RuntimeError(f"distance LP ended {status}")
    w = x[:nv]
    distance = float(c @ x)
    if distance <= max(tol, 1e-7):
        return PolytopeVerdict(True, w, float(np.abs(v @ w - target).max()))
    return PolytopeVerdict(False, w, distance)


@dataclass(frozen=True)
class ReversibleExtension:
    """Reversible (bijective) dilation of a mixture of deterministic processes.

    The extension adds a root node whose out-value encodes (branch i, shift z)
    as i * prod(in_cards) + z, and a leaf node whose in-value encodes
    (out-values x, branch i) as x * len(mixture) + i. The dynamics reads
    ins = z (+) f_i(outs) with per-node modular addition, which is a bijection
    from (outs, root) to (ins, leaf).
    """

    extension: DeterministicProcess
    lambda_distribution: np.ndarray
    base_nodes: tuple[ClassicalNode, ...]

    def marginal(self) -> ClassicalProcess:
        """Feed the stored distribution into the root and discard the leaf."""
        # function axes: (root out, out_1..out_n, leaf out = 1, component)
        ins = self.extension.function[..., 0, 1:-1]
        dist = np.asarray(self.lambda_distribution, dtype=float)
        if dist.shape != ins.shape[:1]:
            raise ValueError(f"need one weight per root value ({ins.shape[0]}), got shape {dist.shape}")
        # root value by root value, skipping the weights of zero, which would add zeros
        fed = np.flatnonzero(dist)
        tables = _deterministic_tables(self.base_nodes, ins[fed])
        table = sum((w * t for w, t in zip(dist[fed], tables)), np.zeros(tables.shape[1:]))
        return ClassicalProcess(tuple(self.base_nodes), table)


def reversible_extension(mixture) -> ReversibleExtension:
    """Dilate a convex mixture of deterministic processes to one reversible one.

    ``mixture`` is a sequence of (weight, DeterministicProcess) over common
    nodes. The root distribution puts weight w_i on (branch i, shift 0).
    """
    mixture = list(mixture)
    if not mixture:
        raise ValueError("mixture must be nonempty")
    base = mixture[0][1].nodes
    for _, dp in mixture:
        if dp.nodes != base:
            raise ValueError("all processes must share the same nodes")
    weights = np.array([w for w, _ in mixture], dtype=float)
    if not (weights.min() >= 0 and abs(weights.sum() - 1.0) <= 1e-12):
        raise ValueError("weights must be a probability distribution")

    n = len(base)
    m = len(mixture)
    in_cards = [nd.in_card for nd in base]
    out_cards = [nd.out_card for nd in base]
    in_space = int(np.prod(in_cards))
    out_space = int(np.prod(out_cards))

    root = ClassicalNode("root", 1, m * in_space)
    leaf = ClassicalNode("leaf", m * out_space, 1)
    nodes = (root,) + base + (leaf,)

    # root value lam = (branch i, shift z); axes below are (lam, out_1..out_n, component)
    i, z = np.divmod(np.arange(m * in_space), in_space)
    shift = np.stack(np.unravel_index(z, in_cards), axis=-1).reshape((m * in_space,) + (1,) * n + (n,))
    f = np.stack([dp.function for _, dp in mixture])[i]
    ins = (shift + f) % np.array(in_cards)
    leaf = np.arange(out_space).reshape(out_cards) * m + i.reshape((-1,) + (1,) * n)
    func = np.concatenate([np.zeros_like(leaf)[..., None], ins, leaf[..., None]], axis=-1)
    ext = DeterministicProcess(nodes, func[..., None, :].astype(np.int64))

    dist = np.zeros(m * in_space)
    dist[::in_space] = weights
    return ReversibleExtension(ext, dist, base)


def _extend_in_hull(kp: ClassicalProcess, tol: float, budget: int):
    """(extension, branches, marginal_max_error, marginal_reproduced) of kp's
    deterministic decomposition, or None outside the hull.

    The LP of ``polytope_membership`` weighs every deterministic vertex; weights
    at most 1e-12 are dropped, the rest renormalised, and ``reversible_extension``
    dilates that mixture. Its marginal reproduces kp iff the largest entry
    error is at most max(tol, 4 × the LP residual).
    """
    vertices = enumerate_deterministic_processes(kp.nodes, budget)
    hull = polytope_membership(kp, vertices, tol=tol)
    if not hull.inside:
        return None
    mixture = [(float(w), vert) for w, vert in zip(hull.weights, vertices) if w > 1e-12]
    total = sum(w for w, _ in mixture)
    ext = reversible_extension([(w / total, vert) for w, vert in mixture])
    error = float(np.abs(ext.marginal().table - kp.table).max())
    return ext, len(mixture), error, error <= max(tol, hull.residual * 4)


def _normalization_rows(nodes, budget: int) -> np.ndarray:
    """The validity constraints as rows over the flat table: one per tuple of
    local maps, the totals of the unit tables, each row summing to one."""
    shape = _interleaved_shape(nodes)
    size = int(np.prod(shape))
    totals = _totals(np.eye(size, dtype=np.int64).reshape((size,) + shape), _local_instruments(nodes, budget))
    return np.ascontiguousarray(totals.reshape(size, -1).T, dtype=float)


def find_process_outside_hull(nodes, budget: int = ENUMERATION_BUDGET):
    """A valid classical process outside the deterministic hull, found by LP.

    Maximizes linear functionals over the validity polytope; each optimizer is
    a vertex of that polytope, and the first one that fails hull membership is
    returned along with its L1 distance from the hull. Raises if every
    attempted vertex is deterministic-decomposable (possible when the two
    sets coincide).
    """
    nodes = tuple(nodes)
    n = len(nodes)
    shape = _interleaved_shape(nodes)
    size = int(np.prod(shape))
    a_eq = _normalization_rows(nodes, budget)
    b_eq = np.ones(len(a_eq))

    vertices = enumerate_deterministic_processes(nodes, budget)

    rng = np.random.default_rng(0)
    directions = []
    # structured candidates: reward agreement with cyclic copies of out-values
    for shift in range(1, n):
        d = np.zeros(shape)
        for outs in np.ndindex(*[nd.out_card for nd in nodes]):
            ins = tuple(outs[(i + shift) % n] for i in range(n))
            if all(ins[i] < nodes[i].in_card for i in range(n)):
                d[tuple(v for i in range(n) for v in (ins[i], outs[i]))] = 1.0
        directions.append(d.reshape(-1))
        directions.append(-d.reshape(-1))
    for _ in range(64):
        directions.append(rng.normal(size=size))

    for c in directions:
        status, x = _simplex(-c, a_eq, b_eq)
        if x is None:
            raise RuntimeError(f"validity LP ended {status}")
        kp = ClassicalProcess(nodes, x.reshape(shape))
        verdict = polytope_membership(kp, vertices)
        if not verdict.inside and verdict.residual > 1e-7:
            return kp, float(verdict.residual)
    raise RuntimeError("no separating vertex found; hull may equal the validity polytope")


def quantize(kp: ClassicalProcess) -> ProcessOperator:
    """Diagonal process operator with the table on the computational basis.

    The interleaved table axes line up with the canonical system order, so
    the diagonal is just the flattened table, held by its entries at flat
    indices i·(side + 1). The result is not certified; validate it like any
    other operator.
    """
    qnodes = [QuantumNode(n.name, n.in_card, n.out_card) for n in kp.nodes]
    diag = kp.table.reshape(-1).astype(complex)
    op = _from_entries(tuple(canonical_systems(qnodes)), np.arange(diag.size) * (diag.size + 1), diag)
    return process_operator(qnodes, op)
