"""Type projections: identity projections and per-type Frobenius norms.

The "type" of a component of an operator is the set of tensor factors on which
it acts as something other than a multiple of the identity. Both functions
work directly on the operator's (row_i, col_i) axes. Projections trace out a
trivial factor and keep the traceless part X − Tr(X)/d·1 of a nontrivial one;
the type table changes each factor's basis once, to an orthogonal one that
starts with the identity, on a dense copy or on the stored entries. The
table's readers for validity, ``_forbidden_types`` and ``_signalling_cut``,
read the types that no node witnesses (``_unwitnessed``). ``combs`` reads its
comb residuals here (``_comb_residual``).
"""

from __future__ import annotations

import math
from itertools import compress

import numpy as np

from . import _EXPORTS
from .labeled import (
    LabeledOperator,
    SystemLabel,
    _as_key,
    _entries,
    _padded,
    _traced_entries,
    distance,
    partial_trace,
)

_SLICE = 1 << 16  # entries per slice of the type table's inner passes: 1 MiB of complex128

__all__ = _EXPORTS["hs"]


def project_trivial(op: LabeledOperator, refs) -> LabeledOperator:
    """Orthogonal projection onto operators that act as identity on ``refs``.

    This is the conditional expectation  op ↦ (1/Πd) Tr_refs[op] ⊗ 1_refs,
    returned in the original system order. An operator routed on entries
    (``labeled._entries``) is projected on them.
    """
    keys = {_as_key(r, op.systems) for r in refs}
    if not keys:
        return op
    n = len(op.systems)
    traced = [i for i in range(n) if op.systems[i].key in keys]
    if len(traced) != len(keys):
        raise KeyError(f"no systems {keys} in {op.systems}")
    keep = [i for i in range(n) if op.systems[i].key not in keys]
    scale = math.prod(op.systems[i].dim for i in traced)
    if _entries(op) is not None:
        index, values = _traced_entries(op, keys)
        return _padded(tuple(op.systems[i] for i in keep), index, values / scale, op.systems)
    # Subscripts: rows 0..n-1, columns n..2n-1, a traced factor's column
    # sharing its row subscript. On the zeroed output einsum gives a writable
    # view of the traced factors' diagonal, into which the partial trace goes.
    subs = list(range(n)) + [i if i in traced else n + i for i in range(n)]
    kept = keep + [n + i for i in keep]
    t = op.as_tensor()
    out = np.zeros(t.shape, dtype=np.result_type(t.dtype, np.float64))
    diag = np.einsum(out, subs, kept + traced)
    part = partial_trace(op, keys).as_tensor()
    np.divide(part[(...,) + (None,) * len(traced)], scale, out=diag)
    return LabeledOperator(op.systems, out.reshape(op.dim, op.dim))


def type_norms(op: LabeledOperator) -> dict[tuple, float]:
    """Frobenius norm of each nonzero type component of op.

    The key is the tuple of (name, dual) keys of the systems on which the
    component is nontrivial, in system order; () is the identity component.
    Squared norms sum to ‖op‖_F². One-dimensional systems are always trivial.
    Each factor is written in an orthogonal basis whose first element is the
    identity, and the table is summed from the squared coefficients: on the
    stored entries of an operator routed on them (``labeled._entries``), or
    else on a dense copy, once per operator, which keeps it.
    """
    return _table(*_type_squares(op))


def _type_squares(op: LabeledOperator) -> tuple[tuple, np.ndarray]:
    """The keys of op's nontrivial systems, in system order, and the squared
    norm of every type as a read-only array indexed by type bit mask. Built
    once per operator, whose storage is read-only, and kept on it."""
    if op._squares is None:
        keys, squares = _dense_type_squares(op) if _entries(op) is None else _sparse_type_squares(op.systems, *_entries(op))
        squares.flags.writeable = False
        object.__setattr__(op, "_squares", (tuple(keys), squares))
    return op._squares


def _marginal_residual(op: LabeledOperator, traced, ref) -> float:
    """distance(m, project_trivial(m, [ref])) for m = partial_trace(op,
    traced), read off op's kept type table; ``traced`` and ``ref`` are keys.
    Tracing out a set S keeps exactly the types that avoid S, each scaled by
    √(∏ dims of S), and types are orthogonal: with n_T the norm of type T the
    value is √(∏_S d · Σ n_T²) over the T that avoid S and contain ref, over
    max(1, √(∏_S d · Σ n_T²)) over all T that avoid S."""
    keys, squares = _type_squares(op)
    bit, dims, traced = _type_bits(keys), {s.key: s.dim for s in op.systems}, set(traced)
    if ref not in dims:
        raise KeyError(f"no system {ref} in {op.systems}")
    types, scale = np.arange(squares.size), math.prod(dims[k] for k in traced)
    kept = (types & sum(bit.get(k, 0) for k in traced)) == 0
    total = scale * squares[kept].sum()
    dependent = scale * squares[kept & ((types & bit.get(ref, 0)) != 0)].sum()
    return math.sqrt(dependent) / max(1.0, math.sqrt(total))


def _comb_residual(op: LabeledOperator, nodes):
    """The comb residual function of op on ``nodes`` (``process.QuantumNode``):
    ``residual(traced, name)`` is the normalized distance of the marginal after
    tracing out the nodes named ``traced`` (in that order) from its projection
    trivial on node ``name``'s output.

    A dense operator is read off its kept type table (``_marginal_residual``),
    which validation builds. One routed on its stored entries walks its
    marginals, one partial trace per traced node, keeping those of the current
    prefix: the benchmark's ``combs.comb_search.nodes`` counter counts the
    walk's projections. A cold table plus reads is now faster and no larger
    except on ``make_bw_extension()``. ``comb_search`` on a fresh operator,
    walk against table plus reads (medians of 9, of 3 on ``make_switch(6)``,
    one run on ``make_switch(8)``; one BLAS thread, 2-core host; tracemalloc
    peaks): ``make_bw_extension()`` 8.4 / 5.5 ms, 1.6 / 2.4 MiB;
    ``make_switch(3)`` 4.6 / 1.8 ms, 0.9 / 0.6 MiB; ``make_switch(4)``
    18.6 / 7.2 ms, 5.3 / 3.5 MiB; ``make_switch(5)`` 71 / 31 ms, 20 / 7.4 MiB;
    ``make_switch(6)`` 240 / 77 ms, 60 / 15 MiB; ``make_switch(8)`` 1.80 /
    0.54 s, 337 / 84 MiB.
    """
    by_name = {n.name: n for n in nodes}
    if _entries(op) is not None:
        marginals = {(): op}

        def marginal(traced: tuple) -> LabeledOperator:
            if traced not in marginals:
                node = by_name[traced[-1]]
                m = partial_trace(marginal(traced[:-1]), [node.in_system.key, node.out_dual.key])
                for key in [k for k in marginals if traced[: len(k)] != k]:
                    del marginals[key]
                marginals[traced] = m
            return marginals[traced]

        def walk(traced: tuple, name: str) -> float:
            m = marginal(traced)
            return distance(m, project_trivial(m, [by_name[name].out_dual.key]))

        return walk

    def read(traced: tuple, name: str) -> float:
        gone = [s.key for t in traced for s in (by_name[t].in_system, by_name[t].out_dual)]
        return _marginal_residual(op, gone, by_name[name].out_dual.key)

    return read


def _dense_type_squares(op: LabeledOperator) -> tuple[list, np.ndarray]:
    """_type_squares of op by the dense change of basis.

    One copy, with axes (row_0, col_0, row_1, col_1, ...), in which each
    factor's diagonal units become Helmert rows in place. The outer factors'
    passes run on the whole copy, where their units are long contiguous runs;
    the inner ones, whose blocks fit in ``_SLICE`` entries, run slice by
    slice, and each slice is then squared into the copy's front. Every entry
    gets the same operations in the same order as in whole-copy passes, so
    the table is the same bit for bit. The class sums then alternate between
    the copy's halves (a real copy has no spare half for the first), so a
    complex operator's table allocates nothing else of its size."""
    dims = [s.dim for s in op.systems]
    n = len(dims)
    interleaved = [ax for i in range(n) for ax in (i, n + i)]
    m = np.array(op.as_tensor().transpose(interleaved), dtype=np.result_type(op.matrix.dtype, np.float64), order="C")
    flat = m.reshape(-1)
    parts = flat.view(np.float64)  # |·|², in one real array
    blocks = [math.prod(dims[i:]) ** 2 for i in range(n + 1)]  # entries of one factor's block of units
    inner = next(i for i, size in enumerate(blocks) if size <= _SLICE)

    def passes(x, factors):
        for i in factors:
            if dims[i] > 1:
                _helmert(np.moveaxis(x.reshape(-1, dims[i] ** 2, blocks[i + 1])[:, :: dims[i] + 1], 1, 0))

    passes(flat, range(inner))
    step = _SLICE // blocks[inner] * blocks[inner]
    for start in range(0, flat.size, step):
        passes(flat[start : start + step], range(inner, n))
        x = flat[start : start + step].view(np.float64)
        np.square(x, out=x)
        if np.iscomplexobj(m):  # the sums of entries [s, s + k) land on entries [s/2, (s + k)/2), summed already
            parts[start : start + x.size // 2] = np.add(x[0::2], x[1::2])
    a, spare = parts[: flat.size], parts[flat.size :]
    keys = []
    for i, d in enumerate(dims):
        if d > 1:
            size = a.size // (d * d) * 2
            out = spare[:size] if spare.size >= size else np.empty(size)
            np.matmul(_class_weights(d), a.reshape(-1, d * d, blocks[i + 1]), out=out.reshape(-1, 2, blocks[i + 1]))
            a, spare = out, a
            keys.append(op.systems[i].key)
    return keys, a.copy()  # not a view that would keep the copy alive


def _sparse_type_squares(systems: tuple[SystemLabel, ...], index: np.ndarray, values: np.ndarray) -> tuple[list, np.ndarray]:
    """_type_squares of the operator whose sorted-COO entries are given.

    The dense change of basis on flat indices into the axes (row_0, col_0,
    row_1, col_1, ...): each factor's pass (``_helmert_pass``) turns its
    stored diagonal units into Helmert rows and stores back the nonzero ones.
    A pass combines only entries equal in every other digit, so each of its
    groups lies wholly above, on or below the diagonal. On exactly
    conjugate-symmetric entries (``_mirrored``) the passes therefore run on
    those with row <= col alone, and each one off the diagonal counts twice:
    its mirror's coefficients are its own conjugated. Any other entries all
    run, each counted once. After a factor's pass, entries that differ in its
    digit pair never meet again, so a chunk of more than ``_SLICE`` entries is
    split by that pair and each part goes on alone, and each finished chunk's
    weighted squares are binned into one table (``_binned``). Peak memory thus
    follows the largest chunk, not the whole fill-in: on ``make_switch(8)``
    (1048576 entries, 24 MiB) the table takes 0.53-0.58 s and peaks at 3.5
    times the entries' bytes (tracemalloc), where every entry in one piece
    took 1.8-1.9 s and 32 times; on the benchmark's permuted
    ``make_switch(3)`` it takes 1.9 ms against 3.9-4.1 ms, and on
    ``make_bw_extension()`` 6.0 against 16.3 ms (medians of interleaved
    runs, one BLAS thread, 2-core host).
    """
    dims = [s.dim for s in systems]
    side, nontrivial = math.prod(dims), [i for i, d in enumerate(dims) if d > 1]
    strides = [math.prod(dims[i + 1 :]) for i in range(len(dims))]
    factors = [(dims[i], strides[i] ** 2) for i in nontrivial]  # a digit pair's worth in the flat index
    mirrored = _mirrored(index, values, side)
    if mirrored:
        upper = index // side <= index % side
        index, values = index[upper], values[upper]
    row, col = np.divmod(index, side)
    flat = np.zeros_like(index)
    for i in nontrivial:  # each factor's digits, most significant first, peeled off the row and the column
        r, c = row // strides[i], col // strides[i]
        row -= r * strides[i]
        col -= c * strides[i]
        flat += (r * dims[i] + c) * strides[i] ** 2
    table, chunks = np.zeros(2 ** len(factors)), [(0, flat, values)]
    while chunks:
        start, flat, values = chunks.pop()
        for j in range(start, len(factors)):
            d, rest = factors[j]
            flat, values = _helmert_pass(flat, values, d, rest)
            if flat.size > _SLICE and j + 1 < len(factors):
                pair = flat // rest % (d * d)
                order, ends = np.argsort(pair, kind="stable"), np.cumsum(np.bincount(pair, minlength=d * d))
                flat, values = flat[order], values[order]
                chunks += [(j + 1, flat[a:b], values[a:b]) for a, b in zip([0, *ends[:-1]], ends) if a < b]
                break
        else:
            sums = _binned(flat, values, factors, mirrored)
            table[: sums.size] += sums
    return [systems[i].key for i in nontrivial], table


def _binned(flat: np.ndarray, values: np.ndarray, factors, mirrored: bool) -> np.ndarray:
    """The weighted squares of entries at ``flat`` indices, after every pass,
    summed by type bit mask. Each factor (d, the worth of its digit pair)
    weighs an entry by the pair's class, read off its digits: 1 off the
    diagonal, 1/d for Helmert row 0 and 1/(k(k+1)) for row k; it sets its bit
    unless the pair is row 0, the identity. If ``mirrored``, an entry off the
    matrix's diagonal counts twice, once for its mirror."""
    squares = np.square(values.real) + np.square(values.imag)
    masks, diagonal = np.zeros(flat.size, dtype=np.intp), np.ones(flat.size, dtype=bool)
    for d, rest in factors:
        pair = flat // rest
        flat = flat - pair * rest
        k = pair // (d + 1)
        on = k * (d + 1) == pair  # Helmert row k, else off the diagonal
        squares *= np.where(on, np.array([1.0 / d] + [1.0 / (j * (j + 1)) for j in range(1, d)])[k], 1.0)
        masks = 2 * masks + (pair != 0)
        diagonal &= on
    if mirrored:
        squares[~diagonal] *= 2.0
    return np.bincount(masks, squares)


def _mirrored(index: np.ndarray, values: np.ndarray, side: int) -> bool:
    """Whether the sorted-COO entries of a side × side matrix are exactly
    conjugate-symmetric: every transposed index stored, with a value ``==``
    the entry's conjugate (so a NaN anywhere fails)."""
    mirror = index % side * side + index // side
    order = np.argsort(mirror, kind="stable")  # a stable sort merges the ascending runs of each row
    if not np.array_equal(mirror[order], index):
        return False
    mirrors = values[order]
    return bool(np.array_equal(values, np.conjugate(mirrors, out=mirrors)))


def _helmert_pass(flat: np.ndarray, values: np.ndarray, d: int, rest: int) -> tuple[np.ndarray, np.ndarray]:
    """One factor's pass on entries at ``flat`` indices, in which its digit
    pair (row, col) is worth ``rest``: its diagonal units, gathered by the
    other digits into a d × groups array, become Helmert rows, and the
    nonzero ones are stored back on the diagonal."""
    unit = (d + 1) * rest  # from one diagonal unit of the factor to the next
    pair = flat // rest % (d * d)
    k = pair // (d + 1)
    on = k * (d + 1) == pair  # diagonal unit k, else off the diagonal
    k = k[on]
    base, group = np.unique(flat[on] - k * unit, return_inverse=True)
    units = np.zeros((d, base.size), dtype=values.dtype)
    units[k, group] = values[on]
    _helmert(units)
    row, col = np.nonzero(units)
    return np.concatenate([flat[~on], base[col] + row * unit]), np.concatenate([values[~on], units[row, col]])


def _helmert(units) -> None:
    """Integer Helmert rows, in place, of a factor's diagonal units x_0, ...,
    x_{d-1} (``units[k]``): row 0 is their sum and row k is x_0 + ... +
    x_{k-1} - k·x_k, formed as (x_0 + ... + x_k) - (k+1)·x_k so that equal
    entries give exact zeros for d <= 4."""
    for k in range(1, len(units)):
        units[0] += units[k]
        units[k] *= -(k + 1)
        units[k] += units[0]


def _class_weights(d: int) -> np.ndarray:
    """Weights of a factor's d² squared coefficients in its two classes, as
    sums of nonnegative terms, never as differences: the identity 1/√d·1,
    whose squared coefficient is |row 0|²/d, and all the others, with Helmert
    row k normalized by k(k+1) and off-diagonal units by 1."""
    w = np.zeros((2, d * d))
    w[0, 0], w[1] = 1.0 / d, 1.0
    w[1, :: d + 1] = [0.0] + [1.0 / (k * (k + 1)) for k in range(1, d)]
    return w


def _unwitnessed(op: LabeledOperator, nodes) -> dict[tuple, float]:
    """``type_norms(op)`` over the types, in bit mask order, that no node of
    ``nodes`` (``process.QuantumNode``) witnesses by being nontrivial on its in
    factor and trivial on its out-dual factor: a process may hold only the
    identity () and witnessed types (Oreshkov, Costa and Brukner)."""
    keys, squares = _type_squares(op)
    bit, types = _type_bits(keys), np.arange(squares.size)
    witnessed = np.zeros(types.size, dtype=bool)
    for n in nodes:
        witnessed |= (types & bit.get(n.in_system.key, 0) != 0) & (types & bit.get(n.out_dual.key, 0) == 0)
    return _table(keys, squares, ~witnessed)


def _forbidden_types(op: LabeledOperator, nodes, threshold: float) -> tuple[float, tuple[str, ...]]:
    """The norm of op's forbidden types, the unwitnessed ones but the identity,
    and the labels of at most 16 of them above ``threshold``, largest first. A
    label joins a type's system names with "*", a dual one primed. Norms equal
    to 12 significant digits tie and are ordered by label, so that rounding in
    the last bits, which differs between the sparse and the dense table, does
    not reorder equal types."""
    forbidden = {key: val for key, val in _unwitnessed(op, nodes).items() if key}
    labels = [(float(f"{val:.12g}"), "*".join(s + "'" * dual for s, dual in key)) for key, val in forbidden.items() if val > threshold]
    return math.hypot(*forbidden.values()), tuple(label for _, label in sorted(labels, reverse=True)[:16])


def _signalling_cut(op: LabeledOperator, nodes) -> float:
    """Residual of "``nodes`` cannot signal to the other nodes": the norm of
    the types unwitnessed by ``nodes`` that are nontrivial on one of their
    factors, over max(1, the norm of all types unwitnessed by them)."""
    unwitnessed = _unwitnessed(op, nodes)
    factors = {k for n in nodes for k in (n.in_system.key, n.out_dual.key)}
    residual = math.hypot(*(val for key, val in unwitnessed.items() if factors.intersection(key)))
    return residual / max(1.0, math.hypot(*unwitnessed.values()))


def _type_bits(keys) -> dict[tuple, int]:
    """Bit len(keys)-1-j of a type bit mask is set iff the type contains keys[j]."""
    return {key: 1 << (len(keys) - 1 - j) for j, key in enumerate(keys)}


def _table(keys, squares: np.ndarray, select=True) -> dict[tuple, float]:
    """The nonzero squared norms (NaN too) of the ``select``ed type bit masks,
    as norms keyed by type, in mask order."""
    masks = np.flatnonzero((squares != 0.0) & select)
    members = (masks[:, None] & np.array([*_type_bits(keys).values()], dtype=np.int64)).tolist()
    return dict(zip((tuple(compress(keys, row)) for row in members), np.sqrt(squares[masks]).tolist()))
