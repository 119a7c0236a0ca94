"""Type projections: identity projections and per-type Frobenius norms.

The "type" of a component of an operator is the set of tensor factors on which
it acts as something other than a multiple of the identity. Both functions
work directly on the operator's (row_i, col_i) axes. Projections, and the type
table of a sparse operator, trace out a trivial factor and keep the traceless
part X − Tr(X)/d·1 of a nontrivial one; the table of a dense operator changes
each factor's basis once, to an orthogonal one that starts with the identity.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .labeled import (
    LabeledOperator,
    SystemLabel,
    _as_key,
    _digits,
    _flat,
    _from_entries,
    _sum_duplicates,
    _traced_entries,
    partial_trace,
    sorted_coo,
)

__all__ = [
    "project_trivial",
    "type_norms",
]


def project_trivial(op: LabeledOperator, refs) -> LabeledOperator:
    """Orthogonal projection onto operators that act as identity on ``refs``.

    This is the conditional expectation  op ↦ (1/Πd) Tr_refs[op] ⊗ 1_refs,
    returned in the original system order. A sparse operator is projected on
    its stored entries.
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
    if op._coo is not None:
        return _sparse_projection(op, keys, keep, traced, scale)
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


def _sparse_projection(op: LabeledOperator, keys, keep, traced, scale) -> LabeledOperator:
    """project_trivial of a sparse operator: each entry of the partial trace,
    over ``scale``, is repeated at every diagonal position of the traced
    factors."""
    index, values = _traced_entries(op, keys)
    n = len(op.systems)
    dims = [s.dim for s in op.systems]
    kept = _digits(index, [dims[i] for i in keep] * 2)
    grid = np.indices([dims[i] for i in traced]).reshape(len(traced), -1)
    digits = [None] * (2 * n)
    for j, i in enumerate(keep):
        digits[i], digits[n + i] = kept[j][:, None], kept[len(keep) + j][:, None]
    for j, i in enumerate(traced):
        digits[i] = digits[n + i] = grid[j]
    flat = np.broadcast_to(_flat(digits, dims * 2, index.size), (index.size, scale)).reshape(-1)
    order = np.argsort(flat)
    return _from_entries(op.systems, flat[order], np.repeat(values / scale, scale)[order])


def type_norms(op: LabeledOperator) -> dict[tuple, float]:
    """Frobenius norm of each nonzero type component of op.

    The key is the tuple of (name, dual) keys of the systems on which the
    component is nontrivial, in system order; () is the identity component.
    Squared norms sum to ‖op‖_F². One-dimensional systems are always trivial.
    A dense operator is written in an orthogonal basis of each factor whose
    first element is the identity, and the table is summed from the squared
    coefficients. An operator that is sparse by ``labeled.sorted_coo``'s rule
    is walked on its stored entries.
    """
    entries = op._coo if op._coo is not None else sorted_coo(op.matrix)
    if entries is not None:
        return _sparse_type_norms(op.systems, *entries)
    dims = [s.dim for s in op.systems]
    n = len(dims)
    # One copy, with axes (row_0, col_0, row_1, col_1, ...), in which each
    # factor's diagonal units x_0, ..., x_{d-1} become integer Helmert rows in
    # place: row 0 is their sum and row k is x_0 + ... + x_{k-1} - k·x_k,
    # formed as (x_0 + ... + x_k) - (k+1)·x_k so that equal entries give exact
    # zeros for d <= 4. Off-diagonal units are left as they are.
    interleaved = [ax for i in range(n) for ax in (i, n + i)]
    m = np.array(op.as_tensor().transpose(interleaved), dtype=np.result_type(op.matrix.dtype, np.float64), order="C")
    for i, d in enumerate(dims):
        pairs = m.reshape(math.prod(dims[:i]) ** 2, d * d, -1)
        for k in range(1, d):
            pairs[:, 0] += pairs[:, k * (d + 1)]
            pairs[:, k * (d + 1)] *= -(k + 1)
            pairs[:, k * (d + 1)] += pairs[:, 0]
    parts = m.reshape(-1).view(np.float64)  # |·|², in one real array
    np.square(parts, out=parts)
    a = np.add(parts[0::2], parts[1::2]) if np.iscomplexobj(m) else parts
    del m, parts
    # Each nontrivial factor's d² squared coefficients become two classes, as
    # weighted sums of nonnegative terms, never as differences: the identity
    # 1/√d·1, whose squared coefficient is |row 0|²/d, and all the others, with
    # Helmert row k normalized by k(k+1) and off-diagonal units by 1.
    keys = []
    for i, d in enumerate(dims):
        if d > 1:
            w = np.zeros((2, d * d))
            w[0, 0], w[1] = 1.0 / d, 1.0
            w[1, :: d + 1] = [0.0] + [1.0 / (k * (k + 1)) for k in range(1, d)]
            a = np.matmul(w, a.reshape(-1, d * d, math.prod(dims[i + 1 :]) ** 2))
            keys.append(op.systems[i].key)
    out = {}
    for bits, val in zip(itertools.product((0, 1), repeat=len(keys)), a.reshape(-1).tolist()):
        if val > 0.0:
            out[tuple(key for key, bit in zip(keys, bits) if bit)] = math.sqrt(val)
    return out


def _sparse_type_norms(systems: tuple[SystemLabel, ...], index: np.ndarray, values: np.ndarray) -> dict[tuple, float]:
    """type_norms of the operator whose sorted-COO entries are given.

    A walk over the 2^k types, on flat indices into the axes (batch, row_i,
    col_i, row_i+1, col_i+1, ...): each nontrivial factor branches into its
    trace, over √d, and its traceless part, and is then folded into the
    batch, which leaves the indices unchanged. Tr(X)/d·1 is subtracted as
    explicit entries, and a traced branch with no entries is not walked.
    """
    dims = [s.dim for s in systems]
    n = len(dims)
    row_col = _digits(index, dims * 2)
    interleaved = [a for i in range(n) for a in (i, n + i)]
    flat = _flat([row_col[a] for a in interleaved], [dims[a % n] for a in interleaved], index.size)
    stack = [(flat, values, 0, (), 1.0)]
    out = {}
    while stack:
        flat, values, i, key, weight = stack.pop()
        for s in systems[i:]:
            i += 1
            k = s.dim
            if k > 1:
                rest = math.prod(dims[i:]) ** 2
                batch, digits = np.divmod(flat, k * k * rest)
                pair, rem = np.divmod(digits, rest)
                on = pair % (k + 1) == 0
                tr_index, tr = _sum_duplicates(batch[on] * rest + rem[on], values[on])
                if tr_index.size:
                    stack.append((tr_index, tr, i, key, weight / math.sqrt(k)))
                    b, r = np.divmod(tr_index, rest)
                    diag = (b[:, None] * (k * k) + np.arange(k) * (k + 1)) * rest + r[:, None]
                    flat, values = _sum_duplicates(
                        np.concatenate([flat, diag.reshape(-1)]),
                        np.concatenate([values, np.repeat(-(tr / k), k)]),
                    )
                key += (s.key,)
        norm = float(np.linalg.norm(values)) * weight
        if norm > 0.0:
            out[key] = norm
    return out
