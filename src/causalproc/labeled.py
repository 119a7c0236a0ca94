"""Labeled tensor-product operators and linear maps.

Composite indices are row-major with the first listed system as the most
significant digit, so ``np.kron(A, B)`` realizes the system order ``(A, B)``.
Dual spaces are bookkeeping only: a label carries a ``dual`` flag and the
matrix data is stored the same way for primal and dual factors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS

# Bytes one dense kernel or a declared operator may need: side 16384 at 16 B an entry.
MAX_DENSE_BYTES = 2**32
_TILE = 128  # side of the square tiles that _hermitian_part and _low_rank_psd walk
_OUTER_BYTES = 96  # peak bytes of _outer_entries and _from_entries per product they may store

__all__ = _EXPORTS["labeled"]


@dataclass(frozen=True)
class SystemLabel:
    """One named tensor factor; ``dual=True`` marks the dual copy of the space."""

    name: str
    dim: int
    dual: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"system {self.name!r} needs dimension at least 1, got {self.dim}")

    @property
    def key(self) -> tuple[str, bool]:
        return (self.name, self.dual)

    def __repr__(self) -> str:
        star = "*" if self.dual else ""
        return f"{self.name}{star}({self.dim})"


def dual(label: SystemLabel) -> SystemLabel:
    """The dual partner of a label (same name and dimension, flipped flag)."""
    return SystemLabel(label.name, label.dim, not label.dual)


def _as_key(ref, systems: tuple[SystemLabel, ...]) -> tuple[str, bool]:
    """Resolve a system reference to the (name, dual) key of one of ``systems``.

    Accepts a SystemLabel, a (name, dual) pair, or a bare name when the name is
    unambiguous; a system that ``systems`` does not hold, or a SystemLabel
    whose dimension differs from the held system's, raises KeyError.
    """
    if isinstance(ref, str):
        hits = [s.key for s in systems if s.name == ref]
        if len(hits) != 1:
            raise KeyError(f"system name {ref!r} is ambiguous or absent: {hits}")
        return hits[0]
    if not isinstance(ref, SystemLabel) and not (isinstance(ref, tuple) and len(ref) == 2 and isinstance(ref[0], str)):
        raise TypeError(f"cannot interpret system reference {ref!r}")
    key = ref.key if isinstance(ref, SystemLabel) else (ref[0], bool(ref[1]))
    held = next((s for s in systems if s.key == key), None)
    if held is None:
        raise KeyError(f"no system {key} in {systems}")
    if isinstance(ref, SystemLabel) and ref != held:
        raise KeyError(f"{ref!r} is not the system {held!r} of {systems}")
    return key


class LabeledOperator:
    """A square operator on an ordered tensor product of labeled systems.

    It is held either as the dense matrix given to the constructor, which
    keeps that array without a copy, or as sorted COO: the strictly
    increasing flat row-major indices of its stored entries and the entries
    there. Every kernel routes it on its stored entries iff ``sorted_coo``'s
    rule finds it sparse (a 1×1 always), however it was built: a dense-held
    one is counted once, on first use (``_entries``), and the entries found
    are kept on it, as ``hs`` keeps its type-norm table. Kernel results that
    the rule finds sparse come back as sorted COO, whose ``matrix`` is built
    anew on every access. An operator built by ``cj_operator`` also keeps its
    CJ vector v, of which it is ``np.outer(v, v.conj())`` bit for bit
    (``_cj_vector``); every other operator keeps none. Every array an
    operator holds or keeps is read-only.

    Frozen-array contract: only the array object passed in is made read-only,
    not its base nor any other view of the same memory. A write through a
    writable base or sibling view changes the matrix and leaves the kept
    entries and type-norm table stale. A caller who keeps writing to that
    memory must pass a copy (``m.copy()``).
    """

    __slots__ = ("systems", "dim", "_dense", "_coo", "_squares", "_factor")

    def __init__(self, systems, matrix):
        systems = _checked_systems(systems)
        d = math.prod(s.dim for s in systems)
        m = np.asarray(matrix)
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} does not match systems (dim {d})")
        _set_storage(self, systems, m, ...)

    def __setattr__(self, name, value):
        raise AttributeError(f"LabeledOperator is immutable: cannot set {name!r}")

    def __reduce__(self):
        return (_restored, (self.systems, self._dense, self._coo, self._factor))

    def __repr__(self) -> str:
        held = "dense" if _entries(self) is None else f"{_entries(self)[0].size} stored entries"
        return f"LabeledOperator({self.systems!r}, {held})"

    @property
    def matrix(self) -> np.ndarray:
        if self._dense is not None:
            return self._dense
        return _densify(self.dim, *self._coo)

    def index(self, ref) -> int:
        return [s.key for s in self.systems].index(_as_key(ref, self.systems))

    def system(self, ref) -> SystemLabel:
        return self.systems[self.index(ref)]

    def as_tensor(self) -> np.ndarray:
        """View with one row axis and one column axis per system (rows first)."""
        dims = tuple(s.dim for s in self.systems)
        return self.matrix.reshape(dims + dims)

    def __add__(self, other: "LabeledOperator") -> "LabeledOperator":
        return _combined(self, other, np.add)

    def __sub__(self, other: "LabeledOperator") -> "LabeledOperator":
        return _combined(self, other, np.subtract)

    def __mul__(self, scalar) -> "LabeledOperator":
        entries = _entries(self)
        # The dense product turns each +0.0 into +0.0 * scalar; while that is
        # +0.0 again the stored entries carry the whole product.
        if entries is not None and not _stored(np.zeros(1, entries[1].dtype) * scalar).any():
            return _from_entries(self.systems, entries[0], entries[1] * scalar)
        return LabeledOperator(self.systems, self.matrix * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "LabeledOperator":
        # -(+0.0) is -0.0, a stored entry, so the result is always dense.
        return LabeledOperator(self.systems, -self.matrix)


def _checked_systems(systems) -> tuple[SystemLabel, ...]:
    systems = tuple(systems)
    keys = [s.key for s in systems]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate system labels: {keys}")
    return systems


def _set_storage(op: LabeledOperator, systems, dense, coo, factor=None) -> None:
    object.__setattr__(op, "systems", systems)
    object.__setattr__(op, "dim", math.prod(s.dim for s in systems))
    object.__setattr__(op, "_dense", dense)  # None when built from entries
    object.__setattr__(op, "_coo", coo)  # what _entries returns; ... until counted
    object.__setattr__(op, "_squares", None)  # hs._type_squares fills it
    object.__setattr__(op, "_factor", factor)  # cj_operator's v, or None
    for a in (dense, factor, *(coo if isinstance(coo, tuple) else ())):
        if a is not None:
            a.flags.writeable = False


def _restored(systems, dense, coo, factor) -> LabeledOperator:
    """The operator with this storage and kept vector: what ``__reduce__`` rebuilds."""
    op = LabeledOperator.__new__(LabeledOperator)
    _set_storage(op, systems, dense, coo, factor)
    return op


def sorted_coo(m: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Stored entries of a square matrix as sorted COO, or None if it is dense.

    An entry is stored unless its real and imaginary parts are both +0.0, so
    -0.0 counts. The matrix is sparse iff ``4 * stored <= side**2``; this is
    the one rule for process files, for validation and for the operators
    that kernels return. Returns the strictly increasing flat row-major
    indices and the entries there, in the matrix's float or complex dtype. A
    dense matrix costs a counting pass that stops once it proves the matrix
    dense, and a sparse one no temporary of the matrix's size.
    """
    m = np.asarray(m)
    limit = m.shape[0] ** 2 // 4
    m = np.ascontiguousarray(m, dtype=np.result_type(m.dtype, np.float64)).reshape(-1)
    words = m.view(np.uint64)
    per = words.size // m.size  # one word per float entry, two per complex
    # stored <= nonzero words <= per * stored: more than per * limit nonzero
    # words means dense. The count runs slice by slice and stops as soon as it
    # passes that bound; the nonzero words are then found slice by slice too,
    # so no mask is as large as the matrix.
    step, count = 1 << 18, 0
    for i in range(0, words.size, step):
        count += np.count_nonzero(words[i : i + step])
        if count > per * limit:
            return None
    index = np.concatenate([np.flatnonzero(words[i : i + step] != 0) + i for i in range(0, words.size, step)]) // per
    if per > 1 and index.size:
        index = index[np.r_[True, index[1:] != index[:-1]]]
    if index.size > limit:
        return None
    return index, m[index]


def _stored(values: np.ndarray) -> np.ndarray:
    """Mask of the float64 or complex128 entries that ``sorted_coo`` stores."""
    words = np.ascontiguousarray(values).view(np.uint64)
    return words.reshape(values.size, words.size // max(values.size, 1)).any(axis=1)


def _budget(need: int, what: str) -> None:
    """A ValueError naming ``what`` if it would need more than ``MAX_DENSE_BYTES``."""
    if need > MAX_DENSE_BYTES:
        raise ValueError(f"{what} would need {need} bytes, more than {MAX_DENSE_BYTES}")


def _densify(side: int, index: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The dense side×side matrix with these sorted-COO entries; a ValueError
    if it would need more than ``MAX_DENSE_BYTES``."""
    _budget(side * side * values.itemsize, f"a dense {side}-dim operator")
    m = np.zeros(side * side, dtype=values.dtype)
    m[index] = values
    return m.reshape(side, side)


def _from_entries(systems, index: np.ndarray, values: np.ndarray) -> LabeledOperator:
    """Operator on ``systems`` with float or complex entries at strictly
    increasing flat indices, zero elsewhere. Entries whose parts are both
    +0.0 are dropped, and the result is held and routed as ``sorted_coo``'s
    rule finds it, with no count."""
    systems = _checked_systems(systems)
    d = math.prod(s.dim for s in systems)
    keep = _stored(values)
    entries = index[keep], values[keep]
    op = LabeledOperator.__new__(LabeledOperator)
    if 4 * entries[0].size <= d * d:
        _set_storage(op, systems, None, entries)
    elif d == 1:  # dense by the rule, but a 1×1 routes on its one entry
        _set_storage(op, systems, entries[1].reshape(1, 1), entries)
    else:
        _set_storage(op, systems, _densify(d, *entries), None)
    return op


def _entries(op: LabeledOperator) -> tuple[np.ndarray, np.ndarray] | None:
    """The sorted-COO entries every kernel routes op on, or None if it is dense:
    the one storage decision. A matrix given to the constructor is counted by
    ``sorted_coo`` on first use and the result kept; a 1×1 is always entries."""
    if op._coo is ...:
        m = op._dense
        coo = sorted_coo(m)
        if coo is None and op.dim == 1:
            coo = np.zeros(1, dtype=np.intp), m.reshape(1).astype(np.result_type(m, np.float64))
        _set_storage(op, op.systems, m, coo, op._factor)  # no type-norm table is built before the count
    return op._coo


def _sparse_entries(op: LabeledOperator) -> tuple[np.ndarray, np.ndarray] | None:
    """op's sorted-COO entries iff ``sorted_coo``'s rule finds it sparse, else
    None: ``_entries``, but None for a dense 1×1 too."""
    entries = _entries(op)
    return entries if entries is not None and 4 * entries[0].size <= op.dim**2 else None


def _cj_vector(op: LabeledOperator) -> np.ndarray | None:
    """The CJ vector v that ``cj_operator`` kept on op, which is then
    ``np.outer(v, v.conj())`` bit for bit, or None if op keeps none."""
    return op._factor


def _dense_reference(systems, matrix) -> LabeledOperator:
    """An operator that every kernel routes dense: the entry kernels' test reference."""
    op = LabeledOperator(systems, matrix)
    object.__setattr__(op, "_coo", None)
    return op


def _values(op: LabeledOperator) -> np.ndarray:
    """op's stored entries if it is routed on them, else its dense matrix."""
    return op.matrix if _entries(op) is None else _entries(op)[1]


def _combined(x: LabeledOperator, y: LabeledOperator, ufunc) -> LabeledOperator:
    """``ufunc(x, y)`` for np.add or np.subtract, on x's systems. Two operators
    routed on entries are combined on them, each shared entry rounding as the
    dense one; otherwise both are dense."""
    if not isinstance(y, LabeledOperator):
        raise TypeError("expected a LabeledOperator")
    y = reorder(y, [s.key for s in x.systems])
    if _entries(x) is None or _entries(y) is None:
        return LabeledOperator(x.systems, ufunc(x.matrix, y.matrix))
    (ix, vx), (iy, vy) = _entries(x), _entries(y)
    return _from_entries(x.systems, *_sum_duplicates(np.concatenate([ix, iy]), np.concatenate([vx, ufunc(0.0, vy)])))


def _digits(index: np.ndarray, dims) -> tuple[np.ndarray, ...]:
    """Row-major digits of flat indices over ``dims``, most significant first."""
    return np.unravel_index(index, dims) if dims else ()


def _flat(digits, dims, size: int) -> np.ndarray:
    """Flat row-major indices of ``digits`` over ``dims`` (``size`` zeros
    when there are no dims)."""
    return np.ravel_multi_index(digits, dims) if dims else np.zeros(size, dtype=np.intp)


def _sum_duplicates(index: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """COO entries with equal indices summed, sorted by index, exact zeros dropped.

    Entries of one index are added in their given order, so an entry followed
    by ``-x`` rounds as the dense ``entry - x`` does.
    """
    order = np.argsort(index, kind="stable")
    index, values = index[order], values[order]
    if index.size:
        starts = np.flatnonzero(np.r_[True, index[1:] != index[:-1]])
        index, values = index[starts], np.add.reduceat(values, starts)
    keep = values != 0
    return index[keep], values[keep]


def _hermitian_part(m: np.ndarray) -> tuple[float, np.ndarray]:
    """‖m − m†‖_F and h = (m + m†)/2 in float64 or complex128, tile by tile with
    no full-size temporary but h. h_IJ is formed from m_IJ and m_JI as ``(m +
    m.conj().T) / 2`` forms it, bit for bit; for I ≤ J, ‖m_IJ − (m_JI)†‖ is the
    norm of both blocks IJ and JI of m − m†."""
    m = np.asarray(m, dtype=np.result_type(m.dtype, np.float64))
    h, work, squares = np.empty(m.shape, m.dtype), np.empty((2, _TILE * _TILE), m.dtype), 0.0
    for i in range(0, len(m), _TILE):
        for j in range(0, len(m), _TILE):
            a, out = m[i : i + _TILE, j : j + _TILE], h[i : i + _TILE, j : j + _TILE]
            b_adj = np.conjugate(m[j : j + _TILE, i : i + _TILE].T, out=work[0, : a.size].reshape(a.shape))
            np.divide(np.add(a, b_adj, out=out), 2, out=out)
            if i <= j:
                diff = np.subtract(a, b_adj, out=work[1, : a.size].reshape(a.shape))
                squares += (1.0 if i == j else 2.0) * float(np.vdot(diff, diff).real)
    return math.sqrt(squares), h


def _hermitian_entries(index: np.ndarray, values: np.ndarray, side: int) -> tuple[float, np.ndarray, np.ndarray]:
    """‖m − m†‖_F and the sorted-COO entries of h = (m + m†)/2 for the
    side×side matrix m with these stored entries; both sums are taken entry
    by entry, each rounding as the dense one."""
    rows, cols = np.divmod(index, side)
    both = np.concatenate([index, cols * side + rows])
    adjoint = np.conj(values)
    herm = float(np.linalg.norm(_sum_duplicates(both, np.concatenate([values, -adjoint]))[1]))
    h_index, h = _sum_duplicates(both, np.concatenate([values, adjoint]))
    return herm, h_index, h / 2


def _blocks(index: np.ndarray, h: np.ndarray, d: int) -> list[np.ndarray]:
    """The diagonal blocks of a d×d Hermitian matrix given by sorted-COO
    entries, one per connected component of its nonzero graph, stacked by
    block size into arrays of shape (count, size, size). The matrix is block
    diagonal over them, so its spectrum is the union of theirs; a row with no
    entry is a block [0]."""
    rows, cols = np.divmod(index, d)
    # Label propagation: each row takes the least label among its neighbours'
    # and then its label's label, until nothing changes. Labels only fall and
    # stay inside a component, so at the fixed point each component carries
    # one label (the pattern is symmetric).
    label = np.arange(d)
    if rows.size:
        starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        heads = rows[starts]
        while True:
            new = label.copy()
            new[heads] = np.minimum(label[heads], np.minimum.reduceat(label[cols], starts))
            new = new[new]
            if np.array_equal(new, label):
                break
            label = new
    order = np.argsort(label, kind="stable")
    _, first, sizes = np.unique(label[order], return_index=True, return_counts=True)
    comp = np.empty(d, dtype=np.int64)
    comp[order] = np.repeat(np.arange(sizes.size), sizes)
    pos = np.empty(d, dtype=np.int64)
    pos[order] = np.arange(d) - np.repeat(first, sizes)
    size = sizes[comp[rows]]
    blocks = []
    # the distinct sizes, ascending (a plain np.unique would import numpy.ma)
    for s in np.flatnonzero(np.bincount(sizes)):
        members = np.flatnonzero(sizes == s)
        slot = np.empty(sizes.size, dtype=np.int64)
        slot[members] = np.arange(members.size)
        sel = size == s
        b = np.zeros((members.size, s, s), dtype=h.dtype)
        b[slot[comp[rows[sel]]], pos[rows[sel]], pos[cols[sel]]] = h[sel]
        blocks.append(b)
    return blocks


def _psd_test(blocks: list[np.ndarray], tol: float, method: str) -> tuple[bool, float]:
    """(psd_ok, min_eigenvalue) of the Hermitian operator with these stacks of
    diagonal blocks, which ``_positivity`` owns. The "cholesky" method proves
    the spectrum above -tol by factoring each block + tol·I, with tol added in
    place and the diagonals restored bit for bit if one fails, and leaves the
    eigenvalue NaN; eigvalsh runs only then, or for "eigh"."""
    if method == "cholesky":
        diagonals = [np.einsum("kii->ki", b) for b in blocks]
        saved = [x.copy() for x in diagonals]
        try:
            for b, x in zip(blocks, diagonals):
                x += tol
                np.linalg.cholesky(b)
            return True, float("nan")
        except np.linalg.LinAlgError:
            for x, y in zip(diagonals, saved):
                x[...] = y
    min_eig = min(float(np.linalg.eigvalsh(b).min()) for b in blocks)
    return min_eig >= -tol, min_eig


def _low_rank_psd(m: np.ndarray, norm: float, tol: float) -> tuple[float, bool, float] | None:
    """(‖m − m†‖, True, -δ) if a pivoted Cholesky factor l of rank k < d proves the
    Hermitian part h = (m + m†)/2 of the dense m positive semidefinite, else
    None. δ bounds ‖h - l·lᴴ‖ and the rounding in forming it; l·lᴴ ⪰ 0 has a
    zero eigenvalue, so by Weyl's inequality λ_min(h) ∈ [-δ, δ]. Taken only if
    δ ≤ tol, ‖m − m†‖ is finite and δ is within the d·ε·‖m‖ accuracy of
    eigvalsh (``norm`` is ‖m‖ ≥ ‖h‖, equal for a Hermitian m); at most √d
    steps keep a full-rank h O(d²). h is never formed: each pivot column is
    read from m as (m[:, p] + m[p, :]*)/2, which has the bits of h[:, p], and
    one walk over m's upper tiles, each with its mirror tile, sums ‖m − m†‖²
    as ``_hermitian_part`` does, bit for bit, and ‖2h − 2·l·lᴴ‖², with nothing
    of m's size allocated. l is real where h is, that is where m's imaginary
    part is symmetric; that check stops at the first tile where it is not."""
    m = np.asarray(m, dtype=np.result_type(m.dtype, np.float64))
    d, eps, t = len(m), float(np.finfo(float).eps), _TILE
    tiles = [(i, j) for i in range(0, d, t) for j in range(i, d, t)]
    real = not np.iscomplexobj(m) or not any(
        (m[i : i + t, j : j + t].imag != m[j : j + t, i : i + t].imag.T).any() for i, j in tiles
    )
    diag = m.diagonal().real.copy()
    l = np.zeros((d, min(math.isqrt(d), d - 1)), dtype=float if real else m.dtype)
    k = 0
    while diag.max() > eps * norm:
        if k == l.shape[1]:
            return None
        p = int(np.argmax(diag))
        column = (m[:, p] + m[p, :].conj()) / 2
        l[:, k] = ((column.real if real else column) - l[:, :k] @ l[p, :k].conj()) / math.sqrt(diag[p])
        diag -= np.abs(l[:, k]) ** 2
        k += 1
    l, work, herm, squares = l[:, :k], np.empty((2, t * t), m.dtype), 0.0, 0.0
    twice = 2 * l.conj().T  # exact: a power of two
    for i, j in tiles:
        a = m[i : i + t, j : j + t]
        b_adj = np.conjugate(m[j : j + t, i : i + t].T, out=work[0, : a.size].reshape(a.shape))
        diff = np.subtract(a, b_adj, out=work[1, : a.size].reshape(a.shape))
        weight = 1.0 if i == j else 2.0  # a tile off the diagonal stands for its mirror too
        herm += weight * float(np.vdot(diff, diff).real)
        rest = np.add(a, b_adj, out=diff)
        rest -= l[i : i + t] @ twice[:, j : j + t]
        squares += weight * float(np.vdot(rest, rest).real)
    herm = math.sqrt(herm)
    delta = math.sqrt(squares) / 2 + 4 * (k + 2) * eps * float(np.linalg.norm(l)) ** 2
    if delta <= tol and delta <= d * eps * norm and math.isfinite(herm):
        return herm, True, 0.0 - delta  # +0.0, never -0.0, when δ is 0
    return None


def _positivity(op: LabeledOperator, tol: float, method: str) -> tuple[float, bool, float, float, complex]:
    """(‖m − m†‖_F, psd_ok, min_eigenvalue, ‖m‖_F, Tr m) of h = (m + m†)/2:
    the one positivity reader. For "eigh", tol > 0 and a finite ‖m‖, a dense m
    is first offered to ``_low_rank_psd``, which forms no h (at tol = 0 it could
    certify only h = 0, whose eigvalsh is the same +0.0). Otherwise h, real
    where its imaginary part is zero, is formed in tiles (``_hermitian_part``)
    or on the stored entries (``_hermitian_entries``, then ``_blocks``) for
    ``_psd_test``. A NaN or infinite entry makes the residual non-finite; then
    positivity fails, with a NaN eigenvalue, as no eigensolver would converge."""
    d, entries = op.dim, _entries(op)
    if entries is None:
        m = op.matrix
        norm, trace = math.sqrt(np.vdot(m, m).real), np.trace(m)
        if method == "eigh" and tol > 0 and math.isfinite(norm) and (certified := _low_rank_psd(m, norm, tol)):
            return *certified, norm, trace
        herm, h = _hermitian_part(m)
    else:
        index, values = entries
        norm = float(np.linalg.norm(values))
        trace = values[index % (d + 1) == 0].sum()  # the diagonal's flat indices are the multiples of d + 1
        herm, index, h = _hermitian_entries(index, values, d)
    if not math.isfinite(herm):
        return herm, False, math.nan, norm, trace
    if np.iscomplexobj(h) and not h.imag.any():  # -0.0 is zero, NaN is not
        h = h.real
    return herm, *_psd_test([h[None]] if entries is None else _blocks(index, h, d), tol, method), norm, trace


def _psd_part(m: np.ndarray) -> np.ndarray:
    """The plain dense m's Hermitian part with its negative eigenvalues set to 0."""
    w, v = np.linalg.eigh(_hermitian_part(m)[1])
    return (v * np.clip(w, 0.0, None)) @ v.conj().T


def _min_eig(m: np.ndarray) -> float:
    """The smallest eigenvalue of the plain dense matrix m's Hermitian part."""
    return float(np.linalg.eigvalsh(_hermitian_part(m)[1])[0])


def _rank_one_factor(op: LabeledOperator) -> np.ndarray:
    """v with op = v v† if op has rank one: the column at op's largest diagonal
    entry over that entry's square root (0 if it is not positive), read on
    the stored entries where op is routed on them."""
    d, entries = op.dim, _entries(op)
    if entries is None:
        diagonal = op.matrix.diagonal().real
        k = int(np.argmax(diagonal))
        column = op.matrix[:, k]
    else:
        index, values = entries
        rows, cols = np.divmod(index, d)
        on = rows == cols
        diagonal = np.zeros(d)
        diagonal[rows[on]] = values[on].real
        k = int(np.argmax(diagonal))
        column = np.zeros(d, dtype=values.dtype)
        column[rows[cols == k]] = values[cols == k]
    return column / math.sqrt(diagonal[k]) if diagonal[k] > 0 else np.zeros(d)


def identity_operator(systems) -> LabeledOperator:
    """The identity on ``systems``, held sparse from 4 dimensions up by ``sorted_coo``'s rule."""
    systems = tuple(systems)
    d = math.prod(s.dim for s in systems)
    return _from_entries(systems, np.arange(d) * (d + 1), np.ones(d, dtype=complex))


def tensor(*ops: LabeledOperator) -> LabeledOperator:
    """Tensor product; system order is the concatenation of the factors'.

    When every factor is routed on entries, the result is built from the
    products of their stored entries and held as ``sorted_coo``'s rule finds
    it; otherwise it is ``np.kron`` of the dense factors. Raises ValueError
    before allocating when those entries, or the dense result, exceed
    ``MAX_DENSE_BYTES``; each factor is smaller, so none is made dense first."""
    systems = sum((op.systems for op in ops), ())
    entries = [_entries(op) for op in ops]
    if ops and all(e is not None for e in entries):
        count = math.prod(index.size for index, _ in entries)
        _budget(48 * count, f"a product of {count} stored entries")
        index, values, side = np.zeros(1, dtype=np.intp), np.ones(1), 1
        for op, (i, v) in zip(ops, entries):
            (rows, cols), (r, c) = np.divmod(index, side), np.divmod(i, op.dim)
            side *= op.dim
            index = ((rows[:, None] * op.dim + r) * side + cols[:, None] * op.dim + c).reshape(-1)
            values = np.multiply.outer(values, v).reshape(-1)
        order = np.argsort(index)
        return _from_entries(systems, index[order], values[order])
    d = math.prod(op.dim for op in ops)
    _budget(16 * d * d, f"a product on {d} dims")
    matrix = np.array([[1.0 + 0.0j]])
    for op in ops:
        matrix = np.kron(matrix, op.matrix)
    return LabeledOperator(systems, matrix)


def _relabeled(op: LabeledOperator, systems) -> LabeledOperator:
    """The same matrix, held and routed the same way, on systems of its dimension."""
    new = LabeledOperator.__new__(LabeledOperator)
    _set_storage(new, _checked_systems(systems), op._dense, op._coo)
    return new


def reorder(op: LabeledOperator, new_order) -> LabeledOperator:
    """Permute the system order; the matrix is permuted to match."""
    perm = _positions(op.systems, new_order)
    n, d = len(op.systems), op.dim
    if perm == list(range(n)):
        return op
    axes, systems = perm + [n + p for p in perm], tuple(op.systems[p] for p in perm)
    entries = _entries(op)
    if entries is None:
        return LabeledOperator(systems, op.as_tensor().transpose(axes).reshape(d, d))
    index, values = entries
    dims = [s.dim for s in op.systems] * 2
    digits = _digits(index, dims)
    new = _flat([digits[a] for a in axes], [dims[a] for a in axes], index.size)
    order = np.argsort(new)
    return _from_entries(systems, new[order], values[order])


def partial_trace(op: LabeledOperator, refs) -> LabeledOperator:
    """Trace out the listed systems; the rest keep their relative order."""
    keys = {_as_key(r, op.systems) for r in refs}
    n = len(op.systems)
    keep = [i for i in range(n) if op.systems[i].key not in keys]
    systems = tuple(op.systems[i] for i in keep)
    if _entries(op) is not None:
        return _from_entries(systems, *_traced_entries(op, keys))
    in_subs = list(range(n)) + [
        i if op.systems[i].key in keys else n + i for i in range(n)
    ]
    out_subs = keep + [n + i for i in keep]
    t = np.einsum(op.as_tensor(), in_subs, out_subs)
    d = math.prod(s.dim for s in systems)
    return LabeledOperator(systems, t.reshape(d, d))


def _traced_entries(op: LabeledOperator, keys) -> tuple[np.ndarray, np.ndarray]:
    """Sorted-COO entries of the partial trace of an operator routed on entries
    over the systems with these keys, on the others in order; duplicates summed."""
    index, values = _entries(op)
    n = len(op.systems)
    dims = [s.dim for s in op.systems] * 2
    digits = _digits(index, dims)
    on = np.ones(index.size, dtype=bool)
    for i, s in enumerate(op.systems):
        if s.key in keys:
            on &= digits[i] == digits[n + i]
    keep = [i for i in range(n) if op.systems[i].key not in keys]
    axes = keep + [n + i for i in keep]
    new = _flat([digits[a][on] for a in axes], [dims[a] for a in axes], np.count_nonzero(on))
    return _sum_duplicates(new, values[on])


def _trace_residual(op: LabeledOperator, refs) -> float:
    """‖Tr_refs op − 1‖_F, 1 the identity on the other systems; on the partial
    trace's stored entries, with no operator built, where op is routed on them."""
    keys = {_as_key(r, op.systems) for r in refs}
    d = math.prod(s.dim for s in op.systems if s.key not in keys)
    if _entries(op) is None:
        off = partial_trace(op, keys).matrix - np.eye(d)
    else:
        index, values = _traced_entries(op, keys)
        off = _sum_duplicates(np.concatenate([index, np.arange(d) * (d + 1)]), np.concatenate([values, -np.ones(d)]))[1]
    return float(np.linalg.norm(off))


def split_system(op: LabeledOperator, ref, parts) -> LabeledOperator:
    """Replace one system by consecutive factors (row-major composite index).

    ``parts`` is a sequence of SystemLabels whose dimensions multiply to the
    dimension of the replaced system, each with its dual flag.
    """
    i = op.index(ref)
    parts = tuple(parts)
    if math.prod(p.dim for p in parts) != op.systems[i].dim:
        raise ValueError("part dimensions do not multiply to the split system's")
    if any(p.dual != op.systems[i].dual for p in parts):
        raise ValueError(f"a part of {parts} differs from the split system {op.systems[i]!r} in its dual flag")
    return _relabeled(op, op.systems[:i] + parts + op.systems[i + 1 :])


def embed(op: LabeledOperator, systems) -> LabeledOperator:
    """Pad with identities so the result lives on ``systems`` (in that order).

    An operator routed on entries is padded on them: each is repeated along
    the padding's diagonal, straight into the order of ``systems``. A dense
    one is ``np.kron``-ed with a dense identity and reordered. Raises ValueError
    before allocating when either route exceeds ``MAX_DENSE_BYTES``."""
    systems = tuple(systems)
    if op.systems == systems:
        return op
    have = {s.key for s in op.systems}
    missing = [s for s in systems if s.key not in have]
    if len(have - {s.key for s in systems}) > 0:
        raise ValueError("target systems must contain the operator's systems")
    d, padded = math.prod(s.dim for s in missing), op.systems + tuple(missing)
    if d == 1:  # the identity on dimension-1 systems is [[1]]: they only relabel the matrix
        return reorder(_relabeled(op, padded), systems)
    entries = _entries(op)
    if entries is None:
        # The dense operand, the dense identity, their np.kron product and,
        # unless the padding already comes last, its reordered copy are held at once.
        _budget(16 * (op.dim**2 + d**2 + (1 if padded == systems else 2) * (op.dim * d) ** 2), f"padding to {op.dim * d} dims")
        return reorder(tensor(op, identity_operator(missing)), systems)
    return _padded(op.systems, *entries, systems)


def _padded(inner, index: np.ndarray, values: np.ndarray, systems) -> LabeledOperator:
    """The operator on ``systems`` ⊇ ``inner`` whose stored entries are these,
    of an operator on ``inner``, each repeated along the diagonal of the
    identity on the other systems, straight into the order of ``systems``."""
    missing = [s for s in systems if s.key not in {t.key for t in inner}]
    d, padded = math.prod(s.dim for s in missing), inner + tuple(missing)
    count = index.size * d
    _budget((16 * len(systems) + 48) * count, f"padding {index.size} stored entries to {math.prod(s.dim for s in systems)} dims")
    n, at = len(inner), {s.key: i for i, s in enumerate(padded)}
    digits = _digits(index, [s.dim for s in inner] * 2)
    pad = _digits(np.arange(d), [s.dim for s in missing])
    rows = [np.repeat(digits[at[s.key]], d) if at[s.key] < n else np.tile(pad[at[s.key] - n], index.size) for s in systems]
    cols = [np.repeat(digits[n + at[s.key]], d) if at[s.key] < n else rows[i] for i, s in enumerate(systems)]
    new = _flat(rows + cols, [s.dim for s in systems] * 2, count)
    order = np.argsort(new)
    return _from_entries(tuple(padded[at[s.key]] for s in systems), new[order], np.repeat(values, d)[order])


def product(ops, systems=None) -> LabeledOperator:
    """Matrix product of operators embedded in a common system set.

    ``systems`` fixes the output order; by default the union in first-seen
    order. The factors are multiplied left to right by ``_multiply``, each
    step only on the union of the two operands' systems: with U the running
    product's own systems, O the shared ones and V the factor's own, one
    contraction over O gives ``R[u o v, u' o'' v'] = sum_p x[u o, u' p] y[p
    v, o'' v']``, at |U O V|**2 * |O| flops on dense operands and on the
    stored entries of sparse ones. The last step writes in the order of
    ``systems`` when the systems no factor touches there have dimension 1;
    otherwise its result is padded with identities on them by ``embed``.
    """
    ops = list(ops)
    if systems is None:
        seen: dict[tuple[str, bool], SystemLabel] = {}
        for op in ops:
            for s in op.systems:
                seen.setdefault(s.key, s)
        systems = tuple(seen.values())
    if not ops:
        return identity_operator(systems)
    m = ops[0]
    for step, op in enumerate(ops[1:], 2):
        m = _multiply(m, op, systems if step == len(ops) else None)
    return embed(m, systems)


def _multiply(x: LabeledOperator, y: LabeledOperator, systems=None) -> LabeledOperator:
    """``x @ y`` on the union of their systems, in the order U + O + V of
    ``product``, or in the order of ``systems`` when that holds the union and
    dimension-1 systems only.

    When both operands are routed on entries, their stored entries are
    joined on the contracted digits and the products summed per result
    entry, which is held as ``sorted_coo``'s rule finds it. Otherwise both
    are dense, and one matrix product is transposed once into the output
    order. Raises ValueError when a shared system has two dimensions, or
    before allocating when the join, or the dense operands, the contraction
    and its transposed copy, exceed ``MAX_DENSE_BYTES``.
    """
    own_x, shared, own_y = _groups(x, y)
    out = own_x + shared + own_y
    union = {s.key: s for s in out}
    if systems is not None and union.keys() <= {s.key for s in systems} and all(s.key in union or s.dim == 1 for s in systems):
        out = tuple(union.get(s.key, s) for s in systems)
    kept = [s for s in out if s.key in union]  # dimension-1 extras add no digit
    ex, ey = _entries(x), _entries(y)
    if ex is not None and ey is not None:
        return _joined(x.systems, ex, y.systems, ey, shared, out, kept)
    d = math.prod(s.dim for s in kept)
    a, b, axes, shape = _operands(x, y, own_x, shared, own_y, 32 * d * d)  # the product and its transposed copy
    t = np.dot(a, b).reshape(shape).transpose([axes[s.key, False] for s in kept] + [axes[s.key, True] for s in kept])
    del a, b  # the operands are freed before the transposed copy is made
    return LabeledOperator(out, t.reshape(d, d))


def _groups(x: LabeledOperator, y: LabeledOperator) -> tuple[tuple[SystemLabel, ...], ...]:
    """U, O and V of ``product``: x's own systems, the shared ones (in x's
    order) and y's own; a ValueError when a shared system has two dimensions."""
    in_y = {s.key: s for s in y.systems}
    in_x = {s.key for s in x.systems}
    shared = tuple(s for s in x.systems if s.key in in_y)
    if any(in_y[s.key].dim != s.dim for s in shared):
        raise ValueError(f"shared systems differ in dimension: {x.systems} and {y.systems}")
    return tuple(s for s in x.systems if s.key not in in_y), shared, tuple(s for s in y.systems if s.key not in in_x)


def _operands(x, y, own_x, shared, own_y, scratch: int) -> tuple[np.ndarray, np.ndarray, dict, tuple]:
    """The dense ``x @ y`` as one matrix product ``a @ b``: x as ``a``, rows
    U O U by columns O, and y as ``b``, rows O by columns V O V. Also the
    product's tensor axes, one per system for its rows and one for its
    columns, by (key, is column) in axis order, and their lengths; ``a``'s
    rows are the first ``2 * len(own_x) + len(shared)`` of them.
    Raises ValueError before allocating when the dense operands and
    ``scratch`` more bytes exceed ``MAX_DENSE_BYTES``."""
    du, do, dv = (math.prod(s.dim for s in group) for group in (own_x, shared, own_y))
    _budget(16 * ((du * do) ** 2 + (do * dv) ** 2) + scratch, f"a product on {du * do * dv} dims")
    a = reorder(x, own_x + shared).matrix.reshape(du * do * du, do)
    b = reorder(y, shared + own_y).matrix.reshape(do, dv * do * dv)
    # rows of U O, columns of U, rows of V, columns of O V
    layout = [(s, False) for s in own_x + shared] + [(s, True) for s in own_x]
    layout += [(s, False) for s in own_y] + [(s, True) for s in shared + own_y]
    return a, b, {(s.key, column): i for i, (s, column) in enumerate(layout)}, tuple(s.dim for s, _ in layout)


def _joined(x_systems, ex, y_systems, ey, shared, out, kept) -> LabeledOperator:
    """``_multiply`` of two operators given by their sorted-COO entries: each
    entry of x meets the entries of y whose row digits on the shared systems
    equal its column digits there, and equal result indices are summed."""
    (ix, vx), (iy, vy) = ex, ey
    nx, ny = len(x_systems), len(y_systems)
    dx, dy = _digits(ix, [s.dim for s in x_systems] * 2), _digits(iy, [s.dim for s in y_systems] * 2)
    at_x, at_y = {s.key: i for i, s in enumerate(x_systems)}, {s.key: i for i, s in enumerate(y_systems)}
    dims = [s.dim for s in shared]
    kx = _flat([dx[nx + at_x[s.key]] for s in shared], dims, ix.size)
    ky = _flat([dy[at_y[s.key]] for s in shared], dims, iy.size)
    counts = np.bincount(ky, minlength=math.prod(dims))
    meets = counts[kx]
    total = int(meets.sum())
    _budget((16 * len(kept) + 56) * total, f"a product of {total} pairs of stored entries")
    # y's entries grouped by that key; pair j of x's entry e is the j-th of e's group.
    xi = np.repeat(np.arange(ix.size), meets)
    first = np.cumsum(counts) - counts
    yi = np.argsort(ky, kind="stable")[np.repeat(first[kx] - np.cumsum(meets) + meets, meets) + np.arange(total)]
    rows = [dx[at_x[s.key]][xi] if s.key in at_x else dy[at_y[s.key]][yi] for s in kept]
    cols = [dy[ny + at_y[s.key]][yi] if s.key in at_y else dx[nx + at_x[s.key]][xi] for s in kept]
    index = _flat(rows + cols, [s.dim for s in kept] * 2, total)
    return _from_entries(out, *_sum_duplicates(index, vx[xi] * vy[yi]))


def _squares(m: np.ndarray, minus: np.ndarray | None = None) -> float:
    """Σ|m − minus|² (``minus`` 0 if None) of two arrays of one shape, over
    chunks of one tile's size in C order, with no full-size difference;
    either may be a strided view."""
    operands = [m] if minus is None else [m, minus]
    total = 0.0
    with np.nditer(operands, ["external_loop", "buffered"], [["readonly"]] * len(operands), buffersize=_TILE * _TILE) as it:
        for chunk in it:
            block = chunk if minus is None else np.subtract(*chunk)
            total += float(np.vdot(block, block).real)
    return total


def _norms(a: LabeledOperator, b: LabeledOperator) -> tuple[float, float, float]:
    """‖a − b‖, ‖a‖ and ‖b‖ (Frobenius) of two operators in one system order.
    Each entry of a − b rounds as in the dense difference. Two operands
    routed on entries are subtracted on them; a dense and a sparse one by
    adding the sparse one's entries into a copy of the dense one; two dense
    ones block by block (``_squares``)."""
    (ea, eb), held = (_entries(a), _entries(b)), [_values(a), _values(b)]
    if ea is None and eb is None:
        return tuple(math.sqrt(q) for q in (_squares(*held), _squares(held[0]), _squares(held[1])))
    if ea is not None and eb is not None:
        (ia, va), (ib, vb) = ea, eb
        diff = float(np.linalg.norm(_sum_duplicates(np.concatenate([ia, ib]), np.concatenate([va, -vb]))[1]))
    else:
        # The dense operand's difference with 0, the sparse one read as 0,
        # with its stored entries then added in place: each rounds as in the dense a - b.
        m = np.subtract(*(0.0 if e is not None else x.matrix for x, e in ((a, ea), (b, eb))), dtype=np.result_type(*held))
        for e, sign in ((ea, 1), (eb, -1)):
            if e is not None:
                m.reshape(-1)[e[0]] += sign * e[1]
        diff = math.sqrt(_squares(m))
    return diff, *(float(np.linalg.norm(h)) for h in held)


def _commutator_residuals(ops: dict) -> dict:
    """‖ab − ba‖ / max(1, ‖a‖‖b‖) (Frobenius) of each pair of the named
    operators ``ops``, keyed by their names in order. Each norm is formed
    once, and each pair's two products in one system order (``_norms``)."""
    norms = {name: float(np.linalg.norm(_values(op))) for name, op in ops.items()}
    residuals = {}
    for (a, x), (b, y) in itertools.combinations(ops.items(), 2):
        xy = _multiply(x, y)
        residuals[a, b] = _norms(xy, _multiply(y, x, xy.systems))[0] / max(1.0, norms[a] * norms[b])
    return residuals


def _product_distance(ops, target: LabeledOperator) -> float:
    """``distance(product(ops, target.systems), target)``. When the last step
    and ``target`` are dense, and ``target`` adds only dimension-1 systems to
    the factors' union, the last contraction is formed in row blocks of about
    one tile's entries (at least the rows along its last row axis), each
    compared with the matching block of ``target``'s tensor read in the
    contraction's axis order: the product is neither held whole nor copied
    into ``target``'s order."""
    if len(ops) < 2:
        return distance(product(ops, target.systems), target)
    x, y = ops[0], ops[-1]
    for op in ops[1:-1]:
        x = _multiply(x, op)
    own_x, shared, own_y = _groups(x, y)
    union = {s.key for s in own_x + shared + own_y}
    n, at = len(target.systems), {s.key: i for i, s in enumerate(target.systems)}
    extras = [i for i, s in enumerate(target.systems) if s.key not in union]
    fits = union <= at.keys() and all(target.systems[i].dim == 1 for i in extras)
    if not fits or _entries(target) is not None or (_entries(x) is not None and _entries(y) is not None):
        return distance(embed(_multiply(x, y, target.systems), target.systems), target)
    rows, columns = [s.dim for s in own_x + shared + own_x], math.prod(s.dim for s in shared + own_y * 2)
    # a block fixes the first j row axes: the fewest that leave at most one
    # tile, but never the last row axis, which a block always holds whole
    j = next(j for j in range(len(rows) + 1) if j >= len(rows) - 1 or math.prod(rows[j:]) * columns <= _TILE * _TILE)
    step, diff, norm = math.prod(rows[j:]), 0.0, 0.0
    a, b, axes, shape = _operands(x, y, own_x, shared, own_y, 32 * step * columns)  # a block and its difference
    order = [at[key] + n * column for key, column in axes] + extras + [n + i for i in extras]
    view = target.as_tensor().transpose(order).reshape(shape)  # the extras' axes have length 1
    for i, at_rows in enumerate(np.ndindex(*shape[:j])):
        block = np.dot(a[i * step : (i + 1) * step], b).reshape(shape[j:])
        norm += float(np.vdot(block, block).real)
        # the difference overwrites the block, unless only σ is complex
        block = np.subtract(block, view[at_rows], out=block if np.can_cast(view.dtype, block.dtype) else None)
        diff += float(np.vdot(block, block).real)
    return math.sqrt(diff) / max(1.0, math.sqrt(norm), math.sqrt(_squares(target.matrix)))


def distance(a: LabeledOperator, b: LabeledOperator) -> float:
    """Frobenius distance normalized by max(1, operand norms).

    ``b`` is reordered to ``a``'s system order first; the system sets must
    match. The norms come from ``_norms``, on stored entries where either
    operand is routed on them."""
    diff, norm_a, norm_b = _norms(a, reorder(b, [s.key for s in a.systems]))
    return diff / max(1.0, norm_a, norm_b)


@dataclass(frozen=True)
class LinearMap:
    """Matrix of a linear map between labeled tensor-product spaces.

    Rows index the codomain, columns the domain, both row-major in the listed
    system order. Labels are primal; duals appear only in CJ operators.
    """

    matrix: np.ndarray
    domain: tuple[SystemLabel, ...]
    codomain: tuple[SystemLabel, ...]

    def __post_init__(self):
        object.__setattr__(self, "domain", _checked_systems(self.domain))
        object.__setattr__(self, "codomain", _checked_systems(self.codomain))
        m = np.asarray(self.matrix)
        shape = (
            math.prod(s.dim for s in self.codomain),
            math.prod(s.dim for s in self.domain),
        )
        if m.shape != shape:
            raise ValueError(f"matrix shape {m.shape}, expected {shape}")
        object.__setattr__(self, "matrix", m)


def identity_map(systems) -> LinearMap:
    systems = tuple(systems)
    d = math.prod(s.dim for s in systems)
    return LinearMap(np.eye(d, dtype=complex), systems, systems)


def tensor_maps(*maps: LinearMap) -> LinearMap:
    matrix = np.array([[1.0 + 0.0j]])
    dom: tuple[SystemLabel, ...] = ()
    cod: tuple[SystemLabel, ...] = ()
    for m in maps:
        matrix = np.kron(matrix, m.matrix)
        dom = dom + m.domain
        cod = cod + m.codomain
    return LinearMap(matrix, dom, cod)


def _positions(systems, refs) -> list[int]:
    """Positions in ``systems`` of ``refs``, which must be a permutation of them."""
    keys = [s.key for s in systems]
    new = [_as_key(r, systems) for r in refs]
    if sorted(new) != sorted(keys):
        raise ValueError(f"{new} is not a permutation of {keys}")
    return [keys.index(k) for k in new]


def permute_map(m: LinearMap, domain=None, codomain=None) -> LinearMap:
    """Same map with domain/codomain systems listed in a new order."""
    n = len(m.codomain)
    cod = list(range(n)) if codomain is None else _positions(m.codomain, codomain)
    dom = list(range(len(m.domain))) if domain is None else _positions(m.domain, domain)
    dims = [s.dim for s in m.codomain + m.domain]
    t = m.matrix.reshape(dims).transpose(cod + [n + p for p in dom])
    return LinearMap(
        t.reshape(m.matrix.shape),
        tuple(m.domain[p] for p in dom),
        tuple(m.codomain[p] for p in cod),
    )


def compose_maps(f: LinearMap, g: LinearMap) -> LinearMap:
    """f after g; g's codomain must be a permutation of f's domain."""
    g_aligned = permute_map(g, codomain=f.domain)
    return LinearMap(f.matrix @ g_aligned.matrix, g.domain, f.codomain)


def apply_stage(current: LinearMap, stage: LinearMap) -> LinearMap:
    """Compose ``stage`` onto the part of ``current``'s codomain it consumes.

    Inputs of the stage that ``current`` does not output are fresh: they join
    ``current`` through an identity, listed after its own domain and codomain.
    Systems of the codomain not in the stage's domain pass through unchanged and
    are listed after the stage's codomain in the result.
    """
    outputs = {s.key for s in current.codomain}
    fresh = [s for s in stage.domain if s.key not in outputs]
    if fresh:
        current = tensor_maps(current, identity_map(fresh))
    stage_keys = {s.key for s in stage.domain}
    rest = [s for s in current.codomain if s.key not in stage_keys]
    full_stage = tensor_maps(stage, identity_map(rest))
    return compose_maps(full_stage, current)


def is_unitary(m: LinearMap, tol: float = 1e-9) -> bool:
    a = m.matrix
    if a.shape[0] != a.shape[1]:
        return False
    return bool(np.linalg.norm(a.conj().T @ a - np.eye(a.shape[0])) <= tol * a.shape[0])


def cj_operator(m: LinearMap) -> LabeledOperator:
    """CJ operator of the channel X -> m X m†, on codomain ⊗ dual(domain).

    For an isometry V this is the rank-one operator |v><v| with
    v[(out, in)] = V[out, in]; general channels sum this over Kraus terms.
    A float or complex map whose operator is sparse by ``sorted_coo``'s rule
    gives it as sorted COO, built from the map's stored entries alone, with
    the entries ``np.outer`` would give. The operator keeps a read-only copy
    of v (``_cj_vector``). Raises ValueError before allocating when the
    operator, or the products its entries are built from, exceed
    ``MAX_DENSE_BYTES``.
    """
    v = m.matrix.reshape(-1)
    systems = m.codomain + tuple(dual(s) for s in m.domain)
    entries = _outer_entries(v) if v.dtype in (np.float64, np.complex128) else None
    if entries is None:
        _budget(16 * v.size**2, f"a dense {v.size}-dim operator")
        op = LabeledOperator(systems, np.outer(v, v.conj()))
    else:
        op = _from_entries(systems, *entries)
    _set_storage(op, op.systems, op._dense, op._coo, v.copy())
    return op


def _outer_entries(v: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``sorted_coo(np.outer(v, v.conj()))`` without forming the outer product.

    Let S be the entries of v that ``sorted_coo`` stores. Outside the rows and
    columns in S every product is +0.0·+0.0 = +0.0. A product of an entry in
    S with +0.0 can still be a stored -0.0 (e.g. (+0.0)·(-1.0)); it is the
    same along that entry's row or column, so one product decides the line.
    Raises ValueError before the products are formed when the ones it may
    store exceed ``MAX_DENSE_BYTES`` at ``_OUTER_BYTES`` each.
    """
    side = v.size
    mask = _stored(v)
    s, rest = np.flatnonzero(mask), np.flatnonzero(~mask)
    if 4 * s.size**2 > side * side:  # the products within S alone make it dense
        return None
    zero = np.zeros(1, dtype=v.dtype)
    row = np.outer(v[s], zero.conj())[:, 0]  # v[i]·conj(0), i in S
    col = np.outer(zero, v[s].conj())[0]  # 0·conj(v[j]), j in S
    rows, cols = _stored(row), _stored(col)
    lines = (np.count_nonzero(rows) + np.count_nonzero(cols)) * rest.size
    if 4 * lines > side * side:  # the stored lines alone make it dense
        return None
    _budget(_OUTER_BYTES * (s.size**2 + lines), f"the stored products of a {side}-entry vector")
    block = np.outer(v[s], v[s].conj()).reshape(-1)
    on = _stored(block)
    if 4 * (np.count_nonzero(on) + lines) > side * side:
        return None
    index = np.concatenate([
        (s[:, None] * side + s).reshape(-1)[on],
        (s[rows, None] * side + rest).reshape(-1),
        (rest[:, None] * side + s[cols]).reshape(-1),
    ])
    values = np.concatenate([block[on], np.repeat(row[rows], rest.size), np.tile(col[cols], rest.size)])
    order = np.argsort(index)
    return index[order], values[order]
