"""JSON process files: quantum operators and classical tables with node declarations.

A file stores either a quantum process operator or a classical process table
(shape plus flat row-major values). The operator is a complex matrix, row-major
over the canonical interleaved system order, in one of five payloads:

- nested (format 1 on): the ``[side, side, 2]`` list of [re, im]
  pairs;
- sparse (format 2 on): sorted COO, ``{"index": [...], "values": [...]}``,
  the strictly increasing flat row-major indices of the stored entries and
  their [re, im] pairs;
- base64 (format 3 on): one string, the standard base64 (with padding, no line
  breaks) of the matrix's row-major little-endian complex128 bytes, real part
  first, so exactly ``4 * ceil(16 * side**2 / 3)`` characters;
- hex (format 4 on): one string, the lowercase hex of the same bytes, so
  exactly ``32 * side**2`` characters;
- vector (format 5 on): ``{"vector": V}``, the CJ vector v of a unitary
  process, whose operator is ``np.outer(v, v.conj())``. V is v's sorted COO
  (indices below side) if ``4 * stored <= side``, else the hex of v's bytes,
  exactly ``32 * side`` characters. The reader rebuilds the operator with
  ``labeled.cj_operator``, so it has the bits and storage of the one written.

A version admits the payloads of every earlier one; a string payload's length
picks its codec (for ``n = 16 * side**2`` bytes, ``2n`` hex characters never
equal the ``4 * ceil(n / 3)`` of base64). An entry is stored unless both of its
parts are +0.0, so -0.0 survives. An operator that keeps a complex128 CJ vector
(``labeled._cj_vector``: one built by ``cj_operator``, a unitary process among
them) is written as that vector and stamped 5. Any other is written as its
matrix: the sparse payload iff ``4 * stored <= side**2``, a rule on the matrix
alone (``labeled.sorted_coo``, which every kernel follows too; the writer asks
``labeled._sparse_entries``), and the hex one otherwise; a dense matrix is
stamped 4 and a sparse or classical file 2. So the bytes depend on whether the
operator keeps its vector: an operator read from format 1 to 4 keeps none and
is written as it was read. Either way export, import and re-export give the
same bytes, and every bit of the operator survives. The 256-dim
``random_unitary_chain(2)`` takes 8.4 KB as its vector and 2.10 MB as its
matrix, ``make_switch(8)`` 17.6 KB and 24.1 MB. An optional graph block
carries a directed graph and a metadata block free-form data.

The reader decodes a string payload from the file's bytes, without the JSON
parser ever seeing it, where a rule proves that this reads the same document as
the whole-text parse: the first ``"payload":"`` must start the one top-level
``payload`` key, and the bytes up to the next ``"`` must be ASCII from 0x20 up
with no backslash (``_located`` states the rule in full; the writer's files
meet it). Any other file is parsed whole, which raises every message. A number
in a list payload must be a JSON number: a boolean is refused.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

import causalproc as cp

from . import _EXPORTS
from .graphs import DirectedGraph
from .labeled import (
    MAX_DENSE_BYTES,
    LabeledOperator,
    LinearMap,
    _cj_vector,
    _from_entries,
    _sparse_entries,
    _stored,
    cj_operator,
)
from .process import ProcessOperator, QuantumNode, canonical_systems, process_operator

__all__ = _EXPORTS["fileio"]

# The newest format, which a file holding a CJ vector is stamped with; a dense
# matrix is stamped 4 and a sparse or classical file 2, so their bytes are
# those of the format-4 and format-2 writers.
FORMAT_VERSION = 5
READ_VERSIONS = (1, 2, 3, 4, 5)
# A sparse payload allocates no side x side array; validating it (labeled._blocks)
# peaks at about a dozen int64 arrays of one entry per row, bounded here by 16.
# So side <= 2**25, and every flat index (below side**2) fits in an int64.
SPARSE_BYTES_PER_ROW = 16 * 8


class ProcessFileError(ValueError):
    """Malformed process file (bad JSON, schema violation, or non-finite data)."""


@dataclass(frozen=True)
class LoadedProcessFile:
    """A process file as read: its kind ("quantum" or "classical"), the
    process, the graph block if present and the metadata block."""

    kind: str
    process: object
    graph: DirectedGraph | None
    metadata: dict = field(default_factory=dict)


def _coo(index: np.ndarray, values: np.ndarray) -> dict:
    pairs = np.asarray(values, dtype=complex).view(float).reshape(-1, 2)
    return {"index": index.tolist(), "values": pairs.tolist()}


def _encode_matrix(op: LabeledOperator) -> tuple[int, object]:
    """The format version and payload of an operator. One that keeps a
    complex128 CJ vector v (``labeled._cj_vector``) is written as v (format
    5): sorted COO if ``4 * stored <= side``, else its hex digits. Any other
    is written as its matrix: sorted COO (format 2) if
    ``labeled._sparse_entries`` finds it sparse, else the hex digits as ASCII
    bytes (format 4)."""
    if (v := _cj_vector(op)) is not None and v.dtype == np.complex128:
        index = np.flatnonzero(_stored(v))
        if 4 * index.size <= v.size:
            return 5, {"vector": _coo(index, v[index])}
        return 5, {"vector": binascii.b2a_hex(v.astype("<c16", copy=False)).decode("ascii")}
    if (entries := _sparse_entries(op)) is not None:
        return 2, _coo(*entries)
    # b2a_hex reads the array's buffer: no bytes copy of the matrix
    return 4, binascii.b2a_hex(np.ascontiguousarray(op.matrix, dtype="<c16"))


def _finite_numbers(items, shape: tuple, what: str) -> np.ndarray:
    """``items``, lists nested to the given shape, as a float array. Each leaf
    must be a finite JSON number, an int or a float: not a boolean, which
    numpy would read as 0 or 1 beside a number."""
    leaves = [items]
    for n in shape:
        try:
            regular = set(map(len, leaves)) <= {n}
        except TypeError:  # a number where a list belongs
            regular = False
        if not regular:
            raise ProcessFileError(f"{what} must have shape {list(shape)}")
        leaves = list(chain.from_iterable(leaves))
    # what JSON writes as a number: an int or a float, not a bool. A string or
    # an object where a list belongs has left its characters or keys here.
    types = set(map(type, leaves))
    if bool in types or not all(issubclass(t, (int, float)) for t in types):
        raise ProcessFileError(f"{what} must hold numbers only")
    # ints are read as numpy reads them, so one beyond int64 makes an object array
    floats = all(issubclass(t, float) for t in types)
    arr = np.array(leaves, dtype=float if floats else None)
    if arr.dtype.kind not in "iuf":
        raise ProcessFileError(f"{what} must hold numbers only")
    arr = arr.astype(float, copy=False).reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise ProcessFileError(f"{what} contains non-finite numbers")
    return arr


def _decode_dense(rows, side: int) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != side:
        raise ProcessFileError(f"payload must be a {side}x{side} matrix")
    arr = _finite_numbers(rows, (side, side, 2), "payload of [re, im] pairs")
    return arr.view(complex).reshape(side, side)


def _decode_string(text: str | memoryview, side: int, version: int) -> np.ndarray:
    """The matrix in a string payload, given as text or as the file's bytes
    between its quotes (``_load``'s view): hex (format 4) if it has two
    characters per byte, else base64 (format 3)."""
    nbytes = 16 * side * side
    if len(text) == 2 * nbytes:
        codec, since = "hex", 4
    else:
        codec, since, length = "base64", 3, 4 * -(-nbytes // 3)
        if len(text) != length:
            raise ProcessFileError(
                f"string payload of a {side}x{side} matrix must be {2 * nbytes} (hex)"
                f" or {length} (base64) characters, got {len(text)}"
            )
    if version < since:
        raise ProcessFileError(f"a {codec} payload needs format_version {since}")
    return _decoded(text, codec, nbytes).reshape(side, side)


def _decoded(text: str | memoryview, codec: str, nbytes: int) -> np.ndarray:
    """The complex128 entries in ``nbytes`` bytes of hex or base64 text, whose
    length is checked; refuses a malformed text and a non-finite number."""
    try:
        # Both raise binascii.Error, a ValueError, on a character outside the
        # codec's alphabet (a line break included), and a ValueError on a
        # non-ASCII one; validate=True also refuses base64 padding before the end.
        raw = binascii.a2b_hex(text) if codec == "hex" else base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise ProcessFileError(f"{codec} payload is malformed: {exc}") from exc
    if len(raw) != nbytes:
        raise ProcessFileError(f"{codec} payload decodes to {len(raw)} bytes, not {nbytes}")
    # a read-only view of the decoded bytes; only a big-endian host copies
    m = np.frombuffer(raw, dtype="<c16").astype(complex, copy=False)
    if not np.all(np.isfinite(m.view(float))):
        raise ProcessFileError(f"{codec} payload contains non-finite numbers")
    return m


def _decode_sparse(payload: dict, size: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The indices below ``size`` and the entries of a sorted-COO payload of ``what``."""
    if set(payload) != {"index", "values"}:
        raise ProcessFileError("sparse payload must hold exactly 'index' and 'values'")
    index, values = payload["index"], payload["values"]
    if not isinstance(index, list) or not isinstance(values, list):
        raise ProcessFileError("sparse 'index' and 'values' must be lists")
    if len(index) != len(values):
        raise ProcessFileError(f"sparse payload has {len(index)} indices but {len(values)} values")
    if not set(map(type, index)) <= {int}:  # refuses bool, float and the rest
        raise ProcessFileError("sparse indices must be integers")
    try:
        idx = np.array(index, dtype=np.int64)
    except OverflowError as exc:
        raise ProcessFileError("sparse index out of range") from exc
    if idx.size and (idx[0] < 0 or idx[-1] >= size):
        raise ProcessFileError(f"sparse index out of range for {what}")
    if np.any(idx[1:] <= idx[:-1]):
        raise ProcessFileError("sparse indices must be strictly increasing")
    pairs = _finite_numbers(values, (idx.size, 2), "sparse values")
    return idx, pairs.view(complex)[:, 0]


def _vector_operator(payload: dict, systems, side: int, version: int) -> LabeledOperator:
    """σ = vv† of the CJ vector v of ``side`` entries in a format-5 payload
    (its hex digits, exactly ``32 * side`` of them, or its sorted COO),
    rebuilt by ``cj_operator``: the bits, storage and kept vector of the
    operator that was written. ``cj_operator`` refuses a σ that would need
    more than ``MAX_DENSE_BYTES`` before it allocates it."""
    if version < 5:
        raise ProcessFileError("a vector payload needs format_version 5")
    if set(payload) != {"vector"}:
        raise ProcessFileError("vector payload must hold exactly 'vector'")
    vector = payload["vector"]
    if isinstance(vector, str):
        if len(vector) != 32 * side:
            raise ProcessFileError(f"hex vector of {side} entries must be {32 * side} characters, got {len(vector)}")
        v = _decoded(vector, "hex", 16 * side)
    elif isinstance(vector, dict):
        index, values = _decode_sparse(vector, side, f"a vector of {side} entries")
        v = np.zeros(side, dtype=complex)
        v[index] = values
    else:
        raise ProcessFileError("a vector must be a hex string or sorted COO")
    one_column = LinearMap(v.reshape(side, 1), (), systems)
    try:
        return cj_operator(one_column)
    except ValueError as exc:  # labeled._budget
        raise ProcessFileError(f"declared operator is {side}x{side}; built from its vector, {exc}") from exc


def _graph_block(graph: DirectedGraph):
    bad = [v for v in graph.vertices if not isinstance(v, str)]
    if bad:
        raise ValueError(f"graph vertices must be strings to be written, got {bad[0]!r}")
    return {
        "vertices": sorted(graph.vertices),
        "edges": [[a, b] for a, b in sorted(graph.edges)],
    }


def _parse_graph(block) -> DirectedGraph:
    try:
        vertices, edges = block["vertices"], block["edges"]
        ends = [v for e in edges if isinstance(e, list) and len(e) == 2 for v in e]
        if (not isinstance(vertices, list) or not isinstance(edges, list) or len(ends) < 2 * len(edges)
                or not all(isinstance(v, str) for v in vertices + ends)):
            raise ValueError("vertices must be a list of strings and each edge a list of two")
        return DirectedGraph(vertices, edges)
    except (TypeError, KeyError, ValueError) as exc:
        raise ProcessFileError(f"bad graph block: {exc!r}") from exc


def process_to_dict(obj, graph: DirectedGraph | None = None, metadata: dict | None = None) -> dict:
    """Serialize a process to the file schema.

    Accepts ProcessOperator (a UnitaryProcess among them), ClassicalProcess,
    or DeterministicProcess (stored as its table). The classical module is
    imported only for an object that is not a ProcessOperator.
    """
    doc = _document(obj, graph, metadata)
    if isinstance(doc["payload"], bytes):
        doc["payload"] = doc["payload"].decode("ascii")
    return doc


def _document(obj, graph: DirectedGraph | None, metadata: dict | None) -> dict:
    """``process_to_dict``'s document, with a hex payload kept as ASCII bytes."""
    doc: dict = {"format_version": 2}
    if isinstance(obj, ProcessOperator):
        doc["kind"] = "quantum"
        doc["nodes"] = [
            {"name": n.name, "d_in": n.d_in, "d_out": n.d_out, "kind": "quantum"}
            for n in obj.nodes
        ]
        doc["format_version"], doc["payload"] = _encode_matrix(obj.op)
    else:
        if isinstance(obj, cp.DeterministicProcess):
            obj = obj.to_classical()
        if not isinstance(obj, cp.ClassicalProcess):
            raise TypeError(f"cannot serialize {type(obj).__name__}")
        doc["kind"] = "classical"
        doc["nodes"] = [
            {"name": n.name, "d_in": n.in_card, "d_out": n.out_card, "kind": "classical"}
            for n in obj.nodes
        ]
        doc["payload"] = {
            "shape": list(obj.table.shape),
            "values": obj.table.reshape(-1).astype(float).tolist(),
        }
    if graph is not None:
        doc["graph"] = _graph_block(graph)
    if metadata:
        doc["metadata"] = metadata
    return doc


def dict_to_process(doc) -> LoadedProcessFile:
    """Parse a schema dict back into a process object."""
    if not isinstance(doc, dict):
        raise ProcessFileError("top level must be a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version not in READ_VERSIONS:
        raise ProcessFileError(f"unsupported format_version {version!r}")
    kind = doc.get("kind")
    if kind not in ("quantum", "classical"):
        raise ProcessFileError(f"kind must be 'quantum' or 'classical', got {kind!r}")
    nodes_raw = doc.get("nodes")
    if not isinstance(nodes_raw, list) or not nodes_raw:
        raise ProcessFileError("nodes must be a nonempty list")
    parsed = []
    for i, nd in enumerate(nodes_raw):
        try:
            name = nd["name"]
            d_in = nd["d_in"]
            d_out = nd["d_out"]
        except (TypeError, KeyError) as exc:
            raise ProcessFileError(f"node {i} is missing a field: {exc!r}") from exc
        if not isinstance(name, str) or not name:
            raise ProcessFileError(f"node {i} has an invalid name")
        if any(isinstance(d, bool) or not isinstance(d, int) or d < 1 for d in (d_in, d_out)):
            raise ProcessFileError(f"node {name!r} has invalid dimensions")
        parsed.append((name, d_in, d_out))
    names = [name for name, _, _ in parsed]
    if len(set(names)) != len(names):
        raise ProcessFileError(f"duplicate node names: {names}")

    graph = _parse_graph(doc["graph"]) if "graph" in doc else None
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ProcessFileError("metadata must be an object")

    payload = doc.get("payload")
    if kind == "quantum":
        nodes = tuple(QuantumNode(nm, di, do) for nm, di, do in parsed)
        side = math.prod(di * do for _, di, do in parsed)
        dense = not isinstance(payload, dict)
        if (16 * side * side if dense else SPARSE_BYTES_PER_ROW * side) > MAX_DENSE_BYTES:
            raise ProcessFileError(
                f"declared operator is {side}x{side}; its {'dense matrix' if dense else 'sparse validation'}"
                f" would need more than {MAX_DENSE_BYTES} bytes"
            )
        systems = tuple(canonical_systems(nodes))
        if isinstance(payload, (str, memoryview)):
            op = LabeledOperator(systems, _decode_string(payload, side, version))
        elif dense:
            op = LabeledOperator(systems, _decode_dense(payload, side))
        elif "vector" in payload:
            op = _vector_operator(payload, systems, side, version)
        elif version >= 2:
            op = _from_entries(systems, *_decode_sparse(payload, side * side, f"a {side}x{side} matrix"))
        else:
            raise ProcessFileError("a sparse payload needs format_version 2")
        sigma = process_operator(nodes, op)
        return LoadedProcessFile("quantum", sigma, graph, metadata)

    nodes_c = tuple(cp.ClassicalNode(nm, di, do) for nm, di, do in parsed)
    if not isinstance(payload, dict) or "shape" not in payload or "values" not in payload:
        raise ProcessFileError("classical payload must carry 'shape' and 'values'")
    shape = payload["shape"]
    values = payload["values"]
    expect = [c for nd in nodes_c for c in (nd.in_card, nd.out_card)]
    if not isinstance(shape, list) or any(isinstance(c, bool) or not isinstance(c, int) for c in shape) or shape != expect:
        raise ProcessFileError(f"payload shape {shape!r} is not {expect}, the nodes' cardinalities as integers")
    size = math.prod(expect)
    if not isinstance(values, list) or len(values) != size:
        raise ProcessFileError(f"payload values must hold {size} numbers")
    table = _finite_numbers(values, (size,), "payload values").reshape(expect)
    kp = cp.ClassicalProcess(nodes_c, table)
    return LoadedProcessFile("classical", kp, graph, metadata)


def _dumps(doc: dict) -> bytes:
    return json.dumps(doc, separators=(",", ":")).encode("ascii")


def write_process_file(path, obj, graph: DirectedGraph | None = None, metadata: dict | None = None) -> None:
    """Write ``obj`` (and the optional graph and metadata) as a process file.

    The file is exactly ``json.dumps(process_to_dict(obj, graph, metadata),
    separators=(",", ":")) + "\\n"``, ASCII. A hex payload never needs
    escaping, so its bytes are written as they are between the two halves of
    the rest of the document instead of going through the JSON encoder.
    Everything is encoded before the file is opened, so a document that cannot
    be encoded leaves the file at ``path`` as it was.
    """
    doc = _document(obj, graph, metadata)
    payload = doc["payload"]
    if isinstance(payload, bytes):
        # Split at the first '"payload":""'. Its '"' after 'd' is unescaped (a
        # '"' inside a JSON string is written '\"'), so it ends a string, and
        # the ':' after it makes that string a key whose text ends in 'payload'.
        # The keys written before "payload" (format_version, kind, nodes and
        # each node's name, d_in, d_out and kind) do not; graph and metadata
        # come after it. So the first match is the payload key and its value.
        doc["payload"] = ""
        head, tail = _dumps(doc).split(b'"payload":""', 1)
        chunks = (head, b'"payload":"', payload, b'"', tail, b"\n")
    else:
        chunks = (_dumps(doc), b"\n")
    with open(path, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)


def _object_pairs(text: str) -> list:
    """The key-value pairs of the top-level object in ``text``, which starts
    with ``{`` or ends with ``}``: the object that closes last. Raises what
    ``json.loads(text)`` raises."""
    last: list = []

    def keep(pairs):
        last[:] = pairs
        return dict(pairs)

    json.loads(text, object_pairs_hook=keep)
    return last


def _located(data: bytes) -> dict | None:
    """``json.loads(data)`` with its top-level string payload left in ``data``,
    as a read-only view of the bytes between its quotes, or None where the
    rule below cannot prove that equality.

    Take the first ``"payload":"`` at byte i and the next ``"`` after it at
    byte j. The bytes between them must be ASCII from 0x20 up (JSON admits
    each unescaped, DEL included) with no backslash, so that they are the
    string's characters as they are. ``data[:i] + '"payload":""}'`` must
    parse with ``payload`` as its top-level object's last key, which proves
    that byte i starts a top-level key, and ``'{"payload":""' + data[j+1:]``
    must parse, which proves that the rest of the document follows the
    string. Neither part may hold another top-level
    ``payload`` key (however escaped), so the last-wins rule keeps this one.
    The document is then the first part's pairs, the payload and the second
    part's pairs: the same keys, values and key order as the whole parse.
    """
    i = data.find(b'"payload":"')
    start, end = i + 11, data.find(b'"', i + 11)
    # as int8, a byte from 0x80 up (not ASCII) is negative: one minimum checks both ends
    if (i < 0 or end < 0 or data.find(b"\\", start, end) >= 0
            or np.frombuffer(data, np.int8, end - start, start).min(initial=0x20) < 0x20):
        return None
    try:
        head = _object_pairs(data[:i].decode("utf-8") + '"payload":""}')
        tail = _object_pairs('{"payload":""' + data[end + 1:].decode("utf-8"))
    except (ValueError, RecursionError):
        return None
    pairs = head[:-1] + tail[1:]
    if head[-1][0] != "payload" or any(key == "payload" for key, _ in pairs):
        return None
    doc = dict(head[:-1])
    doc["payload"] = memoryview(data)[start:end]
    doc.update(tail[1:])
    return doc


def _load(path, digest=None) -> dict:
    """The JSON document in the file at ``path``, whose bytes are read once.
    ``digest`` (a hashlib object), if given, is updated with those bytes.

    A top-level string payload that ``_located`` finds stays in the bytes, and
    only the rest of the document goes through the JSON parser, so neither the
    file's text nor the payload's ever exists. Any other file is decoded and
    parsed whole, the bytes dropped first; that parse raises every message.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ProcessFileError(f"cannot read {path}: {exc.strerror}") from exc
    if digest is not None:
        digest.update(data)
    if (doc := _located(data)) is not None:
        return doc
    try:
        text = data.decode("utf-8")
        del data  # the bytes are not kept while the text is parsed
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProcessFileError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ProcessFileError(f"file is not UTF-8 text: {exc.reason}") from exc
    except RecursionError as exc:
        raise ProcessFileError("JSON nested too deeply") from exc


def read_process_file(path) -> LoadedProcessFile:
    return dict_to_process(_load(path))
