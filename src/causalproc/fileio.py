"""JSON process files: dense operators with node declarations.

A file stores either a quantum process operator (complex matrix, row-major
over the canonical interleaved system order, entries as [re, im] pairs) or a
classical process table (shape plus flat row-major values). An optional graph
block carries a directed graph and a metadata block free-form data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .classical import ClassicalNode, ClassicalProcess, DeterministicProcess
from .graphs import DirectedGraph, UnitaryProcess, directed_graph
from .labeled import LabeledOperator
from .process import ProcessOperator, QuantumNode, canonical_systems, process_operator

__all__ = [
    "FORMAT_VERSION",
    "ProcessFileError",
    "LoadedProcessFile",
    "process_to_dict",
    "dict_to_process",
    "write_process_file",
    "read_process_file",
]

FORMAT_VERSION = 1


class ProcessFileError(ValueError):
    """Malformed process file (bad JSON, schema violation, or non-finite data)."""


@dataclass(frozen=True)
class LoadedProcessFile:
    kind: str
    process: object
    graph: DirectedGraph | None
    metadata: dict = field(default_factory=dict)


def _encode_matrix(m: np.ndarray):
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _decode_matrix(rows, side: int):
    if not isinstance(rows, list) or len(rows) != side:
        raise ProcessFileError(f"payload must be a {side}x{side} matrix")
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProcessFileError(f"payload entries must be [re, im] number pairs: {exc}") from exc
    if arr.shape != (side, side, 2):
        raise ProcessFileError(
            f"payload must be a {side}x{side} matrix of [re, im] pairs, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ProcessFileError("payload contains non-finite numbers")
    return arr[..., 0] + 1j * arr[..., 1]


def _graph_block(graph: DirectedGraph):
    return {
        "vertices": sorted(graph.vertices),
        "edges": [[a, b] for a, b in sorted(graph.edges)],
    }


def _parse_graph(block) -> DirectedGraph:
    try:
        vertices = list(block["vertices"])
        edges = [tuple(e) for e in block["edges"]]
    except (TypeError, KeyError) as exc:
        raise ProcessFileError(f"bad graph block: {exc!r}") from exc
    return directed_graph(vertices, edges, allow_self_loops=True)


def process_to_dict(obj, graph: DirectedGraph | None = None, metadata: dict | None = None) -> dict:
    """Serialize a process to the file schema.

    Accepts ProcessOperator, UnitaryProcess (its process is stored),
    ClassicalProcess, or DeterministicProcess (stored as its table).
    """
    if isinstance(obj, UnitaryProcess):
        obj = obj.process
    if isinstance(obj, DeterministicProcess):
        obj = obj.to_classical()
    doc: dict = {"format_version": FORMAT_VERSION}
    if isinstance(obj, ProcessOperator):
        doc["kind"] = "quantum"
        doc["nodes"] = [
            {"name": n.name, "d_in": n.d_in, "d_out": n.d_out, "kind": "quantum"}
            for n in obj.nodes
        ]
        doc["payload"] = _encode_matrix(np.asarray(obj.op.matrix, dtype=complex))
    elif isinstance(obj, ClassicalProcess):
        doc["kind"] = "classical"
        doc["nodes"] = [
            {"name": n.name, "d_in": n.in_card, "d_out": n.out_card, "kind": "classical"}
            for n in obj.nodes
        ]
        doc["payload"] = {
            "shape": list(obj.table.shape),
            "values": [float(v) for v in obj.table.reshape(-1)],
        }
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
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
    if version != FORMAT_VERSION:
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
    metadata = doc.get("metadata") or {}
    if not isinstance(metadata, dict):
        raise ProcessFileError("metadata must be an object")

    if kind == "quantum":
        nodes = tuple(QuantumNode(nm, di, do) for nm, di, do in parsed)
        side = 1
        for nm, di, do in parsed:
            side *= di * do
        m = _decode_matrix(doc.get("payload"), side)
        op = LabeledOperator(tuple(canonical_systems(nodes)), m)
        sigma = process_operator(nodes, op)
        return LoadedProcessFile("quantum", sigma, graph, metadata)

    nodes_c = tuple(ClassicalNode(nm, di, do) for nm, di, do in parsed)
    payload = doc.get("payload")
    if not isinstance(payload, dict) or "shape" not in payload or "values" not in payload:
        raise ProcessFileError("classical payload must carry 'shape' and 'values'")
    shape = payload["shape"]
    values = payload["values"]
    expect = []
    for nd in nodes_c:
        expect.extend([nd.in_card, nd.out_card])
    if list(shape) != expect:
        raise ProcessFileError(f"payload shape {shape} does not match nodes (expected {expect})")
    size = int(np.prod(expect)) if expect else 1
    if not isinstance(values, list) or len(values) != size:
        raise ProcessFileError(f"payload values must hold {size} numbers")
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ProcessFileError("payload contains non-finite numbers")
    table = arr.reshape(expect)
    kp = ClassicalProcess(nodes_c, table)
    return LoadedProcessFile("classical", kp, graph, metadata)


def write_process_file(path, obj, graph: DirectedGraph | None = None, metadata: dict | None = None) -> None:
    doc = process_to_dict(obj, graph, metadata)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")


def read_process_file(path) -> LoadedProcessFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ProcessFileError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise ProcessFileError(f"cannot read {path}: {exc.strerror}") from exc
    return dict_to_process(doc)
