from __future__ import annotations

import base64
import copy

import numpy as np
import pytest

from causalproc import (
    LabeledOperator,
    LinearMap,
    QuantumNode,
    channel_from_unitary,
    identity_operator,
    make_af,
    make_af_deterministic,
    make_bw_extension,
    make_mix_example,
    make_reduced_switch,
    make_switch,
    process_operator,
    process_to_dict,
    tensor,
)
from causalproc.rand import haar_unitary, random_state


@pytest.fixture(scope="session")
def switch_up():
    return make_switch(2)


@pytest.fixture(scope="session")
def reduced_switch():
    return make_reduced_switch(2)


@pytest.fixture(scope="session")
def af_process():
    return make_af()


@pytest.fixture(scope="session")
def af_dp():
    return make_af_deterministic()


@pytest.fixture(scope="session")
def bw_up():
    return make_bw_extension()


@pytest.fixture()
def rng():
    return np.random.default_rng(20260816)


def one_way_comb(a, b, rho, u):
    """The comb in which node a reads the state rho, and node b reads what a
    emits after the unitary u and discards what it emits itself."""
    wire = channel_from_unitary(LinearMap(u, (a.out_system,), (b.in_system,)))
    return process_operator((a, b), tensor(LabeledOperator((a.in_system,), rho), wire.op, identity_operator([b.out_dual])))


def random_one_way_comb(rng, first="A", second="B"):
    """``one_way_comb`` of two qubit nodes, its state and then its unitary drawn from rng."""
    return one_way_comb(QuantumNode(first, 2, 2), QuantumNode(second, 2, 2), random_state(2, rng), haar_unitary(2, rng))


@pytest.fixture(scope="session")
def bad_docs():
    """Process-file documents that each break one header, sparse-payload,
    hex-payload, base64-payload, nested-payload, classical-payload, graph or
    metadata rule, by name; all are the mix exemplar's sparse document, or its
    nodes with a full matrix in the writer's format-4 hex document, a format-3
    base64 one or a format-2 nested one, or the af-classical table's document,
    with one entry replaced, or two for the oversized dense payloads."""
    mix = make_mix_example()
    good = process_to_dict(mix)
    index, values = good["payload"]["index"], good["payload"]["values"]
    side = 16
    assert len(index) == side
    full = (np.arange(side * side) + 1.5j).reshape(side, side) / side
    hexed = process_to_dict(process_operator(mix.nodes, LabeledOperator(mix.op.systems, full)))
    digits = hexed["payload"]
    dense = {**hexed, "format_version": 3, "payload": base64.b64encode(full.astype("<c16")).decode()}
    text = dense["payload"]
    classical = process_to_dict(make_af_deterministic())
    assert classical["payload"]["shape"] == [2, 2, 2, 2, 2, 2]
    # 16 * 256 bytes: 8192 hex digits, or 1366 groups of four base64 characters, the last one padded "=="
    assert hexed["format_version"] == 4 and len(digits) == 8192
    assert len(text) == 5464 and text.endswith("==")

    # JSON true in place of a number, which numpy would read as 1.0 beside the others
    nested_true = full.view(float).reshape(side, side, 2).tolist()
    nested_true[0][0][1] = True
    bool_values = list(classical["payload"]["values"])
    bool_values[bool_values.index(1.0)] = True

    def with_word(at, value) -> bytes:
        words = full.astype("<c16").view("<f8")
        words[at] = value
        return words.tobytes()

    def spliced(doc, at, chars):
        return {**doc, "payload": doc["payload"][:at] + chars + doc["payload"][at + len(chars):]}

    def setting(*path, value):
        doc = copy.deepcopy(good)
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return doc

    return {
        "unsorted index": setting("payload", "index", value=[index[1], index[0], *index[2:]]),
        "duplicate index": setting("payload", "index", 1, value=index[0]),
        "index past the end": setting("payload", "index", -1, value=side * side),
        "negative index": setting("payload", "index", 0, value=-1),
        "index beyond int64": setting("payload", "index", -1, value=2**70),
        "bool index": setting("payload", "index", 0, value=True),
        "float index": setting("payload", "index", 0, value=0.0),
        "fewer values than indices": setting("payload", "values", value=values[:-1]),
        "fewer indices than values": setting("payload", "index", value=index[:-1]),
        "value not a pair": setting("payload", "values", 0, value=[0.25]),
        "every value a triple": setting("payload", "values", value=[[*v, 0.0] for v in values]),
        "index not a list": setting("payload", "index", value=index[0]),
        "value not a number": setting("payload", "values", 0, value=["0.25", 0.0]),
        "infinite value": setting("payload", "values", 0, 0, value=float("inf")),
        "nan value": setting("payload", "values", 0, 1, value=float("nan")),
        "extra payload key": setting("payload", "shape", value=[side, side]),
        "nested payload a row short": setting("payload", value=[[[0.0, 0.0]] * side] * (side - 1)),
        "sparse payload in a v1 file": setting("format_version", value=1),
        "bool format_version": setting("format_version", value=True),
        "float format_version": setting("format_version", value=1.0),
        "unhashable graph vertex": setting("graph", value={"vertices": [["A"]], "edges": []}),
        "graph vertices a string": setting("graph", value={"vertices": "AB", "edges": []}),
        "number as a graph vertex": setting("graph", value={"vertices": [1, "A"], "edges": [[1, "A"]]}),
        "graph edge an object": setting("graph", value={"vertices": ["A", "B"], "edges": [{"A": 1, "B": 2}]}),
        "bool in a sparse value pair": setting("payload", "values", 0, 0, value=True),
        "bool in a nested pair": {**good, "payload": nested_true},
        "bool among classical values": {**classical, "payload": {**classical["payload"], "values": bool_values}},
        "float in a classical shape": {**classical, "payload": {**classical["payload"], "shape": [2, 2, 2, 2, 2, 2.0]}},
        "classical payload without a shape": {**classical, "payload": {"values": classical["payload"]["values"]}},
        **{f"metadata {value!r}": setting("metadata", value=value) for value in (0, False, "", [], None, "x", [1])},
        "base64 payload in a v2 file": {**dense, "format_version": 2},
        "base64 payload in a v1 file": {**dense, "format_version": 1},
        "base64 one character short": {**dense, "payload": text[:-1]},
        "base64 one character long": {**dense, "payload": text + "A"},
        "base64 without its padding": {**dense, "payload": text[:-2] + "AA"},
        "base64 non-alphabet character": spliced(dense, 100, "-"),
        "base64 non-ASCII character": spliced(dense, 100, "\u00e9"),
        "base64 embedded newline": spliced(dense, 76, "\n"),
        "base64 padding in the middle": spliced(dense, 100, "=="),
        "base64 infinite word": {**dense, "payload": base64.b64encode(with_word(5, float("inf"))).decode()},
        "base64 nan word": {**dense, "payload": base64.b64encode(with_word(6, float("nan"))).decode()},
        "base64 empty string": {**dense, "payload": ""},
        "hex payload in a v3 file": {**hexed, "format_version": 3},
        "hex payload in a v2 file": {**hexed, "format_version": 2},
        "hex one character short": {**hexed, "payload": digits[:-1]},
        "hex one character long": {**hexed, "payload": digits + "0"},
        "hex non-hex character": spliced(hexed, 100, "g"),
        "hex non-ASCII character": spliced(hexed, 100, "\u00e9"),
        "hex embedded space": spliced(hexed, 100, " "),
        "hex embedded newline": spliced(hexed, 64, "\n"),
        "hex infinite word": {**hexed, "payload": with_word(5, float("inf")).hex()},
        "hex nan word": {**hexed, "payload": with_word(6, float("nan")).hex()},
        "hex empty string": {**hexed, "payload": ""},
        # 16385 x 16385 complex entries would need more than 2**32 bytes
        "oversized declared side, hex payload": {
            **hexed,
            "nodes": [{"name": "A", "d_in": 16385, "d_out": 1, "kind": "quantum"}],
        },
        "oversized declared side, base64 payload": {
            **dense,
            "nodes": [{"name": "A", "d_in": 16385, "d_out": 1, "kind": "quantum"}],
        },
        "oversized declared side, dense payload": {
            **setting("nodes", value=[{"name": "A", "d_in": 16385, "d_out": 1, "kind": "quantum"}]),
            "payload": [],
        },
        # validating a sparse payload takes about a dozen int64 arrays per row
        "oversized declared side, sparse payload": setting(
            "nodes", value=[{"name": "A", "d_in": 2**25 + 1, "d_out": 1, "kind": "quantum"}]
        ),
    }
