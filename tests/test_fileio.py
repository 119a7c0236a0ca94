from __future__ import annotations

import base64
import binascii
import copy
import functools
import hashlib
import json
import math
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalproc import (
    FORMAT_VERSION,
    LabeledOperator,
    LinearMap,
    ProcessFileError,
    QuantumNode,
    af_causal_graph,
    causal_structure_deterministic,
    cj_operator,
    dict_to_process,
    directed_graph,
    make_af,
    make_af_deterministic,
    make_methods_counterexample,
    make_mix_example,
    make_reduced_switch,
    make_switch,
    process_operator,
    process_to_dict,
    random_unitary_chain,
    read_process_file,
    validate_process,
    write_process_file,
)
from causalproc import fileio
from causalproc.labeled import _cj_vector, _entries, _sparse_entries
from causalproc.process import canonical_systems

DATA = Path(__file__).parent / "data"


def without_vector(sigma):
    """``sigma`` on a copy of its matrix, which keeps no CJ vector: a file
    stores its matrix (format 2 or 4), not its vector (format 5)."""
    return process_operator(sigma.nodes, LabeledOperator(sigma.op.systems, sigma.op.matrix.copy()))


def dense_chain():
    """A process whose every entry is nonzero and that keeps no CJ vector, so
    files store its matrix dense (format 4)."""
    return without_vector(random_unitary_chain(1, np.random.default_rng(5)))


def bits(m: np.ndarray) -> np.ndarray:
    """The raw float64 words of a complex matrix: tells -0.0 from 0.0."""
    return np.ascontiguousarray(m, dtype=complex).view(np.uint64)


def with_matrix(sigma, m: np.ndarray):
    return process_operator(sigma.nodes, LabeledOperator(sigma.op.systems, m))


def nested(doc: dict, m: np.ndarray, version: int = 2) -> dict:
    """``doc`` with ``m`` in the nested [side, side, 2] payload of formats 1 and 2."""
    side = m.shape[0]
    return {**doc, "format_version": version, "payload": bits(m).view(float).reshape(side, side, 2).tolist()}


def base64_doc(doc: dict, m: np.ndarray) -> dict:
    """``doc`` with ``m`` in the base64 payload of format 3."""
    return {**doc, "format_version": 3, "payload": base64.b64encode(np.ascontiguousarray(m, dtype="<c16")).decode()}


def base64_words(text: str) -> np.ndarray:
    """The float64 words of a format-3 base64 payload, in file order."""
    return np.frombuffer(base64.b64decode(text, validate=True), dtype="<u8")


def hex_words(text: str) -> np.ndarray:
    """The float64 words of a format-4 hex payload, in file order."""
    return np.frombuffer(binascii.a2b_hex(text), dtype="<u8")


def test_quantum_round_trip_bit_exact(tmp_path):
    sigma = make_mix_example()
    path = tmp_path / "mix.json"
    write_process_file(path, sigma)
    loaded = read_process_file(path)
    assert loaded.kind == "quantum"
    assert [n.name for n in loaded.process.nodes] == ["A", "B"]
    assert np.array_equal(loaded.process.op.matrix, sigma.op.matrix)
    # a second export of the loaded process is byte-identical
    path2 = tmp_path / "mix2.json"
    write_process_file(path2, loaded.process)
    assert path.read_bytes() == path2.read_bytes()


def test_classical_round_trip_bit_exact(tmp_path):
    kp = make_methods_counterexample().combined([0.3, 0.7])
    path = tmp_path / "ce.json"
    write_process_file(path, kp)
    loaded = read_process_file(path)
    assert loaded.kind == "classical"
    assert np.array_equal(loaded.process.table, kp.table)
    path2 = tmp_path / "ce2.json"
    write_process_file(path2, loaded.process)
    assert path.read_bytes() == path2.read_bytes()


def test_graph_and_metadata_survive(tmp_path):
    sigma = make_af()
    path = tmp_path / "af.json"
    write_process_file(path, sigma, graph=af_causal_graph(), metadata={"label": "triangle"})
    loaded = read_process_file(path)
    assert loaded.graph is not None
    assert loaded.graph.edges == af_causal_graph().edges
    assert loaded.metadata["label"] == "triangle"


def test_a_graph_block_with_a_self_loop_reads():
    # a file's graph is read as written, self-loops included, while an edge
    # to a vertex the block does not list is refused
    doc = process_to_dict(make_af(), af_causal_graph())
    doc["graph"]["edges"].append(["A", "A"])
    assert dict_to_process(doc).graph.edges == af_causal_graph().edges | {("A", "A")}
    doc["graph"]["edges"].append(["A", "Z"])
    with pytest.raises(ProcessFileError, match="bad graph block.*leaves the vertex set"):
        dict_to_process(doc)


def test_deterministic_process_saves_as_classical(tmp_path):
    dp = make_af_deterministic()
    doc = process_to_dict(dp)
    assert doc["kind"] == "classical"
    # a classical file keeps the stamp of the format-2 writer
    assert doc["format_version"] == 2 < FORMAT_VERSION == 5
    back = dict_to_process(doc)
    assert np.array_equal(back.process.table, dp.to_classical().table)


def test_complex_payload_encoding(tmp_path):
    sigma = dense_chain()
    m = sigma.op.matrix
    side = m.shape[0]
    # format 4: one lowercase hex string of the row-major little-endian complex128 bytes
    doc = process_to_dict(sigma)
    assert doc["format_version"] == 4 and isinstance(doc["payload"], str)
    assert len(doc["payload"]) == 32 * side * side and doc["payload"] == doc["payload"].lower()
    assert np.array_equal(hex_words(doc["payload"]), bits(m).reshape(-1))
    # format 3: one base64 string of the same bytes, still read bit-exact
    v3 = base64_doc(doc, m)
    assert len(v3["payload"]) == 4 * math.ceil(16 * side * side / 3)
    assert np.array_equal(base64_words(v3["payload"]), bits(m).reshape(-1))
    assert np.array_equal(bits(dict_to_process(v3).process.op.matrix), bits(m))
    # format 2: the nested [side, side, 2] list of [re, im] pairs, still read bit-exact
    v2 = nested(doc, m)
    payload = np.asarray(v2["payload"])
    assert payload.shape == (side, side, 2)
    assert np.array_equal(payload[..., 0] + 1j * payload[..., 1], m)
    assert np.array_equal(bits(dict_to_process(v2).process.op.matrix), bits(m))
    # the mix exemplar is diagonal: sorted COO over flat row-major indices
    mix = make_mix_example()
    sparse = process_to_dict(mix)["payload"]
    side = mix.op.matrix.shape[0]
    assert sparse["index"] == [i * side + i for i in range(side)]
    values = np.asarray(sparse["values"])
    assert values.shape == (side, 2)
    assert np.array_equal(values[:, 0] + 1j * values[:, 1], np.diag(mix.op.matrix))


def canonical_bytes(obj, graph=None, metadata=None) -> bytes:
    return json.dumps(process_to_dict(obj, graph, metadata), separators=(",", ":")).encode() + b"\n"


# free-form text that the JSON encoder must escape, and the text the writer splits at
TRICKY = ['"payload":""', 'a"payload":"b', "\\", '\\"payload":""', "é ∑ 😀", "payload", ""]


def tricky_dense_process():
    """A dense 4-dim process whose node names hold escaped and non-ASCII text."""
    nodes = [QuantumNode('"payload":""', 2, 1), QuantumNode("é\\payload", 1, 2)]
    m = np.arange(16).reshape(4, 4) + 0.5j
    return process_operator(nodes, LabeledOperator(tuple(canonical_systems(nodes)), m))


def test_written_bytes_are_the_canonical_json(tmp_path):
    chain = dense_chain()
    names = [n.name for n in chain.nodes]
    chain_graph = directed_graph(names, zip(names, names[1:]))
    tricky = tricky_dense_process()
    tricky_graph = directed_graph([n.name for n in tricky.nodes], [[n.name for n in tricky.nodes]])
    metadata = {
        "payload": TRICKY,
        '"payload":""': {text: text for text in TRICKY},
        "description": 'quotes " and backslashes \\ in "payload":"" ünïcödé',
        # each encodes to a second '"payload":""' in the document
        "nested": {"payload": "", 'x"payload': ""},
    }
    dp = make_af_deterministic()
    cases = [
        (chain, None, None),
        (chain, chain_graph, None),
        (chain, None, metadata),
        (chain, chain_graph, metadata),
        (tricky, tricky_graph, metadata),
        (make_mix_example(), None, metadata),
        (make_switch(2), None, None),
        (make_af(), af_causal_graph(), metadata),
        (make_methods_counterexample().combined([0.3, 0.7]), None, metadata),
        (dp, causal_structure_deterministic(dp), metadata),
    ]
    for i, (obj, graph, meta) in enumerate(cases):
        path = tmp_path / f"case{i}.json"
        write_process_file(path, obj, graph=graph, metadata=meta)
        assert path.read_bytes() == canonical_bytes(obj, graph, meta), i
    # the dense cases took the hex payload
    assert isinstance(process_to_dict(chain)["payload"], str)
    assert isinstance(process_to_dict(tricky)["payload"], str)


@settings(max_examples=100, deadline=None)
@given(metadata=st.dictionaries(st.sampled_from(TRICKY) | st.text(max_size=6), st.sampled_from(TRICKY) | st.text()))
def test_written_dense_bytes_are_canonical_for_any_metadata(metadata, tmp_path_factory):
    path = tmp_path_factory.mktemp("canonical") / "tricky.json"
    sigma = tricky_dense_process()
    write_process_file(path, sigma, metadata=metadata)
    assert path.read_bytes() == canonical_bytes(sigma, None, metadata)
    assert read_process_file(path).metadata == metadata


def test_a_failed_encode_leaves_the_target_alone(tmp_path):
    # a set is not JSON: the writer raises before it opens the file
    for name, obj in (("dense", dense_chain()), ("sparse", make_mix_example()), ("classical", make_af_deterministic())):
        path = tmp_path / f"{name}.json"
        write_process_file(path, obj)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_process_file(path, obj, metadata={"tags": {1, 2}})
        assert path.read_bytes() == before, name
        missing = tmp_path / f"{name}-missing.json"
        with pytest.raises(TypeError):
            write_process_file(missing, obj, metadata={"tags": {1, 2}})
        assert not missing.exists(), name


def test_a_graph_with_a_vertex_that_is_not_a_string_is_refused_before_writing(tmp_path):
    # a file's graph block holds strings only: dict_to_process refuses [1, 2],
    # and sorting [1, "A"] would raise TypeError
    path = tmp_path / "af.json"
    write_process_file(path, make_af())
    before = path.read_bytes()
    for graph in (directed_graph([1, 2], [(1, 2)]), directed_graph([1, "A"], [(1, "A")])):
        with pytest.raises(ValueError, match="^graph vertices must be strings to be written, got 1$"):
            process_to_dict(make_af(), graph=graph)
        with pytest.raises(ValueError, match="graph vertices must be strings"):
            write_process_file(path, make_af(), graph=graph)
        assert path.read_bytes() == before


def test_only_processes_are_serialized():
    with pytest.raises(TypeError, match="^cannot serialize object$"):
        process_to_dict(object())


def test_read_errors_keep_their_messages(tmp_path):
    path = tmp_path / "bad.json"
    for newline in ("\n", "\r\n"):
        path.write_bytes(newline.join(["{", ' "format_version": 1,', ' "nodes": [}']).encode())
        with pytest.raises(ProcessFileError, match=r"^invalid JSON at line 3, column 12: Expecting value$"):
            read_process_file(path)
    path.write_bytes(b'{"a": "\xff"}')
    with pytest.raises(ProcessFileError, match="^file is not UTF-8 text: invalid start byte$"):
        read_process_file(path)
    path.write_bytes(b"[" * 100_000 + b"]" * 100_000)
    with pytest.raises(ProcessFileError, match="^JSON nested too deeply$"):
        read_process_file(path)
    with pytest.raises(ProcessFileError, match="^cannot read .*nope.json: No such file or directory$"):
        read_process_file(tmp_path / "nope.json")


def test_invalid_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format_version": 1, "nodes": [}')
    with pytest.raises(ProcessFileError) as err:
        read_process_file(path)
    assert "line" in str(err.value)


def test_deeply_nested_json_rejected(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ProcessFileError):
        read_process_file(path)


def test_missing_file_raises(tmp_path):
    with pytest.raises(ProcessFileError) as err:
        read_process_file(tmp_path / "nope.json")
    assert "cannot read" in str(err.value)


def test_wrong_payload_shape_rejected(tmp_path):
    sigma = dense_chain()
    doc = process_to_dict(sigma)
    doc["payload"] = doc["payload"][:-1]
    with pytest.raises(ProcessFileError):
        dict_to_process(doc)
    sparse = process_to_dict(make_mix_example())
    sparse["payload"]["values"] = sparse["payload"]["values"][:-1]
    with pytest.raises(ProcessFileError):
        dict_to_process(sparse)


@pytest.mark.parametrize("literal", ["true", "1.0"])
def test_sparse_index_that_is_not_an_integer_is_refused(tmp_path, literal):
    # index 1 of the mix exemplar is side + 1, so a 1 there stays in range and increasing
    doc = process_to_dict(make_mix_example())
    text = json.dumps(doc).replace(f'"index": [0, {doc["payload"]["index"][1]},', f'"index": [0, {literal},', 1)
    assert literal in text
    (tmp_path / "p.json").write_text(text)
    for read in (lambda: dict_to_process(json.loads(text)), lambda: read_process_file(tmp_path / "p.json")):
        with pytest.raises(ProcessFileError, match="^sparse indices must be integers$"):
            read()


def test_nonfinite_payload_rejected():
    sigma = dense_chain()
    doc = process_to_dict(sigma)
    v2 = nested(doc, sigma.op.matrix)
    v2["payload"][0][0][0] = float("inf")
    with pytest.raises(ProcessFileError):
        dict_to_process(v2)
    # an inf written into the bytes of the hex and of the base64 payload
    raw = bytearray(binascii.a2b_hex(doc["payload"]))
    raw[:8] = struct.pack("<d", float("inf"))
    with pytest.raises(ProcessFileError, match="^hex payload contains non-finite numbers$"):
        dict_to_process({**doc, "payload": raw.hex()})
    with pytest.raises(ProcessFileError, match="^base64 payload contains non-finite numbers$"):
        dict_to_process({**doc, "format_version": 3, "payload": base64.b64encode(raw).decode()})
    sparse = process_to_dict(make_mix_example())
    sparse["payload"]["values"][0][0] = float("inf")
    with pytest.raises(ProcessFileError):
        dict_to_process(sparse)


def test_unknown_kind_and_version_rejected():
    sigma = make_mix_example()
    doc = process_to_dict(sigma)
    bad = dict(doc)
    bad["kind"] = "analog"
    with pytest.raises(ProcessFileError):
        dict_to_process(bad)
    bad2 = dict(doc)
    for version in (99, 2.0, "2", None, 0):
        bad2["format_version"] = version
        with pytest.raises(ProcessFileError):
            dict_to_process(bad2)


def test_bad_node_entries_rejected():
    sigma = make_mix_example()
    doc = process_to_dict(sigma)
    bad = json.loads(json.dumps(doc))
    bad["nodes"][0]["d_in"] = 0
    with pytest.raises(ProcessFileError):
        dict_to_process(bad)
    bad2 = json.loads(json.dumps(doc))
    bad2["nodes"][0]["name"] = bad2["nodes"][1]["name"]
    with pytest.raises(ProcessFileError):
        dict_to_process(bad2)
    # A JSON boolean is not a dimension, even where true would mean 1.
    sw = json.loads(json.dumps(process_to_dict(make_switch(2))))
    p = next(nd for nd in sw["nodes"] if nd["name"] == "P")
    assert p["d_in"] == 1
    p["d_in"] = True
    with pytest.raises(ProcessFileError):
        dict_to_process(sw)


def test_writer_picks_layout_by_stored_count():
    # sparse iff 4 * stored <= side**2, whatever the values
    mix = make_mix_example()
    side = mix.op.matrix.shape[0]
    for stored, layout, version in ((side * side // 4, dict, 2), (side * side // 4 + 1, str, 4)):
        m = np.zeros(side * side, dtype=complex)
        m[:stored] = 1e-300j
        m = m.reshape(side, side)
        doc = process_to_dict(with_matrix(mix, m))
        assert isinstance(doc["payload"], layout)
        assert doc["format_version"] == version
        # the same matrix in the nested format-2 layout is read and written back the same way
        assert process_to_dict(dict_to_process(nested(doc, m)).process) == doc
    assert isinstance(process_to_dict(dense_chain())["payload"], str)


def test_golden_v1_file_reads_bit_exact():
    # written by the format-1 writer: dense payload, "format_version": 1
    path = DATA / "mix-v1.json"
    assert json.loads(path.read_text())["format_version"] == 1
    loaded = read_process_file(path)
    mix = make_mix_example()
    assert loaded.kind == "quantum"
    assert [(n.name, n.d_in, n.d_out) for n in loaded.process.nodes] == [("A", 2, 2), ("B", 2, 2)]
    assert np.array_equal(bits(loaded.process.op.matrix), bits(mix.op.matrix))
    assert loaded.metadata == {"description": "two-node no-signalling process with mixed inputs"}
    # the mix exemplar is sparse: a re-export is format 2 and reads back to the same bits
    doc = process_to_dict(loaded.process)
    assert doc["format_version"] == 2 and isinstance(doc["payload"], dict)
    assert np.array_equal(bits(dict_to_process(doc).process.op.matrix), bits(mix.op.matrix))


# sha256 of the float64 words of the matrix in tests/data/chain-v2.json and chain-v3.json
CHAIN_BITS = "e22ced64f6b0165bcd9975c32e2cded69e9ea134038ba1c16fdedd75c97129ff"


@pytest.mark.parametrize("version, layout", [(2, list), (3, str)])
def test_golden_dense_file_reads_bit_exact(version, layout, tmp_path):
    # written by the format-2 writer (nested payload) or the format-3 one (base64)
    path = DATA / f"chain-v{version}.json"
    doc = json.loads(path.read_text())
    assert doc["format_version"] == version and isinstance(doc["payload"], layout)
    loaded = read_process_file(path)
    assert [(n.name, n.d_in, n.d_out) for n in loaded.process.nodes] == [("A", 2, 2), ("P", 1, 4), ("F", 4, 1)]
    m = loaded.process.op.matrix
    assert m.shape == (64, 64)
    assert hashlib.sha256(bits(m).tobytes()).hexdigest() == CHAIN_BITS
    # a re-export is format 4 and reads back to the same bits
    again = tmp_path / "chain.json"
    write_process_file(again, loaded.process, metadata=loaded.metadata)
    redoc = json.loads(again.read_text())
    assert redoc["format_version"] == 4 and len(redoc["payload"]) == 32 * 64 * 64
    assert redoc["metadata"] == doc["metadata"]
    assert np.array_equal(bits(read_process_file(again).process.op.matrix), bits(m))


@pytest.mark.parametrize("codec", ["base64", "hex"])
def test_string_payload_is_bounded_before_it_is_decoded(codec, monkeypatch):
    sigma = dense_chain()
    doc, side = process_to_dict(sigma), sigma.dim
    if codec == "base64":
        doc = base64_doc(doc, sigma.op.matrix)

    def refuse(*args, **kwargs):
        raise AssertionError("decoded")

    monkeypatch.setattr(base64, "b64decode", refuse)
    monkeypatch.setattr(binascii, "a2b_hex", refuse)
    oversized = {**doc, "nodes": [{"name": "A", "d_in": 16385, "d_out": 1, "kind": "quantum"}]}
    with pytest.raises(ProcessFileError, match="dense matrix"):
        dict_to_process(oversized)
    lengths = f"must be {32 * side * side} \\(hex\\) or {4 * math.ceil(16 * side * side / 3)} \\(base64\\) characters"
    for extra in ("AAAA", "0"):
        with pytest.raises(ProcessFileError, match=lengths):
            dict_to_process({**doc, "payload": doc["payload"] + extra})


def test_exemplars_reexport_identically_from_either_layout(tmp_path):
    for name, sigma in (
        ("mix", make_mix_example()),
        ("af", make_af()),
        ("switch", make_switch(2)),
        ("reduced-switch", make_reduced_switch(2)),
        ("dense-chain", dense_chain()),
    ):
        # read from the v1 layout, the matrix keeps no vector, so the first
        # file is written from a copy without one too
        sigma = without_vector(sigma)
        path = tmp_path / f"{name}.json"
        write_process_file(path, sigma)
        # the same matrix in the v1 dense layout
        doc = nested(json.loads(path.read_text()), sigma.op.matrix, version=1)
        for loaded in (read_process_file(path), dict_to_process(doc)):
            assert np.array_equal(bits(loaded.process.op.matrix), bits(sigma.op.matrix))
            again = tmp_path / f"{name}-again.json"
            write_process_file(again, loaded.process)
            assert again.read_bytes() == path.read_bytes(), name


def test_negative_zero_survives_round_trip(tmp_path):
    for sigma in (make_mix_example(), dense_chain()):
        m = sigma.op.matrix.copy()
        m[0, 1] = complex(-0.0, 0.0)
        m[1, 0] = complex(0.0, -0.0)
        m[1, 1] = complex(-0.0, -0.0)
        signed = with_matrix(sigma, m)
        path = tmp_path / "signed.json"
        write_process_file(path, signed)
        back = read_process_file(path).process.op.matrix
        assert np.array_equal(bits(back), bits(m))
        assert np.signbit(back[0, 1].real) and np.signbit(back[1, 0].imag)
        assert np.signbit(back[1, 1].real) and np.signbit(back[1, 1].imag)


def stored_form(op) -> tuple:
    """What an operator holds, bit for bit: its systems, its storage, its
    stored entries or matrix with their dtypes, and its kept CJ vector."""
    entries = _entries(op)
    if entries is None:
        held = (bits(op.matrix).tobytes(), op.matrix.dtype)
    else:
        held = (entries[0].tobytes(), entries[0].dtype, bits(entries[1]).tobytes(), entries[1].dtype)
    v = _cj_vector(op)
    return op.systems, op._dense is None, held, None if v is None else (bits(v).tobytes(), v.dtype)


@pytest.mark.parametrize("layout", ["hex", "coo"])
def test_a_kept_vector_round_trips_bit_exact_in_both_layouts(layout, tmp_path):
    # all 256 entries of the chain's vector are stored, 16 of the switch's 256
    sigma = random_unitary_chain(2, np.random.default_rng(3)) if layout == "hex" else make_switch(2)
    v = _cj_vector(sigma.op)
    path, again = tmp_path / "first.json", tmp_path / "again.json"
    write_process_file(path, sigma)
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 5 and list(doc["payload"]) == ["vector"]
    vector = doc["payload"]["vector"]
    if layout == "hex":
        assert len(vector) == 32 * v.size and np.array_equal(hex_words(vector), bits(v))
    else:
        index = np.flatnonzero(v)
        assert vector["index"] == index.tolist() and 4 * index.size <= v.size
        assert np.array_equal(np.array(vector["values"]).view(complex)[:, 0], v[index])
    loaded = read_process_file(path).process
    assert stored_form(loaded.op) == stored_form(sigma.op)
    write_process_file(again, loaded)
    assert again.read_bytes() == path.read_bytes()


def test_negative_zero_survives_in_a_vector(tmp_path):
    # v's entries are stored signed zeros but one: four of four (hex) or of sixteen (sorted COO)
    for d, layout in ((2, str), (4, dict)):
        node = QuantumNode("N", d, d)
        u = np.zeros((d, d), dtype=complex)
        u.flat[:4] = [1.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
        sigma = process_operator([node], cj_operator(LinearMap(u, (node.out_system,), (node.in_system,))))
        path = tmp_path / f"signed{d}.json"
        write_process_file(path, sigma)
        assert isinstance(json.loads(path.read_text())["payload"]["vector"], layout)
        loaded = read_process_file(path).process
        assert stored_form(loaded.op) == stored_form(sigma.op)
        v = _cj_vector(loaded.op)
        assert np.signbit(v[1].real) and np.signbit(v[2].imag) and np.signbit(v[3].real) and np.signbit(v[3].imag)


def test_malformed_vectors_are_refused():
    hexed = process_to_dict(random_unitary_chain(1, np.random.default_rng(5)))
    coo = process_to_dict(make_switch(2))
    digits, index, values = hexed["payload"]["vector"], coo["payload"]["vector"]["index"], coo["payload"]["vector"]["values"]
    side = len(digits) // 32
    raw = bytearray(binascii.a2b_hex(digits))
    raw[8:16] = struct.pack("<d", float("nan"))

    def vector(doc, v):
        return {**doc, "payload": {"vector": v}}

    lengths = f"^hex vector of {side} entries must be {32 * side} characters, got"
    cases = {
        "a nan word": (vector(hexed, raw.hex()), "^hex payload contains non-finite numbers$"),
        "an infinite value": (
            vector(coo, {"index": index, "values": [[math.inf, 0.0], *values[1:]]}),
            "^sparse values contains non-finite numbers$",
        ),
        "hex in a format-4 file": ({**hexed, "format_version": 4}, "^a vector payload needs format_version 5$"),
        "sorted COO in a format-2 file": ({**coo, "format_version": 2}, "^a vector payload needs format_version 5$"),
        "one digit short": (vector(hexed, digits[:-1]), f"{lengths} {32 * side - 1}$"),
        "one entry long": (vector(hexed, digits + digits[:32]), f"{lengths} {32 * side + 32}$"),
        "a non-hex digit": (vector(hexed, "g" + digits[1:]), "^hex payload is malformed"),
        "an index past the end": (
            vector(coo, {"index": [*index[:-1], 256], "values": values}),
            "^sparse index out of range for a vector of 256 entries$",
        ),
        "a negative index": (vector(coo, {"index": [-1, *index[1:]], "values": values}), "^sparse index out of range"),
        "a decreasing index": (vector(coo, {"index": index[::-1], "values": values}), "^sparse indices must be strictly increasing$"),
        "a second key": ({**coo, "payload": {**coo["payload"], "index": []}}, "^vector payload must hold exactly 'vector'$"),
        "a list": (vector(coo, values), "^a vector must be a hex string or sorted COO$"),
    }
    for name, (doc, message) in cases.items():
        with pytest.raises(ProcessFileError, match=message):
            dict_to_process(doc)
            pytest.fail(f"accepted: {name}")


def test_a_small_file_that_declares_a_huge_operator_is_refused_before_it_is_built():
    # Each σ = vv† would need more than 2**32 bytes: 8193 stored entries of a
    # 16385-entry v make it dense, and 400 entries -1-1j of a 65536-entry v
    # store -0.0 along 800 lines of σ, 5.2e7 products. The reader refuses
    # both holding little more than v.
    for side, stored, value in ((16385, 8193, 1.0), (65536, 400, -1 - 1j)):
        node = {"name": "A", "d_in": side, "d_out": 1, "kind": "quantum"}
        pairs = [[complex(value).real, complex(value).imag]] * stored
        doc = {"format_version": 5, "kind": "quantum", "nodes": [node], "payload": {"vector": {"index": list(range(stored)), "values": pairs}}}
        tracemalloc.start()
        try:
            with pytest.raises(ProcessFileError, match=rf"^declared operator is {side}x{side}; built from its vector, .* more than {2**32}$"):
                dict_to_process(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**24, (side, peak)


def test_malformed_documents_rejected(bad_docs):
    for name, doc in bad_docs.items():
        with pytest.raises(ProcessFileError):
            dict_to_process(doc)
            pytest.fail(f"accepted: {name}")


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def quantum_processes(draw):
    """Random operators on one or two nodes, from empty to full, -0.0 included."""
    dims = draw(st.lists(st.tuples(st.integers(1, 2), st.integers(1, 3)), min_size=1, max_size=2))
    nodes = tuple(QuantumNode(f"N{i}", d_in, d_out) for i, (d_in, d_out) in enumerate(dims))
    side = int(np.prod([d_in * d_out for d_in, d_out in dims]))
    pairs = np.zeros((side * side, 2))
    for i in draw(st.sets(st.integers(0, side * side - 1))):
        pairs[i] = draw(st.tuples(finite, finite))
    m = pairs.view(complex).reshape(side, side)
    return process_operator(nodes, LabeledOperator(tuple(canonical_systems(nodes)), m))


@settings(max_examples=150, deadline=None)
@given(sigma=quantum_processes())
def test_round_trip_is_byte_identical_in_both_layouts(sigma, tmp_path_factory):
    folder = tmp_path_factory.mktemp("hypothesis")
    first, second = folder / "first.json", folder / "second.json"
    write_process_file(first, sigma)
    loaded = read_process_file(first).process
    assert np.array_equal(bits(loaded.op.matrix), bits(sigma.op.matrix))
    write_process_file(second, loaded)
    assert second.read_bytes() == first.read_bytes()


# the signed zeros, the smallest subnormal, the smallest normal and the largest finite value
extreme_words = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
finite_words = st.one_of(
    st.sampled_from(extreme_words),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1).map(lambda word: struct.unpack("<d", struct.pack("<Q", word))[0]).filter(math.isfinite),
)


@st.composite
def dense_processes(draw):
    """Operators on one or two nodes (side 1 to 12) of arbitrary finite float64
    words, with one stored entry more than the sparse rule allows."""
    dims = draw(
        st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=2).filter(
            lambda dims: math.prod(d_in * d_out for d_in, d_out in dims) <= 12
        )
    )
    nodes = tuple(QuantumNode(f"N{i}", d_in, d_out) for i, (d_in, d_out) in enumerate(dims))
    side = math.prod(d_in * d_out for d_in, d_out in dims)
    pairs = np.array(draw(st.lists(finite_words, min_size=2 * side * side, max_size=2 * side * side))).reshape(-1, 2)
    head = pairs[: side * side // 4 + 1]
    head[~head.view(np.uint64).any(axis=1), 0] = -0.0
    m = pairs.view(complex).reshape(side, side)
    return process_operator(nodes, LabeledOperator(tuple(canonical_systems(nodes)), m))


@settings(max_examples=150, deadline=None)
@given(sigma=dense_processes(), data=st.data())
def test_dense_bit_patterns_round_trip_and_nonfinite_words_are_refused(sigma, data, tmp_path_factory):
    folder = tmp_path_factory.mktemp("hypothesis")
    first, second = folder / "first.json", folder / "second.json"
    write_process_file(first, sigma)
    doc = json.loads(first.read_text())
    assert doc["format_version"] == 4 and isinstance(doc["payload"], str)
    loaded = read_process_file(first).process
    assert np.array_equal(bits(loaded.op.matrix), bits(sigma.op.matrix))
    write_process_file(second, loaded)
    assert second.read_bytes() == first.read_bytes()
    # the same words in a format-3 base64 payload read back bitwise too
    v3 = base64_doc(doc, sigma.op.matrix)
    assert np.array_equal(bits(dict_to_process(v3).process.op.matrix), bits(sigma.op.matrix))
    # any word with all exponent bits set (an inf or a NaN) is refused in either payload
    words = hex_words(doc["payload"]).copy()
    where = data.draw(st.integers(0, words.size - 1))
    words[where] = data.draw(st.integers(0, 1)) << 63 | 0x7FF << 52 | data.draw(st.integers(0, 2**52 - 1))
    with pytest.raises(ProcessFileError, match="^hex payload contains non-finite numbers$"):
        dict_to_process({**doc, "payload": words.tobytes().hex()})
    with pytest.raises(ProcessFileError, match="^base64 payload contains non-finite numbers$"):
        dict_to_process({**v3, "payload": base64.b64encode(words.tobytes()).decode()})


def test_sparse_file_above_the_dense_bound_round_trips(tmp_path):
    up = make_switch(5)
    assert up.dim == 62500 and 16 * 62500**2 > 2**32
    path = tmp_path / "switch5.json"
    write_process_file(path, up)
    back = read_process_file(path).process
    assert back.op.systems == up.op.systems
    assert all(np.array_equal(bits(x), bits(y)) for x, y in zip(back.op._coo, up.op._coo))
    assert validate_process(back).valid


def test_declared_side_is_bounded_by_what_the_payload_allocates():
    sparse = process_to_dict(make_mix_example())
    assert isinstance(sparse["payload"], dict)
    for side, accepted in ((2**25, True), (2**25 + 1, False)):
        doc = {**sparse, "nodes": [{"name": "A", "d_in": side, "d_out": 1, "kind": "quantum"}]}
        if accepted:
            assert dict_to_process(doc).process.dim == side
        else:
            with pytest.raises(ProcessFileError, match="sparse validation"):
                dict_to_process(doc)


def read_routes(path) -> list:
    """``read_process_file(path)`` with the payload locator on, then off (the
    whole-text parse), each as what the read gives: the kind, the nodes, the
    raw words of the matrix (of its stored entries and their indices if the
    writer would store it sparse, so no large side is densified) or of the
    table, the graph and the metadata's repr (which tells key order, -0.0 and
    nan), or the ProcessFileError message."""
    outcomes = []
    for locate in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            if not locate:
                mp.setattr(fileio, "_located", lambda data: None)
            try:
                loaded = read_process_file(path)
            except ProcessFileError as exc:
                outcomes.append(str(exc))
                continue
        p = loaded.process
        if loaded.kind == "classical":
            content = p.table.tobytes()
        elif (entries := _sparse_entries(p.op)) is not None:
            content = (p.op.systems, entries[0].tobytes(), bits(entries[1]).tobytes())
        else:
            content = (p.op.systems, bits(p.op.matrix).tobytes())
        graph = None if loaded.graph is None else (sorted(loaded.graph.vertices), sorted(loaded.graph.edges))
        outcomes.append((loaded.kind, p.nodes, content, graph, repr(loaded.metadata)))
    return outcomes


def test_the_located_payload_reads_as_the_whole_text_parse(tmp_path):
    """Each file reads to the same process, graph and metadata by either route,
    or fails with the same message; the locator takes exactly the files where
    byte i of the first '"payload":"' provably starts the one top-level key."""
    chain = dense_chain()
    names = chain.node_names
    path = tmp_path / "chain.json"
    write_process_file(path, chain, graph=directed_graph(names, zip(names, names[1:])), metadata={"n": [1, -0.0]})
    text = path.read_text()
    i = text.index('"payload":"')
    j = text.index('"', i + 11)
    head, digits, tail = text[:i], text[i + 11:j], text[j + 1:]
    other = binascii.b2a_hex(np.ascontiguousarray(2 * chain.op.matrix, dtype="<c16")).decode()
    assert head.endswith(",") and tail.startswith(",") and len(other) == len(digits)
    written = (chain.op.systems, bits(chain.op.matrix).tobytes())
    doubled = (chain.op.systems, bits(2 * chain.op.matrix).tobytes())

    def payload(key=":", value=digits):
        return f'"payload"{key}"{value}"'

    def first(key_value):
        return head.replace("{", "{" + key_value + ",", 1) + payload() + tail

    def spliced(chars):
        return head + payload(value=digits[:9] + chars + digits[10:]) + tail

    escaped = "".join(f"\\u{ord(c):04x}" if k % 7 == 0 else c for k, c in enumerate(digits))
    # name: (document, whether the locator takes it, the matrix it reads to if checked)
    cases = {
        "written": (text, True, written),
        "nested payload after": (head + payload() + ',"metadata":{"payload":"' + other + '"}}', True, written),
        "base64": ((DATA / "chain-v3.json").read_text(), True, None),
        # JSON admits DEL unescaped in a string, and it is ASCII: both routes refuse the digit
        "DEL in the digits": (spliced("\x7f"), True, None),
        "empty payload": (head + payload(value="") + tail, True, None),
        "nested payload before": (first('"metadata":{"payload":"' + other + '"}'), False, written),
        'key a\\"payload': (first('"a\\' + payload(value=other)[:-1] + '"'), False, written),
        "spaced colon": (head + payload(" : ") + tail, False, written),
        "spaced after the colon": (head + payload(": ") + tail, False, written),
        "escaped digits": (head + payload(value=escaped) + tail, False, written),
        "control character": (spliced("\x01"), False, None),
        "non-ASCII character": (spliced("\u00e9"), False, None),
        "backslash escape": (spliced("\\n"), False, None),
        "UTF-8 BOM": ("\ufeff" + text, False, None),
        "trailing data": (text + "x", False, None),
        "truncated in the payload": (text[: i + 100], False, None),
        "truncated after the payload": (text[: j + 1], False, None),
    }
    # of two top-level payload keys, however spelled, the last wins
    for spelling in ('"payload"', '"pay\\u006coad"'):
        for value, wins in (('""', None), ("null", None), (f'"{other}"', doubled)):
            cases[f"{spelling}:{value[:9]} before"] = (first(f"{spelling}:{value}"), False, written)
            cases[f"{spelling}:{value[:9]} after"] = (head + payload() + f",{spelling}:{value}" + tail, False, wins)
    for kind, obj in (("sparse", make_mix_example()), ("classical", make_af_deterministic())):
        write_process_file(path, obj, metadata={"payload": digits})
        cases[kind] = (path.read_text(), False, None)
    for name, (document, located, matrix) in cases.items():
        path.write_bytes(document.encode("utf-8"))
        assert (fileio._located(path.read_bytes()) is not None) == located, name
        read, whole = read_routes(path)
        assert read == whole, name
        if matrix is not None:
            assert read[2] == matrix, name


def test_a_dense_read_peaks_below_1_6_times_its_file(tmp_path):
    """The hex payload is decoded from the file's bytes: the 1024-dim chain's
    read holds its 33.6 MB of bytes and its 16 MiB matrix, not its text."""
    path = tmp_path / "chain.json"
    write_process_file(path, without_vector(random_unitary_chain(3, np.random.default_rng(0))))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        loaded = read_process_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.process.dim == 1024
    assert peak <= 1.6 * size, peak / size


@functools.cache
def fuzz_documents() -> dict:
    """Valid documents of every payload kind, each with a graph or metadata block:
    the writer's sparse, hex, hex-vector, sorted-COO-vector and classical ones,
    a base64 format-3 one and a nested format-2 one."""
    node = QuantumNode("N", 2, 2)
    dense = LabeledOperator(tuple(canonical_systems([node])), np.arange(16).reshape(4, 4) + 0.5j)
    dense_doc = process_to_dict(process_operator([node], dense), metadata={"n": 1})
    rotation = cj_operator(LinearMap(np.array([[0.6, 0.8j], [0.8j, 0.6]]), (node.out_system,), (node.in_system,)))
    dp = make_af_deterministic()
    return {
        "sparse": process_to_dict(make_af(), af_causal_graph(), {"source": "af", "tags": [1, 2]}),
        "dense": dense_doc,
        "vector-hex": process_to_dict(process_operator([node], rotation), metadata={"n": [1, -0.0]}),
        "vector-coo": process_to_dict(make_switch(2), metadata={"source": "switch"}),
        "dense-v3": base64_doc(dense_doc, dense.matrix),
        "dense-v2": nested(dense_doc, dense.matrix),
        "classical": process_to_dict(dp, causal_structure_deterministic(dp)),
    }


def _places(doc, prefix=()):
    """Every path of keys and list positions in a JSON document, the root included."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _places(value, prefix + (key,))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 70) | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_documents_raise_only_process_file_errors(data, tmp_path_factory):
    """A valid document with one to three values replaced, deleted or inserted,
    and its text with one byte replaced or cut short, is read or refused with
    ProcessFileError (exit 2 in the CLI), never with another exception, and
    reads the same with the payload locator as by the whole-text parse. The
    text is written with the default separators and with the writer's compact
    ones, where the locator finds a string payload."""
    doc = copy.deepcopy(fuzz_documents()[data.draw(st.sampled_from(list(fuzz_documents())))])
    for _ in range(data.draw(st.integers(1, 3))):
        place = data.draw(st.sampled_from(list(_places(doc))))
        action, value = data.draw(st.sampled_from(["replace", "delete", "insert"])), data.draw(json_values)
        parent = functools.reduce(lambda node, key: node[key], place[:-1], doc)
        target = functools.reduce(lambda node, key: node[key], place, doc)
        if action == "insert" and isinstance(target, list):
            target.insert(data.draw(st.integers(0, len(target))), value)
        elif action == "insert" and isinstance(target, dict):
            target[data.draw(st.text(max_size=4))] = value
        elif not place:
            doc = value
        elif action == "delete":
            del parent[place[-1]]
        else:
            parent[place[-1]] = value
    try:
        dict_to_process(doc)
    except ProcessFileError:
        pass
    texts = [json.dumps(doc).encode(), json.dumps(doc, separators=(",", ":")).encode()]
    where = data.draw(st.integers(0, len(texts[0]) - 1))
    byte = data.draw(st.integers(0, 255) | st.none())
    for raw in map(bytearray, texts[:2]):
        # the same place in each text, in proportion to its length
        at = where * len(raw) // len(texts[0])
        if byte is None:
            del raw[at:]
        else:
            raw[at] = byte
        texts.append(bytes(raw))
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    for text in texts:
        path.write_bytes(text)
        located, whole = read_routes(path)
        assert located == whole
