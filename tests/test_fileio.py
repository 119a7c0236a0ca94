from __future__ import annotations

import copy
import functools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalproc import (
    FORMAT_VERSION,
    LabeledOperator,
    ProcessFileError,
    QuantumNode,
    af_causal_graph,
    causal_structure_deterministic,
    dict_to_process,
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
from causalproc.process import canonical_systems

DATA = Path(__file__).parent / "data"


def dense_chain():
    """A process whose every entry is nonzero, so files store it dense."""
    return random_unitary_chain(1, np.random.default_rng(5))


def bits(m: np.ndarray) -> np.ndarray:
    """The raw float64 words of a complex matrix: tells -0.0 from 0.0."""
    return np.ascontiguousarray(m, dtype=complex).view(np.uint64)


def with_matrix(sigma, m: np.ndarray):
    return process_operator(sigma.nodes, LabeledOperator(sigma.op.systems, m))


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


def test_deterministic_process_saves_as_classical(tmp_path):
    dp = make_af_deterministic()
    doc = process_to_dict(dp)
    assert doc["kind"] == "classical"
    assert doc["format_version"] == FORMAT_VERSION
    back = dict_to_process(doc)
    assert np.array_equal(back.process.table, dp.to_classical().table)


def test_complex_payload_encoding(tmp_path):
    sigma = dense_chain()
    doc = process_to_dict(sigma)
    side = sigma.op.matrix.shape[0]
    payload = np.asarray(doc["payload"])
    assert payload.shape == (side, side, 2)
    assert np.array_equal(payload[..., 0] + 1j * payload[..., 1], sigma.op.matrix)
    # the mix exemplar is diagonal: sorted COO over flat row-major indices
    mix = make_mix_example()
    sparse = process_to_dict(mix)["payload"]
    side = mix.op.matrix.shape[0]
    assert sparse["index"] == [i * side + i for i in range(side)]
    values = np.asarray(sparse["values"])
    assert values.shape == (side, 2)
    assert np.array_equal(values[:, 0] + 1j * values[:, 1], np.diag(mix.op.matrix))


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


def test_nonfinite_payload_rejected():
    sigma = dense_chain()
    doc = process_to_dict(sigma)
    doc["payload"][0][0][0] = float("inf")
    with pytest.raises(ProcessFileError):
        dict_to_process(doc)
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
    for stored, layout in ((side * side // 4, dict), (side * side // 4 + 1, list)):
        m = np.zeros(side * side, dtype=complex)
        m[:stored] = 1e-300j
        doc = process_to_dict(with_matrix(mix, m.reshape(side, side)))
        assert isinstance(doc["payload"], layout)
    assert isinstance(process_to_dict(dense_chain())["payload"], list)


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
    # a re-export is format 2 and reads back to the same bits
    doc = process_to_dict(loaded.process)
    assert doc["format_version"] == FORMAT_VERSION == 2
    assert np.array_equal(bits(dict_to_process(doc).process.op.matrix), bits(mix.op.matrix))


def test_exemplars_reexport_identically_from_either_layout(tmp_path):
    for name, sigma in (
        ("mix", make_mix_example()),
        ("af", make_af()),
        ("switch", make_switch(2)),
        ("reduced-switch", make_reduced_switch(2)),
        ("dense-chain", dense_chain()),
    ):
        path = tmp_path / f"{name}.json"
        write_process_file(path, sigma)
        # the same matrix in the v1 dense layout
        doc = json.loads(path.read_text())
        side = sigma.op.matrix.shape[0]
        doc["format_version"] = 1
        doc["payload"] = bits(sigma.op.matrix).view(float).reshape(side, side, 2).tolist()
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


@functools.cache
def fuzz_documents() -> dict:
    """Valid documents of every payload kind, each with a graph or metadata block."""
    dense = LabeledOperator(tuple(canonical_systems([QuantumNode("N", 2, 2)])), np.arange(16).reshape(4, 4) + 0.5j)
    dp = make_af_deterministic()
    return {
        "sparse": process_to_dict(make_af(), af_causal_graph(), {"source": "af", "tags": [1, 2]}),
        "dense": process_to_dict(process_operator([QuantumNode("N", 2, 2)], dense), metadata={"n": 1}),
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
    ProcessFileError (exit 2 in the CLI), never with another exception."""
    doc = copy.deepcopy(fuzz_documents()[data.draw(st.sampled_from(["sparse", "dense", "classical"]))])
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
    raw = bytearray(json.dumps(doc).encode())
    where = data.draw(st.integers(0, len(raw) - 1))
    if data.draw(st.booleans()):
        raw[where] = data.draw(st.integers(0, 255))
    else:
        del raw[where:]
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    for payload in (json.dumps(doc).encode(), bytes(raw)):
        path.write_bytes(payload)
        try:
            read_process_file(path)
        except ProcessFileError:
            pass
