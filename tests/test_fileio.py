from __future__ import annotations

import json

import numpy as np
import pytest

from causalproc import (
    FORMAT_VERSION,
    ProcessFileError,
    af_causal_graph,
    dict_to_process,
    make_af,
    make_af_deterministic,
    make_methods_counterexample,
    make_mix_example,
    make_switch,
    process_to_dict,
    read_process_file,
    write_process_file,
)


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
    sigma = make_mix_example()
    doc = process_to_dict(sigma)
    side = sigma.op.matrix.shape[0]
    payload = np.asarray(doc["payload"])
    assert payload.shape == (side, side, 2)
    assert np.array_equal(payload[..., 0] + 1j * payload[..., 1], sigma.op.matrix)


def test_invalid_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format_version": 1, "nodes": [}')
    with pytest.raises(ProcessFileError) as err:
        read_process_file(path)
    assert "line" in str(err.value)


def test_missing_file_raises(tmp_path):
    with pytest.raises(ProcessFileError) as err:
        read_process_file(tmp_path / "nope.json")
    assert "cannot read" in str(err.value)


def test_wrong_payload_shape_rejected(tmp_path):
    sigma = make_mix_example()
    doc = process_to_dict(sigma)
    doc["payload"] = doc["payload"][:-1]
    with pytest.raises(ProcessFileError):
        dict_to_process(doc)


def test_nonfinite_payload_rejected():
    sigma = make_mix_example()
    doc = process_to_dict(sigma)
    doc["payload"][0][0][0] = float("inf")
    with pytest.raises(ProcessFileError):
        dict_to_process(doc)


def test_unknown_kind_and_version_rejected():
    sigma = make_mix_example()
    doc = process_to_dict(sigma)
    bad = dict(doc)
    bad["kind"] = "analog"
    with pytest.raises(ProcessFileError):
        dict_to_process(bad)
    bad2 = dict(doc)
    bad2["format_version"] = 99
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
    sw = json.loads(json.dumps(process_to_dict(make_switch(2).process)))
    p = next(nd for nd in sw["nodes"] if nd["name"] == "P")
    assert p["d_in"] == 1
    p["d_in"] = True
    with pytest.raises(ProcessFileError):
        dict_to_process(sw)
