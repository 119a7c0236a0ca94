from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from causalproc import (
    ClassicalNode,
    ClassicalProcess,
    DeterministicProcess,
    LabeledOperator,
    LinearMap,
    QuantumNode,
    cj_operator,
    cli,
    combs,
    embed,
    identity_operator,
    make_mix_example,
    process_operator,
    tensor,
    write_process_file,
)
from causalproc.cli import EXEMPLAR_NAMES, main

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_exemplar_then_validate(tmp_path, capsys):
    path = tmp_path / "switch.json"
    code, out, _ = run(capsys, "exemplar", "switch", "--out", str(path))
    assert code == 0
    assert path.exists()
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "validate"
    assert report["valid"] is True
    assert abs(report["trace"] - 16) < 1e-9
    assert report["failed_conditions"] == []
    assert "runtime_s" in report


def test_exemplar_unknown_name_lists_choices(capsys):
    code, _, err = run(capsys, "exemplar", "quux")
    assert code == 2
    for name in EXEMPLAR_NAMES:
        assert name in err


def test_validate_invalid_process_exits_one(tmp_path, capsys):
    sigma = make_mix_example()
    bad = process_operator(sigma.nodes, LabeledOperator(sigma.op.systems, 2 * sigma.op.matrix))
    path = tmp_path / "bad.json"
    write_process_file(path, bad)
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    report = json.loads(out)
    assert "total-trace" in report["failed_conditions"]


def test_validate_reports_hermitian_failure(tmp_path, capsys):
    # Residual 2e-9: above tol·‖σ‖_F = 1e-9, below tol·|Tr σ| = 4e-9.
    sigma = make_mix_example()
    a = sigma.op.system("A.in")
    k = np.array([[0.0, 2.5e-10], [-2.5e-10, 0.0]])
    bad = process_operator(sigma.nodes, sigma.op + embed(LabeledOperator((a,), k), sigma.op.systems))
    path = tmp_path / "nonhermitian.json"
    write_process_file(path, bad)
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False
    assert report["failed_conditions"] == ["hermitian"]


def test_validate_malformed_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "line" in err


def test_validate_missing_file_exits_two(tmp_path, capsys):
    code, _, err = run(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == 2
    assert err


def test_exemplar_unwritable_out_exits_two(tmp_path, capsys):
    code, out, err = run(capsys, "exemplar", "mix", "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_discover_unwritable_dot_exits_two(tmp_path, capsys):
    path = tmp_path / "mix.json"
    assert run(capsys, "exemplar", "mix", "--out", str(path))[0] == 0
    code, out, err = run(capsys, "discover", str(path), "--dot", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_discover_emits_deterministic_dot(tmp_path, capsys):
    path = tmp_path / "switch.json"
    assert run(capsys, "exemplar", "switch", "--out", str(path))[0] == 0
    dot1 = tmp_path / "a.dot"
    dot2 = tmp_path / "b.dot"
    code, out, _ = run(capsys, "discover", str(path), "--dot", str(dot1))
    assert code == 0
    report = json.loads(out)
    assert report["markov_accepted"] is True
    assert report["cyclic"] is True
    assert sorted(report["factor_traces"]) == ["A", "B", "F", "P"]
    assert run(capsys, "discover", str(path), "--dot", str(dot2))[0] == 0
    assert dot1.read_bytes() == dot2.read_bytes()


def test_discover_dot_escapes_node_names(tmp_path, capsys):
    """Node names holding a double quote or a backslash stay valid DOT strings."""
    na, nc = QuantumNode('a"b', 2, 2), QuantumNode("c\\", 2, 2)
    wire = cj_operator(LinearMap(np.eye(2), (na.out_system,), (nc.in_system,)))
    op = tensor(LabeledOperator((na.in_system,), np.eye(2) / 2), wire, identity_operator([nc.out_dual]))
    path, dot = tmp_path / "names.json", tmp_path / "names.dot"
    write_process_file(path, process_operator((na, nc), op))
    code, out, _ = run(capsys, "discover", str(path), "--dot", str(dot))
    assert code == 0
    assert json.loads(out)["edges"] == [['a"b', "c\\"]]
    assert dot.read_text() == 'digraph causal {\n  "a\\"b";\n  "c\\\\";\n  "a\\"b" -> "c\\\\";\n}\n'


def test_comb_search_reports_scan_count(tmp_path, capsys):
    path = tmp_path / "af.json"
    assert run(capsys, "exemplar", "af", "--out", str(path))[0] == 0
    code, out, _ = run(capsys, "comb", "--search", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["message"] == "no compatible order (6 scanned)"
    assert report["found"] is None


def test_comb_order_accepts_chain(tmp_path, capsys):
    path = tmp_path / "mix.json"
    assert run(capsys, "exemplar", "mix", "--out", str(path))[0] == 0
    code, out, _ = run(capsys, "comb", "--order", "A,B", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["accepted"] is True
    assert max(report["residuals"]) < 1e-9


@pytest.mark.parametrize("order", ["", "A,,B", "A,B,"])
def test_comb_empty_order_is_a_usage_error(tmp_path, capsys, order):
    # an empty --order, or an empty name in one, is checked and names no
    # permutation, instead of running a search or being dropped
    path = tmp_path / "mix.json"
    assert run(capsys, "exemplar", "mix", "--out", str(path))[0] == 0
    code, out, err = run(capsys, "comb", "--order", order, str(path))
    assert (code, out) == (2, "")
    assert "not a permutation" in err


def test_separability_on_no_signalling_process(tmp_path, capsys):
    path = tmp_path / "mix.json"
    assert run(capsys, "exemplar", "mix", "--out", str(path))[0] == 0
    code, out, _ = run(capsys, "separability", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "separable"


def test_classical_validate_counterexample_exits_one(tmp_path, capsys):
    path = tmp_path / "ce.json"
    assert run(capsys, "exemplar", "counterexample", "--out", str(path))[0] == 0
    code, out, _ = run(capsys, "classical", "validate", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False


def test_classical_validate_honours_the_budget(tmp_path, capsys):
    path = tmp_path / "afc.json"
    assert run(capsys, "exemplar", "af-classical", "--out", str(path))[0] == 0
    code, out, err = run(capsys, "classical", "validate", str(path), "--budget", "1")
    assert (code, out) == (2, "")
    assert "exceed the budget" in err
    code, out, _ = run(capsys, "classical", "validate", str(path))
    assert code == 0
    assert json.loads(out)["tuples_checked"] == 64


def test_classical_polytope_and_extend(tmp_path, capsys):
    path = tmp_path / "afc.json"
    assert run(capsys, "exemplar", "af-classical", "--out", str(path))[0] == 0
    code, out, _ = run(capsys, "classical", "polytope", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["inside"] is True
    ext_path = tmp_path / "ext.json"
    code, out, _ = run(capsys, "classical", "extend", str(path), "--out", str(ext_path))
    assert code == 0
    report = json.loads(out)
    assert report["marginal_reproduced"] is True
    assert ext_path.exists()


def test_classical_quantize_roundtrip(tmp_path, capsys):
    path = tmp_path / "afc.json"
    assert run(capsys, "exemplar", "af-classical", "--out", str(path))[0] == 0
    qpath = tmp_path / "afq.json"
    code, out, _ = run(capsys, "classical", "quantize", str(path), "--out", str(qpath))
    assert code == 0
    assert json.loads(out)["valid"] is True
    code, out, _ = run(capsys, "validate", str(qpath))
    assert code == 0


def test_reports_carry_input_digest(tmp_path, capsys):
    path = tmp_path / "mix.json"
    assert run(capsys, "exemplar", "mix", "--out", str(path))[0] == 0
    _, out, _ = run(capsys, "validate", str(path))
    report = json.loads(out)
    assert report["input"] == str(path)
    assert len(report["sha256"]) == 64
    expected = hashlib.sha256(path.read_bytes()).hexdigest()
    assert report["sha256"] == expected


def test_report_digest_is_of_the_bytes_that_were_parsed(tmp_path, capsys, monkeypatch):
    # the file is replaced after it is parsed and before the report is built
    path = tmp_path / "mix.json"
    write_process_file(path, make_mix_example())
    parsed = path.read_bytes()
    to_process = cli.dict_to_process

    def to_process_then_replace(doc):
        loaded = to_process(doc)
        path.write_text("{}")
        return loaded

    monkeypatch.setattr(cli, "dict_to_process", to_process_then_replace)
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert json.loads(out)["sha256"] == hashlib.sha256(parsed).hexdigest()


def test_malformed_files_exit_two(tmp_path, capsys, bad_docs):
    path = tmp_path / "bad.json"
    for name, doc in bad_docs.items():
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (2, ""), name
        assert err.startswith("error: "), name


def test_internal_failure_exits_three_with_one_json_line(tmp_path, capsys, monkeypatch):
    path = tmp_path / "mix.json"
    assert run(capsys, "exemplar", "mix", "--out", str(path))[0] == 0

    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(cli, "validate_process", broken)
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (3, "")
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "eigenvalues did not converge", "type": "LinAlgError"}


WITHOUT_SCIPY_OR_NETWORKX = """
import contextlib, io, json, sys
sys.modules["scipy"] = sys.modules["networkx"] = None  # importing either now raises ImportError
sys.path.insert(0, {src!r})
import numpy as np
import causalproc as cp
from causalproc import cli

rng = np.random.default_rng(0)
assert cp.haar_unitary(4, rng).shape == (4, 4)
assert cp.random_unitary_chain(3, rng).nodes
assert len(cp.random_cptp(2, 3, rng)) == 2
try:
    cp.polytope_membership(cp.make_classical_switch(2).to_classical(), budget=1)
except ValueError as exc:
    assert "exceed the budget" in str(exc)
else:
    raise AssertionError("the budget did not reject the call")
codes = []
for command in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(command.split()))
print(json.dumps(codes))
"""


def test_runs_without_scipy_or_networkx(tmp_path):
    expected = {
        **{f"exemplar {n}": 0 for n in EXEMPLAR_NAMES},
        **{f"validate {n}.json": 1 if n == "counterexample" else 0 for n in EXEMPLAR_NAMES},
        **{f"comb --search {n}.json": 0 if n == "mix" else 1 for n in EXEMPLAR_NAMES},
        "comb --order A,B mix.json": 0,
        **{f"discover {n}.json": 0 for n in EXEMPLAR_NAMES},
        "separability mix.json": 0,
        **{
            f"classical {sub} {n}.json": 1 if n == "counterexample" else 0
            for sub in ("validate", "polytope", "extend", "quantize")
            for n in ("af-classical", "counterexample")
        },
    }
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = WITHOUT_SCIPY_OR_NETWORKX.format(src=src, commands=list(expected))
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True, check=True, timeout=120
    )
    assert dict(zip(expected, json.loads(out.stdout.splitlines()[-1]))) == expected


VALIDATE_IN_FRESH_PROCESS = """
import sys
sys.path.insert(0, {src!r})
from causalproc import cli
code = cli.main(["validate", {path!r}])
print("scipy" in sys.modules, code)
"""


def test_validate_does_not_import_scipy(tmp_path, capsys):
    path = tmp_path / "switch.json"
    assert run(capsys, "exemplar", "switch", "--out", str(path))[0] == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = VALIDATE_IN_FRESH_PROCESS.format(src=src, path=str(path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "False 0"


DISCOVER_IN_FRESH_PROCESS = """
import sys
sys.path.insert(0, {src!r})
from causalproc import cli
code = cli.main(["discover", {path!r}])
print("networkx" in sys.modules, code)
"""


def test_discover_does_not_import_networkx(tmp_path, capsys):
    path = tmp_path / "switch.json"
    assert run(capsys, "exemplar", "switch", "--out", str(path))[0] == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = DISCOVER_IN_FRESH_PROCESS.format(src=src, path=str(path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "False 0"



def test_discover_pads_a_large_product_on_its_stored_entries(tmp_path, capsys):
    # A no-signalling product of 8 qubit nodes, 1/2 on each in-space and 1 on
    # each out-space: a diagonal 65536-dim operator. No Markov factor touches
    # an out-space, so discover pads all eight with an identity, whose dense
    # form would need 64 GiB, on the 256 stored entries of the factors' product.
    n, d = 8, 4**8
    doc = {
        "format_version": 2,
        "kind": "quantum",
        "nodes": [{"name": f"N{i}", "d_in": 2, "d_out": 2, "kind": "quantum"} for i in range(n)],
        "payload": {"index": [k * (d + 1) for k in range(d)], "values": [[2.0**-n, 0.0]] * d},
    }
    path = tmp_path / "prod8.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "validate", str(path))[0] == 0
    out = run_capped("discover", str(path))
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["markov_accepted"] and report["edges"] == [] and report["product_residual"] <= 1e-12


def run_capped(*argv):
    """The CLI in a child process under a 4 GiB address-space cap, which turns
    an attempt at a dense side² allocation into a prompt MemoryError (exit 3)
    instead of an allocation of many GiB."""
    resource = pytest.importorskip("resource")
    cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = f"import sys; sys.path.insert(0, {src!r}); from causalproc import cli; sys.exit(cli.main({list(argv)!r}))"
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, preexec_fn=cap)


def classical_chain(names, card):
    """The classical process in which the first node reads 0 and each other
    node reads the previous one's output."""
    outs = np.indices((card,) * len(names), dtype=np.int64)
    nodes = tuple(ClassicalNode(name, card, card) for name in names)
    return DeterministicProcess(nodes, np.stack([np.zeros_like(outs[0]), *outs[:-1]], axis=-1)).to_classical()


def test_classical_chain_of_16384_dims_is_quantized_on_its_diagonal(tmp_path):
    path = tmp_path / "chain7.json"
    write_process_file(path, classical_chain("ABCDEFG", 2))
    checks = {("comb", "--search"): ("found", list("ABCDEFG")), ("comb", "--order", "A,B,C,D,E,F,G"): ("accepted", True),
              ("classical", "quantize"): ("valid", True)}
    for argv, (field, value) in checks.items():
        out = run_capped(*argv, str(path))
        assert out.returncode == 0, (argv, out.stderr)
        assert json.loads(out.stdout)[field] == value, argv


def test_densifying_beyond_the_byte_budget_is_a_usage_error(tmp_path):
    # A mixture of the two one-way orders of two 12-card nodes: its quantized
    # diagonal has 20736 dims, whose dense matrix would need 6.4 GiB.
    nodes = (ClassicalNode("A", 12, 12), ClassicalNode("B", 12, 12))
    a, b = np.indices((12, 12), dtype=np.int64)
    tables = [DeterministicProcess(nodes, np.stack(f, axis=-1)).to_classical().table for f in ([0 * a, a], [b, 0 * b])]
    path = tmp_path / "mix12.json"
    write_process_file(path, ClassicalProcess(nodes, (tables[0] + tables[1]) / 2))
    out = run_capped("separability", str(path))
    assert (out.returncode, out.stdout) == (2, ""), out.stderr
    assert f"would need {16 * 20736**2} bytes" in out.stderr
    assert "Traceback" not in out.stderr


def test_both_validate_routes_share_the_enumeration_budget(tmp_path, capsys):
    # 27**5 = 14348907 tuples of local maps on five ternary nodes
    path = tmp_path / "tern5.json"
    write_process_file(path, classical_chain("ABCDE", 3))
    codes = [run(capsys, *route, str(path))[0] for route in (["validate"], ["classical", "validate"])]
    assert codes == [0, 0]


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "--tol", "nan"),
        ("validate", "--tol=-1e-9"),
        ("validate", "--tol", "inf"),
        ("discover", "--tol", "nan"),
        ("comb", "--search", "--tol", "-1"),
        ("classical", "validate", "--tol", "nan"),
        ("separability", "--tol", "-0.5"),
        ("separability", "--max-iter", "0"),
        ("separability", "--max-iter", "-3"),
        ("comb", "--search", "--budget", "0"),
        ("comb", "--search", "--budget", "-3"),
        ("classical", "extend", "--budget", "0"),
        ("classical", "polytope", "--budget", "-3"),
    ],
)
def test_unusable_tolerance_or_iteration_count_is_a_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "mix.json"
    assert run(capsys, "exemplar", "mix", "--out", str(path))[0] == 0
    with pytest.raises(SystemExit) as exc:
        main([*argv, str(path)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "usage:" in err


def test_zero_tolerance_and_one_iteration_are_accepted(tmp_path, capsys):
    path = tmp_path / "mix.json"
    assert run(capsys, "exemplar", "mix", "--out", str(path))[0] == 0
    _, out, _ = run(capsys, "validate", "--tol", "0", str(path))
    assert json.loads(out)["tol"] == 0.0
    _, out, _ = run(capsys, "separability", "--max-iter", "1", str(path))
    assert json.loads(out)["max_iter"] == 1


def exemplar_file(capsys, tmp_path, name):
    path = tmp_path / f"{name}.json"
    assert run(capsys, "exemplar", name, "--out", str(path))[0] == 0
    return str(path)


def test_comb_search_prints_the_order_found_and_its_residuals(tmp_path, capsys):
    code, out, _ = run(capsys, "comb", "--search", exemplar_file(capsys, tmp_path, "mix"))
    assert code == 0
    report = json.loads(out)
    assert report["found"] == ["B", "A"]
    assert len(report["residuals"]) == 2
    assert max(report["residuals"]) < 1e-9


def test_validate_lists_psd_and_type_failures(tmp_path, capsys):
    # A large Z on A's output alone: a forbidden type that also breaks positivity.
    sigma = make_mix_example()
    z = LabeledOperator((sigma.op.system("A.out"),), np.diag([3.0, -3.0]).astype(complex))
    bad = process_operator(sigma.nodes, sigma.op + embed(z, sigma.op.systems))
    path = tmp_path / "forbidden.json"
    write_process_file(path, bad)
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["failed_conditions"] == ["positive-semidefinite", "allowed-types"]
    assert report["psd_ok"] is False
    assert report["offending_types"]


def test_validate_reports_a_classical_table(tmp_path, capsys):
    code, out, _ = run(capsys, "validate", exemplar_file(capsys, tmp_path, "af-classical"))
    assert code == 0
    report = json.loads(out)
    assert (report["kind"], report["valid"]) == ("classical", True)
    assert report["tuples_checked"] > 0


def test_quantum_commands_quantize_a_classical_table(tmp_path, capsys):
    path = exemplar_file(capsys, tmp_path, "af-classical")
    code, out, _ = run(capsys, "discover", path)
    assert code == 0
    report = json.loads(out)
    assert (report["vertices"], report["cyclic"]) == (["A", "B", "C"], True)
    code, out, _ = run(capsys, "comb", "--search", path)
    assert code == 1
    assert json.loads(out)["found"] is None
    nodes = (ClassicalNode("A", 2, 2), ClassicalNode("B", 2, 2))
    a, _ = np.indices((2, 2), dtype=np.int64)
    chain = tmp_path / "chain.json"
    write_process_file(chain, DeterministicProcess(nodes, np.stack([np.zeros_like(a), a], axis=-1)).to_classical())
    code, out, _ = run(capsys, "separability", str(chain))
    assert code == 0
    assert json.loads(out)["status"] == "separable"


def test_classical_command_on_a_quantum_file_exits_two(tmp_path, capsys):
    code, out, err = run(capsys, "classical", "polytope", exemplar_file(capsys, tmp_path, "mix"))
    assert (code, out) == (2, "")
    assert err == "error: this command needs a classical process file\n"


def test_classical_extend_outside_the_hull_exits_one(tmp_path, capsys):
    code, out, _ = run(capsys, "classical", "extend", exemplar_file(capsys, tmp_path, "counterexample"))
    assert code == 1
    report = json.loads(out)
    assert report["inside"] is False
    assert report["message"] == "process lies outside the deterministic hull; no reversible extension"
    assert "out" not in report


ENVELOPE = ("command", "input", "sha256", "tol")


def _commands(capsys, tmp_path, bad_docs):
    """The exemplar files, keyed by name, and three argv lists over them:
    exports, file-reading commands that exit 0 or 1, and usage errors."""
    files = {name: exemplar_file(capsys, tmp_path, name) for name in EXEMPLAR_NAMES}
    exports = [("exemplar", name, "--out", str(tmp_path / f"again-{name}.json")) for name in EXEMPLAR_NAMES]
    reading = [("validate", f) for f in files.values()]
    reading += [("discover", files[n], "--dot", str(tmp_path / f"{n}.dot")) for n in ("switch", "af", "mix")]
    reading += [("comb", "--order", order, files["mix"]) for order in ("A,B", "B,A")]
    reading += [("comb", "--search", files[n]) for n in ("switch", "af", "mix", "af-classical")]
    reading += [("separability", files["mix"])]
    reading += [("classical", sub, files[n]) for sub in ("validate", "quantize")
                for n in ("af-classical", "classical-switch", "counterexample")]
    # classical-switch has 2^64 candidate functions, beyond the enumeration budget
    reading += [("classical", "polytope", files[n]) for n in ("af-classical", "counterexample")]
    reading += [("classical", "extend", files[n], "--out", str(tmp_path / f"ext-{n}.json"))
                for n in ("af-classical", "counterexample")]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(next(iter(bad_docs.values()))))
    refused = [("validate", str(broken)), ("classical", "validate", files["mix"]),
               ("exemplar", "quux"), ("discover", files["mix"], "--dot", str(tmp_path))]
    return files, exports, reading, refused


def test_every_command_reports_deterministically(tmp_path, capsys, bad_docs, monkeypatch):
    """Each command, run twice, prints the same report once ``runtime_s`` is
    dropped; file-reading reports open with the envelope keys in order; usage
    and internal failures print nothing on stdout."""
    files, exports, reading, refused = _commands(capsys, tmp_path, bad_docs)
    for argv in exports + reading:
        reports = []
        for _ in range(2):
            code, out, _ = run(capsys, *argv)
            assert code in (0, 1), argv
            report = json.loads(out)
            assert isinstance(report.pop("runtime_s"), float), argv
            reports.append((code, report))
        assert reports[0] == reports[1], argv
        keys = list(reports[0][1])
        if argv in reading:
            assert keys[:4] == list(ENVELOPE), argv
        else:
            assert keys == ["command", "name", "out", "sha256"], argv

    for argv in refused:
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
    with pytest.raises(SystemExit):
        main(["comb", files["mix"]])
    assert capsys.readouterr().out == ""

    def broken_search(*args, **kwargs):
        raise RuntimeError("search failed")

    monkeypatch.setattr(combs, "_search", broken_search)
    assert run(capsys, "comb", "--search", files["mix"])[:2] == (3, "")


# each report of _commands' argvs, keyed by argv with the scratch directory as
# TMP: its exit code, stderr and report without the fields that name or hash a
# path or time the run. Set CAUSALPROC_RECORD_REPORTS=1 to write it afresh.
REPORTS = Path(__file__).parent / "data" / "cli-reports.json"
VOLATILE = {"runtime_s", "input", "sha256", "out", "dot"}


def _matches(got, want) -> bool:
    """Equal keys, strings, bools, ints and None; floats within 1e-12 + 1e-9|want|
    (another BLAS may round the last bit differently); NaN matches NaN."""
    if isinstance(want, float) and isinstance(got, float):
        return got == want or abs(got - want) <= 1e-12 + 1e-9 * abs(want) or (got != got and want != want)
    if isinstance(want, dict) and isinstance(got, dict):
        return list(got) == list(want) and all(_matches(got[k], want[k]) for k in want)
    if isinstance(want, list) and isinstance(got, list):
        return len(got) == len(want) and all(_matches(g, w) for g, w in zip(got, want))
    return type(got) is type(want) and got == want


def test_every_report_matches_the_recorded_one(tmp_path, capsys, bad_docs):
    _, exports, reading, refused = _commands(capsys, tmp_path, bad_docs)
    got = {}
    for argv in exports + reading + refused:
        code, out, err = run(capsys, *argv)
        report = {k: v for k, v in json.loads(out).items() if k not in VOLATILE} if out else None
        key = " ".join(argv).replace(str(tmp_path), "TMP")
        got[key] = {"exit": code, "stderr": err.replace(str(tmp_path), "TMP"), "report": report}
    if os.environ.get("CAUSALPROC_RECORD_REPORTS") == "1":
        REPORTS.write_text(json.dumps(got, indent=1) + "\n")
    want = json.loads(REPORTS.read_text())
    assert list(got) == list(want)
    for key, entry in want.items():
        assert _matches(got[key], entry), (key, got[key], entry)


# the installed script's wrapper: import the entry named in pyproject.toml and exit with its code
SCRIPT = "import sys; from causalproc.__main__ import main; sys.exit(main())"


def _report(out: str):
    """A command's stdout with ``runtime_s`` left out (empty stays empty)."""
    return {k: v for k, v in json.loads(out).items() if k != "runtime_s"} if out else out


@pytest.mark.parametrize("argv, want", [(["validate", "mix.json"], 0), (["validate", "counterexample.json"], 1),
                                        (["validate", "missing.json"], 2)])
def test_both_process_entries_run_the_command_as_in_process_main(argv, want, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name in ("mix", "counterexample"):
        assert run(capsys, "exemplar", name, "--out", f"{name}.json")[0] == 0
    code, out, err = run(capsys, *argv)
    assert code == want
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    for entry in (["-m", "causalproc"], ["-c", SCRIPT]):
        child = subprocess.run([sys.executable, *entry, *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert (child.returncode, _report(child.stdout), child.stderr) == (code, _report(out), err)


def test_the_installed_script_is_the_process_entry():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert 'causalproc = "causalproc.__main__:main"' in pyproject.splitlines()


CLI_COLLECTOR_IN_FRESH_PROCESS = """
import gc, json, sys
sys.path.insert(0, {src!r})
start = gc.isenabled(), gc.get_freeze_count()
import causalproc.cli
after_import = gc.isenabled(), gc.get_freeze_count()
code = causalproc.cli.main(["exemplar", "switch", "--out", "switch.json"])
print(json.dumps([start, after_import, code, [gc.isenabled(), gc.get_freeze_count()]]))
"""

ENTRY_COLLECTOR_IN_FRESH_PROCESS = """
import gc, json, sys
sys.path.insert(0, {src!r})
sys.argv = ["causalproc", "validate", "switch.json"]
from causalproc import __main__ as entry
imported = gc.isenabled(), gc.get_freeze_count()
collections = []  # the freeze count at the start of each collection
gc.set_threshold(1)  # any allocation starts a collection while the collector is on
gc.callbacks.append(lambda phase, info: phase == "start" and collections.append(gc.get_freeze_count()))
code = entry.main()
enabled = gc.isenabled()
gc.disable()  # so the collections listed are those of main alone
print(json.dumps([imported, code, collections, enabled, gc.get_freeze_count()]))
"""


def _fresh(code: str, cwd) -> list:
    out = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True, text=True, check=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


def test_only_the_process_entry_pauses_and_freezes_the_collector(tmp_path):
    # importing cli and calling cli.main leave the collector on and nothing frozen
    start, after_import, code, after_main = _fresh(CLI_COLLECTOR_IN_FRESH_PROCESS.format(src=SRC), tmp_path)
    assert start == after_import == after_main == [True, 0] and code == 0
    # importing the entry leaves the collector alone too; its main loads
    # cli, numpy and the package with no collection (none runs before the
    # first freeze) and turns the collector back on for the command
    imported, code, collections, enabled_at_exit, frozen_at_exit = _fresh(ENTRY_COLLECTOR_IN_FRESH_PROCESS.format(src=SRC), tmp_path)
    assert imported == [True, 0] and code == 0 and enabled_at_exit
    assert collections and min(collections) > 0
    # what is left at exit is frozen
    assert frozen_at_exit > collections[-1]
