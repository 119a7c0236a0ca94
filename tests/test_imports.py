"""Each CLI command loads only the modules it runs, the lazy package
namespace binds the same objects as the submodules that define them, and the
README's module table names only code that exists."""

from __future__ import annotations

import argparse
import ast
import builtins
import functools
import importlib
import inspect
import json
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalproc
from causalproc import cli, labeled, make_bw_extension, make_switch

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")

LOADED_BY_COMMAND = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
import numpy
bare = "numpy.ma" in sys.modules
from causalproc import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
loaded = sorted(m for m in sys.modules if m.startswith("causalproc.") or m == "numpy.ma")
print(json.dumps({{"code": code, "bare_numpy_ma": bare, "loaded": loaded}}))
"""


def _loaded_by(argv, cwd) -> dict:
    code = LOADED_BY_COMMAND.format(src=SRC, argv=list(argv))
    out = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True, text=True, check=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def exemplar_files(tmp_path_factory):
    where = tmp_path_factory.mktemp("exemplars")
    for name in ("switch", "af-classical"):
        assert cli.main(["exemplar", name, "--out", str(where / f"{name}.json")]) == 0
    return where


def test_dir_lists_every_export_and_submodule():
    names = dir(causalproc)
    assert names == sorted(set(names)) and set(causalproc.__all__) | set(causalproc._EXPORTS) <= set(names)


def test_every_exported_class_has_its_own_docstring():
    """A dataclass without one gets its signature as ``__doc__``, which says nothing."""
    classes = [obj for obj in (getattr(causalproc, name) for name in causalproc.__all__) if inspect.isclass(obj)]
    bare = [c.__name__ for c in classes if not c.__dict__.get("__doc__") or c.__doc__.startswith(f"{c.__name__}(")]
    assert classes and not bare, bare


def test_importing_the_package_loads_no_submodule():
    code = f"import sys; sys.path.insert(0, {SRC!r}); import causalproc; print(sorted(m for m in sys.modules if m.startswith('causalproc')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "['causalproc']"


@pytest.mark.parametrize("argv", [["validate", "switch.json"], ["discover", "switch.json"], ["comb", "--search", "switch.json"]])
def test_quantum_file_commands_load_no_classical_exemplar_or_random_code(argv, exemplar_files):
    report = _loaded_by(argv, exemplar_files)
    assert report["code"] in (0, 1)
    assert not {"causalproc.classical", "causalproc.exemplars", "causalproc.rand"} & set(report["loaded"])


@pytest.mark.parametrize("argv", [["validate", "switch.json"], ["discover", "switch.json"]])
def test_validate_and_discover_load_no_comb_code(argv, exemplar_files):
    report = _loaded_by(argv, exemplar_files)
    assert report["code"] == 0
    assert "causalproc.combs" not in report["loaded"]


@pytest.mark.parametrize("sub", ["validate", "polytope", "extend", "quantize"])
def test_classical_commands_load_no_exemplar_code(sub, exemplar_files):
    report = _loaded_by(["classical", sub, "af-classical.json", "--out", f"{sub}-out.json"], exemplar_files)
    assert report["code"] == 0
    assert "causalproc.classical" in report["loaded"]
    assert "causalproc.exemplars" not in report["loaded"]


def test_sparse_validation_does_not_load_numpy_ma(exemplar_files):
    report = _loaded_by(["validate", "switch.json"], exemplar_files)
    assert report["code"] == 0
    # an older numpy may load numpy.ma on import; then there is nothing to check
    assert report["bare_numpy_ma"] or "numpy.ma" not in report["loaded"]


NAMESPACE_IN_FRESH_PROCESS = """
import importlib, pkgutil, sys
sys.path.insert(0, {src!r})
import causalproc as cp
assert "causalproc.hs" not in sys.modules and "causalproc.labeled" not in sys.modules
assert cp.hs is importlib.import_module("causalproc.hs") and cp.labeled.tensor is cp.tensor
assert len(set(cp.__all__)) == len(cp.__all__) == 102
submodules = [importlib.import_module(f"causalproc.{{info.name}}") for info in pkgutil.iter_modules(cp.__path__)]
for name in cp.__all__:
    value = getattr(cp, name)
    home = getattr(value, "__module__", None)
    if home is not None:  # a class or function: the object its defining module binds
        assert home.startswith("causalproc.") and getattr(sys.modules[home], name) is value, name
    else:  # a constant: every submodule that binds the name binds this object
        binders = [vars(module)[name] for module in submodules if name in vars(module)]
        assert binders and all(b is value for b in binders), name
star = {{}}
exec("from causalproc import *", star)
assert all(star[name] is getattr(cp, name) for name in cp.__all__)
assert set(cp.__all__) <= set(dir(cp)) and {{"hs", "labeled", "__version__"}} <= set(dir(cp))
assert not hasattr(cp, "no_such_name")
try:
    cp.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
print("ok", cp.__version__)
"""


def test_lazy_namespace_binds_the_defining_modules_objects():
    code = NAMESPACE_IN_FRESH_PROCESS.format(src=SRC)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "ok 0.1.0"


def test_readme_counts_the_names_a_star_import_binds():
    text = " ".join((ROOT / "README.md").read_text().split())
    counts = re.findall(r"`from causalproc import \*` binds the (\d+) names", text)
    assert counts == [str(len(causalproc.__all__))]


MODULE_STAR_IMPORTS = """
import json, sys
sys.path.insert(0, {src!r})
import causalproc as cp
wrong = {{}}
for module, names in cp._EXPORTS.items():
    star = {{}}
    exec(f"from causalproc.{{module}} import *", star)
    star.pop("__builtins__")
    if sorted(star) != sorted(names) or any(star[name] is not getattr(cp, name) for name in names):
        wrong[module] = sorted(set(star) ^ set(names))
print(json.dumps(wrong))
"""


def test_each_module_exports_exactly_its_entry_of_the_table():
    code = MODULE_STAR_IMPORTS.format(src=SRC)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(out.stdout.splitlines()[-1]) == {}


def _defined_names() -> set[str]:
    """The names the package's modules, and their classes, bind at their top level."""
    names = set()
    for path in (ROOT / "src" / "causalproc").glob("*.py"):
        tree = ast.parse(path.read_text())
        for scope in [tree, *(node for node in tree.body if isinstance(node, ast.ClassDef))]:
            for node in scope.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names.add(node.name)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def test_readme_module_table_names_only_code_that_exists():
    """Each backticked identifier of the README's module table, with or without
    a call's parentheses, is a module- or class-level name of the package, a
    package module, a builtin, a ``numpy.linalg`` name or a CLI subcommand. A
    dotted one rooted at a package module is an attribute of that module;
    dotted names on other roots (``np.dot``, ``op.matrix``) name no package
    code and are not checked."""
    modules = {"causalproc"} | {info.name for info in pkgutil.iter_modules(causalproc.__path__)}
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    known = _defined_names() | modules | set(dir(builtins)) | set(dir(np.linalg)) | set(commands) | set(cli.CLASSICAL_COMMANDS)
    rows = [line for line in (ROOT / "README.md").read_text().splitlines() if line.startswith("| `causalproc.")]
    assert rows
    missing = []
    for span in re.findall(r"`([^`]+)`", "\n".join(rows)):
        if not (m := re.fullmatch(r"\.?([A-Za-z_][\w.]*)(\(.*\))?", span)):
            continue
        root, *attrs = m[1].removeprefix("causalproc.").split(".")
        if not attrs and root not in known:
            missing.append(span)
        elif attrs and root in modules:
            try:
                functools.reduce(getattr, attrs, importlib.import_module(f"causalproc.{root}"))
            except AttributeError:
                missing.append(span)
    assert not missing, missing


def _blocks_by_unique(index, h, d):
    """``labeled._blocks`` with its distinct block sizes taken from ``np.unique``."""
    rows, cols = np.divmod(index, d)
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
    for s in np.unique(sizes):
        members = np.flatnonzero(sizes == s)
        slot = np.empty(sizes.size, dtype=np.int64)
        slot[members] = np.arange(members.size)
        sel = size == s
        b = np.zeros((members.size, s, s), dtype=h.dtype)
        b[slot[comp[rows[sel]]], pos[rows[sel]], pos[cols[sel]]] = h[sel]
        blocks.append(b)
    return blocks


def _assert_same_blocks(index, h, d):
    got, want = labeled._blocks(index, h, d), _blocks_by_unique(index, h, d)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("make", [lambda: make_switch(2), lambda: make_switch(3), lambda: make_switch(4), make_bw_extension])
def test_blocks_come_out_as_the_unique_loop_gives_them(make):
    op = make().op
    _, index, h = labeled._hermitian_entries(*labeled._entries(op), op.dim)
    _assert_same_blocks(index, h, op.dim)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 24), density=st.floats(0.0, 0.4), seed=st.integers(0, 2**32 - 1))
def test_blocks_of_random_sparse_hermitian_patterns_match_the_unique_loop(d, density, seed):
    rng = np.random.default_rng(seed)
    m = np.where(rng.random((d, d)) < density, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), 0)
    m = m + m.conj().T
    index = np.flatnonzero(m)
    _assert_same_blocks(index, m.reshape(-1)[index], d)
