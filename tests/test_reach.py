"""Every top-level definition in ``src/causalproc`` is reached from a product
surface, or is kept by name in ``KEPT`` with its reason.

The scan is by name, over the syntax tree alone. The roots are every name
that ``cli.py``, ``__main__.py``, ``tests/test_acceptance.py`` and
``perfbench/*.py`` refer to, every name the package's module-level code
refers to outside its imports and definitions, the module dunders that
Python calls itself, and ``KEPT``. A reached function or class reaches every
name its source refers to, as a bare name or as an attribute, in whichever
module that name is defined. Public code that only unit tests, the README or
CI scripts call is unreached, and fails the test until it is deleted or kept.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "causalproc"
SURFACES = ("cli.py", "__main__.py")
DUNDERS = {"__getattr__", "__dir__"}

# name -> why it is kept although no product surface calls it
KEPT = {
    "_dense_reference": "the dense path tests compare the kernels against; it sets labeled's private slots",
    "type_norms": "the public reader of the type-norm table every check reads; the benchmark declares its calls",
    "signalling_residual": "the measure that certifies a cut of the causal-order skeleton (ROADMAP item 13)",
    "process_to_dict": "public serializer",
}


def _names(node: ast.AST) -> set[str]:
    nodes = ast.walk(node)
    return {n.id if isinstance(n, ast.Name) else n.attr for n in nodes if isinstance(n, (ast.Name, ast.Attribute))}


def _definitions() -> tuple[dict[str, list[ast.AST]], dict[str, list[str]], set[str]]:
    """The package's top-level functions and classes by name, their
    "module:line name" sites, and the roots' names apart from ``KEPT``."""
    bodies: dict[str, list[ast.AST]] = {}
    sites: dict[str, list[str]] = {}
    roots = set(DUNDERS)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bodies.setdefault(node.name, []).append(node)
                sites.setdefault(node.name, []).append(f"{path.name}:{node.lineno} {node.name}")
                if path.name in SURFACES:
                    roots |= _names(node)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _names(node)
    for path in [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]:
        roots |= _names(ast.parse(path.read_text()))
    return bodies, sites, roots


def _reached(bodies, roots) -> set[str]:
    reached, todo = set(), [name for name in roots if name in bodies]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [n for body in bodies[name] for n in _names(body) if n in bodies]
    return reached


def test_every_definition_is_reached_or_kept():
    bodies, sites, roots = _definitions()
    reached = _reached(bodies, roots | set(KEPT))
    unreached = sorted(site for name, where in sites.items() if name not in reached for site in where)
    assert not unreached, f"reached only by unit tests, the README or CI; delete or keep: {unreached}"


def test_each_kept_name_is_needed():
    bodies, _, roots = _definitions()
    assert set(KEPT) <= set(bodies), sorted(set(KEPT) - set(bodies))
    for name in KEPT:
        assert name not in _reached(bodies, roots | set(KEPT) - {name}), f"{name} is reached without being kept"
