"""The package's import graph: sibling modules are imported at module level,
where a cycle fails at import time instead of hiding inside a function.  And
its public surface: the options of the exported functions."""

import ast
import inspect
from pathlib import Path

import rho_toolkit

PACKAGE = Path(rho_toolkit.__file__).parent
# kernel.is_rho_contraction reads radius_bisect, and radius imports kernel;
# the function stays in kernel because callers bind it there
ALLOWED = {("kernel", "is_rho_contraction", "radius")}


def _sibling(node: ast.AST):
    """The sibling module an import statement names, else None."""
    if isinstance(node, ast.ImportFrom):
        if node.level:
            return (node.module or "").split(".")[0] or node.names[0].name
        if (node.module or "").startswith("rho_toolkit."):
            return node.module.split(".")[1]
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name.startswith("rho_toolkit."):
                return alias.name.split(".")[1]
    return None


def function_local_imports():
    """(module, function, sibling) for each import of a sibling module made
    inside a function body, nested functions and methods included."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    sibling = _sibling(node)
                    if sibling is not None:
                        found.add((path.stem, fn.name, sibling))
    return found


def test_no_function_imports_a_sibling_module():
    assert function_local_imports() - ALLOWED == set()


def test_the_guard_sees_a_lazy_import():
    # the one allowed import is found, so an empty difference above means
    # no other exists rather than that none was seen
    assert ALLOWED <= function_local_imports()
    tree = ast.parse("def f():\n    from .radius import shift_radius\n")
    assert [_sibling(node) for node in ast.walk(tree)].count("radius") == 1


# (function, parameter) for every parameter with a default of a function in
# rho_toolkit.__all__; an option joins or leaves the public surface only by
# an edit here
PUBLIC_OPTIONS = {
    ("are_harnack_equivalent", "grid"), ("are_harnack_equivalent", "torus_angles"),
    ("circle_null_vectors", "tol"), ("determinant_radius", "tol"),
    ("domination_constant", "grid"), ("null_profile", "tol"), ("nullspace", "tol"),
    ("nullspace_equality", "torus_angles"), ("rotation_family_check", "tol"),
    ("run_battery", "n_max"), ("run_battery", "seed"), ("run_battery", "criteria"),
    ("shift_radius", "tol"), ("torus_nullspace", "tol"),
}


def test_public_options_are_pinned():
    found = set()
    for name in rho_toolkit.__all__:
        obj = getattr(rho_toolkit, name)
        if callable(obj) and not isinstance(obj, type):
            found |= {(name, p.name) for p in inspect.signature(obj).parameters.values()
                      if p.default is not p.empty}
    assert found == PUBLIC_OPTIONS
    assert len(rho_toolkit.__all__) == 70


# the one AssertionError the package raises: run_battery's guard against two
# checks with one id, a fault in the battery itself rather than a verdict
RAISED_ASSERTIONS = {("verify", "run_battery")}


def _assertion_raisers(tree: ast.AST) -> set:
    """Names of the functions of a module tree that raise AssertionError,
    called or bare; a nested function counts for its enclosing ones too."""
    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                exc = node.exc if isinstance(node, ast.Raise) else None
                if isinstance(exc, ast.Call):
                    exc = exc.func
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.add(fn.name)
    return found


def test_no_verdict_is_raised_as_an_assertion():
    # verdicts are checks of the battery, not exceptions of the library
    found = {(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
             for name in _assertion_raisers(ast.parse(path.read_text(), filename=str(path)))}
    assert found == RAISED_ASSERTIONS


def test_the_assertion_guard_sees_a_raise():
    tree = ast.parse("def f():\n    raise AssertionError('x')\n"
                     "def g():\n    raise AssertionError\n"
                     "def h():\n    raise ValueError('x')\n")
    assert _assertion_raisers(tree) == {"f", "g"}
