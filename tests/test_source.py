"""Checks on the library source itself."""

import ast
from pathlib import Path

import optoweak

SOURCES = sorted(Path(optoweak.__file__).resolve().parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # python -O strips assert, so invariants raise typed errors instead
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert SOURCES and found == []


def test_library_does_not_import_scipy():
    # the engines are numpy-only; scipy is a test extra in pyproject.toml
    def roots(node):
        if isinstance(node, ast.Import):
            return {alias.name.split(".")[0] for alias in node.names}
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            return {node.module.split(".")[0]}
        return set()

    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if "scipy" in roots(node)]
    assert SOURCES and found == []


def test_measurement_layer_is_gone():
    # the engines contract arrays directly; the labelled operator layer that
    # only tests called must not come back as dead public surface
    from optoweak import DEFAULT_TOL, DensityMatrix, ModeLayout, fock
    names = ("Operator", "expectation", "pointer_shift", "project_fock", "reduced_density")
    found = [n for n in names if hasattr(optoweak, n) or hasattr(fock, n)]
    found += [f"{owner.__name__}.{attr}" for owner, attr in (
        (DensityMatrix, "partial_trace"), (ModeLayout, "without"),
        (type(DEFAULT_TOL), "hermitian_atol")) if hasattr(owner, attr)]
    assert found == []
