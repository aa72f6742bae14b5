"""Checks on the library source itself."""

import ast
import inspect
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


def test_oracles_stay_out_of_production():
    # factored_propagate (through q's eigenpairs) and dense_propagator are
    # the oracles the engines' closed-form ket is checked against: only
    # dynamics, which defines them, and verify, which compares them, may name
    # them (the package root re-exports the public two), so neither can
    # quietly become production again
    oracles = {"factored_propagate", "dense_propagator", "_eigenpairs"}

    def names(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.name

    found = [f"{path.name}: {name}" for path in SOURCES
             if path.name not in ("dynamics.py", "verify.py", "__init__.py")
             for name in names(ast.parse(path.read_text(encoding="utf-8"))) if name in oracles]
    assert {"interferometer.py", "dissipation.py", "sweep.py", "cli.py",
            "analytics.py"} <= {path.name for path in SOURCES}
    assert found == []


def test_measurement_layer_is_gone():
    # the engines contract plain arrays directly; neither the labelled
    # operator layer nor the labelled state layer may come back as dead
    # public surface
    from optoweak import DEFAULT_TOL, fock
    names = ("Operator", "expectation", "pointer_shift", "project_fock", "reduced_density",
             "MODE_LABELS", "ModeLayout", "StateVector", "DensityMatrix", "tensor",
             "fock_state", "vacuum_state")
    found = [n for n in names if hasattr(optoweak, n) or hasattr(fock, n)]
    found += [f"Tolerances.{attr}" for attr in ("hermitian_atol", "trace_atol", "positivity_floor")
              if hasattr(DEFAULT_TOL, attr)]
    if hasattr(optoweak.dynamics, "_require_am"):
        found.append("dynamics._require_am")
    assert found == []


def test_benchmark_api_exists():
    # the names and argument names the benchmark harness calls or wraps
    from optoweak import dissipation, dynamics, fock, interferometer, sweep
    for owner, names in ((fock, ("coherent_state",)),
                         (dynamics, ("factored_propagate", "evolution_params")),
                         (dissipation, ("evolve_master", "damped_protocol")),
                         (interferometer, ("ProtocolParams", "run_protocol")),
                         (sweep, ("load_config", "write_csv", "iter_sweep_rows"))):
        assert all(callable(getattr(owner, name, None)) for name in names), owner
    assert "engine" in sweep.SWEEP_HEADER
    params = inspect.signature(dissipation.evolve_master).parameters
    assert {"params", "total_time"} <= set(params)
