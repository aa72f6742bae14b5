"""Checks on the library source itself."""

import ast
import inspect
import re
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
    # the reference propagators are defined in oracle.py alone, and only
    # verify, which compares the engines against them, and the package root,
    # which re-exports them, import it, so no oracle can quietly become
    # production again
    oracles = {"factored_propagate", "_eigenpairs", "dense_propagator", "_hamiltonian",
               "weak_approx_propagate", "lindblad_rhs"}

    def imports_oracle(node):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            return (module in (".oracle", "optoweak.oracle")
                    or module in (".", "optoweak") and any(a.name == "oracle" for a in node.names))
        return isinstance(node, ast.Import) and any(a.name == "optoweak.oracle"
                                                    for a in node.names)

    imported, defined = [], []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if imports_oracle(node) and path.name not in ("oracle.py", "verify.py",
                                                          "__init__.py"):
                imported.append(f"{path.name}:{node.lineno}")
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in oracles
                    and path.name != "oracle.py"):
                defined.append(f"{path.name}: {node.name}")
    assert {"oracle.py", "interferometer.py", "dissipation.py", "dynamics.py", "sweep.py",
            "cli.py"} <= {path.name for path in SOURCES}
    assert imported == [] and defined == []


def test_dynamics_holds_only_the_shared_parameters():
    # the engines' closed-form ket and block integrator need only these
    tree = ast.parse(inspect.getsource(optoweak.dynamics))
    defs = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defs == {"EvolutionParams", "evolution_params", "_mirror_tail"}


def test_readme_layout_names_every_module():
    # the README's src/optoweak/ block lists each module, and only modules
    # that exist (the package marker __init__.py aside)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```\nsrc/optoweak/\n", 1)[1].split("```", 1)[0]
    listed = set(re.findall(r"^  (\w+\.py) ", block, flags=re.M))
    assert listed == {path.name for path in SOURCES} - {"__init__.py"}


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
                         (dynamics, ("evolution_params",)),
                         (dissipation, ("evolve_master", "damped_protocol")),
                         (interferometer, ("ProtocolParams", "run_protocol")),
                         (sweep, ("load_config", "write_csv", "iter_sweep_rows"))):
        assert all(callable(getattr(owner, name, None)) for name in names), owner
    assert "engine" in sweep.SWEEP_HEADER
    params = inspect.signature(dissipation.evolve_master).parameters
    assert {"params", "total_time"} <= set(params)
