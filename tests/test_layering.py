"""Import structure of the package, read from the source with ``ast``.

The oracle must stay independent of the finite-element stack, modules talk
through public names only, the element quadrature rule, the LU and every
other LAPACK call live in ``fem``, no module runs a dense eigensolver or a
dense linear solve, and nothing runs on a thread pool. The benchmark's trace
hooks must name functions that exist.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "slabqed"
MODULES = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}


def package_imports(tree):
    """(module, name) for every ``from .module import name`` in a tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").startswith("slabqed")
        ):
            module = (node.module or "").removeprefix("slabqed").lstrip(".")
            for alias in node.names:
                yield module, alias.name


def test_every_module_is_parsed():
    assert {"fem", "oracle", "scattering", "greens"} <= set(MODULES)


def test_oracle_imports_only_the_medium():
    assert {module for module, _ in package_imports(MODULES["oracle"])} == {
        "medium"
    }


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_private_names_cross_modules(name):
    private = [
        f"{module}.{imported}"
        for module, imported in package_imports(MODULES[name])
        if imported.startswith("_") and not imported.endswith("__")
    ]
    assert private == []


def names_in(tree):
    """Every identifier a tree names, attribute and import names included."""
    return {
        node.id if isinstance(node, ast.Name)
        else node.attr if isinstance(node, ast.Attribute)
        else node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    }


@pytest.mark.parametrize("name", sorted(set(MODULES) - {"fem"}))
def test_only_fem_knows_the_gauss_rule(name):
    assert "GAUSS_NODES" not in names_in(MODULES[name])


@pytest.mark.parametrize("name", sorted(set(MODULES) - {"fem"}))
def test_only_fem_builds_an_lu(name):
    # solvers ask fem.factorization for the LU; none builds or passes one
    assert "Factorization" not in names_in(MODULES[name])


def imported_modules(tree):
    """Every module a tree imports, or imports names from."""
    return {
        alias.name if isinstance(node, ast.Import) else node.module
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_module_uses_a_worker_pool(name):
    assert not any(module and module.startswith("concurrent")
                   for module in imported_modules(MODULES[name]))


@pytest.mark.parametrize("name", sorted(set(MODULES) - {"fem"}))
def test_only_fem_calls_lapack(name):
    # the tridiagonal kernels (LU, pivot count, inverse iteration) are fem's
    tree = MODULES[name]
    assert not {"get_lapack_funcs", "gttrf", "gttrs"} & names_in(tree)
    assert not any(module and module.startswith("scipy.linalg")
                   for module in imported_modules(tree))


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_dense_eigensolver_in_src(name):
    # eigenmodes come from the inertia count and inverse iteration
    assert not {"eigh", "eigvalsh", "eig"} & names_in(MODULES[name])


def attribute_chains(tree):
    """Every dotted name a tree uses, e.g. ``np.linalg.solve``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name):
                parts.append(node.id)
            yield ".".join(reversed(parts))


def dense_solves(tree):
    """Dense solves and inverses a tree calls, by attribute chain or import."""
    found = {chain for chain in attribute_chains(tree)
             if chain.endswith(("linalg.solve", "linalg.inv"))}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith(
                "linalg"):
            found |= {f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name in ("solve", "inv")}
    return found


# The oracle solves its fixed 4x4 face-matching system densely; it shares no
# code with the FEM, so it keeps its own solve. Operators go through fem's LU.
@pytest.mark.parametrize("name", sorted(set(MODULES) - {"oracle"}))
def test_no_dense_solve_in_src(name):
    assert dense_solves(MODULES[name]) == set()


def test_dense_solve_rule_sees_attribute_chains_and_imports():
    tree = ast.parse("import numpy as np\nfrom scipy.linalg import inv\n"
                     "x = np.linalg.solve(a, b)\ny = lu.solve(b)\n")
    assert dense_solves(tree) == {"np.linalg.solve", "scipy.linalg.inv"}


@pytest.mark.parametrize("name", sorted(set(MODULES) - {"fem", "micromodes"}))
def test_dense_operators_only_for_the_pencil_reference(name):
    # dense copies serve GevpSystem.dense_operators, the test reference
    assert "dense_tridiagonal" not in names_in(MODULES[name])


def load_bench_hooks():
    path = ROOT / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


@pytest.mark.parametrize("span", sorted(load_bench_hooks()))
def test_bench_trace_hooks_resolve(span):
    # a renamed layer would leave its per-layer metric reading 0
    module_name, attr, _ = load_bench_hooks()[span]
    target = importlib.import_module(module_name)
    for name in attr.split("."):
        target = getattr(target, name)
    assert callable(target)
