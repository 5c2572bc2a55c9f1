"""Import structure of the package, read from the source with ``ast``.

The oracle must stay independent of the finite-element stack, modules talk
through public names only, the element quadrature rule, the LU and every
other LAPACK call live in ``fem``, no module runs a dense eigensolver, and
nothing runs on a thread pool.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "slabqed"
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
