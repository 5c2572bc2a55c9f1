"""Import structure of the package, read from the source with ``ast``.

The oracle must stay independent of the finite-element stack, modules talk
through public names only, the element quadrature rule, the LU, every
other LAPACK call and the one per-owner cache (``kept``) live in ``fem``
(``identities`` factors the systems it checks through ``fem``'s LU), so
does the slab's law chi(k) M_slab (the routes read the operator's slab
term), no module runs a dense eigensolver or a dense linear solve, and
nothing runs on a thread pool. No module imports scipy: ``fem`` loads only its
compiled LAPACK wrapper. The LU has one solve, ``Factorization.solve``. The
benchmark's trace hooks must name functions that exist, and every solve of
a sweep is a call of the one its ``fem.solve`` layer times. A whole
``modes`` run loads no module beyond the CLI's and the two it is known to
need.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
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
    """Every identifier a tree names: attribute, import and definition
    names included."""
    return {
        node.id if isinstance(node, ast.Name)
        else node.attr if isinstance(node, ast.Attribute)
        else node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias,
                             ast.FunctionDef, ast.ClassDef))
    }


@pytest.mark.parametrize("name", sorted(set(MODULES) - {"fem"}))
def test_only_fem_knows_the_gauss_rule(name):
    assert "GAUSS_NODES" not in names_in(MODULES[name])


@pytest.mark.parametrize("name", sorted(set(MODULES) - {"fem"}))
def test_only_fem_builds_an_lu(name):
    # solvers ask fem.factorization for the LU; none builds or passes one.
    # The identity checks alone factor a system themselves, the one they
    # check, once per walk in _relative_residuals, which walks its columns
    tree = MODULES[name]
    if name != "identities":
        assert "Factorization" not in names_in(tree)
    else:
        assert {node.name for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and "Factorization" in names_in(node)} == {
                    "_relative_residuals"}


# The slab enters the operator as L - L_vac = -k^2 chi(k) M_slab, and that
# law stays in fem: the routes read the operator's slab term (the load, the
# slab loss, the loss bands), never chi(k) or the slab mass bands
SLAB_LAW = {"susceptibility", "chi", "static_bands", "StaticBands",
            "slab_inner"}


@pytest.mark.parametrize("name", ["cli", "crosscheck", "greens",
                                  "identities", "purcell", "scattering"])
def test_only_fem_reads_the_slab_law(name):
    tree = MODULES[name]
    arguments = {node.arg for node in ast.walk(tree)
                 if isinstance(node, (ast.arg, ast.keyword))}
    assert not SLAB_LAW & (names_in(tree) | arguments)


# The lattice wavenumber kt sets both the outgoing boundary and the wave
# that drives the scattering states. fem finds it once per element length
# class and the LU carries the wave, so kt = k would change fem alone
@pytest.mark.parametrize("name", sorted(set(MODULES) - {"fem", "mesh"}))
def test_only_fem_knows_the_lattice_dispersion(name):
    assert not ({"length_classes", "lattice_wavenumber"}
                & names_in(MODULES[name]))


def imported_modules(tree):
    """Every module a tree imports, or imports names from."""
    return {
        alias.name if isinstance(node, ast.Import) else node.module
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }


@pytest.mark.parametrize("name", sorted(set(MODULES) - {"fem"}))
def test_only_fem_keeps_work_per_owner(name):
    # every cache kept with a mesh or a system is a slot of fem.kept
    assert "weakref" not in imported_modules(MODULES[name])


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
def test_the_lu_has_one_solve(name):
    # Factorization.solve, in place, is the only way to solve with an LU
    assert "solve_in_place" not in names_in(MODULES[name])


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_module_imports_scipy(name):
    # importing scipy.linalg took more than half of the process set-up;
    # fem loads scipy's compiled LAPACK wrapper by itself instead
    assert not any(module and module.startswith("scipy")
                   for module in imported_modules(MODULES[name]))


HEAVY = {"scipy.linalg", "scipy._lib", "numpy.f2py", "numpy.ma"}


def packages_loaded_by(probe):
    """Top two levels of every module in sys.modules after ``probe`` runs.

    The probe runs in a fresh interpreter, as a user's shell starts the CLI.
    """
    probe += "import sys\nprint(' '.join(sorted(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    loaded = subprocess.run([sys.executable, "-c", probe], env=env,
                            check=True, capture_output=True,
                            text=True).stdout.split()
    return {".".join(module.split(".")[:2]) for module in loaded}


def test_cli_import_leaves_heavy_modules_unloaded():
    # building a mesh and running a sweep point (the per-mesh length
    # classes of the lattice wave among them) must not pull in numpy.ma
    probe = (
        "import slabqed.cli\n"
        "from slabqed.medium import CASE_PRESETS\n"
        "from slabqed.purcell import purcell_mesh, sweep\n"
        "mesh = purcell_mesh(CASE_PRESETS['1'], 0.0625, k_max=700.0,"
        " ppw=40.0)\n"
        "assert sweep(mesh, CASE_PRESETS['1'], [500.0], 0.0625)\n"
    )
    assert packages_loaded_by(probe) & HEAVY == set()


def test_eigenmodes_leave_heavy_modules_unloaded():
    # a 1-D np.unique imports numpy.ma (~25 ms) on its first call; the
    # eigenmode route dedupes its counts and certificate sample without it
    probe = (
        "import slabqed.cli\n"
        "from slabqed.medium import CASE_PRESETS\n"
        "from slabqed.micromodes import (\n"
        "    BathConfig, build_gevp, diagonalize, gevp_mesh)\n"
        "medium = CASE_PRESETS['1']\n"
        "bath = BathConfig(n_bins=8, box_length=0.25)\n"
        "system = build_gevp(gevp_mesh(medium, bath, k_max=300.0), medium,\n"
        "                    bath)\n"
        "assert diagonalize(system, band=(1.0, 1000.0)).n_modes > 0\n"
    )
    assert packages_loaded_by(probe) & HEAVY == set()


def test_a_modes_run_loads_nothing_beyond_its_known_imports(tmp_path):
    # a fresh interpreter runs ``modes --case 1A`` whole. Beyond the CLI's
    # own imports it may load numpy.random (the start vectors of inverse
    # iteration) and locale (argparse's messages), as the row-by-row count
    # did: numpy.ma, scipy or any module a change brings in fails here
    probe = (
        "import json, locale, sys\n"
        "import numpy.random\n"
        "from slabqed.cli import main\n"
        "before = set(sys.modules)\n"
        f"assert main(['modes', '--case', '1A', '--out', "
        f"{str(tmp_path / 'modes.csv')!r}]) == 0\n"
        "print(json.dumps([sorted(set(sys.modules) - before),\n"
        "                  'numpy.ma' in sys.modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    added, masked = json.loads(out.splitlines()[-1])
    assert added == []
    assert not masked


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


@pytest.mark.parametrize("name", sorted(MODULES))
def test_dense_operators_only_for_the_pencil_reference(name):
    # dense copies of the bands and the pencil, and the pointwise slab
    # profile of a medium (the mesh places the slab by its elements), are
    # test references (tests/_dense_reference.py); no module forms them
    assert not {"dense_tridiagonal", "dense_operators", "in_slab",
                "relative_permittivity"} & names_in(MODULES[name])


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


def test_every_sweep_solve_is_the_hooked_one(monkeypatch, tmp_path):
    # the benchmark's fem.solve layer times the method its hook names: a
    # sweep's three single-column solves per frequency are all calls of it
    module_name, attr, _ = load_bench_hooks()["fem.solve"]
    *path, method = attr.split(".")
    owner = importlib.import_module(module_name)
    for name in path:
        owner = getattr(owner, name)
    original, calls = getattr(owner, method), []

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, method, counted)
    main = importlib.import_module("slabqed.cli").main
    assert main(["sweep", "--case", "1B",
                 "--out", str(tmp_path / "o.csv")]) == 0
    assert len(calls) == 3 * 101  # the stock grid's 101 frequencies
