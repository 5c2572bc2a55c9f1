"""The FEM-vs-oracle residuals behind ``oracle-compare``."""

import numpy as np

from slabqed.cli import main
from slabqed.crosscheck import oracle_residuals
from slabqed.medium import ATOM_INSIDE, ATOM_OUTSIDE, CASE_PRESETS
from slabqed.purcell import purcell_mesh


def test_residuals_are_small_on_a_resolved_mesh():
    medium = CASE_PRESETS["2"]
    mesh = purcell_mesh(medium, ATOM_INSIDE, k_max=700.0, ppw=160.0)
    residuals = oracle_residuals(mesh, medium, 500.0, ATOM_INSIDE)
    assert all(0.0 < r < 5e-3 for r in residuals)


def test_oracle_compare_rows_are_the_residuals(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("case = 1B\nsweep.count = 2\noracle.ppw = 40\n")
    out = tmp_path / "oc.csv"
    main(["oracle-compare", "--config", str(cfg), "--out", str(out)])
    rows = [line.split(",") for line in out.read_text().splitlines()
            if line and not line.startswith("#")][1:]
    medium = CASE_PRESETS["1"]
    x_a = ATOM_OUTSIDE  # case 1B
    mesh = purcell_mesh(medium, x_a, k_max=700.0, ppw=40.0)
    for row, omega in zip(rows, (300.0, 700.0)):
        expected = oracle_residuals(mesh, medium, omega, x_a)
        np.testing.assert_allclose([float(v) for v in row[1:]], expected,
                                   rtol=1e-12)
