"""The four stock sweeps against their committed CSV bodies.

``data/sweep-<case>.csv`` is the body (header and rows, no ``#`` metadata)
of ``slabqed sweep --case <case>`` at the stock resolution, ppw 40. A change
that moves a rate beyond round-off fails here; one that means to must
regenerate the files and say by how much the rates moved.

Rates are normalized to the free-space rate 1, so the absolute floor 1e-14
only matters where a rate is itself round-off: ``pf_b`` is ~6e-18 at the
opaque 2A row at omega 500. ``tec_residual`` is not compared: at that row
it is a ratio of two round-off numbers.
"""

from pathlib import Path

import numpy as np
import pytest

from slabqed.cli import main

DATA = Path(__file__).resolve().parent / "data"
RATES = ("pf_sfa", "pf_b", "pf_m", "pf_modified_ln", "pf_original_ln",
         "pf_modes")


def read_body(path):
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if not ln.startswith("#")]
    header = lines[0].split(",")
    columns = zip(*(ln.split(",") for ln in lines[1:]))
    return header, dict(zip(header, columns))


@pytest.mark.parametrize("case", ["1A", "1B", "2A", "2B"])
def test_stock_sweep_matches_the_committed_reference(case, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--case", case, "--out", str(out)]) == 0
    header, got = read_body(out)
    ref_header, ref = read_body(DATA / f"sweep-{case}.csv")
    assert header == ref_header
    assert got["omega_a"] == ref["omega_a"]
    for name in RATES:
        filled = [value != "" for value in ref[name]]
        assert [value != "" for value in got[name]] == filled, name
        if any(filled):
            np.testing.assert_allclose(
                np.array(got[name], dtype=float),
                np.array(ref[name], dtype=float),
                rtol=1e-10, atol=1e-14, err_msg=name)
