"""The stock runs against their committed CSV bodies.

``data/sweep-<case>.csv`` is the body (header and rows, no ``#`` metadata)
of ``slabqed sweep --case <case>`` at the stock resolution, ppw 40.
``data/oracle-compare-1B.csv`` is the body of ``oracle-compare --case 1B``
(``oracle.ppw`` 160), whose r/t read at the ports and probe-field reads no
sweep runs, and ``data/modes-1A.csv`` with
``data/modes-1A_spectrum.csv`` are the rates and the spectrum of ``modes
--case 1A``, the eigenmode route. ``data/check-identities-1B.txt`` is the
stdout of ``check-identities --case 1B``: its line names and verdicts are
compared, and the balance value as text; the dissipation residuals are
round-off and the lossless-identity value is pinned by its verdict. A
change that moves a number beyond round-off fails here; one that means to
must regenerate the files and say by how much the numbers moved.

Rates are normalized to the free-space rate 1, so the absolute floor 1e-14
only matters where a rate is itself round-off: ``pf_b`` is ~6e-18 at the
opaque 2A row at omega 500. ``tec_residual`` is not compared: at that row
it is a ratio of two round-off numbers. The smallest oracle residual is
~7e-5 and the smallest mode frequency ~5, far above that floor.
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


def assert_body_matches(path, reference, key, compared):
    """``key`` column equal as text, ``compared`` columns to round-off."""
    header, got = read_body(path)
    ref_header, ref = read_body(DATA / reference)
    assert header == ref_header
    if key is not None:
        assert got[key] == ref[key]
    for name in compared:
        filled = [value != "" for value in ref[name]]
        assert [value != "" for value in got[name]] == filled, name
        if any(filled):
            np.testing.assert_allclose(
                np.array(got[name], dtype=float),
                np.array(ref[name], dtype=float),
                rtol=1e-10, atol=1e-14, err_msg=name)


@pytest.mark.parametrize("case", ["1A", "1B", "2A", "2B"])
def test_stock_sweep_matches_the_committed_reference(case, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--case", case, "--out", str(out)]) == 0
    assert_body_matches(out, f"sweep-{case}.csv", "omega_a", RATES)


def test_oracle_compare_matches_the_committed_reference(tmp_path):
    out = tmp_path / "oracle.csv"
    assert main(["oracle-compare", "--case", "1B", "--out", str(out)]) == 0
    assert_body_matches(out, "oracle-compare-1B.csv", "omega",
                        ("res_rt", "res_field", "res_green"))


def report_lines(text):
    """(verdict, name, value as printed) for each line of a report."""
    lines = []
    for line in text.splitlines():
        verdict, rest = line.split("  ", 1)
        name, tail = rest.rsplit(": ", 1)
        lines.append((verdict, name, tail.split()[0]))
    return lines


def test_check_identities_report_matches_the_committed_reference(capsys):
    assert main(["check-identities", "--case", "1B"]) == 0
    got = report_lines(capsys.readouterr().out)
    ref = report_lines((DATA / "check-identities-1B.txt").read_text(
        encoding="utf-8"))
    assert [line[:2] for line in got] == [line[:2] for line in ref]
    balance = [line for line in ref if line[1].startswith("field-correlation")]
    assert len(balance) == 1 and balance[0] in got


def test_modes_match_the_committed_reference(tmp_path):
    out = tmp_path / "modes.csv"
    assert main(["modes", "--case", "1A", "--out", str(out)]) == 0
    assert_body_matches(out, "modes-1A.csv", "omega_a", ("pf_modes",))
    assert_body_matches(tmp_path / "modes_spectrum.csv",
                        "modes-1A_spectrum.csv", None, ("omega_m",))
