"""Correctness of each CLI call, judged against the transfer-matrix oracle.

Nothing here compares the finite-element stack with itself: every emission
rate is checked against ``2 k Im tmm_green(x_a, x_a)`` from ``oracle.py``,
which shares no code with the FEM. A call fails when its exit code is not 0,
a CSV body value is not finite, a sweep record breaks the bitwise identity
``pf_modified_ln == pf_b + pf_m``, or a row misses the oracle by more than
the workload's tolerance. ``tec_residual`` is not gated: its relative form
saturates at 1.0 where ``pf_b`` is ~1e-6 (2A at omega = 500 and 504), so the
split balance is reported as the absolute ``balance_abs_max`` instead.
"""

from __future__ import annotations

import hashlib
import math

from slabqed.medium import case_preset
from slabqed.oracle import tmm_green


def read_csv(path):
    """(column names, rows of strings) of a slabqed CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        body = [line.rstrip("\n").split(",") for line in fh
                if not line.startswith("#")]
    return body[0], body[1:]


def body_digest(paths):
    """sha256 over the non-comment lines of the CSVs, in the given order.

    A missing file (its call failed) reads as empty.
    """
    digest = hashlib.sha256()
    for path in paths:
        try:
            with open(path, "rb") as fh:
                for line in fh:
                    if not line.startswith(b"#"):
                        digest.update(line)
        except FileNotFoundError:
            digest.update(b"missing\n")
    return digest.hexdigest()


def spectrum_path(out):
    """Where ``slabqed modes --out OUT.csv`` writes the mode spectrum."""
    return out[: -len(".csv")] + "_spectrum.csv"


def oracle_rate(medium, x_a, omega):
    """Purcell factor from the transfer-matrix Green function."""
    return 2.0 * omega * complex(tmm_green(medium, omega, x_a, x_a)).imag


class Verdict:
    """Problems found in one call, and the worst oracle misses it showed."""

    def __init__(self):
        self.problems = []
        self.errors = {}
        self.rows = 0

    def fail(self, message):
        self.problems.append(message)

    def worst(self, name, value):
        self.errors[name] = max(self.errors.get(name, 0.0), value)

    @property
    def ok(self):
        return not self.problems


def _floats(rows, columns, names, verdict):
    """Columns parsed as floats; empty or non-finite fields are problems."""
    index = [columns.index(name) for name in names]
    table = []
    for row in rows:
        values = []
        for i in index:
            try:
                value = float(row[i])
            except (IndexError, ValueError):
                value = math.nan
            if not math.isfinite(value):
                verdict.fail(f"non-finite {columns[i]} in row {row}")
            values.append(value)
        table.append(values)
    return table


def _check_grid(omegas, grid, verdict):
    if len(omegas) != len(grid):
        verdict.fail(f"{len(omegas)} rows for a {len(grid)}-point grid")
        return
    for got, want in zip(omegas, grid):
        if not abs(got - want) <= 1e-9 * want:
            verdict.fail(f"row at omega {got} where the grid has {want}")
            return


def _check_rate(verdict, name, omegas, rates, medium, x_a, tolerance):
    for omega, rate in zip(omegas, rates):
        ref = oracle_rate(medium, x_a, omega)
        err = abs(rate - ref) / abs(ref)
        verdict.worst(name, err)
        if not err <= tolerance:
            verdict.fail(f"{name} {err:.3e} > {tolerance:g} at omega {omega}")


def check_sweep(path, case, grid, tol, bitwise_bad, records):
    verdict = Verdict()
    columns, rows = read_csv(path)
    verdict.rows = len(rows)
    table = _floats(rows, columns, ("omega_a", "pf_sfa", "pf_b", "pf_m",
                                    "pf_modified_ln", "tec_residual"), verdict)
    omegas = [r[0] for r in table]
    _check_grid(omegas, grid, verdict)
    if records != len(rows):
        verdict.fail(f"{records} sweep records captured for {len(rows)} rows")
    if bitwise_bad:
        verdict.fail(f"{bitwise_bad} of {records} records break "
                     "pf_modified_ln == pf_b + pf_m")
    medium, x_a = case_preset(case)
    _check_rate(verdict, "ldos_err_max", omegas, [r[1] for r in table],
                medium, x_a, tol["ldos"])
    _check_rate(verdict, "split_err_max", omegas, [r[4] for r in table],
                medium, x_a, tol["split"])
    for _, sfa, b, m, _, _ in table:
        verdict.worst("balance_abs_max", abs(sfa - m - b))
    return verdict


def check_modes(path, case, grid, tol):
    verdict = Verdict()
    columns, rows = read_csv(spectrum_path(path))
    if not rows:
        verdict.fail("empty mode spectrum")
    _floats(rows, columns, ("omega_m",), verdict)
    columns, rows = read_csv(path)
    verdict.rows = len(rows)
    table = _floats(rows, columns, ("omega_a", "pf_modes"), verdict)
    omegas = [r[0] for r in table]
    _check_grid(omegas, grid, verdict)
    medium, x_a = case_preset(case)
    _check_rate(verdict, "modes_err_max", omegas, [r[1] for r in table],
                medium, x_a, tol["modes"])
    return verdict


def check_oracle_compare(path, grid, tol):
    verdict = Verdict()
    columns, rows = read_csv(path)
    names = ("omega", "res_rt", "res_field", "res_green")
    verdict.rows = len(rows)
    table = _floats(rows, columns, names, verdict)
    _check_grid([r[0] for r in table], grid, verdict)
    for row in table:
        residual = max(row[1:])
        verdict.worst("oracle_residual_max", residual)
        if not residual <= tol["residual"]:
            verdict.fail(f"oracle residual {residual:.3e} > "
                         f"{tol['residual']:g} at omega {row[0]}")
    return verdict


def check_identities_table(stdout):
    """Every line of the identity table must be a PASS (or a stated SKIP)."""
    verdict = Verdict()
    lines = [line for line in stdout.splitlines() if line.strip()]
    passed = [line for line in lines if line.startswith("PASS")]
    if not passed or any(not line.startswith(("PASS", "SKIP")) for line in lines):
        verdict.fail("identity table has failing lines: " + " | ".join(lines))
    return verdict
