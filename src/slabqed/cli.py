"""Command-line front end: config parsing, sweeps, checks, CSV output.

The config format is flat ``key = value`` text with dotted section names
(``medium.omega_p``, ``sweep.count``, ...). A ``case`` key applies one of
the named presets first; every other key then overrides whatever the
preset chose, in file order. ``slabqed sweep --case 1A`` with no config
file runs the stock scenario end to end.

Exit codes: 0 success, 1 solver failure or threshold violation, 2 config
error; a failed run leaves no partial CSV. Sweeps run their frequencies
in order in one thread, so a config gives byte-identical rows every time.

The CLI checks what is its own: parsing, each key's lower bound in
``CONFIG_KEYS``, the sweep range and the method switches. Every rule that
ties several inputs together, and every bound the library enforces on an
input itself (the points per wavelength of ``mesh.ppw`` and
``oracle.ppw``, ``modes.eta``), lives once in the library, which raises
``mesh.InputError``; ``_refusals`` turns that error into a config error
naming the keys that set the inputs at fault, and the bound.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .fem import assemble
from .crosscheck import oracle_residuals
from .identities import check_identities, check_thermal_equilibrium
from .medium import (ATOM_INSIDE, ATOM_OUTSIDE, CASE_NAMES, CASE_PRESETS,
                     MediumSpec, case_preset)
from .mesh import InputError, check_padded_region, check_resolution
from .micromodes import (
    BathConfig,
    bin_count,
    build_gevp,
    check_eta,
    check_pencil,
    check_site,
    diagonalize,
    gevp_mesh,
    purcell_from_modes,
)
from .purcell import purcell_mesh, sweep

CSV_COLUMNS = (
    "omega_a",
    "pf_sfa",
    "pf_b",
    "pf_m",
    "pf_modified_ln",
    "pf_original_ln",
    "pf_modes",
    "tec_residual",
)


class ConfigError(ValueError):
    """Any problem with the run configuration (exit code 2)."""


@dataclass
class RunConfig:
    """Fully resolved run parameters; every field echoes to CSV metadata."""

    case: str
    medium: MediumSpec
    atom_position: float
    sweep_min: float = 300.0
    sweep_max: float = 700.0
    sweep_count: int = 101
    ppw: float = 40.0
    padding: float = 0.05
    method_sfa: bool = True
    method_modified_ln: bool = True
    method_original_ln: bool = True
    method_modes: bool = False
    bath: BathConfig = dataclasses.field(default_factory=BathConfig)
    eta: float = 20.0
    output_path: str = "sweep.csv"
    ddgt_max: float = 1e-10
    balance_max: float = 0.01
    lossless_min: float = 0.5
    closed_box: bool = False
    oracle_ppw: float = 160.0
    oracle_tolerance: float = 0.005

    def grid(self):
        return np.linspace(self.sweep_min, self.sweep_max, self.sweep_count)

    @property
    def top_key(self):
        """The key of the grid's top frequency: one point is sweep.min."""
        return "sweep.max" if self.sweep_count > 1 else "sweep.min"

    def validate(self):
        for key, (path, _, bound) in CONFIG_KEYS.items():
            if bound is None:
                continue
            op, limit = bound
            value = _get(self, path)
            if not (value > limit if op == ">" else value >= limit):
                raise ConfigError(f"{key} must be {op} {limit}, got {value!r}")
        if self.sweep_count > 1 and not self.sweep_min < self.sweep_max:
            raise ConfigError(
                f"sweep.min must be < sweep.max, got "
                f"[{self.sweep_min}, {self.sweep_max}]"
            )
        if not any((self.method_sfa, self.method_modified_ln,
                    self.method_original_ln, self.method_modes)):
            raise ConfigError("at least one method must be enabled")
        with _refusals(self, {"atom.position": {self.atom_position},
                              "mesh.padding": {"padding"},
                              "modes.eta": {"eta"}}):
            check_padded_region((self.atom_position,),
                                self.medium.slab_half_length, self.padding)
            check_eta(self.eta)
        for key in ("mesh.ppw", "oracle.ppw"):
            with _refusals(self, {key: {"points_per_wavelength"}}):
                check_resolution(_get(self, CONFIG_KEYS[key][0]))
        return self

    def items(self):
        """The flat key/value view; re-parsing it reproduces this config."""
        return [(_CASE_KEY, self.case)] + [
            (key, _echo(_get(self, path)))
            for key, (path, _, _) in CONFIG_KEYS.items()
        ]


def _float(text):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _int(text):
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _bool(text):
    spellings = {"true": True, "1": True, "yes": True, "on": True,
                 "false": False, "0": False, "no": False, "off": False}
    try:
        return spellings[text.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {text!r}") from None


def _position(text):
    sites = {"A": ATOM_INSIDE, "B": ATOM_OUTSIDE}
    return sites[text.strip()] if text.strip() in sites else _float(text)


def _echo(value):
    if isinstance(value, bool):
        return str(value).lower()
    return value if isinstance(value, str) else repr(value)


_CASE_KEY = "case"

# Every config key except ``case``: key -> (RunConfig attribute path, parser,
# lower bound as (">" or ">=", limit) or None). Parsing, the echo, items()
# and the per-key bounds in validate() all read this table; README's config
# table lists the same keys in the same order, after ``case``.
CONFIG_KEYS = {
    "medium.omega_p": ("medium.omega_p", _float, None),
    "medium.omega_0": ("medium.omega_0", _float, None),
    "medium.gamma": ("medium.gamma", _float, None),
    "medium.slab_half_length": ("medium.slab_half_length", _float, None),
    "atom.position": ("atom_position", _position, None),
    "sweep.min": ("sweep_min", _float, (">", 0)),
    "sweep.max": ("sweep_max", _float, None),
    "sweep.count": ("sweep_count", _int, (">=", 1)),
    "mesh.ppw": ("ppw", _float, None),
    "mesh.padding": ("padding", _float, (">", 0)),
    "methods.sfa": ("method_sfa", _bool, None),
    "methods.modified_ln": ("method_modified_ln", _bool, None),
    "methods.original_ln": ("method_original_ln", _bool, None),
    "methods.modes": ("method_modes", _bool, None),
    "modes.n_bins": ("bath.n_bins", _int, None),
    "modes.nu_max": ("bath.nu_max", _float, None),
    "modes.box_length": ("bath.box_length", _float, None),
    "modes.eta": ("eta", _float, None),
    "output.path": ("output_path", str, None),
    "identities.ddgt_max": ("ddgt_max", _float, (">", 0)),
    "identities.balance_max": ("balance_max", _float, (">", 0)),
    "identities.lossless_min": ("lossless_min", _float, (">", 0)),
    "identities.closed_box": ("closed_box", _bool, None),
    "oracle.ppw": ("oracle_ppw", _float, None),
    "oracle.tolerance": ("oracle_tolerance", _float, (">", 0)),
}


def _get(obj, path):
    for name in path.split("."):
        obj = getattr(obj, name)
    return obj


def _set(obj, path, value):
    """Copy of ``obj`` with ``path`` replaced; nested specs re-validate."""
    name, _, rest = path.partition(".")
    if rest:
        value = _set(getattr(obj, name), rest, value)
    return dataclasses.replace(obj, **{name: value})


def parse_config_text(text):
    """Split config text into ordered (key, value) pairs.

    Blank lines and ``#`` comments are ignored; everything else must be
    ``key = value``.
    """
    items = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        items.append((key.strip(), value.strip()))
    return items


def _apply_case(config: RunConfig, name: str) -> RunConfig:
    if name not in CASE_NAMES:
        raise ConfigError(
            f"unknown case {name!r}; choose one of {', '.join(CASE_NAMES)}"
        )
    medium, x_atom = case_preset(name)
    # the vacuum scenario carries its own resolution requirement: holding
    # the dispersion bias under 1e-3 at the top of the band needs a finer
    # mesh than the slab cases use
    ppw = 80.0 if name == "vacuum" else 40.0
    return dataclasses.replace(
        config, case=name, medium=medium, atom_position=x_atom, ppw=ppw
    )


def _set_key(config: RunConfig, key: str, text: str) -> RunConfig:
    if key == _CASE_KEY:
        return _apply_case(config, text)
    # refused, not ignored: an old config must not run with a setting that
    # no longer acts
    if key == "mesh.pml_thickness":
        raise ConfigError(
            f"{key} is no longer a config key: the absorbing layers are "
            "gone, and the open boundary is the exact outgoing condition of "
            "the vacuum lattice, with no thickness to set"
        )
    if key not in CONFIG_KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    path, parse, _ = CONFIG_KEYS[key]
    try:
        return _set(config, path, parse(text))
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def build_config(text=None, case=None, out=None) -> RunConfig:
    """Resolve defaults, preset, config file and flags into a RunConfig."""
    items = parse_config_text(text) if text else []
    if case is not None:  # the command-line flag wins over the file's preset
        items = [item for item in items if item[0] != _CASE_KEY]
    preset = case if case is not None else "vacuum"
    config = config_from_items([(_CASE_KEY, preset), *items])
    if out is not None:
        config = dataclasses.replace(config, output_path=out)
    return config


def config_from_items(items) -> RunConfig:
    """Rebuild a RunConfig from ``RunConfig.items()`` output."""
    config = RunConfig(case="vacuum", medium=CASE_PRESETS["vacuum"],
                       atom_position=ATOM_INSIDE)
    for key, value in items:
        config = _set_key(config, key, value)
    return config.validate()


def _fmt(value):
    return "" if value is None else f"{value:.12e}"


def _metadata_lines(command, config, mesh=None, wall_seconds=None,
                    modes_line=None):
    lines = [
        f"slabqed {command}",
        f"version = {__version__}",
        f"generated = {time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime())}",
    ]
    if wall_seconds is not None:
        lines.append(f"wall_seconds = {wall_seconds:.3f}")
    if mesh is not None:
        lines.append(
            f"mesh: {mesh.n_nodes} nodes, h_max = {mesh.h_max:.6e}"
        )
    if modes_line is not None:
        lines.append(modes_line)
    lines.append("config:")
    lines.extend(f"  {key} = {value}" for key, value in config.items())
    return lines


def _write_csv(path, metadata, columns, rows):
    """Write the whole file or nothing: fill a sibling, then rename it."""
    partial = f"{path}.{os.getpid()}.tmp"
    try:
        with open(partial, "w", encoding="utf-8", newline="") as fh:
            for line in metadata:
                fh.write(f"# {line}\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.remove(partial)


def _closed_box_modes(config: RunConfig, grid):
    """Eigenmodes of the config's closed-box pencil, kept up past the grid,
    and the eigenmode route's rate at each grid frequency.

    Returns the ModeSet, the rates in grid order and the metadata line
    describing the modes: mode count, band, B-orthonormality residual, the
    pivot sweeps the count took and the residue-vs-vector residual at the
    atom. What the library refuses is a config error naming its keys
    (``_refusals``): a box under four slab lengths or too small for the
    atom sites, an atom outside the box and a pencil above the dof cap
    (both checked before any bin is sampled), a bath that stops short of
    the resonance or samples it too coarsely to resolve gamma and a band
    top without a finite square. A rate that cannot be formed names its
    frequency.
    """
    medium, bath = config.medium, config.bath
    a, edge = medium.slab_half_length, 0.5 * bath.box_length
    lo, hi = 1.0, max(1000.0, float(grid[-1]) + 300.0)
    with _refusals(config, {
        "modes.box_length": {"box_length", -edge, edge},
        "medium.slab_half_length": {-a, a},
        "modes.nu_max": {"nu_max"},
        "modes.n_bins": {"n_bins"},
        config.top_key: {"band top"},
        "atom.position": {"x"},
    }):
        mesh = gevp_mesh(medium, bath)
        check_site(mesh.nodes, config.atom_position)
        check_pencil(mesh, bin_count(medium, bath))
        modes = diagonalize(build_gevp(mesh, medium, bath), band=(lo, hi))
        line = (
            f"modes: {modes.n_modes} in band [{lo:g}, {hi:g}], "
            f"normalization_residual = {modes.normalization_residual:.3e}, "
            f"count_sweeps = {modes.count_sweeps}, residue_residual = "
            f"{modes.residue_residual(config.atom_position):.3e}"
        )
    rates = []
    for omega in map(float, grid):
        try:
            rates.append(purcell_from_modes(modes, config.atom_position,
                                            omega, config.eta))
        except ValueError as exc:
            raise RuntimeError(f"sweep point omega_a = {omega}: {exc}") from exc
    return modes, rates, line


def _sweep_mesh(config: RunConfig, medium: MediumSpec, x_a: float,
                k_max: float, ppw: float, sized_by=()):
    """``purcell_mesh`` with the run's padding.

    That mesh keeps the hull of the slab and ``x_a``, the one point a
    command solves for on nodes: ``sweep`` and ``oracle-compare`` pass the
    atom, whose G samples lie on the slab, and ``check-identities``, which
    reads x_B, passes x_B. Both preset atom sites and ``x_a`` are
    breakpoints of its layout, each strictly inside the padded region; a
    layout the mesh refuses is a config error naming the keys that place
    its breakpoints or set its size (``_refusals``). ``sized_by`` holds
    the keys that set ``k_max`` and ``ppw``, if any.
    """
    a = config.medium.slab_half_length
    edge = medium.slab_half_length + config.padding
    with _refusals(config, {
        "medium.slab_half_length": {-a, a},
        "atom.position": {config.atom_position},
        "mesh.padding": {"padding", -edge, edge},
        **dict(zip(sized_by, ({"k_max"}, {"points_per_wavelength"}))),
    }):
        return purcell_mesh(medium, x_a, k_max=k_max, ppw=ppw,
                            padding=config.padding)


@contextlib.contextmanager
def _refusals(config: RunConfig, sources):
    """Turn what the library refuses (``mesh.InputError``) into a
    ConfigError.

    ``sources`` maps config keys to what each sets: library inputs by
    parameter name, and mesh breakpoints. The error names every key that
    sets an input or breakpoint at fault, with its value in ``config``,
    and gives the bound of the bounded input as the bound of its key.
    """
    try:
        yield
    except InputError as exc:
        at_fault = {*exc.inputs, *exc.breakpoints}
        keys = [key for key, sets in sources.items() if at_fault & sets]
        named = ", ".join(f"{key} = {_get(config, CONFIG_KEYS[key][0])!r}"
                          for key in keys)
        bounded = next((key for key in keys
                        if exc.bound and exc.bound[0] in sources[key]), None)
        raise ConfigError(exc.worded(named, bounded)) from exc


def cmd_sweep(config: RunConfig) -> int:
    start = time.monotonic()
    grid = config.grid()
    mesh = _sweep_mesh(config, config.medium, config.atom_position,
                       float(grid[-1]), config.ppw,
                       (config.top_key, "mesh.ppw"))
    mode_rates, modes_line = [None] * grid.size, None
    if config.method_modes:
        # before the sweep, so a modes config error costs no sweep
        _, mode_rates, modes_line = _closed_box_modes(config, grid)
    # the sweep's records are in grid order, which is ascending
    records = sweep(mesh, config.medium, grid, config.atom_position)

    want_tec = config.method_sfa and config.method_modified_ln
    rows = []
    for rec, mode_rate in zip(records, mode_rates):
        rows.append((
            _fmt(rec.omega_a),
            _fmt(rec.pf_sfa) if config.method_sfa else "",
            _fmt(rec.pf_b) if config.method_modified_ln else "",
            _fmt(rec.pf_m) if config.method_modified_ln else "",
            _fmt(rec.pf_modified_ln) if config.method_modified_ln else "",
            _fmt(rec.pf_original_ln) if config.method_original_ln else "",
            _fmt(mode_rate),
            _fmt(rec.tec_residual) if want_tec else "",
        ))
    metadata = _metadata_lines("sweep", config, mesh=mesh,
                               wall_seconds=time.monotonic() - start,
                               modes_line=modes_line)
    _write_csv(config.output_path, metadata, CSV_COLUMNS, rows)
    print(f"wrote {len(rows)} rows to {config.output_path}")
    return 0


def _report(lines, name, value, bound, comparison):
    ok = value < bound if comparison == "<" else value > bound
    lines.append(
        f"{'PASS' if ok else 'FAIL'}  {name}: {value:.3e} "
        f"(needs {comparison} {bound:g})"
    )
    return ok


def cmd_check_identities(config: RunConfig) -> int:
    """Operator-identity gauntlet; exit 0 only if every check passes."""
    x_b = ATOM_OUTSIDE
    lines = []
    all_ok = True
    if config.closed_box:
        lines.append(
            "SKIP  lossless-identity failure: closed box is degenerate "
            "(no leakage channel, the medium-only identity holds exactly)"
        )

    # operator identities on small meshes: exactness does not depend on
    # resolution, so ppw = 15 keeps the O(n^2) column solves cheap; a slab
    # long enough to put a mesh above their dof cap is a config error
    a = config.medium.slab_half_length
    for label, medium in (("vacuum", CASE_PRESETS["vacuum"]),
                          ("slab", config.medium)):
        mesh = _sweep_mesh(config, medium, x_b, k_max=700.0, ppw=15.0)
        for k in (300.0, 500.0, 700.0):
            system = assemble(mesh, medium, k)
            # the failure demonstration needs the radiation channel to be
            # the dominant loss, so it is a vacuum-only statement: a lossy
            # slab legitimately absorbs part of that channel and the
            # residual drops below any fixed floor
            lossless = label == "vacuum" and not config.closed_box
            with _refusals(config, {"medium.slab_half_length": {-a, a}}):
                ddgt, failure = check_identities(system)  # one walk of G
            all_ok &= _report(
                lines, f"two-channel dissipation [{label}, k={k:g}]",
                ddgt, config.ddgt_max, "<",
            )
            if lossless:
                all_ok &= _report(
                    lines,
                    f"lossless-identity failure [{label}, k={k:g}]",
                    failure, config.lossless_min, ">",
                )

    # field-correlation balance on a resolved mesh, from the same lattice
    # scattering states as the sweep's tec_residual; what remains is the
    # LDOS route's vacuum lattice bias, O((kh)^2)
    mesh = _sweep_mesh(config, config.medium, x_b, k_max=700.0, ppw=160.0)
    worst = 0.0
    for k in np.linspace(300.0, 700.0, 21):
        worst = max(worst, check_thermal_equilibrium(
            mesh, config.medium, float(k), x_b, x_b
        ))
    all_ok &= _report(lines, "field-correlation balance [x_B, 21 points]",
                      worst, config.balance_max, "<")

    print("\n".join(lines))
    return 0 if all_ok else 1


def cmd_oracle_compare(config: RunConfig) -> int:
    """Solver-vs-transfer-matrix comparison; exit 0 iff within tolerance."""
    start = time.monotonic()
    grid = config.grid()
    mesh = _sweep_mesh(config, config.medium, config.atom_position,
                       float(grid[-1]), config.oracle_ppw,
                       (config.top_key, "oracle.ppw"))
    residuals = oracle_residuals(mesh, config.medium, grid,
                                 config.atom_position)
    rows = [tuple(map(_fmt, (omega, *row)))
            for omega, row in zip(grid.tolist(), residuals.tolist())]
    # np.max, unlike max(), keeps a NaN, and a NaN worst fails the gate
    worst = float(np.max(residuals))

    metadata = _metadata_lines("oracle-compare", config, mesh=mesh,
                               wall_seconds=time.monotonic() - start)
    _write_csv(config.output_path, metadata,
               ("omega", "res_rt", "res_field", "res_green"), rows)
    ok = worst < config.oracle_tolerance
    print(
        f"worst residual {worst:.3e} vs tolerance {config.oracle_tolerance:g}"
        f" -> {'PASS' if ok else 'FAIL'} ({config.output_path})"
    )
    return 0 if ok else 1


def cmd_modes(config: RunConfig) -> int:
    """Diagonalize the closed-box pencil; write spectrum and rate curve."""
    start = time.monotonic()
    grid = config.grid()
    # every rate exists before the first file is written, so a failing
    # rate leaves neither output behind
    modes, rates, modes_line = _closed_box_modes(config, grid)
    rows = [(_fmt(float(w)), _fmt(rate)) for w, rate in zip(grid, rates)]

    root, ext = os.path.splitext(config.output_path)
    spectrum_path = f"{root}_spectrum{ext or '.csv'}"
    metadata = _metadata_lines("modes", config,
                               wall_seconds=time.monotonic() - start,
                               modes_line=modes_line)
    _write_csv(
        spectrum_path, metadata, ("omega_m",),
        [(_fmt(w),) for w in modes.frequencies],
    )
    _write_csv(config.output_path, metadata, ("omega_a", "pf_modes"), rows)
    print(
        f"wrote {modes.n_modes} mode frequencies to {spectrum_path} and "
        f"{len(rows)} rate samples to {config.output_path}"
    )
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and kept: building
    it costs ~0.5 ms a call, 2-3 ms on a fresh interpreter, so it is not
    built at import either."""
    parser = argparse.ArgumentParser(
        prog="slabqed",
        description="Emission rates near a lossy slab: sweeps and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, runner in (
        ("sweep", cmd_sweep),
        ("check-identities", cmd_check_identities),
        ("oracle-compare", cmd_oracle_compare),
        ("modes", cmd_modes),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--case", choices=CASE_NAMES,
                       help="scenario preset; overrides the file's case")
        p.add_argument("--out", help="output CSV path")
        p.set_defaults(runner=runner)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        text = None
        if args.config is not None:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}") from exc
        config = build_config(text, case=args.case, out=args.out)
        return args.runner(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # solver/runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
