"""End-to-end tests of the command-line interface, run in process."""

import contextlib
import io
import math
import pathlib
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slabqed import crosscheck, micromodes
from slabqed.cli import (
    CONFIG_KEYS,
    ConfigError,
    RunConfig,
    _write_csv,
    build_config,
    config_from_items,
    main,
    read_config_echo,
)
from slabqed.fem import assemble
from slabqed.medium import ATOM_OUTSIDE, CASE_NAMES
from slabqed.purcell import purcell_mesh

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def csv_body(path):
    """All non-metadata lines of an output file, header row included."""
    return [ln for ln in path.read_text(encoding="utf-8").splitlines()
            if not ln.startswith("#")]


def csv_rows(path):
    body = csv_body(path)
    return body[0].split(","), [ln.split(",") for ln in body[1:]]


# ---------------------------------------------------------------- config


def test_defaults_are_vacuum_preset():
    cfg = build_config(None)
    assert cfg.case == "vacuum"
    assert cfg.medium.omega_p == 0.0
    assert cfg.ppw == 80.0
    assert cfg.atom_position == 0.0


def test_case_preset_sets_medium_atom_and_resolution():
    cfg = build_config("case = 2B\n")
    assert cfg.medium.gamma == 5.0
    assert cfg.atom_position == ATOM_OUTSIDE
    assert cfg.ppw == 40.0


def test_file_keys_override_the_preset():
    cfg = build_config("case = 1A\nmesh.ppw = 55\natom.position = B\n")
    assert cfg.ppw == 55.0
    assert cfg.atom_position == ATOM_OUTSIDE


def test_case_flag_wins_over_file_case():
    cfg = build_config("case = 1A\nsweep.count = 7\n", case="2B")
    assert cfg.medium.gamma == 5.0
    assert cfg.atom_position == ATOM_OUTSIDE
    assert cfg.sweep_count == 7


def test_comments_and_blank_lines_are_ignored():
    text = "# a comment\n\ncase = 1A  # trailing note\n"
    assert build_config(text).case == "1A"


@pytest.mark.parametrize("text", [
    "nonsense.key = 1\n",
    "sweep.count = banana\n",
    "methods.sfa = maybe\n",
    "case = 3C\n",
    "sweep.count = 0\n",
    "sweep.min = 700\nsweep.max = 300\n",
    "mesh.ppw = 5\n",
    "modes.eta = -1\n",
    "modes.eta = 0\n",
    "modes.n_bins = 2\n",
    "methods.sfa = false\nmethods.modified_ln = false\n"
    "methods.original_ln = false\nmethods.modes = false\n",
    "medium.gamma = inf\n",
    "medium.omega_p = nan\n",
    "modes.eta = nan\n",
    "identities.balance_max = nan\n",
    "oracle.tolerance = nan\n",
    "case = 1B\natom.position = 0.5\n",
])
def test_bad_config_raises(text):
    with pytest.raises(ConfigError):
        build_config(text)


def test_count_one_needs_no_ordered_range():
    cfg = build_config("sweep.min = 500\nsweep.max = 500\nsweep.count = 1\n")
    np.testing.assert_array_equal(cfg.grid(), [500.0])


def test_items_round_trip_to_equal_config():
    cfg = build_config(
        "case = 2A\nsweep.count = 13\nmodes.n_bins = 48\n"
        "identities.closed_box = true\noutput.path = z.csv\n"
    )
    assert config_from_items(cfg.items()) == cfg


def _finite(low, high, exclude_low=False):
    return st.floats(min_value=low, max_value=high, exclude_min=exclude_low)


def _flag():
    return st.sampled_from(["true", "false", "1", "0", "yes", "no", "on",
                            "OFF"])


# one strategy per table key, each drawing valid config text; the sweep
# range, atom site and method switches are drawn jointly below
VALUE_TEXT = {
    "medium.omega_p": _finite(0.0, 1e4).map(repr),
    "medium.omega_0": _finite(0.0, 1e4, exclude_low=True).map(repr),
    "medium.gamma": _finite(0.0, 1e3).map(repr),
    "medium.slab_half_length": _finite(1e-4, 1.0).map(repr),
    "mesh.ppw": _finite(10.0, 1e3).map(repr),
    "mesh.padding": _finite(1e-4, 1.0).map(repr),
    "sweep.count": st.integers(2, 10**6).map(str),
    "modes.n_bins": st.integers(8, 512).map(str),
    "modes.nu_max": _finite(0.0, 1e5, exclude_low=True).map(repr),
    "modes.box_length": _finite(0.0, 10.0, exclude_low=True).map(repr),
    "modes.eta": _finite(0.0, 1e3, exclude_low=True).map(repr),
    "output.path": st.text("abc_-./0123", min_size=1, max_size=12),
    "identities.ddgt_max": _finite(0.0, 1.0, exclude_low=True).map(repr),
    "identities.balance_max": _finite(0.0, 1.0, exclude_low=True).map(repr),
    "identities.lossless_min": _finite(0.0, 1.0, exclude_low=True).map(repr),
    "identities.closed_box": _flag(),
    "oracle.ppw": _finite(10.0, 1e3).map(repr),
    "oracle.tolerance": _finite(0.0, 1.0, exclude_low=True).map(repr),
}
JOINT_KEYS = ("sweep.min", "sweep.max", "atom.position", "methods.sfa",
              "methods.modified_ln", "methods.original_ln", "methods.modes")


@st.composite
def config_items(draw):
    values = {key: draw(strategy) for key, strategy in VALUE_TEXT.items()}
    low = draw(_finite(0.0, 1e4, exclude_low=True))
    values["sweep.min"] = repr(low)
    values["sweep.max"] = repr(draw(_finite(low, 1e5, exclude_low=True)))
    half = float(values["medium.slab_half_length"])
    region = half + float(values["mesh.padding"])
    values["atom.position"] = draw(st.one_of(
        st.sampled_from(["A", "B"]) if ATOM_OUTSIDE < region else st.just("A"),
        _finite(-0.99, 0.99).map(lambda f: repr(f * region)),
    ))
    for key in JOINT_KEYS[3:]:
        values[key] = draw(_flag())
    assume(any(values[key] in ("true", "1", "yes", "on")
               for key in JOINT_KEYS[3:]))
    case = draw(st.sampled_from(["1A", "1B", "2A", "2B", "vacuum"]))
    return [("case", case), *((key, values[key]) for key in CONFIG_KEYS)]


def test_value_strategies_cover_the_key_table():
    assert sorted([*VALUE_TEXT, *JOINT_KEYS]) == sorted(CONFIG_KEYS)


@given(config_items())
def test_items_round_trip_for_any_valid_config(items):
    cfg = config_from_items(items)
    assert config_from_items(cfg.items()) == cfg


def test_readme_config_table_lists_the_key_table():
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| key | default | meaning |") + 2
    keys = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        keys.append(line.split("|")[1].strip().strip("`"))
    assert keys == ["case", *CONFIG_KEYS]


def test_medium_keys_build_a_custom_slab():
    cfg = build_config(
        "medium.omega_p = 80\nmedium.gamma = 20\natom.position = 0.05\n"
    )
    assert cfg.medium.omega_p == 80.0
    assert cfg.medium.gamma == 20.0
    assert cfg.atom_position == 0.05


# ---------------------------------------------------------------- exit codes


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("mystery = 1\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", ["sweep", "check-identities", "oracle-compare", "modes"])
def test_retired_layer_thickness_exits_2(command, tmp_path, capsys):
    # the absorbing layers are gone: a config that still sets their
    # thickness is refused, naming the exact boundary, and writes nothing
    cfg = tmp_path / "c.cfg"
    cfg.write_text("case = 1A\nmesh.pml_thickness = 0.05\n")
    out = tmp_path / "o.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: mesh.pml_thickness")
    assert "exact outgoing condition" in err
    assert list(tmp_path.iterdir()) == [cfg]


def test_echo_with_a_layer_thickness_is_refused(tmp_path):
    # the echo of a run made while the key existed does not re-parse
    cfg = tmp_path / "c.cfg"
    cfg.write_text("sweep.count = 1\n")
    out = tmp_path / "old.csv"
    assert main(["sweep", "--case", "1A", "--config", str(cfg),
                 "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
    at = lines.index("#   mesh.padding = 0.05\n") + 1
    lines.insert(at, "#   mesh.pml_thickness = 0.05\n")
    out.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ConfigError, match="pml_thickness.*open boundary"):
        read_config_echo(out)


def test_missing_config_file_exits_2(tmp_path):
    assert main(["sweep", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_runtime_failure_names_the_frequency(tmp_path, capsys):
    # eta far below the closed-box mode spacing is only detectable once the
    # spectrum exists, so it must surface as a runtime error, not a config one
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "case = vacuum\nsweep.count = 2\nsweep.min = 400\nsweep.max = 500\n"
        "modes.box_length = 0.25\nmethods.modes = true\nmodes.eta = 0.5\n"
    )
    code = main(["sweep", "--config", str(cfg),
                 "--out", str(tmp_path / "o.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "omega_a = 400" in err


def test_non_finite_value_exits_2_without_output(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("case = 1B\nsweep.count = 3\nmedium.gamma = inf\n")
    out = tmp_path / "o.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert "medium.gamma" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]


@pytest.mark.parametrize("line", ["medium.omega_p = 1e155",
                                  "medium.omega_0 = 1e200",
                                  "medium.gamma = 1e307"])
def test_overflowing_medium_exits_2(line, tmp_path, capsys):
    # finite, but chi(omega) squares it past the largest double: refused as
    # a config error naming the key, not a failure at the first frequency
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"case = 1B\nsweep.count = 3\n{line}\n")
    out = tmp_path / "o.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    key = line.split(" = ")[0]
    assert capsys.readouterr().err.startswith(f"config error: {key}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]


def test_huge_plasma_frequency_sweeps(tmp_path):
    # k^2 chi M_slab exceeds the vacuum entries by ~1e11 at omega_0, and the
    # relative pivot test still resolves the operator
    cfg = tmp_path / "c.cfg"
    cfg.write_text("case = 1B\nsweep.count = 3\nmedium.omega_p = 1e9\n")
    assert main(["sweep", "--config", str(cfg),
                 "--out", str(tmp_path / "o.csv")]) == 0


def test_slab_scale_refusal_names_the_contrast(tmp_path, capsys):
    # 100 times larger, the slab rows set a scale ~1.7e13 times the vacuum
    # entries and the pivot test trips at omega_0: still exit 1, as the
    # refusal depends on the frequency, but the message names k^2 chi(k)
    # and that contrast next to the resonance it may not be
    cfg = tmp_path / "c.cfg"
    cfg.write_text("case = 1B\nsweep.count = 3\nmedium.omega_p = 1e10\n")
    assert main(["sweep", "--config", str(cfg),
                 "--out", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert ("operator is singular at k = 500.0: the frequency coincides "
            "with a discrete resonance") in err
    assert "slab rows set" in err
    assert "k^2 chi(k) = 0.000e+00+1.000e+21j" in err
    assert "1.668e+13 times the largest vacuum entry" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]


# The sweep mesh puts both preset atom sites on nodes. Around the 1/32 slab
# a padding of 0.03 ends the physical region at 0.06125, short of the outside
# site 0.0625, although case 1A's own atom at 0 passes validate().
THIN_PADDING = "case = 1A\nsweep.count = 3\nmesh.padding = 0.03\n"


@pytest.mark.parametrize("command",
                         ["sweep", "oracle-compare", "check-identities"])
def test_padding_short_of_an_atom_site_exits_2(command, tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(THIN_PADDING)
    out = tmp_path / "o.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: mesh.padding")
    assert "mesh.padding must be > 0.03125" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]


@pytest.mark.parametrize("command", ["sweep", "oracle-compare"])
def test_an_atom_beside_a_preset_site_exits_2_naming_it(command, tmp_path,
                                                        capsys):
    # 1e-320 is distinct from the inside site 0.0, a node of every sweep
    # mesh, but closer than the breakpoint tolerance: a geometry error,
    # named by its key, with the two breakpoints as plain floats
    cfg = tmp_path / "c.cfg"
    cfg.write_text("case = 1A\nsweep.count = 3\natom.position = 1e-320\n")
    out = tmp_path / "o.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: atom.position = 1e-320: "
                          "breakpoints 0.0 and 1e-320 are distinct")
    assert "np." not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]


@pytest.mark.parametrize("command,line,key", [
    ("sweep", "medium.slab_half_length = 1e100", "medium.slab_half_length"),
    ("oracle-compare", "medium.slab_half_length = 1e100",
     "medium.slab_half_length"),
    ("check-identities", "medium.slab_half_length = 1e100",
     "medium.slab_half_length"),
    ("modes", "modes.box_length = 1e9", "modes.box_length"),
])
def test_a_mesh_above_the_node_bound_exits_2(command, line, key, tmp_path,
                                             capsys):
    # the spans' element counts refuse it before any node is allocated,
    # where numpy used to fail on an array of ~1e104 nodes
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"case = 1A\nsweep.count = 3\n{line}\n")
    out = tmp_path / "o.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} = ")
    assert "nodes, above the bound of 1,000,000" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]


@pytest.mark.parametrize("command,line,keys", [
    ("sweep", "mesh.ppw = 1e300", ["mesh.ppw = 1e+300", "sweep.max = 700.0"]),
    ("oracle-compare", "oracle.ppw = 1e300",
     ["oracle.ppw = 1e+300", "sweep.max = 700.0"]),
    ("sweep", "sweep.max = 1e300", ["mesh.ppw = 40.0", "sweep.max = 1e+300"]),
])
def test_a_mesh_above_the_node_bound_names_its_element_size(command, line,
                                                            keys, tmp_path,
                                                            capsys):
    # the element size is 2 pi / (k_max ppw): the keys that set it are
    # named beside the ones that set the mesh's length, and the atom at
    # x = 0, which sets neither, is not
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"case = 1A\nsweep.count = 3\n{line}\n")
    out = tmp_path / "o.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    named = err.split(": a mesh over ")[0]
    assert named.startswith("config error: medium.slab_half_length = ")
    assert all(key in named for key in keys)
    assert "atom.position" not in named
    assert "nodes, above the bound of 1,000,000" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]


def test_padding_short_of_an_atom_site_leaves_modes_running(tmp_path):
    # the closed box of the eigenmode route has no padding
    cfg = tmp_path / "c.cfg"
    cfg.write_text(THIN_PADDING)
    assert main(["modes", "--config", str(cfg),
                 "--out", str(tmp_path / "r.csv")]) == 0


# Eigenmode-route settings that pass validate() but that only the closed box
# or the pencil can refuse, each with the bound its message must give:
# under four slab lengths, short of omega_0 = 500, a grid too coarse for
# gamma = 50 (steps of 500 and 5e4 gamma: every rate read nan at 1e8, and
# at 1e10 no bin lay below 1000, so the slab dropped out), and 995 field
# dofs plus 100 bins on each of 100 slab elements, 10,995 dofs above the
# 4,000 cap
MODES_CONFIG_ERRORS = {
    "modes.box_length = 0.2": "modes.box_length must be >= 0.25",
    "modes.nu_max = 400": "modes.nu_max must be > 500.0",
    "modes.nu_max = 1e8": "modes.nu_max must be > 500.0 and <= 3000015.0",
    "modes.nu_max = 1e10": "modes.nu_max must be > 500.0 and <= 3000015.0",
    "modes.n_bins = 100": "modes.n_bins must be <= 30",
}


@pytest.mark.parametrize("setting", MODES_CONFIG_ERRORS)
@pytest.mark.parametrize("command", ["modes", "sweep"])
def test_modes_setting_out_of_bounds_exits_2(command, setting, tmp_path,
                                              capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        f"case = 1A\nsweep.count = 3\nmethods.modes = true\n{setting}\n")
    out = tmp_path / "o.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {setting.split(' = ')[0]} = ")
    assert MODES_CONFIG_ERRORS[setting] in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]


# Eigenmode-route settings that pass validate() and that only the box or the
# band can refuse: a box too short for the outside site 0.0625 around a thin
# slab, an atom past the box's edge at 0.3125 (the wide padding lets
# validate() pass it; both commands read the box), and a grid whose band
# top has no finite square (a sweep's mesh refuses that grid first)
ATOM_PAST_THE_BOX = "mesh.padding = 1.0\natom.position = 0.5"


@pytest.mark.parametrize("command,setting,message", [
    ("modes", "medium.slab_half_length = 0.001\nmodes.box_length = 0.01",
     "modes.box_length = 0.01: observation points must lie strictly inside "
     "the box (-0.005, 0.005); got [0.0625]; modes.box_length must be > "
     "0.125"),
    ("modes", ATOM_PAST_THE_BOX, "atom.position = 0.5 lies outside the box; "
     "atom.position must be in [-0.3125, 0.3125]"),
    ("sweep", ATOM_PAST_THE_BOX, "atom.position = 0.5 lies outside the box; "
     "atom.position must be in [-0.3125, 0.3125]"),
    ("modes", "sweep.max = 1e200", "sweep.max = 1e+200 must have a finite "
     "square; sweep.max must be < 1.3407807929942597e+154"),
])
def test_an_eigenmode_box_refusal_exits_2(command, setting, message,
                                          tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        f"case = 1A\nsweep.count = 3\nmethods.modes = true\n{setting}\n")
    out = tmp_path / "o.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]


@pytest.mark.parametrize("n_bins", ["31", "100", "1000000000"])
def test_an_over_cap_pencil_is_refused_before_any_bin(n_bins, tmp_path,
                                                     capsys, monkeypatch):
    # the pencil's size is known from the box mesh and n_bins: the cap is
    # checked before frequency_bins samples anything
    def no_sampling(*args):
        raise AssertionError("frequency_bins ran before the cap check")

    monkeypatch.setattr(micromodes, "frequency_bins", no_sampling)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"case = 1A\nsweep.count = 3\nmodes.n_bins = {n_bins}\n")
    out = tmp_path / "o.csv"
    assert main(["modes", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: modes.n_bins = {n_bins} gives a "
                          "pencil of ")
    assert "modes.n_bins must be <= 30" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]


@pytest.mark.parametrize("eta", ["1e160", "1e300"])
@pytest.mark.parametrize("command", ["modes", "sweep"])
def test_overflowing_eta_exits_2(command, eta, tmp_path, capsys):
    # finite, but the eigenmode route's Lorentzian squares it past the
    # largest double: refused as a config error, as MediumSpec refuses an
    # omega_p whose square overflows, not a failure in the rate step
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"case = 1A\nsweep.count = 5\nmethods.modes = true\n"
                   f"modes.eta = {eta}\n")
    out = tmp_path / "o.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: modes.eta = {float(eta)!r} must have a finite square")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]


@pytest.mark.parametrize("command", ["modes", "sweep"])
def test_a_failing_mode_rate_names_its_frequency(command, tmp_path, capsys):
    # eta = 1 is below twice the mode spacing at the bottom of the grid:
    # both commands read the rates from one loop, which names the point
    cfg = tmp_path / "c.cfg"
    cfg.write_text("case = 1A\nsweep.count = 5\nmethods.modes = true\n"
                   "modes.eta = 1\n")
    assert main([command, "--config", str(cfg),
                 "--out", str(tmp_path / "o.csv")]) == 1
    assert capsys.readouterr().err.startswith(
        "error: sweep point omega_a = 300.0: eta = 1.0 is below twice the "
        "local mode spacing")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]


def test_failed_modes_run_writes_no_output(tmp_path):
    # eta below the closed-box mode spacing fails in the rate step, after
    # the spectrum is known; neither output file may be left behind
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "case = vacuum\nsweep.count = 2\nsweep.min = 400\nsweep.max = 500\n"
        "modes.box_length = 0.25\nmodes.eta = 0.5\n"
    )
    assert main(["modes", "--config", str(cfg),
                 "--out", str(tmp_path / "r.csv")]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]


def test_interrupted_csv_write_leaves_no_file(tmp_path):
    def rows():
        yield ("1",)
        raise RuntimeError("row failed")

    with pytest.raises(RuntimeError):
        _write_csv(tmp_path / "x.csv", ["meta"], ("a",), rows())
    assert list(tmp_path.iterdir()) == []


def _around(bound):
    """bound and the floats one ulp either side of it."""
    return [float(np.nextafter(bound, -np.inf)), bound,
            float(np.nextafter(bound, np.inf))]


# The keys whose rules the library holds, each with values in range and at
# its bounds +- 1 ulp: four stock slab lengths (0.25) and the slab half of
# a stock box (0.078125), the resonance and the two stock media's gamma
# bounds on nu_max, the stock box's cap at n_bins 30, the padding that
# reaches the outside site, sweep.min and the largest band top, and the
# least ppw. Every float key also takes 0, a negative, the least
# subnormal, a huge value, inf and NaN; atom.position also takes the edge
# of its padded region +- 1 ulp (drawn below). In-range values keep every
# mesh under ~5e3 nodes; every huge one is refused before a node or a bin
# is laid out.
EXTREMES = [0.0, -1.0, 5e-324, 1e300, math.inf, math.nan]
CONTRACT_VALUES = {
    "modes.box_length": [0.625, 1.0, *_around(0.25), *EXTREMES],
    "modes.nu_max": [2000.0, *_around(500.0), *_around(300001.5),
                     *_around(3000015.0), *EXTREMES],
    "modes.n_bins": [24, 7, 8, 30, 31, 0, -1, 10**9, "nan", "inf"],
    "modes.eta": [20.0, 2.0, *_around(2.0**512), *EXTREMES],
    "mesh.padding": [0.05, 0.5, *_around(0.03125), *EXTREMES],
    "atom.position": ["A", "B", 0.05, -0.07, *EXTREMES],
    "medium.slab_half_length": [0.03125, 0.01, *_around(0.078125),
                                *EXTREMES],
    "sweep.max": [700.0, 500.0, *_around(300.0), *_around(2.0**512),
                  *EXTREMES],
    "mesh.ppw": [40.0, 160.0, *_around(10.0), *EXTREMES],
    "oracle.ppw": [40.0, 160.0, *_around(10.0), *EXTREMES],
}
COMMANDS = ("sweep", "check-identities", "oracle-compare", "modes")


@st.composite
def contract_runs(draw):
    """(command, config text) with up to four keys of CONTRACT_VALUES."""
    keys = draw(st.lists(st.sampled_from(sorted(CONTRACT_VALUES)),
                         max_size=4, unique=True))
    values = {key: draw(st.sampled_from(CONTRACT_VALUES[key]))
              for key in keys}
    if "atom.position" in values and draw(st.booleans()):
        half = values.get("medium.slab_half_length", 0.03125)
        edge = half + values.get("mesh.padding", 0.05)
        if isinstance(half, float) and math.isfinite(edge):
            values["atom.position"] = draw(st.sampled_from(
                _around(edge) + _around(-edge)))
    lines = [f"case = {draw(st.sampled_from(CASE_NAMES))}",
             f"sweep.count = {draw(st.integers(1, 3))}",
             f"methods.modes = {draw(st.booleans())}",
             *(f"{key} = {value!r}" if isinstance(value, float)
               else f"{key} = {value}" for key, value in values.items())]
    return draw(st.sampled_from(COMMANDS)), "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(contract_runs())
def test_every_config_keeps_the_exit_contract(run):
    # exit 0 writes whole files of finite fields, 1 and 2 write nothing, 2
    # names a key, and no run warns or raises. The one file written on exit
    # 1 is the whole table of an oracle-compare whose residuals fail the
    # gate, kept to show which rows failed
    command, text = run
    with tempfile.TemporaryDirectory() as tmp:
        folder = pathlib.Path(tmp)
        (folder / "c.cfg").write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([command, "--config", str(folder / "c.cfg"),
                         "--out", str(folder / "o.csv")])
        written = sorted(p.name for p in folder.iterdir())
        err = err.getvalue()
        assert [str(w.message) for w in caught] == []
        assert code in (0, 1, 2), err
        if code == 2:
            assert err.startswith("config error: ")
            assert err.removeprefix("config error: ").startswith(
                tuple(CONFIG_KEYS)), err
        gate_failed = code == 1 and "-> FAIL" in out.getvalue()
        if code != 0 and not gate_failed:
            assert written == ["c.cfg"], err
            return
        files = {"sweep": ["o.csv"], "oracle-compare": ["o.csv"],
                 "modes": ["o.csv", "o_spectrum.csv"],
                 "check-identities": []}[command]
        assert written == sorted(["c.cfg", *files])
        count = int(text.split("sweep.count = ")[1].split("\n")[0])
        for name in files:
            header, rows = csv_rows(folder / name)
            assert rows and all(len(row) == len(header) for row in rows)
            assert name != "o.csv" or len(rows) == count
            assert gate_failed or all(math.isfinite(float(f))
                                      for row in rows for f in row if f)


# ---------------------------------------------------------------- sweep


def test_vacuum_sweep_csv(tmp_path):
    out = tmp_path / "vac.csv"
    assert main(["sweep", "--case", "vacuum", "--out", str(out)]) == 0
    header, rows = csv_rows(out)
    assert header == ["omega_a", "pf_sfa", "pf_b", "pf_m", "pf_modified_ln",
                      "pf_original_ln", "pf_modes", "tec_residual"]
    assert len(rows) == 101
    pf_sfa = np.array([float(r[1]) for r in rows])
    np.testing.assert_allclose(pf_sfa, 1.0, atol=1e-3)
    assert all(float(r[4]) == 1.0 for r in rows)  # boundary route alone
    assert all(float(r[5]) == 0.0 for r in rows)  # no medium to radiate
    assert all(r[6] == "" for r in rows)  # modes disabled by default
    # the empty slab's zeros are +0: a signed zero is noise in a body
    # compared as text
    assert not [f for r in rows for f in r if f.startswith("-0.")]


def test_single_point_sweep(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("case = 1A\nsweep.min = 500\nsweep.max = 500\n"
                   "sweep.count = 1\n")
    out = tmp_path / "one.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = csv_rows(out)
    assert len(rows) == 1
    assert float(rows[0][0]) == 500.0


def test_disabled_methods_leave_fields_empty(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "case = 1A\nsweep.count = 3\nmethods.sfa = false\n"
        "methods.original_ln = false\n"
    )
    out = tmp_path / "part.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = csv_rows(out)
    for row in rows:
        assert row[1] == "" and row[5] == ""
        assert row[7] == ""  # the balance residual needs both routes
        assert row[4] != ""


def test_sweep_bodies_are_deterministic(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("case = 2B\nsweep.count = 9\n")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
    assert csv_body(out1) == csv_body(out2)


def test_echoed_config_reparses_to_the_same_run(tmp_path):
    cfg = tmp_path / "c.cfg"
    text = "case = 1B\nsweep.count = 4\nmesh.ppw = 44\nmodes.eta = 15\n"
    cfg.write_text(text)
    out = tmp_path / "echo.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert read_config_echo(out) == build_config(text, out=str(out))


def test_echo_reader_rejects_plain_csv(tmp_path):
    bare = tmp_path / "bare.csv"
    bare.write_text("omega_a,pf_sfa\n1,2\n")
    with pytest.raises(ConfigError, match="echo"):
        read_config_echo(bare)


def test_modes_column_filled_when_enabled(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "case = vacuum\nsweep.min = 450\nsweep.max = 550\nsweep.count = 3\n"
        "methods.modes = true\nmodes.box_length = 0.25\nmodes.eta = 30\n"
    )
    out = tmp_path / "m.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = csv_rows(out)
    pf_modes = np.array([float(r[6]) for r in rows])
    assert np.all(pf_modes > 0.5) and np.all(pf_modes < 1.5)


def modes_metadata(path):
    """(count, band, residual, sweeps, residue residual) from ``modes:``.

    None when the file has no such line.
    """
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# modes: "):
            count, rest = line.removeprefix("# modes: ").split(" in band ")
            band, rest = rest.split(", normalization_residual = ")
            residual, rest = rest.split(", count_sweeps = ")
            sweeps, residue = rest.split(", residue_residual = ")
            lo, hi = band.strip("[]").split(", ")
            return (int(count), (float(lo), float(hi)), float(residual),
                    int(sweeps), float(residue))
    return None


def test_modes_metadata_reports_count_band_and_residual(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "case = vacuum\nsweep.min = 450\nsweep.max = 750\nsweep.count = 3\n"
        "methods.modes = true\nmodes.box_length = 0.25\nmodes.eta = 30\n"
    )
    lines = {}
    for command in ("sweep", "modes"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        lines[command] = modes_metadata(out)
        # the line sits in the metadata; the echo still reads back
        assert read_config_echo(out).method_modes
    count, band, residual, sweeps, residue = lines["modes"]
    assert lines["sweep"] == lines["modes"]
    assert band == (1.0, 1050.0)  # kept 300 past the top of the grid
    assert residual < 1e-10
    assert sweeps > 0
    assert residue < 1e-10
    _, spectrum = csv_rows(tmp_path / "modes_spectrum.csv")
    assert len(spectrum) == count
    assert modes_metadata(tmp_path / "modes_spectrum.csv") == lines["modes"]


def test_sweep_without_modes_has_no_modes_line(tmp_path):
    out = tmp_path / "v.csv"
    assert main(["sweep", "--case", "vacuum", "--out", str(out)]) == 0
    assert modes_metadata(out) is None


# ---------------------------------------------------------------- checks


def test_check_identities_passes_by_default(capsys):
    assert main(["check-identities", "--case", "1A"]) == 0
    report = capsys.readouterr().out
    assert "FAIL" not in report
    assert "two-channel dissipation" in report
    assert "lossless-identity failure" in report
    assert "field-correlation balance" in report


def test_check_identities_fails_under_impossible_threshold(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("case = 1A\nidentities.ddgt_max = 1e-16\n")
    assert main(["check-identities", "--config", str(cfg)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_identities_closed_box_skips_lossless(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("case = 1A\nidentities.closed_box = true\n")
    assert main(["check-identities", "--config", str(cfg)]) == 0
    report = capsys.readouterr().out
    assert "SKIP" in report
    assert "lossless-identity failure [vacuum" not in report


# ---------------------------------------------------------------- oracle


def test_oracle_compare_passes_at_default_resolution(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("case = 2A\nsweep.count = 3\n")
    out = tmp_path / "oc.csv"
    assert main(["oracle-compare", "--config", str(cfg),
                 "--out", str(out)]) == 0
    header, rows = csv_rows(out)
    assert header == ["omega", "res_rt", "res_field", "res_green"]
    worst = max(float(v) for row in rows for v in row[1:])
    assert worst < 5e-3


def test_oracle_compare_documents_coarse_mesh_floor(tmp_path):
    """The sweep-resolution mesh sits above the 0.5 percent gate on
    purpose; asking the comparison to run there must exit nonzero."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text("case = 2A\nsweep.count = 3\noracle.ppw = 40\n")
    assert main(["oracle-compare", "--config", str(cfg),
                 "--out", str(tmp_path / "oc.csv")]) == 1


def test_oracle_compare_vacuum_scattering_is_exact(tmp_path):
    """With no slab the scattering source vanishes identically, so r and t
    match to roundoff and the total field is the incident lattice wave. Its
    miss at the probes is the lattice phase slip |1 - e^{i(theta - k x)}|,
    largest at x_B, which the unit drive scales. The point-source
    comparison keeps its usual lattice-dispersion floor and only meets the
    0.5 percent gate."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text("case = vacuum\nsweep.count = 3\n")
    out = tmp_path / "ocv.csv"
    assert main(["oracle-compare", "--config", str(cfg),
                 "--out", str(out)]) == 0
    _, rows = csv_rows(out)
    config = build_config(cfg.read_text())
    mesh = purcell_mesh(config.medium, config.atom_position,
                        k_max=700.0, ppw=config.oracle_ppw,
                        padding=config.padding)
    node = mesh.find_node(ATOM_OUTSIDE)
    for row in rows:
        k = float(row[0])
        theta = assemble(mesh, config.medium, k).phase[node]
        slip = abs(1.0 - np.exp(1j * (theta - k * ATOM_OUTSIDE)))
        assert float(row[1]) < 1e-15
        assert float(row[2]) == pytest.approx(slip, rel=1e-12)
    assert max(float(row[3]) for row in rows) < 5e-3


def test_oracle_compare_passes_where_the_analytic_wave_missed(tmp_path):
    """1A at ppw 160 from omega 474.6: the analytic incident wave missed the
    0.005 gate there (res_rt 5.06e-3); the lattice wave reads 2.3e-3."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text("case = 1A\nsweep.min = 474.6\nsweep.max = 700\n"
                   "sweep.count = 2\n")
    out = tmp_path / "oc.csv"
    assert main(["oracle-compare", "--config", str(cfg),
                 "--out", str(out)]) == 0


def test_oracle_compare_fails_on_a_nan_residual(tmp_path, capsys,
                                               monkeypatch):
    """A NaN residual row must fail the run, not drop out of the worst.

    The oracle's Green function once overflowed to NaN at omega 411 on this
    opaque lossless slab; it is now finite there, so the NaN is injected at
    omega 412.
    """
    oracle_green = crosscheck.tmm_green

    def green(medium, omega, x, x_src):
        g = oracle_green(medium, omega, x, x_src)
        at_412 = np.equal(omega, 412.0)[..., None]
        return np.where(at_412, g * np.nan, g)

    monkeypatch.setattr(crosscheck, "tmm_green", green)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "case = 1A\nmedium.gamma = 0\nmedium.omega_p = 264\n"
        "medium.omega_0 = 410\nmedium.slab_half_length = 0.09375\n"
        "sweep.min = 411\nsweep.max = 413\nsweep.count = 3\n")
    out = tmp_path / "oc.csv"
    code = main(["oracle-compare", "--config", str(cfg), "--out", str(out)])
    _, rows = csv_rows(out)
    assert not all(np.isfinite(float(v)) for row in rows for v in row[1:])
    assert all(np.isfinite(float(v)) for row in rows
               if float(row[0]) != 412.0 for v in row[1:])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["tmm_reflection_transmission",
                                  "tmm_total_field"])
def test_oracle_compare_fails_on_a_nan_rt_or_field(tmp_path, capsys,
                                                   monkeypatch, name):
    """A NaN in the oracle's r and t, or in its probe field, at one
    frequency of the grid fails the run through that row alone."""
    oracle = getattr(crosscheck, name)

    def patched(medium, omega, *args):
        at_412 = np.equal(omega, 412.0)
        values = oracle(medium, omega, *args)
        if isinstance(values, tuple):  # (r, t): a NaN r
            return np.where(at_412, np.nan, values[0]), values[1]
        return np.where(at_412[..., None], np.nan, values)

    monkeypatch.setattr(crosscheck, name, patched)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("case = 1A\nsweep.min = 411\nsweep.max = 413\n"
                   "sweep.count = 3\noracle.ppw = 40\n"
                   "oracle.tolerance = 1\n")
    out = tmp_path / "oc.csv"
    code = main(["oracle-compare", "--config", str(cfg), "--out", str(out)])
    _, rows = csv_rows(out)
    finite = [all(np.isfinite(float(v)) for v in row[1:]) for row in rows]
    assert finite == [True, False, True]
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------- modes


def test_modes_command_writes_spectrum_and_rates(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "case = vacuum\nsweep.min = 400\nsweep.max = 600\nsweep.count = 5\n"
        "modes.box_length = 0.25\nmodes.eta = 30\n"
    )
    out = tmp_path / "modes.csv"
    assert main(["modes", "--config", str(cfg), "--out", str(out)]) == 0
    _, rate_rows = csv_rows(out)
    assert len(rate_rows) == 5
    spec = tmp_path / "modes_spectrum.csv"
    header, spec_rows = csv_rows(spec)
    assert header == ["omega_m"]
    freqs = np.array([float(r[0]) for r in spec_rows])
    assert np.all(np.diff(freqs) > 0)
    # closed vacuum box of length L resonates at multiples of pi / L
    np.testing.assert_allclose(freqs[0], np.pi / 0.25, rtol=1e-3)
