"""Spans around the calls into each slabqed module, installed from outside.

``install`` wraps the public functions listed in ``HOOKS`` and rebinds every
name under which a loaded ``slabqed`` module holds them. The rebinding
matters: ``cli``, ``purcell``, ``scattering``, ``greens`` and ``identities``
import functions by name at import time, so patching only the defining
module would miss their calls. Nothing under ``src/`` is edited.

A span is ``[name, start, end, parent, run_id, count]``: ``parent`` indexes
the enclosing span of the same thread (-1 at the top), ``run_id`` is the CLI
call that caused it and ``count`` an optional size the hook reads off the
call (mesh nodes, dense dofs). Spans stay in memory until the caller takes
them with ``Tracer.spans``.

``layer_metrics`` turns the spans of one workload iteration into the
per-layer metrics; a span's self time is its duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import threading
import time


def _n_nodes(args, result):
    return result.n_nodes


def _n_interior(args, result):
    return args[0].n_interior


def _pencil_size(args, result):
    return result.size


# span name -> (module, attribute; "Class.method" for methods, count hook).
# Only functions that another module or the CLI calls are layer boundaries;
# helpers a layer calls internally stay inside its self time.
HOOKS = {
    "cli.main": ("slabqed.cli", "main", None),
    "mesh.build_mesh": ("slabqed.mesh", "build_mesh", _n_nodes),
    "mesh.build_box_mesh": ("slabqed.mesh", "build_box_mesh", _n_nodes),
    "fem.assemble": ("slabqed.fem", "assemble", None),
    # the constructor, so a direct Factorization(...) is counted as well
    "fem.factorize": ("slabqed.fem", "Factorization.__init__", None),
    "fem.solve": ("slabqed.fem", "Factorization.solve", None),
    "scattering.solve_scattering": ("slabqed.scattering", "solve_scattering", None),
    "scattering.extract_r_t": ("slabqed.scattering", "extract_r_t", None),
    "greens.sample_green": ("slabqed.greens", "sample_green", None),
    "greens.solve_point_source": ("slabqed.greens", "solve_point_source", None),
    "purcell.compute_record": ("slabqed.purcell", "compute_record", None),
    "purcell.sweep": ("slabqed.purcell", "sweep", None),
    "oracle.tmm_reflection_transmission": ("slabqed.oracle", "tmm_reflection_transmission", None),
    "oracle.tmm_total_field": ("slabqed.oracle", "tmm_total_field", None),
    "oracle.tmm_green": ("slabqed.oracle", "tmm_green", None),
    "identities.check_discrete_ddgt": ("slabqed.identities", "check_discrete_ddgt", _n_interior),
    "identities.check_lossless_identity_failure": (
        "slabqed.identities", "check_lossless_identity_failure", _n_interior),
    "identities.check_thermal_equilibrium": (
        "slabqed.identities", "check_thermal_equilibrium", None),
    "micromodes.build_gevp": ("slabqed.micromodes", "build_gevp", _pencil_size),
    "micromodes.diagonalize": ("slabqed.micromodes", "diagonalize", None),
    "micromodes.purcell_from_modes": ("slabqed.micromodes", "purcell_from_modes", None),
}


def rebind(module_name, attr, make_wrapper):
    """Replace a slabqed function, or a method, by ``make_wrapper(original)``.

    Returns False when the module or attribute no longer exists, so a
    refactor that renames a boundary leaves that layer reading zero instead
    of breaking the benchmark.
    """
    module = sys.modules.get(module_name)
    if module is None:
        return False
    owner_name, _, name = attr.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    original = getattr(owner, name, None)
    if original is None:
        return False
    wrapper = make_wrapper(original)
    if owner_name:
        setattr(owner, name, wrapper)
        return True
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "slabqed" or mod_name.startswith("slabqed."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    return True


class Tracer:
    """In-memory span recorder; ``run_id`` is set by the caller per CLI call."""

    def __init__(self):
        self.spans = []
        self.run_id = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self.missing = []

    def install(self):
        for name, (module_name, attr, count) in HOOKS.items():
            if not rebind(module_name, attr,
                          functools.partial(self._wrap, name, count)):
                self.missing.append(name)

    def _wrap(self, name, count, fn):
        spans = self.spans
        local = self._local
        lock = self._lock
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            with lock:  # a sweep worker pool records from several threads
                index = len(spans)
                spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                try:
                    span[5] = count(args, result)
                except (AttributeError, IndexError):
                    pass  # a changed signature leaves the count unset
            return result

        return wrapper


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Per span: duration minus the union of its direct children."""
    children = [[] for _ in spans]
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [
        (span[2] - span[1]) - _covered(kids)
        for span, kids in zip(spans, children)
    ]


def _layer(name):
    return name.split(".", 1)[0]


def layer_metrics(spans, rows_by_run, kinds_by_run):
    """Per-layer metrics of one workload iteration.

    ``rows_by_run[run_id]`` is the CSV row count of that CLI call and
    ``kinds_by_run[run_id]`` its subcommand; factorizations per point count
    only the calls that write one row per frequency point (``sweep``,
    ``oracle-compare``).
    """
    own = self_times(spans)

    def self_s(*names):
        return sum(t for span, t in zip(spans, own) if span[0] in names)

    def calls(*names):
        return sum(1 for span in spans if span[0] in names)

    def max_count(*names):
        return max((span[5] for span in spans
                    if span[0] in names and span[5] is not None), default=0)

    oracle_calls = sum(
        1 for span in spans
        if _layer(span[0]) == "oracle"
        and (span[3] < 0 or _layer(spans[span[3]][0]) != "oracle")
    )
    per_point_runs = {run for run, kind in kinds_by_run.items()
                      if kind in ("sweep", "oracle-compare")}
    points = sum(rows_by_run.get(run, 0) for run in per_point_runs)
    per_point_factorizations = sum(
        1 for span in spans
        if span[0] == "fem.factorize" and span[4] in per_point_runs
    )
    dense_dofs = max_count("identities.check_discrete_ddgt",
                           "identities.check_lossless_identity_failure")
    pencil = max_count("micromodes.build_gevp")
    return {
        "mesh.build_s": self_s("mesh.build_mesh", "mesh.build_box_mesh"),
        "mesh.nodes": max_count("mesh.build_mesh", "mesh.build_box_mesh"),
        "fem.assemble_s": self_s("fem.assemble"),
        "fem.assemble_calls": calls("fem.assemble"),
        "fem.factorize_s": self_s("fem.factorize"),
        "fem.factorize_calls": calls("fem.factorize"),
        "fem.factorize_per_point": (per_point_factorizations / points
                                    if points else 0.0),
        "fem.solve_s": self_s("fem.solve"),
        "fem.solve_calls": calls("fem.solve"),
        "scattering.solve_s": self_s("scattering.solve_scattering"),
        "scattering.extract_r_t_s": self_s("scattering.extract_r_t"),
        "greens.sample_green_s": self_s("greens.sample_green"),
        "greens.solve_point_source_s": self_s("greens.solve_point_source"),
        "purcell.compute_record_self_s": self_s("purcell.compute_record"),
        # inclusive: the whole sweep loop, children included
        "purcell.sweep_s": sum(span[2] - span[1] for span in spans
                               if span[0] == "purcell.sweep"),
        "oracle.s": sum(t for span, t in zip(spans, own)
                        if _layer(span[0]) == "oracle"),
        "oracle.calls": oracle_calls,
        "identities.dense_s": self_s("identities.check_discrete_ddgt",
                                     "identities.check_lossless_identity_failure"),
        "identities.balance_s": self_s("identities.check_thermal_equilibrium"),
        "identities.dense_dofs": dense_dofs,
        "micromodes.build_gevp_s": self_s("micromodes.build_gevp"),
        "micromodes.diagonalize_s": self_s("micromodes.diagonalize"),
        "micromodes.rate_s": self_s("micromodes.purcell_from_modes"),
        "micromodes.pencil_dofs": pencil,
        "micromodes.dense_bytes": 2 * pencil * pencil * 8,
        "cli.self_s": self_s("cli.main"),
    }


def top_self(spans):
    """(span name, seconds) of the function with the largest total self time."""
    totals = {}
    for span, t in zip(spans, self_times(spans)):
        totals[span[0]] = totals.get(span[0], 0.0) + t
    return max(totals.items(), key=lambda item: item[1], default=(None, 0.0))
