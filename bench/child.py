"""One workload iteration in a fresh interpreter; started by ``run.py``.

Usage: ``python3 child.py SPEC_JSON`` with ``PYTHONPATH`` pointing at the
checkout's ``src``. SPEC holds ``calls`` (CLI argument lists; empty for a
set-up probe) and ``trace``.

Protocol on stdout: the line ``READY`` as soon as ``slabqed.cli`` is
imported (the parent times set-up up to it), then one JSON line with, per
CLI call, its exit code, wall seconds and captured stdout, plus the spans
when tracing. Everything the CLI prints goes into that capture.

Per call the child also counts sweep records whose ``pf_modified_ln`` is not
bitwise ``pf_b + pf_m``; the records are taken from ``purcell.sweep``'s
return value, outside the timed region, since the CSV holds 13 digits only.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

import slabqed.cli

print("READY", flush=True)

from tracing import Tracer, rebind  # noqa: E402  (not part of set-up)


def main(spec):
    captured = []

    def capture(fn):
        def sweep(*args, **kwargs):
            records = fn(*args, **kwargs)
            captured.extend(records)
            return records
        return sweep

    rebind("slabqed.purcell", "sweep", capture)
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()

    calls = []
    for run_id, argv in enumerate(spec["calls"]):
        if tracer is not None:
            tracer.run_id = run_id
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            try:
                code = slabqed.cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments
                code = exc.code if isinstance(exc.code, int) else 2
        seconds = time.perf_counter() - start
        bad = sum(1 for rec in captured
                  if not rec.pf_modified_ln == rec.pf_b + rec.pf_m)
        calls.append({"code": code, "seconds": seconds, "stdout": out.getvalue(),
                      "records": len(captured), "bitwise_bad": bad})
        captured.clear()
    return {
        "calls": calls,
        "spans": tracer.spans if tracer is not None else None,
        "missing_hooks": tracer.missing if tracer is not None else [],
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))), flush=True)
