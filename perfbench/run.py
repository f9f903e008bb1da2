"""The repository benchmark: one seeded workload, timed, checked, reported.

Run from the repository root::

    python3 perfbench/run.py --workload serve-fresh --seed 1 --seconds 12 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` prints every
per-layer metric instead, measured through wrappers around each layer's
public calls, plus the wrappers' own overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``{name: {"value", "unit"}}``).  The exit
code is 1 when a correctness check fails and 2 when the program under
test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse(argv):
    from perfbench.spec import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _table(rows, header):
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    return [
        "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in [header] + rows
    ]


def main(argv=None) -> int:
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    args = _parse(argv)
    try:
        import repro  # noqa: F401  (the program under test)
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    from perfbench.procs import reap_children
    from perfbench.spec import END_TO_END, PER_LAYER, WORKLOADS
    from perfbench.workloads import run_workload

    why = {w.name: w.why for w in WORKLOADS}[args.workload]
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        reap_children()

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"why: {why}")
    print("traffic " + json.dumps(out.traffic, sort_keys=True))
    if args.trace:
        specs = PER_LAYER
        values = {m.name: float(out.layers.get(m.name, 0.0)) for m in specs}
        rows = [(m.name, f"{values[m.name]:.6g}", m.unit, m.layer, m.moves, m.flat) for m in specs]
        lines = _table(rows, ("metric", "value", "unit", "layer", "moves -> on", "flat on"))
    else:
        specs = END_TO_END
        values = {m.name: float(out.metrics[m.name]) for m in specs}
        rows = [(m.name, f"{values[m.name]:.6g}", m.unit, m.better, m.meaning) for m in specs]
        lines = _table(rows, ("metric", "value", "unit", "better", "meaning"))
    lines += [f"info {k} {v:.6g}" if isinstance(v, float) else f"info {k} {v}"
              for k, v in sorted(out.info.items())]
    lines += out.checks.lines()
    print("\n".join(lines))
    result = {
        "correct": out.checks.ok,
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in specs},
    }
    print(json.dumps(result), flush=True)
    return 0 if out.checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
