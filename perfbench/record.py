#!/usr/bin/env python3
"""Write perfbench/reference.json from the current source tree.

    python3 perfbench/record.py

Records three things:

- the sha256 of every artifact the workloads check (construct JSON, export
  DOT, word output, including every tree of the random-tree pool);
- the traced counters of every operation whose inputs do not depend on the
  workload seed;
- the median time of the calibration unit, which sets the reference speed
  that in-process end-to-end times are reported at, and the median wall
  time of a bare interpreter, which does the same for cli_start_s.

The reference belongs to the commit that recorded it: later commits are
checked against it, so do not re-record to make a check pass.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys

from run import BENCH, CEILING_ENV, SRC, WORK, Tally, bare_start, run_ops

sys.path.insert(0, str(SRC))

import calibration  # noqa: E402
import tracing  # noqa: E402
from workloads import RANDOM_TREE_POOL, WORKLOADS, Artifacts, construct_op, random_tree_row  # noqa: E402

RECORD_SEED = 0
CALIBRATION_UNITS = 2000
BARE_STARTS = 21


def main() -> int:
    os.environ.pop(CEILING_ENV, None)
    reference = {"digests": {}, "counters": {}}
    reference["calibration_s"] = statistics.median(calibration.unit() for _ in range(CALIBRATION_UNITS))
    reference["interpreter_s"] = statistics.median(t1 - t0 for t0, t1 in (bare_start() for _ in range(BARE_STARTS)))
    artifacts = Artifacts(reference["digests"], record=True)
    workdir = WORK / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tally = Tally()
    try:
        for seed in range(RANDOM_TREE_POOL):
            name, args = random_tree_row(seed)
            run_ops([construct_op(name, args, workdir / f"{name}.json", artifacts)], tally, 0)
        for build in WORKLOADS.values():
            ops = build(workdir, RECORD_SEED, artifacts)
            tracer = tracing.Tracer()
            tracing.install(tracer)
            try:
                run_ops(ops, tally, 0, tracer)
            finally:
                tracer.restore()
            fixed = {op.label for op in ops if not op.seeded}
            reference["counters"].update(
                (label, counts) for label, counts in tracing.op_counters(tracer) if label in fixed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tally.outcomes["wrong"] or tally.outcomes["failed"]:
        print("\n".join(tally.errors), file=sys.stderr)
        return 1
    out = BENCH / "reference.json"
    out.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}: {len(reference['digests'])} digests, {len(reference['counters'])} counter sets")
    return 0


if __name__ == "__main__":
    sys.exit(main())
