#!/usr/bin/env python3
"""afsub benchmark: end-to-end and per-layer metrics for two workloads.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 50 --trace 0

One process drives ``afsub.cli.main(argv)`` in-process, one operation at a
time, in a closed loop with no extra threads.  Set-up writes the inputs
(derived from --seed) under .perfbench-work/; it is repeated at least five
times and until three seconds of set-up have been timed, and setup_s is the
median.  The operation list then runs in order, over and over, until
--seconds have passed and at least one full pass is done; pass_s sums each
operation's median time.  A calibration unit, timed between set-ups and
between operations, gives the machine's speed at each moment of the run:
every in-process time is scaled by the speed around it to the reference
speed recorded in reference.json (the raw times go to the result file).
Every operation is checked against a known answer; artifacts are checked
against the sha256 digests in reference.json.

--trace 0 prints the end-to-end metrics; --trace 1 alternates whole
untraced and traced passes until --seconds, and prints the per-layer
metrics with the tracing overhead.  The last stdout line is a JSON object
with the keys correct, attempted, failed and metrics; the exit code is 1 on
any wrong answer.  --workload all runs every workload in turn.  See
NOTES.md for the workloads, the metric definitions and the expected layer
effects.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calibration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_MIN_S = 5, 1000, 3.0
SETUP_UNITS = 5  # calibration units timed before the first set-up and after each one
CLI_START_LAUNCHES, CLI_START_EVERY_S = 5, 2.5
CALIBRATE_EVERY_S = 0.1
LOCAL_S, LOCAL_MIN = 0.5, 3  # a time is scaled by the units within LOCAL_S of it (at least LOCAL_MIN)
CLI_START_ARGV = ["bound", "kn", "--n", "100", "--c", "2"]
BARE_CODE = "import argparse, json"
# The CLI reads its default window ceiling from this variable; the known
# answers assume the built-in default.
CEILING_ENV = "AFSUB_MAX_WINDOWS"
WRONG = "wrong"


def load_reference() -> dict:
    return json.loads((BENCH / "reference.json").read_text())


class Tally:
    """Outcomes of the operations a run attempted."""

    def __init__(self) -> None:
        self.outcomes = {"ok": 0, "undecided": 0, "failed": 0, WRONG: 0}
        self.outcomes_of: dict[str, set[str]] = {}
        self.errors: list[str] = []

    @property
    def attempted(self) -> int:
        return sum(self.outcomes.values())

    def done_frac(self, ops) -> float:
        """Share of the operation list whose every run ended in its expected,
        decided outcome."""
        return sum(self.outcomes_of[op.label] == {"ok"} for op in ops) / len(ops)


def run_ops(ops, tally: Tally, seconds: float, tracer=None, whole_passes: bool = False,
            between_ops=None) -> list[list[tuple[float, float, str]]]:
    """Run the operation list in order, over and over, until seconds have
    passed and at least one full pass is done; stop mid-pass unless
    whole_passes.  between_ops, if given, runs after each operation,
    outside its timing.  Return the runs of each operation: start, end and
    outcome."""
    from workloads import WrongAnswer

    runs: list[list[tuple[float, float, str]]] = [[] for _ in ops]
    start = perf_counter()
    while True:
        for op, op_runs in zip(ops, runs):
            if tracer is not None:
                tracer.begin_op(op.label)
            t0 = perf_counter()
            try:
                outcome = op.action()
            except WrongAnswer as exc:
                outcome = WRONG
                tally.errors.append(str(exc))
            except Exception:  # the program itself raised: a wrong outcome, kept with its traceback
                outcome = WRONG
                tally.errors.append(f"{op.label}:\n{traceback.format_exc()}")
            op_runs.append((t0, perf_counter(), outcome))
            tally.outcomes[outcome] += 1
            tally.outcomes_of.setdefault(op.label, set()).add(outcome)
            if between_ops is not None:
                between_ops()
            if not whole_passes and runs[-1] and perf_counter() - start >= seconds:
                return runs
        if perf_counter() - start >= seconds:
            return runs


def pass_time(runs, duration) -> float:
    """One pass's time: the sum over the operation list of each operation's
    median duration in the run."""
    return sum(statistics.median(duration(t0, t1) for t0, t1, _ in op_runs) for op_runs in runs)


def verdict_times(ops, runs, duration) -> list[float]:
    """Durations of the verdict operations' runs that reached their expected
    verdict, from the first k runs of each, k being the fewest runs any of
    them had, so that every verdict operation weighs the same."""
    from workloads import OK

    verdict_runs = [op_runs for op, op_runs in zip(ops, runs) if op.verdict]
    k = min(map(len, verdict_runs))
    return [duration(t0, t1) for op_runs in verdict_runs for t0, t1, outcome in op_runs[:k] if outcome == OK]


class FreshStarts:
    """Fresh interpreters running one cheap CLI command, launched every
    CLI_START_EVERY_S seconds between operations so that they sample the
    whole run: their wall times, and the import time of afsub.cli each one
    reports.  Each is followed by a bare interpreter that imports only the
    standard library: the machine's speed at starting processes, which
    outside load moves more than it moves the in-process calibration unit."""

    CODE = (
        "import sys, time\n"
        "t = time.perf_counter()\n"
        "import afsub.cli\n"
        "print(time.perf_counter() - t, file=sys.stderr)\n"
        f"sys.exit(afsub.cli.main({CLI_START_ARGV!r}))\n"
    )

    def __init__(self, expected_bound: float) -> None:
        self.expected_bound = expected_bound
        self.launches: list[tuple[float, float]] = []
        self.bare: list[tuple[float, float]] = []
        self.imports: list[float] = []
        self.last = perf_counter()

    def launch(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", self.CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        self.launches.append((t0, perf_counter()))
        if proc.returncode != 0 or json.loads(proc.stdout)["bound"] != self.expected_bound:
            raise RuntimeError(f"fresh-interpreter CLI run failed: exit {proc.returncode}: {proc.stderr}")
        self.imports.append(float(proc.stderr.split()[-1]))
        self.bare.append(bare_start())
        self.last = perf_counter()

    def between_ops(self) -> None:
        if perf_counter() - self.last >= CLI_START_EVERY_S:
            self.launch()


def bare_start() -> tuple[float, float]:
    """Start and end of one bare interpreter run."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", BARE_CODE], cwd=ROOT, capture_output=True, timeout=120, check=True)
    return t0, perf_counter()


class SpeedProbe:
    """The calibration unit's times, each with the moment it was taken: every
    CALIBRATE_EVERY_S between operations, and SETUP_UNITS times around each
    set-up."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.unit_s: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.at.append(perf_counter())
            self.unit_s.append(calibration.unit())

    def between_ops(self) -> None:
        if perf_counter() - self.at[-1] >= CALIBRATE_EVERY_S:
            self.sample()

    def unit_near(self, t0: float, t1: float) -> float:
        """The median unit time within LOCAL_S of [t0, t1], widened to the
        LOCAL_MIN nearest samples where there are fewer."""
        lo = bisect.bisect_left(self.at, t0 - LOCAL_S)
        hi = bisect.bisect_right(self.at, t1 + LOCAL_S)
        while hi - lo < LOCAL_MIN and (lo > 0 or hi < len(self.at)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        return statistics.median(self.unit_s[lo:hi])


def environment(traced: bool) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "afsub").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "traced": traced,
    }


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[8] if len(samples) > 1 else samples[0]


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """Set up and run one workload; return its result line and the details
    written beside it."""
    import afsub.bounds
    import tracing
    from workloads import WORKLOADS, Artifacts

    workdir = WORK / f"{name}-{os.getpid()}"
    setups: list[tuple[float, float]] = []
    probe = SpeedProbe()
    tracer = None
    try:
        probe.sample(SETUP_UNITS)
        while len(setups) < SETUP_MIN_REPEATS or (
                sum(t1 - t0 for t0, t1 in setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            t0 = perf_counter()
            reference = load_reference()
            workdir.mkdir(parents=True)
            ops = WORKLOADS[name](workdir, seed, Artifacts(reference["digests"]))
            setups.append((t0, perf_counter()))
            probe.sample(SETUP_UNITS)

        tally = Tally()
        starts = FreshStarts(afsub.bounds.kn_lower_bound(100, 2))

        def between_ops() -> None:
            probe.between_ops()
            starts.between_ops()

        if traced:
            # whole untraced and traced passes in turn, so that both sample
            # the same phases of the machine
            tracer = tracing.Tracer()
            plain, traced_runs = [[] for _ in ops], [[] for _ in ops]
            start = perf_counter()
            while True:
                for op_runs, more in zip(plain, run_ops(ops, tally, 0, whole_passes=True,
                                                        between_ops=between_ops)):
                    op_runs.extend(more)
                tracing.install(tracer)
                try:
                    more_traced = run_ops(ops, tally, 0, tracer, whole_passes=True, between_ops=between_ops)
                finally:
                    tracer.restore()
                for op_runs, more in zip(traced_runs, more_traced):
                    op_runs.extend(more)
                if perf_counter() - start >= seconds:
                    break
        else:
            plain = run_ops(ops, tally, seconds, between_ops=between_ops)
        while len(starts.launches) < CLI_START_LAUNCHES:
            starts.launch()
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    def at_reference(t0: float, t1: float) -> float:
        """A duration scaled from the machine's speed around it to the
        reference speed."""
        return (t1 - t0) * reference["calibration_s"] / probe.unit_near(t0, t1)

    def raw(t0: float, t1: float) -> float:
        return t1 - t0

    details = {
        "workload": name, "seed": seed, "seconds": seconds, "env": environment(traced),
        "ops_per_pass": len(ops), "runs_per_op": [len(r) for r in plain],
        "outcomes": tally.outcomes, "errors": tally.errors,
        "calibration": {"reference_s": reference["calibration_s"], "samples": len(probe.unit_s),
                        "median_s": statistics.median(probe.unit_s)},
    }
    samples = {}
    if not traced:
        verdicts = verdict_times(ops, plain, at_reference)
        metrics = {
            "setup_s": (statistics.median(at_reference(*s) for s in setups), "s"),
            "pass_s": (pass_time(plain, at_reference), "s"),
            "verdict_s_p50": (statistics.median(verdicts), "s"),
            "verdict_s_p90": (p90(verdicts), "s"),
            # fresh interpreters follow the bare ones, not the in-process unit
            "cli_start_s": (reference["interpreter_s"] * statistics.median(raw(*s) for s in starts.launches)
                            / statistics.median(raw(*s) for s in starts.bare), "s"),
            "done_frac": (tally.done_frac(ops), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        raw_verdicts = verdict_times(ops, plain, raw)
        details["raw_s"] = {
            "setup_s": statistics.median(raw(*s) for s in setups),
            "pass_s": pass_time(plain, raw),
            "verdict_s_p50": statistics.median(raw_verdicts),
            "verdict_s_p90": p90(raw_verdicts),
            "cli_start_s": statistics.median(raw(*s) for s in starts.launches),
        }
        samples = {"setup_s": len(setups), "pass_s": sum(map(len, plain)), "verdict_s_p50": len(verdicts),
                   "verdict_s_p90": len(verdicts), "done_frac": len(ops), "peak_rss_mb": 1,
                   "cli_start_s": len(starts.launches)}
    else:
        layers = tracing.layer_metrics(tracer, len(traced_runs[0]))
        layers["cli.import_s"] = statistics.median(starts.imports)
        layers["trace.pass_s"] = pass_time(traced_runs, at_reference)
        layers["trace.overhead_s"] = layers["trace.pass_s"] - pass_time(plain, at_reference)
        metrics = {key: (value, unit_of(key)) for key, value in sorted(layers.items())}
        details["counters"], details["counters_moved"], details["counters_unstable"] = \
            compare_counters(tracing.op_counters(tracer), reference["counters"])
        tracing.write_spans(tracer, WORK / f"spans-{name}.tsv")
    details["metrics"] = {k: {"value": v, "unit": u, "samples": samples.get(k)} for k, (v, u) in metrics.items()}
    # everything needed to recompute the timed metrics another way
    details["timeline"] = {
        "setups": setups, "cli_starts": starts.launches, "bare_starts": starts.bare, "calibration": list(zip(probe.at, probe.unit_s)),
        "ops": {op.label: [list(r) for r in op_runs] for op, op_runs in zip(ops, plain)},
    }
    result = {
        "correct": tally.outcomes[WRONG] == 0,
        "attempted": tally.attempted,
        "failed": tally.outcomes[WRONG] + tally.outcomes["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, details


def unit_of(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("ns_per_window"):
        return "ns"
    if metric.endswith(("_ratio", "_per_even_path")):
        return "ratio"
    return "bytes" if metric.endswith(".bytes") else "count"


def compare_counters(runs, reference: dict) -> tuple[dict, list, list]:
    """Counters of each operation, the fixed-input operations whose counters
    differ from the reference, and operations whose counters differed
    between traced passes."""
    counters, unstable = {}, []
    for label, counts in runs:
        if label in counters and counters[label] != counts and label not in unstable:
            unstable.append(label)
        counters.setdefault(label, counts)
    moved = sorted(label for label, counts in counters.items()
                   if label in reference and reference[label] != counts)
    return counters, moved, unstable


def print_report(result: dict, details: dict) -> None:
    print(f"workload {details['workload']}  seed {details['seed']}  traced {details['env']['traced']}  "
          f"operations {details['ops_per_pass']}  runs of each "
          f"{min(details['runs_per_op'])}-{max(details['runs_per_op'])}  "
          f"outcomes {details['outcomes']}")
    for key, m in details["metrics"].items():
        n = "" if m["samples"] is None else f"  n={m['samples']}"
        print(f"  {key:<52} {m['value']:>16.6f} {m['unit']}{n}")
    if "counters_moved" in details:
        print(f"  counters: {len(details['counters'])} operations traced; moved from reference: "
              f"{details['counters_moved'] or 'none'}; unstable between passes: "
              f"{details['counters_unstable'] or 'none'}")
    for error in details["errors"][:10]:
        print(f"  WRONG: {error}", file=sys.stderr)
    print("env " + json.dumps(details["env"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("certify", "refute", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "afsub" / "cli.py").is_file():
        print(f"afsub sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop(CEILING_ENV, None)

    names = ("certify", "refute") if args.workload == "all" else (args.workload,)
    correct = True
    for name in names:
        result, details = run_workload(name, args.seed, args.seconds, bool(args.trace))
        WORK.mkdir(exist_ok=True)
        out = WORK / f"result-{name}-trace{args.trace}.json"
        out.write_text(json.dumps(dict(details, result=result), indent=2) + "\n")
        print_report(result, details)
        print(json.dumps(result), flush=True)
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
