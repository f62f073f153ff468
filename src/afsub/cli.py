"""Command-line front end: construct, verify, bound, witness, export.

Exit codes: 0 success (or no counterexample found), 1 word self-check
failure, 2 verification counterexample, 3 window ceiling hit, 64 usage
error, 65 malformed input file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from . import bounds, graph_constructions, tree_constructions, words
from .graph_model import BaseGraph, ColouredSubdivision, complete_dary_tree, random_binary_tree
from .serialize import SchemaError, from_json_str, to_dot, to_json_str
from .verifier import (
    DEFAULT_MAX_WINDOWS,
    VerificationReport,
    WindowCeilingExceeded,
    check_restriction,
    find_anagram,
    find_anagram_sampled,
)

EXIT_OK = 0
EXIT_SELF_CHECK = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_CEILING = 3
EXIT_USAGE = 64
EXIT_BAD_INPUT = 65


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation; identical configs on identical inputs produce
    byte-identical artifacts."""

    command: str
    options: dict
    seed: Optional[int]
    max_windows: int
    output: Optional[str]


def build_parser() -> _Parser:
    p = _Parser(prog="afsub", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    w = sub.add_parser("word", help="print a square-free or anagram-free word")
    w.add_argument("--alphabet", type=int, choices=(3, 4), required=True)
    w.add_argument("--length", type=int, required=True)
    w.add_argument("-o", "--output")

    c = sub.add_parser("construct", help="build a coloured subdivision")
    csub = c.add_subparsers(dest="construction", required=True)

    bt = csub.add_parser("binary-tree")
    bt.add_argument("--height", type=int, required=True)
    bt.add_argument("--random", type=int, metavar="SEED", default=None,
                    help="build a seeded random binary tree instead of the complete one")

    da = csub.add_parser("dary")
    da.add_argument("--d", type=int, required=True)
    da.add_argument("--height", type=int, required=True)

    db = csub.add_parser("dary-banded")
    db.add_argument("--d", type=int, required=True)
    db.add_argument("--height", type=int, required=True)
    db.add_argument("--k", type=int, required=True)

    for name in ("graph14", "graph8", "graph-merged"):
        gp = csub.add_parser(name)
        gp.add_argument("--edges", required=True, help="file of whitespace-separated 'u v' pairs")
        if name == "graph-merged":
            gp.add_argument("--k", type=int, required=True)

    for sp in (bt, da, db) + tuple(csub.choices[name] for name in ("graph14", "graph8", "graph-merged")):
        sp.add_argument("-o", "--output")
        sp.add_argument("--dot", help="also write a DOT rendering to this path")

    v = sub.add_parser("verify", help="check a coloured subdivision file")
    v.add_argument("file")
    v.add_argument("--sample", type=int, default=None, metavar="N")
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--max-windows", type=int, default=None)
    v.add_argument("--restrict", default=None, metavar="COLOURS",
                   help="comma-separated colour ids: scan the restriction instead")

    b = sub.add_parser("bound", help="evaluate closed-form bounds")
    bsub = b.add_subparsers(dest="which", required=True)
    bk = bsub.add_parser("kn")
    bk.add_argument("--n", type=int, required=True)
    bk.add_argument("--c", type=int, required=True)
    btr = bsub.add_parser("tree")
    btr.add_argument("--d", type=int, required=True)
    btr.add_argument("--heff", type=int, required=True)
    btr.add_argument("--h", type=int, required=True)
    bd = bsub.add_parser("dary")
    bd.add_argument("--d", type=int, required=True)
    bd.add_argument("--h", type=int, required=True)
    bd.add_argument("--k", type=int, required=True)

    wt = sub.add_parser("witness", help="construct lower-bound anagram witnesses")
    wsub = wt.add_subparsers(dest="which", required=True)
    wk = wsub.add_parser("kn")
    wk.add_argument("--n", type=int, required=True)
    wk.add_argument("--c", type=int, required=True)
    wk.add_argument("--k", type=int, required=True)
    wk.add_argument("--seed", type=int, required=True)
    wtr = wsub.add_parser("tree")
    wtr.add_argument("--d", type=int, required=True)
    wtr.add_argument("--h", type=int, required=True)
    wtr.add_argument("--x", type=int, required=True)
    wtr.add_argument("--seed", type=int, required=True)

    e = sub.add_parser("export", help="export a subdivision file")
    e.add_argument("file")
    e.add_argument("--dot", required=True, help="output DOT path")

    return p


def parse_config(argv: Optional[Sequence[str]]) -> RunConfig:
    parser = build_parser()
    ns = parser.parse_args(argv)
    opts = vars(ns).copy()
    command = opts.pop("command")
    for key in ("construction", "which"):
        if key in opts and opts[key]:
            command = f"{command}:{opts.pop(key)}"
    seed = opts.pop("seed", None)
    if "random" in opts and opts["random"] is not None:
        seed = opts["random"]
    output = opts.pop("output", None)
    max_windows = opts.pop("max_windows", None)
    if max_windows is None:
        raw = os.environ.get("AFSUB_MAX_WINDOWS", str(DEFAULT_MAX_WINDOWS))
        try:
            max_windows = int(raw)
        except ValueError:
            raise UsageError(f"AFSUB_MAX_WINDOWS must be an integer, got {raw!r}") from None
    if max_windows < 0:
        raise UsageError(f"the window ceiling must be non-negative, got {max_windows}")
    return RunConfig(command, opts, seed, max_windows, output)


def _write(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _summary(cs: ColouredSubdivision, max_windows: int) -> str:
    estimate = cs.graph.vertex_count**2 // 4
    if estimate > max_windows:
        outcome = "skipped(window ceiling)"
    else:
        try:
            outcome = find_anagram(cs, max_windows=max_windows).outcome
        except WindowCeilingExceeded:
            outcome = "skipped(window ceiling)"
    return f"palette={len(cs.palette)} max_division={cs.max_division_count} verification={outcome}"


def _read_edge_file(path: str) -> BaseGraph:
    try:
        with open(path) as fh:
            tokens = fh.read().split()
    except OSError as exc:
        raise SchemaError(f"cannot read edge file: {exc}") from exc
    if len(tokens) % 2:
        raise SchemaError("edge file must contain an even number of vertex ids")
    try:
        ids = [int(tok) for tok in tokens]
    except ValueError as exc:
        raise SchemaError(f"edge file has a non-integer token: {exc}") from exc
    if not ids:
        raise SchemaError("edge file is empty")
    if min(ids) < 0:
        raise SchemaError("vertex ids must be non-negative")
    pairs = list(zip(ids[0::2], ids[1::2]))
    try:
        return BaseGraph(max(ids) + 1, tuple(pairs))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _load_subdivision(path: str) -> ColouredSubdivision:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read file: {exc}") from exc
    return from_json_str(text)


def _report_json(report: VerificationReport) -> str:
    payload = {
        "outcome": report.outcome,
        "paths_checked": report.paths_checked,
        "mode": report.mode,
    }
    if report.counterexample is not None:
        ce = report.counterexample
        payload["counterexample"] = {
            "vertices": list(ce.vertices),
            "split": ce.split,
            "multiset": {str(c): k for c, k in ce.multiset},
        }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def run(config: RunConfig) -> int:
    cmd = config.command
    opts = config.options

    if cmd == "word":
        return _run_word(config)
    if cmd.startswith("construct:"):
        return _run_construct(config)
    if cmd == "verify":
        return _run_verify(config)
    if cmd.startswith("bound:"):
        return _run_bound(config)
    if cmd.startswith("witness:"):
        return _run_witness(config)
    if cmd == "export":
        cs = _load_subdivision(opts["file"])
        _write(to_dot(cs), opts["dot"])
        return EXIT_OK
    raise UsageError(f"unknown command {cmd!r}")


def _run_word(config: RunConfig) -> int:
    n = config.options["length"]
    if n < 0:
        raise UsageError("--length must be non-negative")
    if config.options["alphabet"] == 3:
        word = words.thue_word(n)
        ok = words.find_square(word) is None
    else:
        word = words.keranen_word(n)
        ok = words.find_abelian_square(word) is None
    if not ok:
        print("self-check failed: generated word contains a repetition", file=sys.stderr)
        return EXIT_SELF_CHECK
    _write(word.to_string() + "\n", config.output)
    return EXIT_OK


def _run_construct(config: RunConfig) -> int:
    kind = config.command.split(":", 1)[1]
    opts = config.options
    if kind == "binary-tree":
        if opts["height"] < 1:
            raise UsageError("--height must be at least 1")
        if opts["random"] is not None:
            tree = random_binary_tree(opts["height"], opts["random"])
        else:
            tree = complete_dary_tree(2, opts["height"])
        cs = tree_constructions.build_binary_tree_8(tree).coloured
    elif kind == "dary":
        cs = tree_constructions.build_dary_tree_10(opts["d"], opts["height"]).coloured
    elif kind == "dary-banded":
        cs = tree_constructions.build_dary_banded(opts["d"], opts["height"], opts["k"]).coloured
    elif kind == "graph14":
        cs = graph_constructions.colour_14(_read_edge_file(opts["edges"])).coloured
    elif kind == "graph8":
        cs = graph_constructions.colour_8(_read_edge_file(opts["edges"])).coloured
    elif kind == "graph-merged":
        cs = graph_constructions.colour_merged(_read_edge_file(opts["edges"]), opts["k"]).coloured
    else:
        raise UsageError(f"unknown construction {kind!r}")
    _write(to_json_str(cs), config.output)
    if opts.get("dot"):
        _write(to_dot(cs), opts["dot"])
    print(_summary(cs, config.max_windows), file=sys.stderr)
    return EXIT_OK


def _run_verify(config: RunConfig) -> int:
    opts = config.options
    cs = _load_subdivision(opts["file"])
    try:
        if opts["restrict"] is not None:
            try:
                keep = {int(tok) for tok in opts["restrict"].split(",") if tok.strip()}
            except ValueError as exc:
                raise UsageError(f"--restrict expects comma-separated ints: {exc}")
            try:
                report = check_restriction(cs, keep, max_windows=config.max_windows)
            except ValueError as exc:
                raise UsageError(str(exc))
        elif opts["sample"] is not None:
            if config.seed is None:
                raise UsageError("--sample requires --seed for reproducibility")
            if opts["sample"] < 1:
                raise UsageError("--sample must be at least 1")
            report = find_anagram_sampled(cs, opts["sample"], config.seed)
        else:
            report = find_anagram(cs, max_windows=config.max_windows)
    except WindowCeilingExceeded as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CEILING
    _write(_report_json(report), config.output)
    return EXIT_OK if report.is_anagram_free else EXIT_COUNTEREXAMPLE


def _run_bound(config: RunConfig) -> int:
    which = config.command.split(":", 1)[1]
    opts = config.options
    try:
        if which == "kn":
            payload = {"bound": bounds.kn_lower_bound(opts["n"], opts["c"])}
        elif which == "tree":
            payload = {
                "bound": bounds.tree_lower_bound(opts["d"], opts["heff"], opts["h"]),
                "height_condition_met": bounds.height_condition_met(opts["d"], opts["h"]),
            }
        else:
            lower, upper = bounds.dary_two_sided(opts["d"], opts["h"], opts["k"])
            payload = {"lower": lower, "upper": upper}
    except (ValueError, bounds.PreconditionError) as exc:
        raise UsageError(str(exc))
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", config.output)
    return EXIT_OK


def _run_witness(config: RunConfig) -> int:
    which = config.command.split(":", 1)[1]
    opts = config.options
    try:
        if which == "kn":
            cs = bounds.seeded_complete_subdivision_colouring(
                opts["n"], opts["c"], opts["k"], config.seed
            )
            ce = bounds.find_anagram_pigeonhole(cs, opts["c"])
            payload = {
                "bound": bounds.kn_lower_bound(opts["n"], opts["c"]),
                "k": opts["k"],
                "witness": {"vertices": list(ce.vertices), "split": ce.split},
            }
        else:
            tree = complete_dary_tree(opts["d"], opts["h"])
            colours = bounds.seeded_tree_colouring(tree, opts["x"], config.seed)
            ce = bounds.find_anagram_undercoloured_tree(
                tree, colours, opts["x"], opts["d"], opts["h"]
            )
            payload = {
                "bound": bounds.tree_lower_bound(
                    opts["d"], bounds.effective_structure(tree).effective_height, opts["h"]
                ),
                "witness": {"vertices": list(ce.vertices), "split": ce.split},
            }
    except (ValueError, bounds.PreconditionError) as exc:
        raise UsageError(str(exc))
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", config.output)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config = parse_config(argv)
        return run(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def console_entry() -> None:
    sys.exit(main())
