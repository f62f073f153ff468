"""Command-line front end: construct, verify, bound, witness, export.

Each command loads only the modules it runs, so bound loads closed_forms
alone: no witness search, builder, scanner, serialiser, dataclasses or
numpy.  The verify report is written from a fixed template, byte for byte
what json.dumps(payload, indent=2, sort_keys=True) would write.

Exit codes: 0 success (or no counterexample found), 1 self-check failure
(of word, verify or witness), 2 verification counterexample, recounted by
revalidate, 3 undecided (a window ceiling hit), 64 usage error
(including construction parameters a builder rejects, a word longer than
graph_model.MAX_VERTICES, a bound past float range, running out of
memory, a malformed window ceiling, and an output path that cannot be
written), 65 malformed input file (including a file that is not UTF-8,
a JSON integer past Python's int-string limit, and an edge file with a
vertex id of MAX_VERTICES or more).
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from collections.abc import Sequence

    from .graph_model import ColouredSubdivision
    from .verifier import Counterexample, VerificationReport

# Each name the commands call from this module, and the package module it
# comes from (a module's own name names the module).  A name is bound here
# when a command that uses its module runs, or when it is first read off
# this module (PEP 562); a name already set here, such as a patched
# function, is kept.
_HOMES = {
    "bounds": "bounds",
    "closed_forms": "closed_forms",
    "graph_model": "graph_model",
    "graph_constructions": "graph_constructions",
    "tree_constructions": "tree_constructions",
    "words": "words",
    "BaseGraph": "graph_model",
    "ColouredGraph": "graph_model",
    "complete_dary_tree": "graph_model",
    "random_binary_tree": "graph_model",
    "tree_to_base_graph": "graph_model",
    "SchemaError": "serialize",
    "from_json_str": "serialize",
    "to_dot": "serialize",
    "to_json_str": "serialize",
    "DEFAULT_MAX_WINDOWS": "verifier",
    "WindowCeilingExceeded": "verifier",
    "find_anagram": "verifier",
    "find_anagram_sampled": "verifier",
    "revalidate": "verifier",
}


def _load(*modules: str) -> None:
    """Import modules and bind here each _HOMES name they hold, except a
    name already bound: a replacement set on this module stays."""
    bound = globals()
    for name, home in _HOMES.items():
        if home in modules and name not in bound:
            module = importlib.import_module(f"{__package__}.{home}")
            bound[name] = module if name == home else getattr(module, name)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(_HOMES[name])
    return globals()[name]


EXIT_OK = 0
EXIT_SELF_CHECK = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_CEILING = 3
EXIT_USAGE = 64
EXIT_BAD_INPUT = 65


class UsageError(Exception):
    pass


class SelfCheckFailed(Exception):
    """A command's output failed its own check; main exits EXIT_SELF_CHECK."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def build_parser() -> _Parser:
    """The afsub parser, built once per process.  Every leaf sets run, the
    handler main calls, and uses, the modules main loads for it; a
    construct leaf also sets build, and a bound or witness leaf payload.
    These look up the library functions they call when they run, so a
    function replaced on its module after the parser was built is the one
    called.
    """
    p = _Parser(prog="afsub", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    w = sub.add_parser("word", help="print a square-free or anagram-free word")
    w.add_argument("--alphabet", type=int, choices=(3, 4), required=True)
    w.add_argument("--length", type=int, required=True)
    w.add_argument("-o", "--output")
    w.set_defaults(run=_run_word, uses=("graph_model", "words"))

    c = sub.add_parser("construct", help="build a coloured subdivision")
    csub = c.add_subparsers(dest="construction", required=True)

    bt = csub.add_parser("binary-tree")
    bt.add_argument("--height", type=int, required=True)
    bt.add_argument("--random", type=int, metavar="SEED", default=None,
                    help="build a seeded random binary tree instead of the complete one")
    bt.set_defaults(build=_build_binary_tree)

    da = csub.add_parser("dary")
    da.add_argument("--d", type=int, required=True)
    da.add_argument("--height", type=int, required=True)
    da.set_defaults(build=lambda ns: tree_constructions.build_dary_tree_10(ns.d, ns.height))

    db = csub.add_parser("dary-banded")
    db.add_argument("--d", type=int, required=True)
    db.add_argument("--height", type=int, required=True)
    db.add_argument("--k", type=int, required=True)
    db.set_defaults(build=lambda ns: tree_constructions.build_dary_banded(ns.d, ns.height, ns.k))

    g14, g8, gm = (csub.add_parser(name) for name in ("graph14", "graph8", "graph-merged"))
    for gp in (g14, g8, gm):
        gp.add_argument("--edges", required=True, help="file of whitespace-separated 'u v' pairs")
    gm.add_argument("--k", type=int, required=True)
    g14.set_defaults(build=lambda ns: graph_constructions.colour_14(_read_edge_file(ns.edges)))
    g8.set_defaults(build=lambda ns: graph_constructions.colour_8(_read_edge_file(ns.edges)))
    gm.set_defaults(build=lambda ns: graph_constructions.colour_merged(_read_edge_file(ns.edges), ns.k))

    for sp in csub.choices.values():
        sp.add_argument("-o", "--output")
        sp.add_argument("--dot", help="also write a DOT rendering to this path")
        builder = "graph_constructions" if sp in (g14, g8, gm) else "tree_constructions"
        sp.set_defaults(run=_run_construct, uses=("graph_model", builder, "serialize", "verifier"))

    v = sub.add_parser("verify", help="check a coloured subdivision file")
    v.add_argument("file")
    v.add_argument("--sample", type=int, default=None, metavar="N")
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--max-windows", type=int, default=None)
    v.set_defaults(run=_run_verify, uses=("serialize", "verifier"))

    b = sub.add_parser("bound", help="evaluate closed-form bounds")
    bsub = b.add_subparsers(dest="which", required=True)
    bk = bsub.add_parser("kn")
    bk.add_argument("--n", type=int, required=True)
    bk.add_argument("--c", type=int, required=True)
    bk.set_defaults(run=_run_payload, uses=("closed_forms",),
                    payload=lambda ns: {"bound": closed_forms.kn_lower_bound(ns.n, ns.c)})
    btr = bsub.add_parser("tree")
    btr.add_argument("--d", type=int, required=True)
    btr.add_argument("--heff", type=int, required=True)
    btr.add_argument("--h", type=int, required=True)
    btr.set_defaults(run=_run_payload, uses=("closed_forms",), payload=lambda ns: {
        "bound": closed_forms.tree_lower_bound(ns.d, ns.heff, ns.h),
        "height_condition_met": closed_forms.height_condition_met(ns.d, ns.h),
    })
    bd = bsub.add_parser("dary")
    bd.add_argument("--d", type=int, required=True)
    bd.add_argument("--h", type=int, required=True)
    bd.add_argument("--k", type=int, required=True)
    bd.set_defaults(run=_run_payload, uses=("closed_forms",), payload=lambda ns: dict(
        zip(("lower", "upper"), closed_forms.dary_two_sided(ns.d, ns.h, ns.k))
    ))

    wt = sub.add_parser("witness", help="construct lower-bound anagram witnesses")
    wsub = wt.add_subparsers(dest="which", required=True)
    wk = wsub.add_parser("kn")
    wk.add_argument("--n", type=int, required=True)
    wk.add_argument("--c", type=int, required=True)
    wk.add_argument("--k", type=int, required=True)
    wk.add_argument("--seed", type=int, required=True)
    wk.set_defaults(run=_run_payload, uses=("bounds", "verifier"), payload=_witness_kn)
    wtr = wsub.add_parser("tree")
    wtr.add_argument("--d", type=int, required=True)
    wtr.add_argument("--h", type=int, required=True)
    wtr.add_argument("--x", type=int, required=True)
    wtr.add_argument("--seed", type=int, required=True)
    wtr.set_defaults(run=_run_payload, uses=("bounds", "graph_model", "verifier"), payload=_witness_tree)

    e = sub.add_parser("export", help="export a subdivision file")
    e.add_argument("file")
    e.add_argument("--dot", required=True, help="output DOT path")
    e.set_defaults(run=_run_export, uses=("serialize",))

    return p


def _window_ceiling(flag: int | None) -> int:
    """The --max-windows flag, else AFSUB_MAX_WINDOWS, else the default.
    Only construct and the exhaustive verify read it."""
    if flag is None:
        raw = os.environ.get("AFSUB_MAX_WINDOWS", str(DEFAULT_MAX_WINDOWS))
        try:
            flag = int(raw)
        except ValueError:
            raise UsageError(f"AFSUB_MAX_WINDOWS must be an integer, got {raw!r}") from None
    if flag < 0:
        raise UsageError(f"the window ceiling must be non-negative, got {flag}")
    return flag


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}") from None


def _summary(cs: ColouredSubdivision, max_windows: int) -> str:
    """The construct summary line.  Off forests, n^2/4 estimates the
    path-windows of a scan that can run for seconds before it trips, so a
    larger estimate skips the scan; a forest's scan trips its own ceiling
    soon enough to be run."""
    if cs.graph.vertex_count**2 // 4 > max_windows and not cs.graph.is_forest:
        outcome = "skipped(window ceiling)"
    else:
        try:
            outcome = find_anagram(cs, max_windows=max_windows).outcome
        except WindowCeilingExceeded:
            outcome = "skipped(window ceiling)"
        except MemoryError:
            outcome = "skipped(out of memory)"
    return f"palette={len(cs.palette)} max_division={cs.max_division_count} verification={outcome}"


def _read_text(path: str, what: str) -> str:
    """The text of the file at path, read as UTF-8; what names the file in
    the SchemaError raised when it cannot be read or decoded."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {what}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"cannot read {what}: not UTF-8 at byte {exc.start}") from exc


def _read_edge_file(path: str) -> BaseGraph:
    tokens = _read_text(path, "edge file").split()
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
    if max(ids) >= graph_model.MAX_VERTICES:
        raise SchemaError(f"vertex ids must be below {graph_model.MAX_VERTICES}")
    pairs = list(zip(ids[0::2], ids[1::2]))
    try:
        return BaseGraph(max(ids) + 1, tuple(pairs))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _load_subdivision(path: str) -> ColouredSubdivision:
    return from_json_str(_read_text(path, "file"))


# The verify report as json.dumps(payload, indent=2, sort_keys=True) + "\n"
# writes it, its keys in sorted order: mode is escaped by json.dumps, and a
# counterexample's colour keys are sorted as strings, so "10" precedes "2".
_REPORT = '{\n  %s"mode": %s,\n  "outcome": "%s",\n  "paths_checked": %d\n}\n'
_COUNTEREXAMPLE = ('"counterexample": {\n    "multiset": {\n      %s\n    },\n    "split": %d,\n'
                   '    "vertices": [\n      %s\n    ]\n  },\n  ')


def _report_text(report: VerificationReport) -> str:
    """The verify report's bytes.  A counterexample that revalidate passed
    has vertices and a multiset, so neither list is empty."""
    ce, found = report.counterexample, ""
    if ce is not None:
        multiset = sorted((str(c), k) for c, k in ce.multiset)
        found = _COUNTEREXAMPLE % (",\n      ".join(map('"%s": %d'.__mod__, multiset)), ce.split,
                                   ",\n      ".join(map(str, ce.vertices)))
    return _REPORT % (found, json.dumps(report.mode), report.outcome, report.paths_checked)


def _run_word(ns: argparse.Namespace) -> int:
    if ns.length < 0:
        raise UsageError("--length must be non-negative")
    if ns.length > graph_model.MAX_VERTICES:
        raise UsageError(f"--length must be at most {graph_model.MAX_VERTICES}")
    if ns.alphabet == 3:
        word = words.thue_word(ns.length)
        ok = words.find_square(word) is None
    else:
        word = words.keranen_word(ns.length)
        ok = words.find_abelian_square(word) is None
    if not ok:
        raise SelfCheckFailed("generated word contains a repetition")
    _write(word.to_string() + "\n", ns.output)
    return EXIT_OK


def _build_binary_tree(ns: argparse.Namespace) -> tree_constructions.LabelledTreeSubdivision:
    if ns.height < 1:
        raise UsageError("--height must be at least 1")
    if ns.random is not None:
        tree = random_binary_tree(ns.height, ns.random)
    else:
        tree = complete_dary_tree(2, ns.height)
    return tree_constructions.build_binary_tree_8(tree)


def _run_construct(ns: argparse.Namespace) -> int:
    ceiling = _window_ceiling(None)
    try:
        cs = ns.build(ns).coloured
        text = to_json_str(cs)
        dot = to_dot(cs) if ns.dot else None
    except SchemaError:
        raise
    except ValueError as exc:  # a parameter the builder rejects
        raise UsageError(str(exc)) from None
    _write(text, ns.output)
    if ns.dot:
        _write(dot, ns.dot)
    print(_summary(cs, ceiling), file=sys.stderr)
    return EXIT_OK


def _run_verify(ns: argparse.Namespace) -> int:
    if ns.sample is None and ns.seed is not None:
        raise UsageError("--seed applies only to --sample")
    if ns.sample is not None and ns.max_windows is not None:
        raise UsageError("--max-windows does not apply to --sample, which has no window ceiling")
    if ns.sample is not None and ns.seed is None:
        raise UsageError("--sample requires --seed for reproducibility")
    if ns.sample is not None and ns.sample < 1:
        raise UsageError("--sample must be at least 1")
    ceiling = None if ns.sample is not None else _window_ceiling(ns.max_windows)
    cs = _load_subdivision(ns.file)
    try:
        if ns.sample is not None:
            report = find_anagram_sampled(cs, ns.sample, ns.seed)
        else:
            report = find_anagram(cs, max_windows=ceiling)
    except WindowCeilingExceeded as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CEILING
    if report.outcome == "counterexample" and not revalidate(report.counterexample, cs):
        raise SelfCheckFailed("the counterexample is not an anagram path of the input")
    sys.stdout.write(_report_text(report))
    return EXIT_COUNTEREXAMPLE if report.outcome == "counterexample" else EXIT_OK


def _run_payload(ns: argparse.Namespace) -> int:
    try:
        payload = ns.payload(ns)
    except (ValueError, OverflowError) as exc:  # OverflowError: a value past float range
        raise UsageError(str(exc))
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _witness(ce: Counterexample, c: ColouredSubdivision) -> dict:
    """ce's payload, once revalidate has recounted it on c."""
    if not revalidate(ce, c):
        raise SelfCheckFailed("the witness is not an anagram path of its colouring")
    return {"vertices": list(ce.vertices), "split": ce.split}


def _witness_kn(ns: argparse.Namespace) -> dict:
    cs = bounds.seeded_complete_subdivision_colouring(ns.n, ns.c, ns.k, ns.seed)
    ce = bounds.find_anagram_pigeonhole(cs, ns.c)
    return {
        "bound": bounds.kn_lower_bound(ns.n, ns.c),
        "k": ns.k,
        "witness": _witness(ce, cs),
    }


def _witness_tree(ns: argparse.Namespace) -> dict:
    tree = complete_dary_tree(ns.d, ns.h)
    colours = bounds.seeded_tree_colouring(tree, ns.x, ns.seed)
    ce = bounds.find_anagram_undercoloured_tree(tree, colours, ns.x, ns.d, ns.h)
    return {
        "bound": bounds.tree_lower_bound(ns.d, tree.effective_height, ns.h),
        "witness": _witness(ce, ColouredGraph(tree_to_base_graph(tree), colours)),
    }


def _run_export(ns: argparse.Namespace) -> int:
    _write(to_dot(_load_subdivision(ns.file)), ns.dot)
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        _load(*ns.uses)
        return ns.run(ns)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SelfCheckFailed as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return EXIT_SELF_CHECK
    except MemoryError:  # the size guard counts vertices, not bytes
        print("usage error: the command ran out of memory", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # only a command that loaded serialize can raise its SchemaError
        if not isinstance(exc, globals().get("SchemaError", ())):
            raise
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
