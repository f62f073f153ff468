"""The benchmark's workloads: operation lists with known answers.

Every operation is one in-process call of ``afsub.cli.main(argv)`` (or, for
the discriminating audit, of ``afsub.verifier.check_discriminating``), made
the way a user would make it and checked against a known answer.  A
workload's set-up builds its inputs from the workload seed; the program only
ever sees the generated files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import afsub.bounds as bounds
import afsub.cli as cli
import afsub.graph_constructions as graph_constructions
import afsub.graph_model as graph_model
import afsub.serialize as serialize
import afsub.tree_constructions as tree_constructions
import afsub.verifier as verifier

OK = "ok"                # ended in its expected outcome
UNDECIDED = "undecided"  # window-ceiling exit where the known answer allows one
FAILED = "failed"        # no wrong verdict, but not the expected outcome either

# Random binary trees come from this pool of seeds, so that every artifact
# built from them has a recorded digest.
RANDOM_TREE_POOL = 64

# At the commit that defined the benchmark these two end at the default
# 10M-window ceiling; any other ceiling exit is a failed operation.
CEILING_ALLOWED = frozenset({"verify binary-tree-h6", "verify dary-2-5"})


class WrongAnswer(Exception):
    """An operation's output contradicts its known answer."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


@dataclass
class Op:
    label: str
    action: Callable[[], str]   # runs and checks the operation; returns OK, UNDECIDED or FAILED
    verdict: bool = False       # its duration is a verdict_s sample
    seeded: bool = False        # its inputs depend on the workload seed


class Artifacts:
    """sha256 digests of program outputs, checked against the reference
    (or, when recording, stored into it)."""

    def __init__(self, digests: dict[str, str], record: bool = False):
        self.digests = digests
        self.record = record

    def check(self, label: str, path: Path) -> None:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if self.record:
            self.digests[label] = digest
            return
        expected = self.digests.get(label)
        expect(digest == expected, f"{label}: artifact sha256 {digest} differs from reference {expected}")


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run afsub.cli.main in-process, capturing what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def report_of(rc: int, out: str, label: str) -> dict:
    expect(rc in (cli.EXIT_OK, cli.EXIT_COUNTEREXAMPLE), f"{label}: exit {rc}")
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise WrongAnswer(f"{label}: report is not JSON: {exc}") from exc


def counterexample_of(payload: dict) -> verifier.Counterexample:
    return verifier.Counterexample(
        tuple(payload["vertices"]),
        payload["split"],
        tuple(sorted((int(c), k) for c, k in payload["multiset"].items())),
    )


def witness_counterexample(witness: dict, colours) -> verifier.Counterexample:
    vertices, split = tuple(witness["vertices"]), witness["split"]
    half = Counter(colours[v] for v in vertices[:split])
    return verifier.Counterexample(vertices, split, tuple(sorted(half.items())))


# ---- operation factories -------------------------------------------------

def construct_op(name: str, args: list[str], out: Path, artifacts: Artifacts, seeded=False) -> Op:
    label = f"construct {name}"

    def action() -> str:
        rc, _, err = call_cli(["construct", *args, "-o", str(out)])
        expect(rc == cli.EXIT_OK, f"{label}: exit {rc}: {err.strip()}")
        expect("verification=counterexample" not in err, f"{label}: hidden verify found an anagram")
        artifacts.check(label, out)
        return OK

    return Op(label, action, seeded=seeded)


def verify_op(name: str, path: Path, sample: tuple[int, int] | None = None, seeded=False) -> Op:
    """Verify an anagram-free construction: exhaustively, or by sampling
    (budget, seed).  The report is read from stdout: verify has no -o."""
    label = f"verify {name}" + (f" sample={sample[0]}" if sample else "")
    argv = ["verify", str(path)]
    if sample:
        argv += ["--sample", str(sample[0]), "--seed", str(sample[1])]

    def action() -> str:
        rc, out, err = call_cli(argv)
        if rc == cli.EXIT_CEILING and not sample:
            return UNDECIDED if label in CEILING_ALLOWED else FAILED
        report = report_of(rc, out, label)
        expect(report.get("outcome") == "anagram_free", f"{label}: reported {report.get('outcome')}")
        expect(rc == cli.EXIT_OK, f"{label}: exit {rc}")
        expect(report["mode"].startswith("sampled") if sample else report["mode"] == "exhaustive",
               f"{label}: mode {report['mode']}")
        return OK

    # Verdict samples come only from exhaustive verifies of fixed inputs that
    # reach a verdict: random trees differ in size from seed to seed, sampled
    # verifies draw their walks from the seed, and the two ceiling rows end
    # undecided.  All of them still count in the pass.
    seeded = seeded or sample is not None
    return Op(label, action, verdict=not seeded and label not in CEILING_ALLOWED, seeded=seeded)


def refute_op(name: str, path: Path, instance) -> Op:
    """Verify a planted-defect instance: it must yield a counterexample that
    revalidates against the instance itself."""
    label = f"refute {name}"

    def action() -> str:
        rc, out, _ = call_cli(["verify", str(path)])
        report = report_of(rc, out, label)
        expect(rc == cli.EXIT_COUNTEREXAMPLE and report.get("outcome") == "counterexample",
               f"{label}: planted anagram missed ({report.get('outcome')})")
        ce = counterexample_of(report["counterexample"])
        expect(verifier.revalidate(ce, instance), f"{label}: counterexample fails revalidate")
        return OK

    return Op(label, action, verdict=True, seeded=True)


def word_op(alphabet: int, length: int, out: Path, artifacts: Artifacts) -> Op:
    label = f"word a{alphabet} n{length}"

    def action() -> str:
        rc, _, err = call_cli(["word", "--alphabet", str(alphabet), "--length", str(length), "-o", str(out)])
        expect(rc == cli.EXIT_OK, f"{label}: exit {rc}: {err.strip()}")
        artifacts.check(label, out)
        return OK

    return Op(label, action)


def export_op(name: str, src: Path, out: Path, artifacts: Artifacts) -> Op:
    label = f"export {name}"

    def action() -> str:
        rc, _, err = call_cli(["export", str(src), "--dot", str(out)])
        expect(rc == cli.EXIT_OK, f"{label}: exit {rc}: {err.strip()}")
        artifacts.check(label, out)
        return OK

    return Op(label, action)


def discriminating_op(name: str, build: Callable) -> Op:
    label = f"discriminating {name}"

    def action() -> str:
        c = build()
        report = verifier.check_discriminating(c.coloured.graph, c.labels, c.coloured.colour)
        expect(report.passed, f"{label}: conditions {report.conditions}")
        return OK

    return Op(label, action)


def witness_op(which: str, params: dict, seed: int, instance, expected_bound) -> Op:
    argv = ["witness", which] + [x for k, v in params.items() for x in (f"--{k}", str(v))]
    argv += ["--seed", str(seed)]
    label = " ".join(argv)

    def action() -> str:
        rc, out, err = call_cli(argv)
        expect(rc == cli.EXIT_OK, f"{label}: exit {rc}: {err.strip()}")
        payload = json.loads(out)
        expect(payload["bound"] == expected_bound, f"{label}: bound {payload['bound']}")
        colours = instance.colour if hasattr(instance, "colour") else instance.colours
        ce = witness_counterexample(payload["witness"], colours)
        expect(verifier.revalidate(ce, instance), f"{label}: witness fails revalidate")
        return OK

    return Op(label, action, seeded=True)


# ---- set-up helpers ------------------------------------------------------

EDGE_FILES = {
    "P2": [(0, 1)],
    "P3": [(0, 1), (1, 2)],
    "K3": [(0, 1), (1, 2), (0, 2)],
    "C4": [(0, 1), (1, 2), (2, 3), (3, 0)],
    "K4": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
}


def write_edges(workdir: Path, name: str) -> Path:
    path = workdir / f"{name}.edges"
    path.write_text("".join(f"{u} {v}\n" for u, v in EDGE_FILES[name]))
    return path


def cross_check_free(name: str, cs) -> None:
    """Small instances: the exhaustive verifier and the naive oracle agree."""
    naive = verifier.naive_find_anagram(cs)
    fast = verifier.find_anagram(cs)
    expect(naive.is_anagram_free and fast.is_anagram_free, f"set-up cross-check {name}: "
           f"naive {naive.outcome}, exhaustive {fast.outcome}")


def plant_defect(cs, rng: random.Random, vertex: int):
    """Copy cs with vertex recoloured to a neighbour's colour: the two
    vertices then form a 2-vertex anagram."""
    neighbour = rng.choice(cs.graph.adjacency[vertex])
    colours = list(cs.colour)
    colours[vertex] = cs.colour[neighbour]
    provenance = dict(cs.provenance, planted={"vertex": vertex, "copies": neighbour})
    return graph_model.ColouredSubdivision(cs.graph, tuple(colours), cs.palette, provenance)


def stratified_vertices(n: int, count: int, rng: random.Random) -> list[int]:
    """One vertex from each of count equal slices of range(n), so that every
    seed spreads defects over the whole scan order."""
    return [int((i + rng.random()) * n / count) for i in range(count)]


# ---- workloads -----------------------------------------------------------

TREE_ROWS = [
    ("binary-tree-h3", ["binary-tree", "--height", "3"]),
    ("binary-tree-h4", ["binary-tree", "--height", "4"]),
    ("binary-tree-h5", ["binary-tree", "--height", "5"]),
    ("binary-tree-h6", ["binary-tree", "--height", "6"]),
    ("dary-2-3", ["dary", "--d", "2", "--height", "3"]),
    ("dary-2-4", ["dary", "--d", "2", "--height", "4"]),
    ("dary-2-5", ["dary", "--d", "2", "--height", "5"]),
    ("dary-3-2", ["dary", "--d", "3", "--height", "2"]),
    ("dary-3-3", ["dary", "--d", "3", "--height", "3"]),
    ("dary-banded-2-4-12", ["dary-banded", "--d", "2", "--height", "4", "--k", "12"]),
]
WORD_LENGTHS = (64, 255, 256, 1024, 4096)


def random_tree_row(seed: int) -> tuple[str, list[str]]:
    return f"binary-tree-h5-random-{seed}", ["binary-tree", "--height", "5", "--random", str(seed)]


# The fixed instances that verify in under 0.2 s.  Each pass verifies their
# artifacts again, REVERIFY_ROUNDS times over, so that a run has about 280
# verdict samples although a pass is too long to repeat often.  With 20
# rounds the 90th percentile, which falls among the h=4 samples, spread
# about half as much again from run to run.
REVERIFY_ROWS = ("binary-tree-h3", "binary-tree-h4", "dary-2-3", "dary-3-2", "dary-banded-2-4-12",
                 "graph-merged-P3-k2", "graph-merged-K3-k2", "graph14-P2", "graph8-P2")
REVERIFY_ROUNDS = 30

GRAPH_ROWS = (  # (name, construction, edge file, extra arguments)
    ("graph-merged-P3-k2", "graph-merged", "P3", ("--k", "2")),
    ("graph-merged-K3-k2", "graph-merged", "K3", ("--k", "2")),
    ("graph14-P2", "graph14", "P2", ()),
    ("graph8-P2", "graph8", "P2", ()),
)


def certify(workdir: Path, seed: int, artifacts: Artifacts) -> list[Op]:
    rng = random.Random(f"certify:{seed}")
    complete, path = graph_model.complete_graph, graph_model.path_graph
    cross_check_free("binary-tree-h3",
                     tree_constructions.build_binary_tree_8(graph_model.complete_dary_tree(2, 3)).coloured)
    cross_check_free("graph14-P2", graph_constructions.colour_14(path(2)).coloured)
    cross_check_free("graph-merged-P3-k2", graph_constructions.colour_merged(path(3), 2).coloured)
    edges = {name: write_edges(workdir, name) for name in EDGE_FILES}

    def file(name: str) -> Path:
        return workdir / f"{name}.json"

    def construct(name: str, kind: str, graph: str, *extra: str) -> Op:
        return construct_op(name, [kind, "--edges", str(edges[graph]), *extra], file(name), artifacts)

    ops = []
    rows = TREE_ROWS[:4] + [random_tree_row(s) for s in sorted(rng.sample(range(RANDOM_TREE_POOL), 3))] \
        + TREE_ROWS[4:]
    for name, args in rows:
        seeded = "random" in name
        ops.append(construct_op(name, args, file(name), artifacts, seeded))
        ops.append(verify_op(name, file(name), seeded=seeded))
    for alphabet in (4, 3):
        for n in WORD_LENGTHS:
            ops.append(word_op(alphabet, n, workdir / f"word-a{alphabet}-n{n}.txt", artifacts))
    ops += [
        construct("graph14-K3", "graph14", "K3"),
        verify_op("graph14-K3", file("graph14-K3")),
        verify_op("graph14-K3", file("graph14-K3"), sample=(100_000, rng.randrange(2**31))),
        construct("graph-merged-C4-k1", "graph-merged", "C4", "--k", "1"),
        verify_op("graph-merged-C4-k1", file("graph-merged-C4-k1"), sample=(300, rng.randrange(2**31))),
    ]
    for name, kind, graph, extra in GRAPH_ROWS:
        ops.append(construct(name, kind, graph, *extra))
        ops.append(verify_op(name, file(name)))
    ops.append(construct("graph14-K4", "graph14", "K4"))
    ops.append(export_op("graph14-K4", file("graph14-K4"), workdir / "graph14-K4.dot", artifacts))
    ops.append(discriminating_op("colour_14-K3", lambda: graph_constructions.colour_14(complete(3))))
    ops.append(discriminating_op("colour_14-K4", lambda: graph_constructions.colour_14(complete(4))))
    ops.append(discriminating_op("colour_8-P2", lambda: graph_constructions.colour_8(path(2))))
    # The small rows go first, so that their artifacts exist before the first
    # re-verify round.  The rounds are spread over the rest of the pass, so
    # that each small instance is timed in several phases of the machine.
    small = [op for op in ops if op.label.split(" ", 1)[1] in REVERIFY_ROWS]
    rest = [op for op in ops if op not in small]
    ops = small
    for i, round_ in enumerate(range(2, REVERIFY_ROUNDS + 2)):
        ops += rest[i * len(rest) // REVERIFY_ROUNDS:(i + 1) * len(rest) // REVERIFY_ROUNDS]
        ops += [verify_op(f"{name} #{round_}", file(name)) for name in REVERIFY_ROWS]
    return ops


REFUTE_BASES = (
    ("binary-tree-h5", lambda: tree_constructions.build_binary_tree_8(graph_model.complete_dary_tree(2, 5))),
    ("dary-2-4", lambda: tree_constructions.build_dary_tree_10(2, 4)),
    ("dary-3-3", lambda: tree_constructions.build_dary_tree_10(3, 3)),
    ("graph14-K3", lambda: graph_constructions.colour_14(graph_model.complete_graph(3))),
    ("graph-merged-K3-k2", lambda: graph_constructions.colour_merged(graph_model.complete_graph(3), 2)),
)
PLANTED_PER_BASE = 80  # or one per vertex, on a base with fewer vertices
WITNESSES_PER_KIND = 4


def refute(workdir: Path, seed: int, artifacts: Artifacts) -> list[Op]:
    rng = random.Random(f"refute:{seed}")
    small = tree_constructions.build_binary_tree_8(graph_model.complete_dary_tree(2, 3)).coloured
    for vertex in stratified_vertices(small.graph.vertex_count, 4, rng):
        planted = plant_defect(small, rng, vertex)
        for report in (verifier.naive_find_anagram(planted), verifier.find_anagram(planted)):
            expect(report.counterexample is not None and verifier.revalidate(report.counterexample, planted),
                   f"set-up cross-check: planted binary-tree-h3 v{vertex}: {report.mode} {report.outcome}")

    ops = []
    for base_name, build in REFUTE_BASES:
        base = build().coloured
        count = min(PLANTED_PER_BASE, base.graph.vertex_count)
        for i, vertex in enumerate(stratified_vertices(base.graph.vertex_count, count, rng)):
            instance = plant_defect(base, rng, vertex)
            name = f"{base_name}-{i}-v{vertex}"
            path = workdir / f"planted-{name}.json"
            path.write_text(serialize.to_json_str(instance))
            ops.append(refute_op(name, path, instance))

    kn = {"n": 100, "c": 2, "k": 3}
    tree = {"d": 16, "h": 3, "x": 2}
    tree_graph = graph_model.complete_dary_tree(tree["d"], tree["h"])
    tree_base = graph_model.tree_to_base_graph(tree_graph)
    tree_bound = bounds.tree_lower_bound(tree["d"], bounds.effective_structure(tree_graph).effective_height,
                                         tree["h"])
    for _ in range(WITNESSES_PER_KIND):
        s = rng.randrange(2**31)
        instance = bounds.seeded_complete_subdivision_colouring(kn["n"], kn["c"], kn["k"], s)
        ops.append(witness_op("kn", kn, s, instance, bounds.kn_lower_bound(kn["n"], kn["c"])))
        s = rng.randrange(2**31)
        colours = bounds.seeded_tree_colouring(tree_graph, tree["x"], s)
        ops.append(witness_op("tree", tree, s, graph_model.ColouredGraph(tree_base, colours), tree_bound))
    return ops


WORKLOADS = {
    "certify": certify,
    "refute": refute,
}
