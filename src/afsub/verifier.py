"""Ground-truth oracles for anagram-free colourings.

find_anagram exhaustively scans every even-order simple path of a coloured
graph; every simple path is a contiguous window of some maximal simple
path, so it enumerates maximal paths and tests each of their even windows
with one exact prefix-count comparison (words.find_abelian_square).
find_anagram_sampled trades certainty for scale.  check_restriction
applies the colour-restriction operator as a refutation accelerator, over
the same maximal-path loop and window ceiling as find_anagram, and
check_discriminating audits the four structural conditions that make a
sequence-subdivision colouring anagram-free.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from .graph_model import (
    ColouredGraph,
    ColouredSubdivision,
    StepBudgetExceeded,
    SubdividedGraph,
    enumerate_maximal_simple_paths,
)
from .words import find_abelian_square

DEFAULT_MAX_WINDOWS = 10_000_000

# Most distinct sampled walks find_anagram_sampled remembers, to bound its
# memory on long runs.
SAMPLED_SEEN_CAP = 200_000

Colourable = Union[ColouredSubdivision, ColouredGraph]


class WindowCeilingExceeded(Exception):
    """Raised when exhaustive verification would exceed the window ceiling.

    The ceiling caps path-windows scanned and, separately, DFS steps of the
    path enumeration; steps is set when the step cap is the one that
    tripped, and windows always counts the path-windows scanned so far.
    """

    def __init__(self, windows: int, ceiling: int, steps: Optional[int] = None):
        if steps is None:
            tripped = f"{ceiling} path-windows (reached {windows})"
        else:
            tripped = (
                f"{ceiling} path-enumeration DFS steps "
                f"(reached {steps} after {windows} path-windows)"
            )
        super().__init__(f"verification needs more than {tripped}; raise the ceiling or use sampling")
        self.windows = windows
        self.ceiling = ceiling
        self.steps = steps


@dataclass(frozen=True)
class Counterexample:
    """An even vertex sequence whose halves share a colour multiset."""

    vertices: tuple[int, ...]
    split: int
    multiset: tuple[tuple[int, int], ...]  # sorted (colour, count) pairs

    def half_multisets(self, colours: Sequence[int]) -> tuple[Counter, Counter]:
        left = Counter(colours[v] for v in self.vertices[: self.split])
        right = Counter(colours[v] for v in self.vertices[self.split :])
        return left, right


@dataclass(frozen=True)
class VerificationReport:
    outcome: str  # "anagram_free" | "counterexample"
    counterexample: Optional[Counterexample]
    paths_checked: int
    mode: str

    @property
    def is_anagram_free(self) -> bool:
        return self.outcome == "anagram_free"


def _view(c: Colourable) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    if isinstance(c, ColouredSubdivision):
        return c.graph.adjacency, c.colour
    if isinstance(c, ColouredGraph):
        return c.graph.adjacency, c.colours
    raise TypeError(f"expected a coloured graph or subdivision, got {type(c)!r}")


def _palette(c: Colourable) -> set[int]:
    if isinstance(c, ColouredSubdivision):
        return set(c.palette)
    return set(c.colours)


def _make_counterexample(path: Sequence[int], colours: Sequence[int], start: int, length: int) -> Counterexample:
    vertices = tuple(path[start : start + length])
    half = Counter(colours[v] for v in vertices[: length // 2])
    return Counterexample(vertices, length // 2, tuple(sorted(half.items())))


def _window_count(length: int) -> int:
    half = length // 2
    return half * (length - half)


def _scan_maximal_paths(
    c: Colourable, budget: Optional[int], keep: Optional[set[int]], mode: str
) -> VerificationReport:
    """Scan each maximal simple path's colour word, in canonical path order.

    With keep set, a path is first cut down to its keep-coloured vertices.
    budget caps the windows of the scanned words and the DFS steps of the
    path enumeration; None lifts both caps.
    """
    colours = _view(c)[1]
    windows = 0
    paths_checked = 0
    try:
        for path in enumerate_maximal_simple_paths(c.graph, step_budget=budget):
            if keep is not None:
                path = [v for v in path if colours[v] in keep]
            windows += _window_count(len(path))
            if budget is not None and windows > budget:
                raise WindowCeilingExceeded(windows, budget)
            paths_checked += 1
            hit = find_abelian_square([colours[v] for v in path])
            if hit is not None:
                start, length = hit
                return VerificationReport(
                    "counterexample",
                    _make_counterexample(path, colours, start, length),
                    paths_checked,
                    mode,
                )
    except StepBudgetExceeded as exc:
        raise WindowCeilingExceeded(windows, budget, steps=exc.steps) from exc
    return VerificationReport("anagram_free", None, paths_checked, mode)


def find_anagram(
    c: Colourable,
    *,
    max_windows: int = DEFAULT_MAX_WINDOWS,
    force: bool = False,
) -> VerificationReport:
    """Exhaustive anagram search over every simple path of c.

    Maximal simple paths are scanned in canonical order and each one's even
    windows in (start, length) order, so the first counterexample found is
    deterministic.  Refuses to scan past max_windows path-windows, or to take
    more than max_windows DFS steps enumerating paths, unless force is set.
    """
    return _scan_maximal_paths(c, None if force else max_windows, None, "exhaustive")


def _trace_degree2_components(adj) -> tuple[list[int], list[tuple[str, list[int]]]]:
    """Decompose a max-degree-2 graph into ordered path/cycle components."""
    n = len(adj)
    comp_of = [-1] * n
    comps: list[tuple[str, list[int]]] = []
    for v in range(n):
        if comp_of[v] != -1:
            continue
        members = {v}
        queue = [v]
        while queue:
            u = queue.pop()
            for w in adj[u]:
                if w not in members:
                    members.add(w)
                    queue.append(w)
        ends = sorted(u for u in members if len(adj[u]) <= 1)
        if ends:  # path component: walk from the smallest endpoint
            order = [ends[0]]
        else:  # cycle: start at the smallest id, toward its smaller neighbour
            start = min(members)
            order = [start, min(adj[start])]
        while len(order) < len(members):
            prev = order[-2] if len(order) >= 2 else None
            nxt = [w for w in adj[order[-1]] if w != prev]
            order.append(nxt[0])
        idx = len(comps)
        comps.append(("path" if ends else "cycle", order))
        for u in members:
            comp_of[u] = idx
    return comp_of, comps


def find_anagram_sampled(c: Colourable, budget: int, seed: int) -> VerificationReport:
    """Sampled anagram search: random simple-path walks with restart.

    Each sample grows a simple path from a uniform start vertex by uniform
    unvisited-neighbour steps until stuck, extends it backwards while the
    extension is forced, and scans all even windows of the result (shortest
    first), skipping extensions already scanned.  The scanned path covers
    every window of the sampled one.  On max-degree-2 graphs the extension
    is the whole component line (or a full cycle rotation), computed
    directly.  Absence of a counterexample is NOT a certificate.

    Once SAMPLED_SEEN_CAP distinct walks are remembered, later new walks are
    no longer recorded, so a repeat of one of them is scanned again.  That
    costs time only: the scan is deterministic, so the verdict and the
    counterexample are unaffected.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    adj, colours = _view(c)
    n = len(adj)
    mode = f"sampled(budget={budget},seed={seed})"
    if n == 0:
        return VerificationReport("anagram_free", None, 0, mode)
    rng = random.Random(seed)
    seen: set = set()
    degree2 = all(len(ns) <= 2 for ns in adj)
    if degree2:
        comp_of, comps = _trace_degree2_components(adj)
        pos_in_comp = {}
        for ci, (_kind, order) in enumerate(comps):
            for i, v in enumerate(order):
                pos_in_comp[v] = i

    def scan(path: Sequence[int], sample: int) -> Optional[VerificationReport]:
        hit = find_abelian_square([colours[v] for v in path], length_major=True)
        if hit is None:
            return None
        s, length = hit
        return VerificationReport(
            "counterexample", _make_counterexample(path, colours, s, length), sample + 1, mode
        )

    for sample in range(budget):
        start = rng.randrange(n)
        if degree2:
            kind, order = comps[comp_of[start]]
            if kind == "path":
                key = ("p", comp_of[start])
                if key in seen:
                    continue
                seen.add(key)
                report = scan(order, sample)
            else:
                direction = rng.choice((0, 1))
                i = pos_in_comp[start]
                m = len(order)
                # the reverse of the clockwise rotation at i is the
                # counter-clockwise one at i-1, so index the former
                key = ("c", comp_of[start], i if direction == 0 else (i + 1) % m)
                if key in seen:
                    continue
                seen.add(key)
                j = key[2]
                rotation = order[j:] + order[:j]
                report = scan(rotation, sample)
            if report is not None:
                return report
            continue
        path = [start]
        visited = {start}
        while True:
            options = [w for w in adj[path[-1]] if w not in visited]
            if not options:
                break
            nxt = options[0] if len(options) == 1 else rng.choice(options)
            path.append(nxt)
            visited.add(nxt)
        while True:  # forced backward extension, to merge overlapping samples
            head_options = [w for w in adj[path[0]] if w not in visited]
            if len(head_options) != 1:
                break
            path.insert(0, head_options[0])
            visited.add(head_options[0])
        tup = tuple(path)
        key = min(tup, tup[::-1])
        if key in seen:
            continue
        if len(seen) < SAMPLED_SEEN_CAP:
            seen.add(key)
        report = scan(path, sample)
        if report is not None:
            return report
    return VerificationReport("anagram_free", None, budget, mode)


def check_restriction(
    c: Colourable, keep: Iterable[int], *, max_windows: int = DEFAULT_MAX_WINDOWS
) -> VerificationReport:
    """Scan the keep-colour restriction of every maximal path for anagrams.

    A window of a path restricts to a window of the path's restricted word,
    so a restricted word with no anagram certifies that no path window with
    a non-empty restriction is an anagram (restriction of an anagram is an
    anagram or empty).  A reported counterexample is an anagram of the
    restricted word: its vertices need not be contiguous in c, so it is
    evidence, not a certified anagram of c.  Refuses to scan past
    max_windows windows of the restricted words, or to take more than
    max_windows DFS steps enumerating paths.
    """
    keep_set = set(keep)
    extra = keep_set - _palette(c)
    if extra:
        raise ValueError(f"keep-colours {sorted(extra)} not in palette")
    return _scan_maximal_paths(c, max_windows, keep_set, f"restricted(keep={sorted(keep_set)})")


def naive_find_anagram(c: Colourable) -> VerificationReport:
    """Independent brute-force oracle: enumerate every simple path outright
    and compare half multisets directly.  Shares no scanning machinery with
    find_anagram; used to cross-check it."""
    adj, colours = _view(c)
    n = len(adj)
    found: list[tuple[int, ...]] = []

    def dfs(path: list[int], on_path: set[int]) -> None:
        if len(path) >= 2 and len(path) % 2 == 0:
            h = len(path) // 2
            if Counter(colours[v] for v in path[:h]) == Counter(colours[v] for v in path[h:]):
                found.append(tuple(path))
        for w in adj[path[-1]]:
            if w not in on_path:
                path.append(w)
                on_path.add(w)
                dfs(path, on_path)
                path.pop()
                on_path.remove(w)

    paths = 0
    for start in range(n):
        paths += 1
        dfs([start], {start})
        if found:
            break
    if found:
        vertices = found[0]
        h = len(vertices) // 2
        half = Counter(colours[v] for v in vertices[:h])
        ce = Counterexample(vertices, h, tuple(sorted(half.items())))
        return VerificationReport("counterexample", ce, paths, "naive")
    return VerificationReport("anagram_free", None, paths, "naive")


def revalidate(ce: Counterexample, c: Colourable) -> bool:
    """Soundness recount: halves equal, multiset as recorded, path contiguous."""
    adj, colours = _view(c)
    if len(ce.vertices) != 2 * ce.split:
        return False
    left, right = ce.half_multisets(colours)
    if left != right or tuple(sorted(left.items())) != ce.multiset:
        return False
    if len(set(ce.vertices)) != len(ce.vertices):
        return False
    return all(b in adj[a] for a, b in zip(ce.vertices, ce.vertices[1:]))


@dataclass(frozen=True)
class DiscriminatingReport:
    """Pass/fail per condition of a discriminating colouring, with witnesses."""

    conditions: tuple[bool, bool, bool, bool]
    witnesses: dict = field(default_factory=dict, compare=False)
    exclusive_colours: dict = field(default_factory=dict, compare=False)

    @property
    def passed(self) -> bool:
        return all(self.conditions)


def check_discriminating(s: SubdividedGraph, labels, colouring: Sequence[int]) -> DiscriminatingReport:
    """Audit the four discriminating-colouring conditions.

    (1) originals carry the proper 2-colouring and its two colours appear
        nowhere else;
    (2) every anagram contains an original vertex, checked via its
        operational form: each edge's division-path colour word is
        anagram-free (an original-free path stays inside one division path
        because division vertices have degree 2);
    (3) each third-family Q in {X, Y, Z} owns a non-empty colour set C(Q),
        inferred as the colours occurring exclusively on Q's paths;
    (4) for every edge q and family Q, the C(Q)-vertices of Q(q) outnumber
        the C(Q)-vertices of all lower-ranked Q(e) combined (exact counts).
    """
    g = s.base
    if len(labels.thirds) != len(g.edges) or len(labels.bipartition) != g.vertex_count:
        raise ValueError("labels do not describe this subdivision")
    for i, path in enumerate(s.division_paths):
        x, y, z = labels.thirds[i]
        if not (len(x) == len(y) == len(z)) or set(x) | set(y) | set(z) != set(path):
            raise ValueError(f"thirds of edge {i} do not partition its division path")
    witnesses: dict = {}

    # condition 1
    cond1 = True
    black = {colouring[v] for v in range(g.vertex_count) if labels.bipartition[v] == 0}
    white = {colouring[v] for v in range(g.vertex_count) if labels.bipartition[v] == 1}
    if len(black) > 1 or len(white) > 1 or (black and white and black == white):
        cond1 = False
        witnesses[1] = ("original colour classes not a 2-colouring", sorted(black), sorted(white))
    else:
        for u, v in g.edges:
            if labels.bipartition[u] == labels.bipartition[v]:
                cond1 = False
                witnesses[1] = ("bipartition not proper on edge", (u, v))
                break
        if cond1:
            reserved = black | white
            for path in s.division_paths:
                for v in path:
                    if colouring[v] in reserved:
                        cond1 = False
                        witnesses[1] = ("original colour reused on division vertex", v)
                        break
                if not cond1:
                    break

    # condition 2
    cond2 = True
    for i, path in enumerate(s.division_paths):
        word = [colouring[v] for v in path]
        hit = find_abelian_square(word)
        if hit is not None:
            cond2 = False
            witnesses[2] = ("division path of edge carries an anagram", i, hit)
            break

    # condition 3: infer C(Q) as colours exclusive to family Q
    family_of: dict[int, set[str]] = {}
    for v in range(g.vertex_count):
        family_of.setdefault(colouring[v], set()).add("original")
    for i in range(len(g.edges)):
        for name, third in zip("XYZ", labels.thirds[i]):
            for v in third:
                family_of.setdefault(colouring[v], set()).add(name)
    exclusive = {
        name: {c for c, fams in family_of.items() if fams == {name}} for name in "XYZ"
    }
    cond3 = all(exclusive[name] for name in "XYZ")
    if not cond3:
        witnesses[3] = ("families without an exclusive colour", [n for n in "XYZ" if not exclusive[n]])

    # condition 4: exact prefix counting in edge-rank order
    cond4 = True
    order = sorted(range(len(g.edges)), key=lambda i: labels.edge_rank[i])
    for name, qidx in (("X", 0), ("Y", 1), ("Z", 2)):
        cq = exclusive[name]
        if not cq:
            cond4 = False
            witnesses.setdefault(4, ("no C(Q) to count for family", name))
            break
        running = 0
        for i in order:
            here = sum(1 for v in labels.thirds[i][qidx] if colouring[v] in cq)
            if running >= here:
                cond4 = False
                witnesses[4] = ("prefix count not dominated", name, i, running, here)
                break
            running += here
        if not cond4 and 4 in witnesses:
            break

    return DiscriminatingReport((cond1, cond2, cond3, cond4), witnesses, exclusive)
