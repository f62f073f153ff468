"""Ground-truth oracles for anagram-free colourings.

find_anagram exhaustively scans every even-order simple path of a coloured
graph, by one of three scanners:

- a graph of maximum degree 2 is read as one word per component, an
  isolated vertex or a strand of SubdividedGraph.strands, and a cycle's
  word is scanned cyclically with windows capped at the cycle's length;
- any other forest is scanned from the centre edge of each even path:
  depth 1 compares the colours at the two ends of each edge, and is
  decided before any rank, hash weight or table is built; after it a walk
  table read off the base graph grows the two halves of every
  path, every live edge's frontier at once in flat numpy arrays, by a
  block of depths per round of at most _BLOCK_ELEMENTS keys.  Each hash
  key carries its depth in its top bits, so one sort matches a whole block
  and never misses an anagram; each candidate is confirmed by exact
  multiset signatures, so the counterexample is a shortest anagram, and
  the work is counted in half-paths;
- every other graph has its maximal simple paths enumerated, since every
  simple path is a contiguous window of one, and their even windows tested
  by words.find_abelian_square: hashed prefix sums, with weights drawn by
  the forest scan's _hash_weights, each candidate confirmed by exact counts.

Every entry point takes a ColouredSubdivision, a ColouredGraph being the
zero-count one; its SubdividedGraph's is_forest and max_degree_2, read
off the base graph, choose the scanner.  find_anagram_sampled trades
certainty for scale, and hands max-degree-2 graphs to their exhaustive
scan; it and the maximal-path scan test each path's word by _path_anagram.
check_discriminating audits the four structural conditions that make a
sequence-subdivision colouring anagram-free from the bipartition, a
construction's labels, in linear time: it recognises each division
path's word as a refinement of a Keränen prefix, or of three disjoint
ones, and scans only the words it cannot recognise.  Every
counterexample records its first half's multiset_of, through
Counterexample.of.  Only check_discriminating imports graph_constructions,
so verify loads no builder.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np

from .graph_model import (
    ColouredSubdivision,
    StepBudgetExceeded,
    SubdividedGraph,
    enumerate_maximal_simple_paths,
)
from .words import _BLOCK_ELEMENTS, _hash_weights, _ranks, find_abelian_square, keranen_symbols

DEFAULT_MAX_WINDOWS = 10_000_000


class WindowCeilingExceeded(Exception):
    """Raised when exhaustive verification would exceed the window ceiling.

    The ceiling caps the units a scan counts: half-paths on a forest of
    maximum degree 3 or more (find_anagram's centre-edge scan), path-windows
    on every other graph.  Off max degree 2 and off forests it also caps the
    DFS steps of the path enumeration at n + 4 * ceiling, which a complete
    scan within the ceiling never takes.  steps is set when the step cap is
    the one that tripped, and ceiling is then that cap; windows always
    counts the path-windows (or half-paths) scanned so far, and unit names
    them.
    """

    def __init__(
        self, windows: int, ceiling: int, steps: Optional[int] = None, unit: str = "path-windows"
    ):
        if steps is None:
            tripped = f"{ceiling} {unit} (reached {windows})"
        else:
            tripped = (
                f"{ceiling} path-enumeration DFS steps "
                f"(reached {steps} after {windows} {unit})"
            )
        super().__init__(f"verification needs more than {tripped}; raise the ceiling or use sampling")
        self.windows = windows
        self.ceiling = ceiling
        self.steps = steps
        self.unit = unit


def multiset_of(colours: Sequence[int], vertices: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """The colour multiset of vertices as sorted (colour, count) pairs."""
    return tuple(sorted(Counter(colours[v] for v in vertices).items()))


@dataclass(frozen=True)
class Counterexample:
    """An even vertex sequence whose halves share a colour multiset."""

    vertices: tuple[int, ...]
    split: int
    multiset: tuple[tuple[int, int], ...]  # multiset_of the first half

    @classmethod
    def of(cls, vertices: Sequence[int], split: int, colours: Sequence[int]) -> Counterexample:
        """vertices halved after the first split of them, with the first
        half's multiset."""
        return cls(tuple(vertices), split, multiset_of(colours, vertices[:split]))


@dataclass(frozen=True)
class VerificationReport:
    outcome: str  # "anagram_free" | "counterexample"
    counterexample: Optional[Counterexample]
    paths_checked: int
    mode: str

    @property
    def is_anagram_free(self) -> bool:
        return self.outcome == "anagram_free"


def _window_count(length: int, max_length: Optional[int] = None) -> int:
    half = (length if max_length is None else min(length, max_length)) // 2
    return half * (length - half)


def _degree2_components(graph: SubdividedGraph) -> list[tuple[list[int], bool]]:
    """Components of a max-degree-2 graph as (vertex order, is_cycle),
    ordered by their first vertex: isolated base vertices and the strands
    of graph.strands(), a path from its smaller end and a cycle from its
    smallest id toward that vertex's smaller neighbour.  Each strand step
    is its base end, then its division run read from there
    (division_path_from); a path then ends at its far end.  A first vertex
    is a base vertex, as division vertices come after the base vertices."""
    comps = [([v], False) for v, ns in enumerate(graph.base.adjacency) if not ns]
    for steps, cycle in graph.strands():
        order = []
        for i, v in steps:
            order.append(v)
            order.extend(graph.division_path_from(i, v))
        if not cycle:
            order.append(sum(graph.base.edges[i]) - v)
        comps.append((order, cycle))
    comps.sort(key=lambda comp: comp[0][0])
    return comps


def _path_anagram(path: Sequence[int], colours: Sequence[int], **order) -> Optional[Counterexample]:
    """The first anagram of path's colour word in the scan order that the
    keywords order (max_length= or length_major=) pass to
    find_abelian_square, as a counterexample on path's vertices, or None."""
    hit = find_abelian_square([colours[v] for v in path], **order)
    if hit is None:
        return None
    start, length = hit
    return Counterexample.of(path[start : start + length], length // 2, colours)


def _scan_maximal_paths(
    graph: SubdividedGraph, colours: Sequence[int], budget: Optional[int], mode: str
) -> VerificationReport:
    """Scan the colour word of every maximal simple path, in canonical order.

    On a graph of maximum degree 2 the words are its components instead: a
    path component's line, and a cycle of m vertices read as order +
    order[:-1] with windows capped at length m.  Each such window is a
    simple path and every simple path of the cycle is one of them.
    budget caps the windows of the scanned words and, off max degree 2,
    the DFS steps of the path enumeration at n + 4 * budget; None lifts
    both caps.

    The step cap follows from the windows: each DFS step enters a distinct
    directed simple path, a window of some yielded maximal path read in one
    of two directions, and a path of l vertices has l(l-1)/2 windows of at
    least 2 vertices, at most twice its floor(l/2)ceil(l/2) even windows.
    One step per start vertex adds at most n.
    """
    step_cap = None if budget is None else graph.vertex_count + 4 * budget
    if graph.max_degree_2:
        paths: Iterable = _degree2_components(graph)
    else:
        paths = ((p, False) for p in enumerate_maximal_simple_paths(graph, step_budget=step_cap))
    windows = 0
    paths_checked = 0
    try:
        for path, cyclic in paths:
            cap = len(path) if cyclic else None
            if cyclic:
                path = path + path[:-1]
            windows += _window_count(len(path), cap)
            if budget is not None and windows > budget:
                raise WindowCeilingExceeded(windows, budget)
            paths_checked += 1
            ce = _path_anagram(path, colours, max_length=cap)
            if ce is not None:
                return VerificationReport("counterexample", ce, paths_checked, mode)
    except StepBudgetExceeded as exc:
        raise WindowCeilingExceeded(windows, step_cap, steps=exc.steps) from exc
    return VerificationReport("anagram_free", None, paths_checked, mode)


def _ragged_arange(starts: np.ndarray, counts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The ranges starts[i] .. starts[i] + counts[i] - 1, concatenated, given
    ends = counts.cumsum(); counts must not be empty."""
    import numpy as np

    return np.arange(ends[-1]) + (starts - ends + counts).repeat(counts)


def _chain_ends(graph: SubdividedGraph) -> tuple[np.ndarray, np.ndarray]:
    """The ends (x, y) of every edge of graph.  Edges are numbered chain by
    chain, as SubdividedGraph.chain_edges lists them: base edge i's chain u,
    division run, v takes the ids after chain i - 1's, and its j-th edge
    joins chain[j] to chain[j + 1].  So the division vertex before edge e
    of chain i is n0 + e - i - 1; an undivided base edge is a chain of one
    edge.  The base edges' ends are read by one np.fromiter over their
    chained (u, v) pairs."""
    import numpy as np

    base, counts = graph.base, np.array(graph.counts, dtype=np.intp)
    n0 = base.vertex_count
    uv = np.fromiter(itertools.chain.from_iterable(base.edges), np.intp, 2 * len(counts)).reshape(-1, 2)
    last = np.cumsum(counts + 1) - 1
    chain = np.repeat(np.arange(len(counts)), counts + 1)
    x = np.arange(n0 - 1, n0 - 1 + len(chain)) - chain
    y = x + 1
    x[last - counts], y[last] = uv[:, 0], uv[:, 1]
    return x, y


def _next_edges(x, y, n: int) -> tuple[np.ndarray, ...]:
    """The directed edges that continue each directed edge of the edges
    (x, y) on n vertices, as a CSR (nxt, start, count): directed edge e
    runs x[e] -> y[e] and E + e runs y[e] -> x[e], and the ways on from a
    directed edge are every directed edge that leaves its head but its own
    reverse, in id order.  The directed edges sorted stably by tail list
    each vertex's out-edges together; one ragged gather reads them off for
    every head, and one mask drops the reverses.  x and y must not be
    empty."""
    import numpy as np

    tail, head = np.concatenate((x, y)), np.concatenate((y, x))
    out = np.bincount(tail, minlength=n)
    fan = out[head]
    ways = np.argsort(tail, kind="stable")[_ragged_arange((out.cumsum() - out)[head], fan, fan.cumsum())]
    back = np.concatenate((np.arange(len(x), len(tail)), np.arange(len(x))))
    count = fan - 1
    return ways[ways != back.repeat(fan)], count.cumsum() - count, count


def _walk_table(nxt, start, count, head_weight, tags) -> tuple[np.ndarray, ...]:
    """Every walk of 1 .. B steps along the CSR (nxt, start, count) from
    each directed edge, one row per edge: its walks of 1 step, then of 2
    steps, and so on.  B is at most len(tags), and steps past the first are
    added only while the table holds at most _BLOCK_ELEMENTS walks.  A walk
    of s steps weighs tags[s - 1] plus the head_weight of each of its edges.
    Returns reach, with reach[s - 1, d] the walks of at most s steps from d,
    each row's start, and each walk's weight and last directed edge.  Each
    level lists its walks grouped by first edge in row order, so one stable
    sort of the levels by first edge lays the rows out."""
    import numpy as np

    # level s lists the walks of s + 1 steps, grouped by first edge
    owners, ends, sums = [np.repeat(np.arange(len(count)), count)], [nxt], [head_weight[nxt]]
    total = len(nxt)
    while len(ends) < len(tags) and total:
        c = count[ends[-1]]
        grown = c.cumsum()
        total += int(grown[-1])
        if total > _BLOCK_ELEMENTS or not grown[-1]:
            break
        ends.append(nxt[_ragged_arange(start[ends[-1]], c, grown)])
        owners.append(owners[-1].repeat(c))
        sums.append(sums[-1].repeat(c) + head_weight[ends[-1]])
    steps, rows = len(ends), len(count)
    step = np.repeat(np.arange(steps), [len(e) for e in ends])
    owner = np.concatenate(owners)
    by_row = np.argsort(owner, kind="stable")
    reach = np.bincount(step * rows + owner, minlength=steps * rows).reshape(steps, rows).cumsum(axis=0)
    row = reach[-1].cumsum() - reach[-1]
    return reach, row, (np.concatenate(sums) + tags[step])[by_row], np.concatenate(ends)[by_row]


def _halves_by_signature(links, colour_weight, first: int, depth: int):
    """The depth-vertex halves that enter along directed edge first and walk
    on by links = (nxt, start, count, head), as a map from each exact
    signature to the smallest end vertex carrying it, and the parent of
    every vertex the walk reached past first's head."""
    nxt, start, count, head = links
    parent: dict[int, int] = {}
    layer = {first: colour_weight(head[first])}
    for _ in range(depth - 1):
        grown = {}
        for d, sig in layer.items():
            for x in nxt[start[d] : start[d] + count[d]]:
                parent[head[x]] = head[d]
                grown[x] = sig + colour_weight(head[x])
        layer = grown
    ends: dict[int, int] = {}
    for d, sig in layer.items():
        if head[d] < ends.get(sig, head[d] + 1):
            ends[sig] = head[d]
    return ends, parent


def _climb(parent: dict[int, int], v: int, root: int) -> list[int]:
    """The vertices from v up to root, by parent links."""
    path = [v]
    while path[-1] != root:
        path.append(parent[path[-1]])
    return path


def _scan_forest(
    graph: SubdividedGraph, colours: Sequence[int], budget: Optional[int]
) -> VerificationReport:
    """Centre-edge scan of a forest, a block of depths per round.

    An even path of 2L vertices has a unique centre edge (a, b); its halves
    are an L-vertex walk leaving a away from b and one leaving b away from
    a, which in a forest are disjoint and always join into a simple path.
    The scan decides L = 1, 2, ... in turn and stops at the first L whose
    halves hold an anagram.  An edge is live at depth L while both its sides
    have halves, and budget caps the half-paths of live edges, summed over
    all depths.

    Depth 1 needs no tables and no ranks: a half is one vertex, so edge
    (a, b) is an anagram exactly when a and b share a colour, compared in
    one flat int64 array of the colours (of their ranks, when a colour lies
    outside int64) at the edge ends that _chain_ends reads.  Edge (a, b) is
    live at depth 2 exactly when a and b both have degree 2 or more; where
    no edge is, as in a star, the scan ends after depth 1.  Otherwise it ranks the
    colours (np.unique of the flat array, or _ranks past int64), draws the
    hash weights and builds its tables from the base graph (_next_edges,
    _walk_table).
    No output depends on the order of the ways on within a row: rounds
    sort their keys, candidates go in (step, lo, hi) order, each signature
    keeps its smallest end vertex, and in a forest each vertex has one
    parent per side.  The scan holds the frontiers of all live edges in
    two flat arrays, the directed edge and the key of each half, every a
    side before every b side.  Each round grows them by a block of depths with one ragged
    gather from the walk table, which lists every walk of 1 .. B steps from
    each directed edge with its weight sum.  B stops where the table would
    pass _BLOCK_ELEMENTS walks, where the step tag would leave fewer than
    32 hash bits, or at isqrt(n // 2): a table step costs about what a round
    does, and a forest has at most n // 2 depths.  A round takes the most
    depths, up to B, whose block holds at most _BLOCK_ELEMENTS keys, and at
    least one, so large frontiers go one depth per round.

    A key packs, from the top, its step in the round times the edge count
    plus its edge id (the tag), then the sum of the hash weights of the
    half's colour ranks, each doubled, then the side (0 for a, 1 for b).
    The sum never carries into the tag, so equal colour multisets on one
    edge at one depth give keys that differ in the side bit alone and sort
    next to each other: one sort per round finds every (depth, edge) with an
    anagram, and never misses one.  One bincount per side counts the halves
    of each (depth, edge), which tells the live edges; only their halves
    are sorted, so the sort also gives the half-paths of each depth, and
    with them the ceiling trip.  The halves of live edges at the block's
    last depth carry over to the next round.

    Unequal multisets may collide, so candidates are confirmed depth by
    depth, each depth's in (min id, max id) edge order, by the exact
    signatures of their halves: the sum of base ** rank(colour) with base =
    n // 2 + 1.  A half has at most n // 2 vertices, so no digit carries and
    equal signatures mean equal colour multisets; a candidate without an
    exact match is skipped.  A hit's count is the half-paths of every depth
    up to its own.
    """
    import numpy as np

    x, y = _chain_ends(graph)
    edges, n = len(x), graph.vertex_count
    halves = 2 * edges
    if not edges:
        return VerificationReport("anagram_free", None, halves, "exhaustive")
    if budget is not None and halves > budget:
        raise WindowCeilingExceeded(halves, budget, unit="half-paths")
    try:  # depth 1 compares the colours themselves, or their ranks past int64
        flat, rank = np.fromiter(colours, np.int64, n), None
    except OverflowError:
        rank, distinct = _ranks(colours)
        flat = rank
    same = np.flatnonzero(flat[x] == flat[y])
    if same.size:
        lo, hi = np.minimum(x[same], y[same]), np.maximum(x[same], y[same])
        e = int(np.lexsort((hi, lo))[0])
        ce = Counterexample.of((int(lo[e]), int(hi[e])), 1, colours)
        return VerificationReport("counterexample", ce, halves, "exhaustive")
    degree = np.bincount(np.concatenate((x, y)), minlength=n)
    if not np.any((degree[x] > 1) & (degree[y] > 1)):  # no edge is live at depth 2
        return VerificationReport("anagram_free", None, halves, "exhaustive")

    if rank is None:  # the colours fit int64: rank them in one sort
        distinct, rank = np.unique(flat, return_inverse=True)
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    every = np.arange(edges)
    base = n // 2 + 1
    nxt, start, count = _next_edges(x, y, n)
    nbits = n.bit_length()
    most = max(1, min(math.isqrt(n // 2), (1 << max(31 - nbits, 0)) // edges))
    shift = np.uint64(64 - (most * edges - 1).bit_length())
    weight = (_hash_weights(len(distinct), int(shift) - 1 - nbits) << np.uint64(1))[rank]
    head = np.concatenate((y, x))
    tags = np.arange(most, dtype=np.uint64) * np.uint64(edges) << shift
    reach, row, table_weight, table_end = _walk_table(nxt, start, count, weight[head], tags)
    steps = len(reach)
    links = None

    def confirm(e: int, depth: int) -> Optional[Counterexample]:
        """The counterexample centred on edge e at depth, if its halves
        share an exact signature."""
        nonlocal links
        if links is None:
            links = (nxt.tolist(), start.tolist(), count.tolist(), head.tolist())
        a, b = int(lo[e]), int(hi[e])
        into_a, into_b = (edges + e, e) if a == x[e] else (e, edges + e)
        a_ends, a_parent = _halves_by_signature(links, colour_weight, into_a, depth)
        b_ends, b_parent = _halves_by_signature(links, colour_weight, into_b, depth)
        shared = a_ends.keys() & b_ends.keys()
        if not shared:
            return None
        sig = min(shared)
        a_half = _climb(a_parent, a_ends[sig], a)
        b_half = _climb(b_parent, b_ends[sig], b)
        return Counterexample.of(a_half + b_half[::-1], depth, colours)

    def colour_weight(v: int) -> int:
        return base ** int(rank[v])

    # a's halves end at x (directed edge E + e), then b's halves at y
    edge_key = every.astype(np.uint64) << shift
    directed = np.concatenate((every + edges, every))
    key = np.concatenate((edge_key | weight[x], edge_key | weight[y] | np.uint64(1)))
    split = edges
    depth = 1
    while split:
        span = 1
        if steps > 1 and len(key) <= _BLOCK_ELEMENTS:
            sizes = reach @ np.bincount(directed, minlength=len(row))
            span = max(1, int(sizes.searchsorted(_BLOCK_ELEMENTS, side="right")))
        ways = reach[span - 1][directed]  # the walks each half grows into
        ends = ways.cumsum()
        if not ends[-1]:
            break
        idx = _ragged_arange(row[directed], ways, ends)
        cut = int(ends[split - 1])
        grown = key.repeat(ways) + table_weight[idx]
        tag = (grown >> shift).view(np.intp)
        a_count = np.bincount(tag[:cut], minlength=span * edges)
        b_count = np.bincount(tag[cut:], minlength=span * edges)
        a_has, b_has = a_count > 0, b_count > 0
        live = a_has & b_has
        # keep only the halves of edges live at their depth
        if span > 1 or (a_has ^ b_has).any():
            keep = live[tag]
            idx, grown = idx[keep], grown[keep]
            cut = int(np.count_nonzero(keep[:cut]))
        ordered = np.sort(grown)
        # the half-paths up to each depth of the block, read off the sort
        total = [halves + int(size) for size in ordered.searchsorted(tags[1:span])] if span > 1 else []
        total.append(halves + len(ordered))
        within = span  # the depths of the block within the ceiling
        if budget is not None and total[-1] > budget:
            within = next(s for s, count_s in enumerate(total) if count_s > budget)
        adjacent = ordered[1:] - ordered[:-1] == 1
        if adjacent.any():
            low = ordered[:-1][adjacent]
            step, edge = np.divmod((low[low & np.uint64(1) == 0] >> shift).astype(np.intp), edges)
            first = np.lexsort((hi[edge], lo[edge], step))
            for s, e in dict.fromkeys(zip(step[first].tolist(), edge[first].tolist())):
                if s >= within:
                    break
                ce = confirm(e, depth + s + 1)
                if ce is not None:
                    return VerificationReport("counterexample", ce, total[s], "exhaustive")
        if within < span:
            raise WindowCeilingExceeded(total[within], budget, unit="half-paths")
        if span > 1:  # the next round grows from the block's last depth
            keep = grown >= tags[span - 1]
            idx, grown = idx[keep], grown[keep] - tags[span - 1]
            cut = int(np.count_nonzero(keep[:cut]))
        directed, key, split = table_end[idx], grown, cut
        halves = total[-1]
        depth += span
    return VerificationReport("anagram_free", None, halves, "exhaustive")


def find_anagram(
    c: ColouredSubdivision, *, max_windows: Optional[int] = DEFAULT_MAX_WINDOWS
) -> VerificationReport:
    """Exhaustive anagram search over every simple path of c, by one of
    three scanners.

    - A graph of maximum degree 2 is read as one word per component, an
      isolated vertex or a strand of the base graph with its division runs
      (SubdividedGraph.strands), in order of the first vertex of each
      word: a path from its smaller endpoint, so path forests give the
      same counterexample as the maximal-path scan; a cycle of m vertices
      from its smallest id toward that vertex's smaller neighbour, its
      windows (start, length) over order + order[:-1], length at most m.
    - Any other forest is scanned from the centre edges of its even paths
      (_scan_forest), half-length by half-length, so the counterexample is
      a shortest anagram.  Depth 1 is read off the edges' end colours;
      later depths are grown and matched a block per round, each round at
      most _BLOCK_ELEMENTS keys tagged with their depth in their top bits,
      from a walk table built after depth 1.  Ties go to the smallest
      centre edge (a, b) by (min id, max id), then to the smallest shared
      half signature, then on each side to the smallest end vertex; the
      path is listed from a's half end to b's.  max_windows caps the
      half-paths compared, and paths_checked reports their number: on a
      counterexample, those of every depth up to its own.  The scan reads
      the base graph and the division runs, so a subdivision's adjacency
      is not built.
    - Every other graph has its maximal simple paths scanned in canonical
      order, each one's even windows in (start, length) order.  Refuses to
      take more than n + 4 * max_windows DFS steps enumerating paths,
      which a scan within the ceiling never needs.

    The degree-2 and maximal-path scans refuse to scan past max_windows
    path-windows.  Every counterexample is deterministic, and
    max_windows=None lifts every cap.

    A ColouredGraph is its zero-count subdivision, so every scanner reads
    one graph form.  The scanner is chosen by the subdivision's
    max_degree_2 and is_forest, which it answers from its base graph in
    O(originals).
    """
    graph, colours = c.graph, c.colour
    if not graph.max_degree_2 and graph.is_forest:
        return _scan_forest(graph, colours, max_windows)
    return _scan_maximal_paths(graph, colours, max_windows, "exhaustive")


def find_anagram_sampled(c: ColouredSubdivision, budget: int, seed: int) -> VerificationReport:
    """Sampled anagram search: random simple-path walks with restart.

    Each sample grows a simple path from a uniform start vertex by uniform
    unvisited-neighbour steps until stuck, extends it backwards while the
    extension is forced, and scans all even windows of the result (shortest
    first).  The scanned path covers every window of the sampled one.  A
    walk that repeats an earlier one, or its reverse, is scanned again: the
    first scan found no anagram on it, and the scan is deterministic, so
    the repeat finds none either.  Absence of a counterexample is NOT a
    certificate.

    On a graph of maximum degree 2 the exhaustive scan of find_anagram costs
    less than about three sampled walks, so it runs instead, without a
    ceiling, and the mode ends in ":exhaustive"; that verdict is exhaustive.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    mode = f"sampled(budget={budget},seed={seed})"
    graph, colours = c.graph, c.colour
    if graph.max_degree_2:
        return _scan_maximal_paths(graph, colours, None, f"{mode}:exhaustive")
    adj = graph.adjacency
    n = len(adj)
    rng = random.Random(seed)
    for sample in range(budget):
        start = rng.randrange(n)
        path = [start]
        visited = {start}
        while True:
            options = [w for w in adj[path[-1]] if w not in visited]
            if not options:
                break
            nxt = options[0] if len(options) == 1 else rng.choice(options)
            path.append(nxt)
            visited.add(nxt)
        head, back = path[0], []  # forced backward extension, so the scan covers more windows
        while len(head_options := [w for w in adj[head] if w not in visited]) == 1:
            head = head_options[0]
            back.append(head)
            visited.add(head)
        path[:0] = reversed(back)
        ce = _path_anagram(path, colours, length_major=True)
        if ce is not None:
            return VerificationReport("counterexample", ce, sample + 1, mode)
    return VerificationReport("anagram_free", None, budget, mode)


# Kept in src/, not tests/oracles.py: perfbench/workloads.py's set-up cross-check imports it.
def naive_find_anagram(c: ColouredSubdivision) -> VerificationReport:
    """Independent brute-force oracle: enumerate every simple path outright
    and compare half multisets directly.  Shares no scanning machinery with
    find_anagram; used to cross-check it."""
    adj, colours = c.graph.adjacency, c.colour
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
        ce = Counterexample.of(found[0], len(found[0]) // 2, colours)
        return VerificationReport("counterexample", ce, paths, "naive")
    return VerificationReport("anagram_free", None, paths, "naive")


def revalidate(ce: Counterexample, c: ColouredSubdivision) -> bool:
    """Soundness recount: halves non-empty, vertices in the graph, halves
    equal, multiset as recorded, path contiguous.  Steps are read from the
    base edges and division runs (_joined), not the adjacency."""
    colours = c.colour
    if ce.split < 1 or len(ce.vertices) != 2 * ce.split or not all(0 <= v < len(colours) for v in ce.vertices):
        return False
    left = multiset_of(colours, ce.vertices[: ce.split])
    if left != multiset_of(colours, ce.vertices[ce.split :]) or left != ce.multiset:
        return False
    if len(set(ce.vertices)) != len(ce.vertices):
        return False
    return _joined(c.graph, zip(ce.vertices, ce.vertices[1:]))


def _joined(g: SubdividedGraph, steps: Iterable[tuple[int, int]]) -> bool:
    """Whether every step (a, b) is an edge of g, read as
    division_path_from reads g: a division vertex's neighbours are the ids
    beside it in its run, or the run's base endpoint at either end, and two
    base vertices are joined by a base edge with no division vertices.
    Each id must be a vertex of g, as revalidate checks first.  Only a
    step onto a division vertex reads (and so builds) the runs.  The steps
    between base vertices are gathered first and checked together at the
    end."""
    n0 = g.base.vertex_count
    needed: set[tuple[int, int]] = set()  # base-to-base steps, as base edges
    for a, b in steps:
        if a < n0 and b < n0:
            needed.add((a, b) if a < b else (b, a))
            continue
        x, y = (a, b) if a >= n0 else (b, a)  # x is a division vertex
        runs = g.division_paths
        i = bisect.bisect_right(runs, x, key=lambda run: run.start) - 1
        run, (u, v) = runs[i], g.base.edges[i]
        if y != (x - 1 if x > run.start else u) and y != (x + 1 if x < run.stop - 1 else v):
            return False
    # joined when a base edge and not a divided one: two C-level passes,
    # hashing no edge into a new set
    if needed and needed.isdisjoint(itertools.compress(g.base.edges, g.counts)):
        needed.difference_update(g.base.edges)
    return not needed


@dataclass(frozen=True)
class DiscriminatingReport:
    """The witness of each failed discriminating condition, keyed 1..4, the
    colours each family X, Y, Z owns exclusively, and the edges whose
    division-path words condition 2 scanned, not having recognised them.
    Condition n holds exactly when it has no witness."""

    witnesses: dict
    exclusive_colours: dict
    scanned: tuple[int, ...] = ()

    @property
    def conditions(self) -> tuple[bool, bool, bool, bool]:
        return tuple(n not in self.witnesses for n in (1, 2, 3, 4))

    @property
    def passed(self) -> bool:
        return not self.witnesses


def _refines(word: np.ndarray, reference: np.ndarray, k: int) -> bool:
    """Whether each colour rank (below k) of word occurs only at positions
    where reference, as long as word, carries one symbol."""
    import numpy as np

    symbol_of = np.zeros(k, reference.dtype)
    symbol_of[word] = reference
    return bool(np.array_equal(symbol_of[word], reference))


def check_discriminating(s: SubdividedGraph, bipartition: Sequence[int], colouring: Sequence[int]) -> DiscriminatingReport:
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

    bipartition is a construction's labels, and the audit derives the rest
    by the builder's own rules: each edge's X, Y, Z are the consecutive_thirds
    of its oriented_division_path, and the edge order is that of
    _sequence_ranks.  It raises ValueError when the bipartition does not
    cover the base graph or labels a vertex other than 0 or 1, when the
    colouring does not cover the subdivision, or when a division path's
    length is not a multiple of 3.

    Condition 2 rests on V. Keränen, "Abelian squares are avoidable on 4
    letters" (ICALP 1992): no prefix of words.keranen_symbols has an
    abelian square.  A word refines a reference as long as itself when each
    of its colours occurs only where the reference carries one symbol.  Two
    lemmas make recognition sound:
    - refinement: an abelian square in a word that refines a reference
      maps, colour by symbol, onto an abelian square of the reference at
      the same place;
    - disjoint blocks: in a word cut into blocks over pairwise disjoint
      colour sets, every abelian square lies inside one block, since
      otherwise the colours of the first block it touches would occur in
      its first half only, or those of the last block in its second half.
    So a division path read from its white end is anagram-free, and is not
    scanned, when (a) its X, Y, Z thirds have pairwise disjoint colour sets
    and each refines the Keränen prefix of its own length (graph14,
    graph-merged), or (b) the whole word refines the prefix of its length
    (graph8).  Every other path is scanned by find_abelian_square from its
    u end, in edge order up to the first hit, and listed in scanned; a
    recognised path has no hit, so the witness is that of a full scan.
    Conditions 1, 3 and 4 are passes over arrays of the division vertices'
    colour ranks, each third a contiguous run of ids, and keep the first
    witness in vertex and edge order.  So where every path is recognised,
    the audit takes time linear in the vertex count.
    """
    import numpy as np

    from .graph_constructions import _sequence_ranks, consecutive_thirds, oriented_division_path

    g = s.base
    n0 = g.vertex_count
    if len(bipartition) != n0:
        raise ValueError("labels do not describe this subdivision")
    if any(b not in (0, 1) for b in bipartition):
        raise ValueError("bipartition must assign 0 (black) or 1 (white) to every vertex")
    if len(colouring) != s.vertex_count:
        raise ValueError("colouring does not cover this subdivision")
    if (bad := next((i for i, k in enumerate(s.counts) if k % 3), None)) is not None:
        raise ValueError(f"division path of edge {bad} has {s.counts[bad]} vertices, not a multiple of 3")
    rank, palette = _ranks(colouring)
    k = len(palette)
    # each edge's word of colour ranks, read from its white end: the
    # oriented path is the division path itself or its reverse
    path_words = [
        rank[run.start : run.stop][:: oriented_division_path(s, bipartition, i).step]
        for i, run in enumerate(s.division_paths)
    ]
    thirds = [consecutive_thirds(word) for word in path_words]
    witnesses: dict = {}  # condition n fails exactly when witnesses[n] is set

    # condition 1
    black = {colouring[v] for v in range(n0) if bipartition[v] == 0}
    white = {colouring[v] for v in range(n0) if bipartition[v] == 1}
    original = np.zeros(k, bool)
    original[rank[:n0]] = True
    if len(black) > 1 or len(white) > 1 or (black and white and black == white):
        witnesses[1] = ("original colour classes not a 2-colouring", sorted(black), sorted(white))
    elif (edge := next((e for e in g.edges if bipartition[e[0]] == bipartition[e[1]]), None)) is not None:
        witnesses[1] = ("bipartition not proper on edge", edge)
    elif (reused := original[rank[n0:]]).any():
        witnesses[1] = ("original colour reused on division vertex", n0 + int(reused.argmax()))

    # condition 2: recognise each word by test (a) or (b), or scan it
    prefix = np.array(keranen_symbols(max(s.counts, default=0)), np.intp)
    scanned = []
    for i, word in enumerate(path_words):
        t = len(word) // 3
        blocks = np.concatenate((prefix[:t], prefix[:t] + 4, prefix[:t] + 8))
        if _refines(word, blocks, k) or _refines(word, prefix[: 3 * t], k):
            continue
        scanned.append(i)
        hit = find_abelian_square([colouring[v] for v in s.division_paths[i]])
        if hit is not None:
            witnesses[2] = ("division path of edge carries an anagram", i, hit)
            break

    # condition 3: infer C(Q) as the colours exclusive to family Q
    family = np.zeros((3, k), bool)
    for parts in thirds:
        for q, third in enumerate(parts):
            family[q, third] = True
    sole = family & ~original & (family.sum(axis=0) == 1)
    exclusive = {name: {palette[r] for r in np.flatnonzero(sole[q]).tolist()} for q, name in enumerate("XYZ")}
    if not all(exclusive.values()):
        witnesses[3] = ("families without an exclusive colour", [n for n in "XYZ" if not exclusive[n]])

    # condition 4: exact prefix counting in edge-rank order
    edge_rank = _sequence_ranks(g, bipartition)
    order = sorted(range(len(g.edges)), key=edge_rank.__getitem__)
    for q, name in enumerate("XYZ"):
        if not exclusive[name]:
            witnesses[4] = ("no C(Q) to count for family", name)
            break
        running = 0
        for i in order:
            here = int(np.count_nonzero(sole[q][thirds[i][q]]))
            if running >= here:
                witnesses[4] = ("prefix count not dominated", name, i, running, here)
                break
            running += here
        if 4 in witnesses:
            break

    return DiscriminatingReport(witnesses, exclusive, tuple(scanned))
