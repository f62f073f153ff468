"""Brute-force oracles and helpers that only the tests use.

Each restates a rule directly and slowly, so a test can check the package's
own code against it; none of them ships in afsub.  depth_scan_forest is
the forest scan as it was before it grew blocks of depths, kept as the
reference the block scan must match report for report, checked_parts
the schema reader as one loop over the entries, and maximal_paths_by_frames
the maximal-path walker as two closures over [vertex, iterator, flag]
frames, the reference of graph_model.enumerate_maximal_simple_paths,
scanned_check_discriminating the discriminating audit with condition 2 by
a quadratic scan of every division path, parent_map_tree a rooted tree
stored as a parent map beside its child lists, level_loop_children the
complete d-ary tree's child lists built level by level, effective_height
the effective-height rule as bounds held it before RootedTree cached it,
joined_by_set the revalidate step check with its set of every undivided
base edge, randrange_kn_colouring and randrange_tree_colouring the
seeded colourings drawn call by call through randint and randrange,
adjacency_max_degree_2 and adjacency_is_forest a graph's shape read off
its adjacency by a DFS, report_json the verify report through json.dumps,
and start_major_nonzero a block's hits in (start, length) order from one
nonzero of the transposed block.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from afsub import verifier, words
from afsub.bounds import MonochromaticWitness, witness_children
from afsub.graph_constructions import _sequence_ranks, consecutive_thirds, oriented_division_path
from afsub.graph_model import RootedTree, StepBudgetExceeded, SubdividedGraph, complete_graph
from afsub.serialize import SchemaError
from afsub.verifier import Counterexample, DiscriminatingReport, VerificationReport, WindowCeilingExceeded
from afsub.words import _LETTERS, Word, find_abelian_square


def word_from_string(text: str, alphabet_size: Optional[int] = None) -> Word:
    """The word spelled by letters a, b, c, ... as symbols 0, 1, 2, ...; the
    alphabet defaults to the symbols up to the largest one used."""
    symbols = tuple(_LETTERS.index(ch) for ch in text)
    if alphabet_size is None:
        alphabet_size = max(symbols, default=-1) + 1 or 1
    return Word(symbols, alphabet_size)


def is_anagram(w) -> bool:
    """True iff w has even length >= 2 and its halves share one multiset."""
    s = w.symbols if isinstance(w, Word) else w
    n = len(s)
    if n < 2 or n % 2:
        return False
    h = n // 2
    return Counter(s[:h]) == Counter(s[h:])


def restrict(w: Word, keep: Iterable[int]) -> Word:
    """Subsequence of w keeping exactly the positions whose symbol is in keep."""
    keep_set = set(keep)
    for sym in keep_set:
        if not 0 <= sym < w.alphabet_size:
            raise ValueError(f"symbol {sym} outside alphabet")
    return Word(tuple(s for s in w.symbols if s in keep_set), w.alphabet_size)


def longest_anagram_free(alphabet_size: int) -> tuple[int, Word]:
    """Exhaustive search for the longest anagram-free word on 1-3 symbols.

    Explores only words whose distinct symbols first appear in increasing
    order; every word is a symbol permutation of such a word, and
    permutations preserve anagram-freeness, so the search is exhaustive.
    Returns the maximum length and the first witness found at that length.
    """
    if alphabet_size not in (1, 2, 3):
        raise ValueError(
            "exhaustive search only terminates for alphabets of size 1-3; "
            "4 symbols admit arbitrarily long anagram-free words"
        )
    best_len = 0
    best: tuple[int, ...] = ()
    word: list[int] = []

    def extend(used: int) -> None:
        nonlocal best_len, best
        if len(word) > best_len:
            best_len = len(word)
            best = tuple(word)
        for sym in range(min(used + 1, alphabet_size)):
            word.append(sym)
            if not any(is_anagram(word[-2 * L :]) for L in range(1, len(word) // 2 + 1)):
                extend(max(used, sym + 1))
            word.pop()

    extend(0)
    return best_len, Word(best, alphabet_size)


def multiset_count(k: int, c: int) -> int:
    """Number of multisets of size at most k over c colours: C(k + c, c)."""
    return math.comb(k + c, c)


def validate_monochromatic_witness(
    t: RootedTree, colours: Sequence[int], d: int, target: int, w: MonochromaticWitness
) -> bool:
    """Recount the witness guarantees from scratch: a subtree of t whose
    effective vertices all have w's colour and at least d children, and
    whose effective height is at least target."""
    kids = witness_children(t, w)
    for v in w.vertices:
        if v != w.root and t.parent[v] not in w.vertices:
            return False
    effective = {v for v in w.vertices if len(kids[v]) != 1}
    if any(colours[v] != w.colour for v in effective):
        return False
    if any(len(kids[v]) < d for v in effective if kids[v]):
        return False
    return effective_height(kids, w.root) >= target


def effective_height(children, root: int) -> int:
    """Minimum number of branch vertices on any path from root down to a
    leaf; children is a tree's child lists or a witness's child dict."""
    order = [root]
    for u in order:
        order.extend(children[u])
    best: dict[int, int] = {}
    for u in reversed(order):
        kids = children[u]
        best[u] = min(best[c] for c in kids) + (1 if len(kids) >= 2 else 0) if kids else 0
    return best[root]


def joined_by_set(g: SubdividedGraph, steps: Iterable[tuple[int, int]]) -> bool:
    """verifier._joined with the undivided base edges built into a set at
    the first step between two base vertices, each such step looked up."""
    n0 = g.base.vertex_count
    undivided = None
    for a, b in steps:
        if a < n0 and b < n0:
            if undivided is None:
                undivided = {e for e, k in zip(g.base.edges, g.counts) if not k}
            if (min(a, b), max(a, b)) not in undivided:
                return False
            continue
        x, y = (a, b) if a >= n0 else (b, a)
        runs = g.division_paths
        i = bisect.bisect_right(runs, x, key=lambda run: run.start) - 1
        run, (u, v) = runs[i], g.base.edges[i]
        if y != (x - 1 if x > run.start else u) and y != (x + 1 if x < run.stop - 1 else v):
            return False
    return True


def randrange_kn_colouring(n: int, c: int, k: int, seed: int) -> tuple[list[int], list[int]]:
    """The division counts and colours of the seeded K_n colouring, drawn
    one randint(0, k) per edge, then one randrange(c) per vertex."""
    rng = random.Random(seed)
    counts = [rng.randint(0, k) for _ in complete_graph(n).edges]
    colours = [rng.randrange(c) for _ in range(n + sum(counts))]
    return counts, colours


def randrange_tree_colouring(t: RootedTree, x: int, seed: int) -> tuple[int, ...]:
    """The seeded tree colouring, one randrange(x) per vertex."""
    rng = random.Random(seed)
    return tuple(rng.randrange(x) for _ in range(t.vertex_count))


def leaves(t: RootedTree) -> tuple[int, ...]:
    return tuple(v for v in range(t.vertex_count) if not t.children[v])


def root_path(t: RootedTree, v: int) -> list[int]:
    """Vertices from the root of t down to v, inclusive."""
    path = [v]
    while t.parent[path[-1]] is not None:
        path.append(t.parent[path[-1]])
    return path[::-1]


@dataclass(frozen=True)
class ParentMapTree:
    """A rooted tree stored twice, as a parent map and as ordered child
    lists, whose constructor checks that the two copies agree: how
    graph_model.RootedTree stored a tree before it became its child lists
    alone.  depth, edges and sibling_labels are read off the parent map."""

    parent: tuple[Optional[int], ...]
    children: tuple[tuple[int, ...], ...]
    root: int

    def __post_init__(self):
        n = len(self.parent)
        if len(self.children) != n:
            raise ValueError("parent/children length mismatch")
        if not 0 <= self.root < n or self.parent[self.root] is not None:
            raise ValueError("root must have no parent")
        reached = 0
        stack = [self.root]
        seen = [False] * n
        seen[self.root] = True
        while stack:
            v = stack.pop()
            reached += 1
            for c in self.children[v]:
                if seen[c] or self.parent[c] != v:
                    raise ValueError("children inconsistent with parent map")
                seen[c] = True
                stack.append(c)
        if reached != n:
            raise ValueError("tree not connected")

    @property
    def depth(self) -> tuple[int, ...]:
        return tuple(len(root_path(self, v)) - 1 for v in range(len(self.parent)))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        pairs = [(p, c) for c, p in enumerate(self.parent) if p is not None]
        return tuple(sorted(pairs, key=lambda e: (e[0], self.children[e[0]].index(e[1]))))

    @property
    def sibling_labels(self) -> tuple[int, ...]:
        return tuple(self.children[p].index(c) + 1 for p, c in self.edges)


def parent_map_tree(children: Sequence[Sequence[int]], root: int = 0) -> ParentMapTree:
    """The ParentMapTree of children, its parent map read off the child
    lists.  Python wraps a negative id, so children=((-1,), ()) builds the
    tree with edge (0, 1); an id of n or more raises IndexError."""
    n = len(children)
    parent: list[Optional[int]] = [None] * n
    for v, cs in enumerate(children):
        for c in cs:
            parent[c] = v
    return ParentMapTree(tuple(parent), tuple(tuple(cs) for cs in children), root)


def level_loop_children(d: int, h: int) -> list[tuple[int, ...]]:
    """The child lists of the complete d-ary tree of height h, built level
    by level with breadth-first ids."""
    children: list[tuple[int, ...]] = []
    next_id = 1
    level = [0]
    for _ in range(h):
        new_level = []
        for _v in level:
            kids = tuple(range(next_id, next_id + d))
            next_id += d
            children.append(kids)
            new_level.extend(kids)
        level = new_level
    children.extend(() for _ in level)
    return children


def halves_by_signature(adj, colour_weight, root: int, away: int, depth: int):
    """The depth-vertex halves leaving root away from away, as a map from
    each exact signature to the smallest end vertex carrying it, and the
    parent of every vertex the walk reached."""
    parent = {root: away}
    layer = {root: colour_weight(root)}
    for _ in range(depth - 1):
        grown = {}
        for v, sig in layer.items():
            for w in adj[v]:
                if w != parent[v]:
                    parent[w] = v
                    grown[w] = sig + colour_weight(w)
        layer = grown
    ends: dict[int, int] = {}
    for v, sig in layer.items():
        if v < ends.get(sig, v + 1):
            ends[sig] = v
    return ends, parent


def climb(parent: dict[int, int], v: int, root: int) -> list[int]:
    """The vertices from v up to root, by parent links."""
    path = [v]
    while path[-1] != root:
        path.append(parent[path[-1]])
    return path


def depth_scan_forest(adj, colours: Sequence[int], budget: Optional[int]) -> VerificationReport:
    """The centre-edge scan of a forest one depth at a time, about 30 numpy
    calls per depth: the oracle of verifier._scan_forest, which must give
    the same report, or trip the same ceiling, on every forest.

    An even path of 2L vertices has a unique centre edge (a, b); its halves
    are an L-vertex walk leaving a away from b and one leaving b away from
    a, which in a forest are disjoint and always join into a simple path.

    The frontiers of all live edges at depth L are held in two flat arrays,
    the directed tree edge (previous vertex, end) and the key of each half:
    every a side first, then every b side, each grouped by edge in (min id,
    max id) order.  A precomputed CSR lists the directed edges that
    continue each directed edge, so one repeat and one gather grow every
    frontier by a depth.  An edge is dropped, found by bincount, once
    either side is empty, and budget caps the half-paths held in frontiers,
    summed over all depths.

    A key packs the edge id in its high bits, then the sum of the hash
    weights of the half's colour ranks, each doubled, and the side (0 for
    a, 1 for b) in the lowest bit.  The sum never carries into the edge
    bits, so equal colour multisets on one edge give
    keys that differ in the side bit alone and sort next to each other: one
    sort per depth finds every edge with an anagram, and never misses one.
    Unequal multisets may collide too, so each candidate edge is confirmed,
    in edge order, by the exact signatures of its halves: the sum of base
    ** rank(colour) with base = n // 2 + 1.  A half has at most n // 2
    vertices, so no digit carries and equal signatures mean equal colour
    multisets; a candidate without an exact match is skipped.
    """
    n = len(adj)
    deg = np.fromiter(map(len, adj), np.intp, n)
    head = np.fromiter(itertools.chain.from_iterable(adj), np.intp, int(deg.sum()))
    tail = np.repeat(np.arange(n), deg)
    # directed edges are numbered by their place in adj, and each edge a < b
    # by the place of a -> b among them
    forward = np.flatnonzero(tail < head)
    edges = len(forward)
    code = tail * n + head
    by_code = np.argsort(code)
    backward = by_code[np.searchsorted(code, head[forward] * n + tail[forward], sorter=by_code)]
    # the next directed edges of u -> v are v's other edges (none on a
    # graph without edges, where the ragged gather has no ranges to join)
    fan = deg[head]
    nxt = verifier._ragged_arange((np.cumsum(deg) - deg)[head], fan, fan.cumsum()) if len(head) else head
    nxt = nxt[head[nxt] != np.repeat(tail, fan)]
    nxt_count = fan - 1
    nxt_start = np.cumsum(nxt_count) - nxt_count

    rank, distinct = words._ranks(colours)
    shift = np.uint64(64 - edges.bit_length())
    bits = int(shift) - 1 - (n // 2).bit_length()
    weight = (verifier._hash_weights(len(distinct), bits) << np.uint64(1))[rank]
    head_weight = weight[head]
    edge_key = np.arange(edges, dtype=np.uint64) << shift
    # a's halves end at a (directed edge b -> a), then b's halves at b
    directed = np.concatenate((backward, forward))
    key = np.concatenate((edge_key | weight[tail[forward]], edge_key | weight[head[forward]] | np.uint64(1)))
    split = edges
    base = n // 2 + 1

    def colour_weight(v: int) -> int:
        return base ** int(rank[v])

    halves = 2 * edges
    depth = 1
    while split:
        if budget is not None and halves > budget:
            raise WindowCeilingExceeded(halves, budget, unit="half-paths")
        ordered = np.sort(key)
        # an a-side key directly below its b-side match is even; the edges
        # come out sorted, and dict.fromkeys keeps each one once
        adjacent = ordered[1:] - ordered[:-1] == 1
        candidates: Iterable[int] = ()
        if adjacent.any():
            low = ordered[:-1][adjacent]
            candidates = dict.fromkeys((low[low & np.uint64(1) == 0] >> shift).tolist())

        count = nxt_count[directed]
        ends = count.cumsum()
        split = int(ends[split - 1])
        directed = nxt[verifier._ragged_arange(nxt_start[directed], count, ends)]
        key = key.repeat(count) + head_weight[directed]
        edge = (key >> shift).astype(np.intp)
        a_count = np.bincount(edge[:split], minlength=edges)
        b_count = np.bincount(edge[split:], minlength=edges)
        a_has, b_has = a_count > 0, b_count > 0
        live = a_has & b_has

        for e in candidates:
            a, b = int(tail[forward[e]]), int(head[forward[e]])
            a_ends, a_parent = halves_by_signature(adj, colour_weight, a, b, depth)
            b_ends, b_parent = halves_by_signature(adj, colour_weight, b, a, depth)
            shared = a_ends.keys() & b_ends.keys()
            if not shared:
                continue
            sig = min(shared)
            a_half = climb(a_parent, a_ends[sig], a)
            b_half = climb(b_parent, b_ends[sig], b)
            ce = Counterexample.of(a_half + b_half[::-1], depth, colours)
            return VerificationReport("counterexample", ce, halves, "exhaustive")
        # an edge still present on one side only is dead
        if (a_has ^ b_has).any():
            keep = live[edge]
            directed, key = directed[keep], key[keep]
            split = int(np.count_nonzero(keep[:split]))
        halves += len(key)
        depth += 1
    return VerificationReport("anagram_free", None, halves, "exhaustive")


def checked_parts(data: dict) -> tuple:
    """(originals, edges, division counts, colours) of a schema document,
    checked entry by entry: the reference loop of serialize._parts, which
    must build the same parts or raise the same SchemaError on every file
    with one defect."""
    vertices = data["vertices"]
    if not isinstance(vertices, list):
        raise SchemaError("vertices must be a list")
    n = len(vertices)
    kinds: list[str] = [""] * n
    colours: list = [None] * n
    seen_ids = set()
    for entry in vertices:
        if not isinstance(entry, dict):
            raise SchemaError("vertex entries must be objects")
        for key in ("id", "kind", "colour"):
            if key not in entry:
                raise SchemaError(f"vertex entry missing {key!r}")
        vid = entry["id"]
        if not (type(vid) is int and 0 <= vid < n):
            raise SchemaError(f"vertex id {vid!r} out of range")
        if vid in seen_ids:
            raise SchemaError(f"duplicate vertex id {vid}")
        seen_ids.add(vid)
        kind = entry["kind"]
        if kind not in ("original", "division"):
            raise SchemaError(f"vertex {vid}: bad kind {kind!r}")
        kinds[vid] = kind
        colour = entry["colour"]
        if not (colour is None or type(colour) is int):
            raise SchemaError(f"vertex {vid}: colour must be int or null")
        colours[vid] = colour

    n_original = kinds.count("original")
    if "division" in kinds[:n_original]:
        raise SchemaError("original vertices must occupy the low id range")

    base_edges = data["base_edges"]
    if not isinstance(base_edges, list):
        raise SchemaError("base_edges must be a list")
    edges = []
    divisions = []
    covered: set[int] = set()
    for entry in base_edges:
        if not isinstance(entry, dict):
            raise SchemaError("edge entries must be objects")
        for key in ("u", "v", "division"):
            if key not in entry:
                raise SchemaError(f"edge entry missing {key!r}")
        u, v, division = entry["u"], entry["v"], entry["division"]
        if not (type(u) is int and type(v) is int and 0 <= u < n_original and 0 <= v < n_original):
            raise SchemaError(f"edge ({u!r}, {v!r}) endpoints must be original vertex ids")
        if not isinstance(division, list):
            raise SchemaError("division must be a list of vertex ids")
        for dv in division:
            if not (type(dv) is int and n_original <= dv < n and kinds[dv] == "division"):
                raise SchemaError(f"division vertex {dv!r} invalid")
            if dv in covered:
                raise SchemaError(f"division vertex {dv} listed twice")
            covered.add(dv)
        edges.append((u, v))
        divisions.append(division)
    if len(covered) != n - n_original:
        raise SchemaError("some division vertices belong to no edge")

    palette = data["palette"]
    if not (isinstance(palette, list) and all(type(c) is int for c in palette)):
        raise SchemaError("palette must be a list of ints")
    if None in colours:
        raise SchemaError("all vertices must be coloured")
    if list(itertools.chain.from_iterable(divisions)) != list(range(n_original, n)):
        raise SchemaError("division vertex ids must be sequential per edge")
    return n_original, tuple(edges), tuple(map(len, divisions)), tuple(colours)


def maximal_paths_by_frames(g, *, step_budget: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """The maximal simple paths of g, once up to reversal, in (first
    endpoint, sequence) order, by a walker of two closures over [vertex,
    iterator, descended] frames: the reference of
    graph_model.enumerate_maximal_simple_paths, which must yield the same
    paths in the same order and trip step_budget at the same step."""
    adj = g.adjacency
    n = len(adj)
    steps = 0
    path: list[int] = []
    on_path = [False] * n

    def enter(v: int, frames: list) -> None:
        nonlocal steps
        steps += 1
        if step_budget is not None and steps > step_budget:
            raise StepBudgetExceeded(steps)
        path.append(v)
        on_path[v] = True
        frames.append([v, iter(adj[v]), False])

    def walk(start: int):
        frames: list = []
        enter(start, frames)
        while frames:
            frame = frames[-1]
            descended = False
            for w in frame[1]:
                if not on_path[w]:
                    frame[2] = True
                    enter(w, frames)
                    descended = True
                    break
            if descended:
                continue
            if not frame[2]:  # dead end: check maximality at the start end too
                if all(on_path[w] for w in adj[path[0]]):
                    tup = tuple(path)
                    if tup <= tup[::-1]:
                        yield tup
            on_path[frame[0]] = False
            path.pop()
            frames.pop()

    if g.is_forest:
        starts: Iterable[int] = (v for v in range(n) if len(adj[v]) <= 1)
    else:
        starts = range(n)
    for start in starts:
        yield from walk(start)


def scanned_check_discriminating(s, bipartition: Sequence[int], colouring: Sequence[int]) -> DiscriminatingReport:
    """verifier.check_discriminating as it was when condition 2 scanned every
    division path with find_abelian_square and conditions 1, 3 and 4 walked
    the vertices one by one: the reference its recognition and array passes
    must match, witness for witness and colour for colour.  It takes labels
    of 0 and 1 on trust."""
    g = s.base
    if len(bipartition) != g.vertex_count:
        raise ValueError("labels do not describe this subdivision")
    thirds = []
    for i in range(len(g.edges)):
        path = oriented_division_path(s, bipartition, i)
        if len(path) % 3:
            raise ValueError(f"division path of edge {i} has {len(path)} vertices, not a multiple of 3")
        thirds.append(consecutive_thirds(path))
    edge_rank = _sequence_ranks(g, bipartition)
    witnesses: dict = {}  # condition n fails exactly when witnesses[n] is set

    # condition 1
    black = {colouring[v] for v in range(g.vertex_count) if bipartition[v] == 0}
    white = {colouring[v] for v in range(g.vertex_count) if bipartition[v] == 1}
    reserved = black | white
    if len(black) > 1 or len(white) > 1 or (black and white and black == white):
        witnesses[1] = ("original colour classes not a 2-colouring", sorted(black), sorted(white))
    elif (edge := next((e for e in g.edges if bipartition[e[0]] == bipartition[e[1]]), None)) is not None:
        witnesses[1] = ("bipartition not proper on edge", edge)
    elif (v := next((v for p in s.division_paths for v in p if colouring[v] in reserved), None)) is not None:
        witnesses[1] = ("original colour reused on division vertex", v)

    # condition 2
    for i, path in enumerate(s.division_paths):
        word = [colouring[v] for v in path]
        hit = find_abelian_square(word)
        if hit is not None:
            witnesses[2] = ("division path of edge carries an anagram", i, hit)
            break

    # condition 3: infer C(Q) as colours exclusive to family Q
    family_of: dict[int, set[str]] = {}
    for v in range(g.vertex_count):
        family_of.setdefault(colouring[v], set()).add("original")
    for i in range(len(g.edges)):
        for name, third in zip("XYZ", thirds[i]):
            for v in third:
                family_of.setdefault(colouring[v], set()).add(name)
    exclusive = {
        name: {c for c, fams in family_of.items() if fams == {name}} for name in "XYZ"
    }
    if not all(exclusive[name] for name in "XYZ"):
        witnesses[3] = ("families without an exclusive colour", [n for n in "XYZ" if not exclusive[n]])

    # condition 4: exact prefix counting in edge-rank order
    order = sorted(range(len(g.edges)), key=edge_rank.__getitem__)
    for name, qidx in (("X", 0), ("Y", 1), ("Z", 2)):
        cq = exclusive[name]
        if not cq:
            witnesses[4] = ("no C(Q) to count for family", name)
            break
        running = 0
        for i in order:
            here = sum(1 for v in thirds[i][qidx] if colouring[v] in cq)
            if running >= here:
                witnesses[4] = ("prefix count not dominated", name, i, running, here)
                break
            running += here
        if 4 in witnesses:
            break

    return DiscriminatingReport(witnesses, exclusive)


def adjacency_max_degree_2(adj: Sequence[Sequence[int]]) -> bool:
    """Whether no vertex of the sorted neighbour tuples adj has three or
    more neighbours: how BaseGraph.max_degree_2 read the adjacency before
    it counted degrees off the edge list."""
    return all(len(ns) <= 2 for ns in adj)


def adjacency_is_forest(adj: Sequence[Sequence[int]]) -> bool:
    """Whether the graph of the sorted neighbour tuples adj has no cycle, by
    a DFS from every unseen vertex that meets a seen vertex only on a
    cycle: how BaseGraph.is_forest walked the adjacency before its
    union-find pass over the edges."""
    seen = [False] * len(adj)
    for root in range(len(adj)):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, -1)]
        while stack:
            v, parent = stack.pop()
            for w in adj[v]:
                if w == parent:  # simple graph: at most one edge back up
                    continue
                if seen[w]:
                    return False
                seen[w] = True
                stack.append((w, v))
    return True


def report_json(report: VerificationReport) -> str:
    """The verify report as json.dumps writes its payload: the oracle of
    the fixed template in cli, which must give the same bytes."""
    payload = {"outcome": report.outcome, "paths_checked": report.paths_checked, "mode": report.mode}
    if report.counterexample is not None:
        ce = report.counterexample
        payload["counterexample"] = {
            "vertices": list(ce.vertices),
            "split": ce.split,
            "multiset": {str(c): k for c, k in ce.multiset},
        }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def start_major_nonzero(block: np.ndarray) -> list[tuple[int, int]]:
    """The (row, column) of every True of block, column by column and down
    each column, read from one nonzero of the transposed block: how
    words.find_abelian_square listed a block's hits in (start, length)
    order before it read only the columns it reaches."""
    return [(r, i) for i, r in zip(*(a.tolist() for a in np.nonzero(block.T)))]
