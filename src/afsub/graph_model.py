"""Base graphs, rooted trees, subdivisions, and simple-path enumeration.

Vertex ids are dense non-negative integers.  A SubdividedGraph is a base
graph and one division count per edge; division_paths numbers the division
vertices after the originals, sequentially per edge in edge-list order.  A
RootedTree is its ordered child lists and its root: RootedTree.parent is
derived from the child lists.
SubdividedGraph.chain_edges, SubdividedGraph.division_path_from,
SubdividedGraph.strands, RootedTree.edges, RootedTree.sibling_labels and
RootedTree.effective_height are the one home of how the package lists a
subdivision's edges, reads a division path from one end, lists its runs
through base vertices of degree 2, orders a tree's edges, labels each by
its child's place and counts a tree's effective height, once per tree;
RootedTree.height walks the tree level by level and keeps no depth per
vertex.
BaseGraph.is_forest and BaseGraph.max_degree_2 answer a graph's shape from
its edge list, by degree counts and one union-find pass, without building
the adjacency; a SubdividedGraph answers both from its base graph.

Every builder allocates its vertices through complete_dary_tree and
SubdividedGraph, which refuse more than MAX_VERTICES before allocating any;
dary_tree_vertex_count refuses a tree from its height before its size is
computed, and complete_graph refuses more than MAX_VERTICES edges before it
lists any.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

# Most vertices one complete_dary_tree, or one SubdividedGraph's division
# paths, may hold, and most edges one complete_graph may list; each checks
# its size before it allocates.
MAX_VERTICES = 10_000_000


@dataclass(frozen=True)
class BaseGraph:
    """Simple undirected graph: no loops, no duplicate edges."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        n, edges = self.vertex_count, tuple(self.edges)
        norm = tuple([(u, v) if u < v else (v, u) for u, v in edges])
        lo, hi = [u for u, _ in norm], [v for _, v in norm]
        first: dict[tuple[int, int], int] = {}  # each edge's first place
        # per rule, in the order an edge is checked: whether every edge
        # keeps it, tested at once, and whether edge i breaks it.  A failed
        # rule is walked for its first breach; the earliest breach, by the
        # first rule broken there, names the error, as edge by edge
        rules = (
            (all(map(operator.ne, lo, hi)), lambda i: lo[i] == hi[i]),
            (min(lo, default=0) >= 0 and max(hi, default=-1) < n, lambda i: not (0 <= lo[i] and hi[i] < n)),
            (len(set(norm)) == len(norm), lambda i: first.setdefault(norm[i], i) != i),
        )
        breaches = [(next(filter(breaks, range(len(norm)))), rule)
                    for rule, (keeps, breaks) in enumerate(rules) if not keeps]
        if breaches:
            i, rule = min(breaches)
            (u, v), key = edges[i], norm[i]
            raise ValueError((f"self-loop at vertex {u}", f"edge ({u}, {v}) outside vertex range",
                              f"duplicate edge {key}")[rule])
        object.__setattr__(self, "edges", norm)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return _adjacency(self.vertex_count, self.edges)

    @cached_property
    def max_degree_2(self) -> bool:
        """Whether no vertex has three or more edges, by degree counts."""
        degree = [0] * self.vertex_count
        for u, v in self.edges:
            degree[u] += 1
            degree[v] += 1
        return max(degree, default=0) <= 2

    @cached_property
    def is_forest(self) -> bool:
        """Whether no edge closes a cycle: one union-find pass over the
        edges, with path halving, that stops at the first edge whose ends
        are already joined.  A forest on n vertices has fewer than n edges,
        so more are refused before the pass."""
        if len(self.edges) >= self.vertex_count > 0:
            return False
        root = list(range(self.vertex_count))
        for u, v in self.edges:
            while root[u] != u:
                root[u] = u = root[root[u]]
            while root[v] != v:
                root[v] = v = root[root[v]]
            if u == v:
                return False
            root[v] = u
        return True


def _adjacency(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Sorted neighbour tuples of the graph on 0..n-1 with edges pairs."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(tuple(sorted(ns)) for ns in adj)


def complete_graph(n: int) -> BaseGraph:
    """K_n, refused before its edges are listed when they number more than
    MAX_VERTICES."""
    if (m := n * (n - 1) // 2) > MAX_VERTICES:
        raise ValueError(f"complete graph on {n} vertices has {m} edges, more than {MAX_VERTICES}")
    return BaseGraph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def path_graph(n: int) -> BaseGraph:
    return BaseGraph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> BaseGraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return BaseGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


@dataclass(frozen=True)
class RootedTree:
    """Rooted tree given by its ordered child lists; parent[root] is None."""

    children: tuple[tuple[int, ...], ...]
    root: int = 0

    def __post_init__(self):
        children = tuple(map(tuple, self.children))
        object.__setattr__(self, "children", children)
        n, root = len(children), self.root
        listed = [c for cs in children for c in cs]
        if listed and not (min(listed) >= 0 and max(listed) < n):
            raise ValueError(f"child {next(c for c in listed if not 0 <= c < n)} outside vertex range")
        heard = set(listed)
        if len(heard) != len(listed):
            raise ValueError("a vertex is listed as a child twice")
        if not 0 <= root < n or root in heard:
            raise ValueError("root must have no parent")
        # each vertex is listed at most once and the root never, so this
        # walk enters each vertex at most once: a cycle is never reached
        order = [root]
        for v in order:
            order.extend(children[v])
        if len(order) != n:
            raise ValueError("tree not connected")

    @property
    def vertex_count(self) -> int:
        return len(self.children)

    @cached_property
    def parent(self) -> tuple[Optional[int], ...]:
        parent: list[Optional[int]] = [None] * self.vertex_count
        for v, cs in enumerate(self.children):
            for c in cs:
                parent[c] = v
        return tuple(parent)

    @cached_property
    def depth(self) -> tuple[int, ...]:
        d = [0] * self.vertex_count
        stack = [self.root]
        while stack:
            v = stack.pop()
            for c in self.children[v]:
                d[c] = d[v] + 1
                stack.append(c)
        return tuple(d)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """(parent, child) pairs, parents in id order, children in child order."""
        return tuple((v, c) for v in range(self.vertex_count) for c in self.children[v])

    @cached_property
    def sibling_labels(self) -> tuple[int, ...]:
        """Per edge of edges, its child's 1-based place among its siblings."""
        return tuple(i for cs in self.children for i in range(1, len(cs) + 1))

    @cached_property
    def height(self) -> int:
        """Edges on the longest root path: the tree is walked level by level,
        holding one level at a time and no depth per vertex."""
        children, level, h = self.children, [self.root], -1
        while level:
            level = list(itertools.chain.from_iterable(map(children.__getitem__, level)))
            h += 1
        return h

    @cached_property
    def effective_height(self) -> int:
        """_effective_height of the tree, derived once."""
        return _effective_height(self.children, self.root)


def _effective_height(children, root: int) -> int:
    """Minimum number of branch vertices on any path from root down to a leaf.

    children maps each vertex to its child list: a tree's children, or a
    witness's child dict.
    """
    order = [root]
    for u in order:
        order.extend(children[u])
    best: dict[int, int] = {}
    for u in reversed(order):
        kids = children[u]
        best[u] = min(best[c] for c in kids) + (1 if len(kids) >= 2 else 0) if kids else 0
    return best[root]


def dary_tree_vertex_count(d: int, h: int) -> int:
    """The vertex count of the complete d-ary tree of height h, refused
    above MAX_VERTICES.  A height at which d**h alone has more than 2**14
    bits is refused before d**h is computed, which a huge height makes
    endless."""
    if d > 1 and h * (d.bit_length() - 1) > 1 << 14:
        raise ValueError(f"complete {d}-ary tree of height {h} has more than {MAX_VERTICES} vertices")
    n = h + 1 if d == 1 else (d ** (h + 1) - 1) // (d - 1)
    if n > MAX_VERTICES:
        raise ValueError(f"complete {d}-ary tree of height {h} has {n} vertices, more than {MAX_VERTICES}")
    return n


def complete_dary_tree(d: int, h: int) -> RootedTree:
    """Complete d-ary tree of height h with breadth-first vertex ids."""
    if d < 1 or h < 0:
        raise ValueError("need d >= 1 and h >= 0")
    n = dary_tree_vertex_count(d, h)
    inner = (n - 1) // d  # every vertex above the last level has d children
    return RootedTree(tuple(range(d * v + 1, d * v + d + 1) for v in range(inner)) + ((),) * (n - inner))


def random_binary_tree(max_height: int, seed: int) -> RootedTree:
    """Seeded random binary tree of height between 1 and max_height."""
    if max_height < 1:
        raise ValueError("max_height must be >= 1")
    rng = random.Random(seed)
    children: list[list[int]] = [[]]
    depth = [0]
    frontier = [0]
    while frontier:
        v = frontier.pop(0)
        if depth[v] >= max_height:
            continue
        k = rng.choice((1, 2, 2)) if v == 0 else rng.choice((0, 0, 1, 2, 2))
        for _ in range(k):
            c = len(children)
            children.append([])
            depth.append(depth[v] + 1)
            children[v].append(c)
            frontier.append(c)
    return RootedTree(children)


def tree_to_base_graph(t: RootedTree) -> BaseGraph:
    """The tree as a graph whose edge i joins the ends of t.edges[i]."""
    return BaseGraph(t.vertex_count, t.edges)


@dataclass(frozen=True)
class SubdividedGraph:
    """A base graph plus, per base edge, how many times it is subdivided."""

    base: BaseGraph
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != len(self.base.edges):
            raise ValueError("counts must be given for every edge")
        if any(c < 0 for c in self.counts):
            raise ValueError("division counts must be non-negative")
        if (total := sum(self.counts)) > MAX_VERTICES:
            raise ValueError(f"subdivision needs {total} division vertices, more than {MAX_VERTICES}")

    @cached_property
    def division_paths(self) -> tuple[range, ...]:
        """Edge i's division vertices, u-end to v-end: the counts[i] ids after edge i - 1's."""
        offsets = tuple(itertools.accumulate(self.counts, initial=self.base.vertex_count))
        return tuple(map(range, offsets, offsets[1:]))

    @cached_property
    def vertex_count(self) -> int:
        return self.base.vertex_count + sum(self.counts)

    def chain_edges(self) -> Iterator[tuple[int, int]]:
        """Every edge of the subdivision: base edge by base edge, each one's
        chain u, division path, v in order."""
        for (u, v), path in zip(self.base.edges, self.division_paths):
            chain = (u, *path, v)
            yield from zip(chain, chain[1:])

    def division_path_from(self, i: int, end: int) -> range:
        """Division path of base edge i read from its endpoint end."""
        u, v = self.base.edges[i]
        if end not in (u, v):
            raise ValueError(f"vertex {end} is not an endpoint of edge {i}")
        path = self.division_paths[i]
        return path if end == u else path[::-1]

    def strands(self) -> list[tuple[tuple[tuple[int, int], ...], bool]]:
        """Maximal runs of base edges joined at base vertices of degree 2, as
        (steps, cycle): each step (base edge i, the end it is entered from)
        in order, and whether all its component's vertices have degree 2.
        Runs with ends come first, from each vertex of degree other than 2
        in id order, edges in edge order; one back at its start is no cycle.
        Each cycle then starts at its smallest id toward the smaller first
        id.  Reads the base graph and counts in O(base edges)."""
        edges = self.base.edges
        incident: list[list[int]] = [[] for _ in range(self.base.vertex_count)]
        for i, (u, v) in enumerate(edges):
            incident[u].append(i)
            incident[v].append(i)
        taken = [False] * len(edges)

        def walk(v: int, i: int) -> tuple[tuple[int, int], ...]:
            steps = []
            while not taken[i]:
                taken[i] = True
                steps.append((i, v))
                v = sum(edges[i]) - v  # the far end
                if len(incident[v]) == 2:  # else edge i, taken, ends the run
                    i = sum(incident[v]) - i  # v's other edge
            return tuple(steps)

        def first_id(v: int, i: int) -> int:  # the first division vertex, or the other end
            run = self.division_path_from(i, v)
            return run[0] if run else sum(edges[i]) - v

        strands = [(walk(v, i), False) for v, out in enumerate(incident) if len(out) != 2
                   for i in out if not taken[i]]
        return strands + [(walk(v, min(out, key=lambda i: first_id(v, i))), True)
                          for v, out in enumerate(incident) if len(out) == 2 and not taken[out[0]]]

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbour tuples of the flattened graph, built from
        chain_edges by the flattened graph's own rule, or the base graph's
        own when there are no division vertices.  The forest and degree-2
        scans and revalidate read the base graph and the division runs
        instead; maximal-path enumeration, the sampler and the naive oracle
        build this."""
        if self.vertex_count == self.base.vertex_count:
            return self.base.adjacency
        return _adjacency(self.vertex_count, self.chain_edges())

    # A subdivision has maximum degree at most 2, or is a forest, exactly
    # when its base graph does: division vertices have degree 2, originals
    # keep their degrees, and a cycle through a division path is a cycle
    # through its base edge.  So both answers cost O(originals).
    @property
    def max_degree_2(self) -> bool:
        return self.base.max_degree_2

    @property
    def is_forest(self) -> bool:
        return self.base.is_forest

    def flatten(self) -> BaseGraph:
        """The subdivision as a plain graph on all vertices."""
        return BaseGraph(self.vertex_count, tuple(self.chain_edges()))


def subdivide(g: BaseGraph, counts: Sequence[int]) -> SubdividedGraph:
    """Subdivide edge i exactly counts[i] times."""
    return SubdividedGraph(g, tuple(counts))


def k_subdivision(g: BaseGraph, k: int) -> SubdividedGraph:
    if k < 0:
        raise ValueError("k must be non-negative")
    return subdivide(g, [k] * len(g.edges))


@dataclass(frozen=True)
class ColouredSubdivision:
    """A subdivided graph with a total colouring and palette metadata."""

    graph: SubdividedGraph
    colour: tuple[int, ...]
    palette: tuple[int, ...]
    provenance: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if len(self.colour) != self.graph.vertex_count:
            raise ValueError("colouring must be total")
        pal = set(self.palette)
        if not pal.issuperset(self.colour):
            v = next(v for v, c in enumerate(self.colour) if c not in pal)
            raise ValueError(f"vertex {v} coloured {self.colour[v]}, outside palette")

    @property
    def max_division_count(self) -> int:
        return max(self.graph.counts, default=0)


def coloured_subdivision(graph: SubdividedGraph, colour: Sequence[int], provenance: dict) -> ColouredSubdivision:
    colour = tuple(colour)
    return ColouredSubdivision(graph, colour, tuple(sorted(set(colour))), provenance)


def ColouredGraph(graph: BaseGraph, colours: Sequence[int]) -> ColouredSubdivision:
    """A base graph with a total colouring, as its zero-count coloured
    subdivision: its colours are .colour and its base graph .graph.base."""
    return coloured_subdivision(SubdividedGraph(graph, (0,) * len(graph.edges)), colours, {})


def one_subdivision(g: BaseGraph) -> BaseGraph:
    """The 1-subdivision of g flattened: base edge i's midpoint is vertex
    g.vertex_count + i."""
    return k_subdivision(g, 1).flatten()


def enumerate_maximal_simple_paths(g, *, step_budget: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Simple paths that cannot be extended at either end, once up to
    reversal, in deterministic (first endpoint, sequence) order.

    The DFS is one loop over a stack of iterators, the start vertices and
    then each path vertex's neighbours.  Each vertex entered is one step,
    and with step_budget given the step past it raises StepBudgetExceeded
    before its vertex is entered.  Every simple path is a contiguous window
    of some maximal path, so scanning windows of these covers all paths.
    In a forest maximal paths run leaf to leaf, so only leaves seed the DFS;
    g is a BaseGraph or a SubdividedGraph, whose is_forest reads its base
    graph.
    """
    adj = g.adjacency
    n = len(adj)
    steps = 0
    path: list[int] = []
    on_path = [False] * n
    if g.is_forest:
        starts: Iterator[int] = (v for v in range(n) if len(adj[v]) <= 1)
    else:
        starts = iter(range(n))
    ways = [starts]
    entered = False  # whether path[-1] was entered since the last step back
    while True:
        for w in ways[-1]:
            if not on_path[w]:
                steps += 1
                if step_budget is not None and steps > step_budget:
                    raise StepBudgetExceeded(steps)
                path.append(w)
                ways.append(iter(adj[w]))
                on_path[w] = entered = True
                break
        else:
            if not path:
                return
            # no way on: path[-1] is a dead end if just entered; check the start end too
            if entered and all(on_path[w] for w in adj[path[0]]):
                tup = tuple(path)
                if tup <= tup[::-1]:
                    yield tup
            on_path[path.pop()] = entered = False
            ways.pop()


class StepBudgetExceeded(Exception):
    def __init__(self, steps: int):
        super().__init__(f"path enumeration exceeded step budget at {steps} steps")
        self.steps = steps
