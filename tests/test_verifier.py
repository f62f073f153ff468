import functools
import itertools
import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afsub import verifier, words
from afsub.graph_constructions import (
    build_sequence_subdivision,
    colour_8,
    colour_14,
    colour_merged,
    consecutive_thirds,
    oriented_division_path,
)
from afsub.graph_model import (
    BaseGraph,
    ColouredGraph,
    ColouredSubdivision,
    coloured_subdivision,
    complete_dary_tree,
    complete_graph,
    cycle_graph,
    enumerate_maximal_simple_paths,
    path_graph,
    subdivide,
    tree_to_base_graph,
)
from afsub.serialize import from_json_str, to_json_str
from afsub.tree_constructions import build_binary_tree_8, build_dary_banded, build_dary_tree_10
from afsub.verifier import (
    Counterexample,
    VerificationReport,
    WindowCeilingExceeded,
    check_discriminating,
    check_restriction,
    find_anagram,
    find_anagram_sampled,
    naive_find_anagram,
    revalidate,
)
from oracles import depth_scan_forest, is_anagram, scanned_check_discriminating


def coloured_path(colours):
    return ColouredGraph(path_graph(len(colours)), tuple(colours))


def spider(legs, leg_length):
    """Centre 0 with legs of leg_length vertices each, Keränen-coloured."""
    edges = []
    for leg in range(legs):
        chain = [0, *range(1 + leg * leg_length, 1 + (leg + 1) * leg_length)]
        edges += zip(chain, chain[1:])
    n = 1 + legs * leg_length
    return ColouredGraph(BaseGraph(n, tuple(edges)), tuple(words.keranen_symbols(n)))


def seeded_instance(seed):
    rng = random.Random(seed)
    n = rng.randrange(3, 10)
    possible = list(itertools.combinations(range(n), 2))
    rng.shuffle(possible)
    g = BaseGraph(n, tuple(possible[: rng.randrange(1, n + 2)]))
    colours = tuple(rng.randrange(1, 5) for _ in range(n))
    return ColouredGraph(g, colours)


@st.composite
def degree2_graphs(draw, kinds=("path", "cycle", "isolated")):
    """Disjoint paths, cycles and isolated vertices, with shuffled ids."""
    parts = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4))
    chains = []
    n = 0
    for kind in parts:
        size = 1 if kind == "isolated" else draw(st.integers(2 if kind == "path" else 3, 9))
        chains.append((kind, list(range(n, n + size))))
        n += size
    ids = draw(st.permutations(range(n)))
    edges = []
    for kind, chain in chains:
        chain = [ids[v] for v in chain]
        edges += zip(chain, chain[1:])
        if kind == "cycle":
            edges.append((chain[-1], chain[0]))
    k = draw(st.integers(2, 4))
    colours = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return ColouredGraph(BaseGraph(n, tuple(edges)), tuple(colours))


def maximal_path_counterexample(c):
    """First hit of the maximal-path scan, computed outside the verifier."""
    for path in enumerate_maximal_simple_paths(c.graph):
        hit = words.find_abelian_square([c.colour[v] for v in path])
        if hit is not None:
            return tuple(path[hit[0] : hit[0] + hit[1]])
    return None


def trace_degree2_components(adj):
    """The oracle of verifier._degree2_components: each component found by
    a walk over every vertex of the flattened graph, each step to the
    smaller neighbour not just left."""
    seen = [False] * len(adj)
    comps = []
    for v in range(len(adj)):
        if seen[v]:
            continue
        seen[v] = True
        members = [v]
        for u in members:  # the list grows as the component is found
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    members.append(w)
        ends = [u for u in members if len(adj[u]) <= 1]
        order = [min(ends) if ends else v]  # v is a cycle's smallest id
        while len(order) < len(members):
            prev = order[-2] if len(order) > 1 else None
            order.append(min(w for w in adj[order[-1]] if w != prev))
        comps.append((order, not ends))
    comps.sort(key=lambda comp: comp[0][0])
    return comps


class TestDegree2Components:
    @given(degree2_graphs())
    @settings(max_examples=150, deadline=None)
    def test_plain_graphs_agree_with_the_vertex_walk(self, c):
        s = subdivide(c.graph.base, [0] * len(c.graph.base.edges))
        assert verifier._degree2_components(s) == trace_degree2_components(c.graph.base.adjacency)

    @given(degree2_graphs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_subdivisions_agree_with_the_vertex_walk(self, c, data):
        # runs of 0 to 3 division vertices, read forward or reversed
        counts = data.draw(st.lists(st.integers(0, 3), min_size=len(c.graph.base.edges), max_size=len(c.graph.base.edges)))
        s = subdivide(c.graph.base, counts)
        assert verifier._degree2_components(s) == trace_degree2_components(s.adjacency)

    def test_cycle_toward_a_division_vertex(self):
        # C_3 with edge (0, 2) divided: 0's neighbours are 1 and division
        # vertex 3, so the cycle reads from 0 toward 1
        s = subdivide(cycle_graph(3), [0, 0, 1])
        assert verifier._degree2_components(s) == [([0, 1, 2, 3], True)]
        # with edge (0, 1) divided instead, 0 steps to 2 before 3
        s = subdivide(cycle_graph(3), [1, 0, 0])
        assert verifier._degree2_components(s) == [([0, 2, 1, 3], True)]


class TestDegree2Scan:
    @given(degree2_graphs())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_naive_oracle(self, c):
        report = find_anagram(c)
        assert report.outcome == naive_find_anagram(c).outcome
        if report.counterexample is not None:
            assert revalidate(report.counterexample, c)

    @given(degree2_graphs(kinds=("path", "isolated")))
    @settings(max_examples=150, deadline=None)
    def test_path_forest_counterexample_is_the_maximal_path_one(self, c):
        ce = find_anagram(c).counterexample
        assert (ce and ce.vertices) == maximal_path_counterexample(c)

    @given(degree2_graphs(kinds=("cycle",)), st.sets(st.integers(0, 3), min_size=1))
    @settings(max_examples=100, deadline=None)
    def test_restriction_agrees_with_every_restricted_rotation(self, c, keep):
        keep &= set(c.colour)
        if not keep:  # an empty restriction certifies nothing
            with pytest.raises(ValueError, match="empty"):
                check_restriction(c, keep)
            return
        expected = "anagram_free"
        for path in enumerate_maximal_simple_paths(c.graph):  # every rotation
            if words.find_abelian_square([c.colour[v] for v in path if c.colour[v] in keep]):
                expected = "counterexample"
        report = check_restriction(c, keep)
        assert report.outcome == expected
        if report.counterexample is not None:
            ce = report.counterexample
            left, right = ce.vertices[: ce.split], ce.vertices[ce.split :]
            assert verifier.multiset_of(c.colour, left) == verifier.multiset_of(c.colour, right)

    def test_scans_leave_the_adjacency_unbuilt(self):
        # on max degree 2 the scans read the base graph and the division runs
        cs = from_json_str(to_json_str(colour_14(path_graph(2)).coloured))
        assert find_anagram(cs).outcome == "anagram_free"
        assert find_anagram_sampled(cs, 5, 1).outcome == "anagram_free"
        assert check_restriction(cs, cs.palette).outcome == "anagram_free"
        assert "adjacency" not in cs.graph.__dict__

    def test_cycle_counterexample_order(self):
        # cycle 0-1-2-3 reads from 0 toward its smaller neighbour 1, as the
        # word 1 2 2 1 1 2 2; by (start, length), (0, 4) precedes (1, 2)
        c = ColouredGraph(cycle_graph(4), (1, 2, 2, 1))
        assert find_anagram(c).counterexample.vertices == (0, 1, 2, 3)
        # 1 2 3 4 1 1 2 3 4: the first anagram wraps round, from 4 to 0
        c = ColouredGraph(cycle_graph(5), (1, 2, 3, 4, 1))
        assert find_anagram(c).counterexample.vertices == (4, 0)

    @pytest.mark.parametrize(
        "build,windows",
        [
            (lambda: colour_merged(cycle_graph(4), 1), 447_374),
            (lambda: colour_14(complete_graph(3)), 28_324),
        ],
        ids=["graph-merged-C4-k1", "graph14-K3"],
    )
    def test_window_ceiling_pins(self, build, windows):
        c = build().coloured
        with pytest.raises(WindowCeilingExceeded) as exc:
            find_anagram(c, max_windows=windows - 1)
        assert (exc.value.windows, exc.value.steps) == (windows, None)
        report = find_anagram(c, max_windows=windows)
        assert (report.outcome, report.paths_checked) == ("anagram_free", 1)

    @given(degree2_graphs())
    @settings(max_examples=50, deadline=None)
    def test_sampling_hands_over_to_the_exhaustive_scan(self, c):
        sampled = find_anagram_sampled(c, 3, 11)
        exhaustive = find_anagram(c)
        assert sampled.mode == "sampled(budget=3,seed=11):exhaustive"
        assert (sampled.outcome, sampled.counterexample) == (exhaustive.outcome, exhaustive.counterexample)


@st.composite
def forests(draw):
    """Trees and isolated vertices, with shuffled ids: each tree vertex after
    the first hangs from an earlier one.  The first tree's root has three
    children, so every instance takes the forest scan."""
    sizes = [draw(st.integers(4, 9))] + draw(st.lists(st.integers(1, 8), max_size=3))
    n = sum(sizes)
    ids = draw(st.permutations(range(n)))
    edges = [(ids[0], ids[1]), (ids[0], ids[2]), (ids[0], ids[3])]
    first = 0
    for size in sizes:
        for v in range(max(first + 1, 4), first + size):
            edges.append((ids[v], ids[draw(st.integers(first, v - 1))]))
        first += size
    k = draw(st.integers(2, 4))
    colours = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return ColouredGraph(BaseGraph(n, tuple(edges)), tuple(colours))


def first_anagrams(c):
    """(length, centre edge) of the first anagrams in the forest scan's
    order, by brute force over every simple path."""
    adj, colours = c.graph.adjacency, c.colour
    keys = set()

    def grow(path):
        if len(path) % 2 == 0:
            h = len(path) // 2
            if sorted(colours[v] for v in path[:h]) == sorted(colours[v] for v in path[h:]):
                keys.add((len(path), tuple(sorted(path[h - 1 : h + 1]))))
        for w in adj[path[-1]]:
            if w not in path:
                grow(path + [w])

    for v in range(len(adj)):
        grow([v])
    return min(keys, default=None)


def _half_path(adj, root, away, end):
    """The forest path from root to end, on the side of root away from away."""
    parent = {root: away}
    stack = [root]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                stack.append(w)
    path = [end]
    while path[-1] != root:
        path.append(parent[path[-1]])
    return path[::-1]


def scalar_scan_forest(adj, colours, budget):
    """The centre-edge scan one half-path tuple at a time: the oracle of the
    array scan verifier._scan_forest, which must give the same report, or
    trip the same ceiling, on every forest.

    Each live edge (a, b), in (min id, max id) order, keeps both frontiers
    as (end, previous vertex, exact signature) entries; the signature is
    the sum of base ** rank(colour) with base = n // 2 + 1.
    """
    n = len(adj)
    rank = {colour: i for i, colour in enumerate(sorted(set(colours)))}
    base = n // 2 + 1
    weight = [base ** rank[colour] for colour in colours]
    live = [
        (a, b, [(a, b, weight[a])], [(b, a, weight[b])])
        for a in range(n) for b in adj[a] if a < b
    ]
    halves = 2 * len(live)
    depth = 1
    while live:
        if budget is not None and halves > budget:
            raise WindowCeilingExceeded(halves, budget, unit="half-paths")
        grown = []
        for a, b, left, right in live:
            left_sigs = {sig for _, _, sig in left}
            right_sigs = [sig for _, _, sig in right]
            if not left_sigs.isdisjoint(right_sigs):
                sig = min(left_sigs.intersection(right_sigs))
                x = min(v for v, _, s in left if s == sig)
                y = min(v for v, _, s in right if s == sig)
                vertices = _half_path(adj, a, b, x)[::-1] + _half_path(adj, b, a, y)
                half = Counter(colours[v] for v in vertices[:depth])
                return VerificationReport(
                    "counterexample",
                    Counterexample(tuple(vertices), depth, tuple(sorted(half.items()))),
                    halves,
                    "exhaustive",
                )
            left = [(w, v, sig + weight[w]) for v, prev, sig in left for w in adj[v] if w != prev]
            if not left:
                continue
            right = [(w, v, sig + weight[w]) for v, prev, sig in right for w in adj[v] if w != prev]
            if right:
                grown.append((a, b, left, right))
        live = grown
        halves += sum(len(left) + len(right) for _, _, left, right in grown)
        depth += 1
    return VerificationReport("anagram_free", None, halves, "exhaustive")


def scan_result(scan, adj, colours, budget):
    """A scan's report, or the fields and message of the ceiling it trips."""
    try:
        return scan(adj, colours, budget)
    except WindowCeilingExceeded as exc:
        return (exc.windows, exc.ceiling, exc.steps, exc.unit, str(exc))


def assert_matches(oracle, graph, colours, budgets=()):
    """verifier._scan_forest and oracle, a forest scan of (adjacency,
    colours, budget), agree uncapped, at ceilings one below and at the
    oracle's count, and at every budget given."""
    adj = graph.adjacency
    count = oracle(adj, colours, None).paths_checked
    for budget in (None, count - 1, count, *budgets):
        expected = scan_result(oracle, adj, colours, budget)
        assert scan_result(verifier._scan_forest, graph, colours, budget) == expected


def planted_copies(build, seeds):
    """Copies of a construction's colouring with a planted anagram: one
    vertex's colour is copied onto a neighbour (2 vertices) on even seeds,
    and a random 4-vertex path is painted x y x y on odd ones.  A planted path
    may also make a shorter anagram nearby."""
    c = build().coloured
    adj, colours = c.graph.adjacency, c.colour
    for seed in seeds:
        rng = random.Random(seed)
        path = [rng.randrange(len(adj))]
        while len(path) < (2 if seed % 2 == 0 else 4):
            options = [w for w in adj[path[-1]] if w not in path[-2:]]
            path = path + [rng.choice(options)] if options else [rng.randrange(len(adj))]
        planted = list(colours)
        for i, v in enumerate(path):
            planted[v] = colours[path[i % (len(path) // 2)]]
        yield c.graph, tuple(planted)


PLANTED_BUILDS = {
    "binary-tree-h5": lambda: build_binary_tree_8(complete_dary_tree(2, 5)),
    "dary-2-4": lambda: build_dary_tree_10(2, 4),
    "dary-3-3": lambda: build_dary_tree_10(3, 3),
    "dary-banded-2-6-40": lambda: build_dary_banded(2, 6, 40),
}


def colliding_weights(k, bits):
    """Hash weights that give every half of an edge's side the same key."""
    return np.zeros(k, dtype=np.uint64)


@st.composite
def subdivided_forests(draw, max_divisions=30):
    """A subdivision of a random base forest: trees and isolated vertices
    with shuffled ids, the first tree's root of degree 3, each base edge
    divided 0 to max_divisions times.  Colours come from k = 2 to 4: a word
    with no two equal neighbours (the parity, Thue's square-free word, or
    Keränen's anagram-free word), read from a drawn offset at each vertex's
    id or at its distance from its component's first vertex, and on one
    draw in four one vertex repainted, so that some scans stop at depth 1
    and others run past it."""
    sizes = [draw(st.integers(4, 7))] + draw(st.lists(st.integers(1, 5), max_size=2))
    n0 = sum(sizes)
    ids = draw(st.permutations(range(n0)))
    edges = [(ids[0], ids[1]), (ids[0], ids[2]), (ids[0], ids[3])]
    first = 0
    for size in sizes:
        for v in range(max(first + 1, 4), first + size):
            edges.append((ids[v], ids[draw(st.integers(first, v - 1))]))
        first += size
    counts = draw(st.lists(st.integers(0, max_divisions), min_size=len(edges), max_size=len(edges)))
    s = subdivide(BaseGraph(n0, tuple(edges)), counts)
    k = draw(st.sampled_from((4, 3, 2)))
    offset = draw(st.integers(0, 1000))
    word = {2: [v % 2 for v in range(offset + s.vertex_count)], 3: words.thue_symbols(offset + s.vertex_count),
            4: words.keranen_symbols(offset + s.vertex_count)}[k][offset:]
    place = list(range(s.vertex_count))
    if draw(st.booleans()):  # by distance, so that paths read the word out and back
        adj, place = s.adjacency, [None] * s.vertex_count
        for root in range(s.vertex_count):
            if place[root] is None:
                place[root], layer = 0, [root]
                for v in layer:  # the list grows as the component is walked
                    for w in adj[v]:
                        if place[w] is None:
                            place[w] = place[v] + 1
                            layer.append(w)
    colours = [word[p] for p in place]
    if draw(st.integers(0, 3)) == 0:
        colours[draw(st.integers(0, s.vertex_count - 1))] = draw(st.integers(0, k - 1))
    return ColouredSubdivision(s, tuple(colours), tuple(sorted(set(colours))))


def walk_steps(graph, colours):
    """The scan's report, and the steps of each walk table it built."""
    built = []

    def recorded(*args):
        table = walk_table(*args)
        built.append(len(table[0]))
        return table

    walk_table = verifier._walk_table
    with mock.patch.object(verifier, "_walk_table", recorded):
        return verifier._scan_forest(graph, colours, None), built


def directed_ids(graph):
    """Each directed edge (tail, head) of graph by its id in the forest
    scan's numbering: edge e of chain_edges runs x -> y as e and y -> x as
    E + e."""
    pairs = list(graph.chain_edges())
    return {pair: d for d, pair in enumerate(pairs + [(b, a) for a, b in pairs])}


def brute_ways_on(graph):
    """For each directed edge id, the set of directed edges that leave its
    head, its own reverse aside."""
    ids = directed_ids(graph)
    leaving = {}
    for (a, b), d in ids.items():
        leaving.setdefault(a, set()).add(d)
    return {d: leaving[b] - {ids[b, a]} for (a, b), d in ids.items()}


def brute_walks(graph, d, steps, vertex_weight):
    """(steps, weight sum of the heads, last directed edge) of every walk of
    1 .. steps steps on from directed edge d that never turns back."""
    ids, adj = directed_ids(graph), graph.adjacency
    (a, b), = (pair for pair, e in ids.items() if e == d)
    walks, layer = [], [(a, b, 0)]
    for s in range(1, steps + 1):
        layer = [(v, w, total + vertex_weight[w]) for u, v, total in layer for w in adj[v] if w != u]
        walks += [(s, total, ids[v, w]) for v, w, total in layer]
    return walks


class TestForestTables:
    @staticmethod
    def assert_ways_on(graph):
        x, y = verifier._chain_ends(graph)
        nxt, start, count = verifier._next_edges(x, y, graph.vertex_count)
        brute = brute_ways_on(graph)
        assert len(count) == len(brute)
        for d, ways in brute.items():
            row = nxt[start[d] : start[d] + count[d]].tolist()
            assert (sorted(row), set(row)) == (sorted(ways), ways), d

    @given(subdivided_forests(max_divisions=6))
    @settings(max_examples=100, deadline=None)
    def test_next_edges_match_brute_force(self, c):
        self.assert_ways_on(c.graph)

    def test_next_edges_on_a_star(self):
        self.assert_ways_on(subdivide(BaseGraph(201, tuple((0, leaf) for leaf in range(1, 201))), [0] * 200))

    @given(subdivided_forests(max_divisions=6), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_walk_table_rows_match_brute_force(self, c, most):
        graph = c.graph
        x, y = verifier._chain_ends(graph)
        links = verifier._next_edges(x, y, graph.vertex_count)
        vertex_weight = np.random.default_rng(len(x)).integers(0, 1 << 20, graph.vertex_count, dtype=np.uint64)
        tags = np.arange(most, dtype=np.uint64) << np.uint64(40)
        reach, row, weight, last = verifier._walk_table(*links, vertex_weight[np.concatenate((y, x))], tags)
        steps = len(reach)
        assert reach.shape == (steps, 2 * len(x)) and 1 <= steps <= most
        for d in range(2 * len(x)):
            walks = brute_walks(graph, d, steps + 1, vertex_weight.tolist())
            if steps < most:  # the table stops early only where no walk goes on
                assert all(s <= steps for s, _, _ in walks)
            walks = [walk for walk in walks if walk[0] <= steps]
            assert reach[:, d].tolist() == [sum(s <= t for s, _, _ in walks) for t in range(1, steps + 1)]
            cells = range(row[d], row[d] + reach[-1, d])
            listed = [(int(weight[i]) >> 40, int(weight[i]) & ((1 << 40) - 1), int(last[i])) for i in cells]
            assert [s for s, _, _ in listed] == sorted(s for s, _, _ in listed)  # rows list 1 step first
            assert sorted(listed) == sorted((s - 1, total, e) for s, total, e in walks)


class TestForestScan:
    @given(forests())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_naive_oracle_and_is_shortest(self, c):
        report = find_anagram(c)
        assert report.outcome == naive_find_anagram(c).outcome
        ce = report.counterexample
        if ce is not None:
            assert revalidate(ce, c)
            centre = tuple(sorted(ce.vertices[ce.split - 1 : ce.split + 1]))
            assert (len(ce.vertices), centre) == first_anagrams(c)

    @given(forests())
    @settings(max_examples=300, deadline=None)
    def test_array_scan_matches_scalar_oracle(self, c):
        assert_matches(scalar_scan_forest, c.graph, c.colour)

    @pytest.mark.parametrize("name", sorted(PLANTED_BUILDS))
    def test_array_scan_matches_scalar_oracle_on_constructions(self, name):
        c = PLANTED_BUILDS[name]().coloured
        assert_matches(scalar_scan_forest, c.graph, c.colour)
        for graph, colours in planted_copies(PLANTED_BUILDS[name], range(6)):
            assert_matches(scalar_scan_forest, graph, colours)

    @given(forests())
    @settings(max_examples=100, deadline=None)
    def test_colliding_keys_are_confirmed_exactly(self, c):
        # every edge with both sides live is a candidate at every depth, so
        # only the exact confirmation decides
        with mock.patch.object(verifier, "_hash_weights", colliding_weights):
            assert_matches(scalar_scan_forest, c.graph, c.colour)

    @given(forests())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_previous_array_scan(self, c):
        assert_matches(depth_scan_forest, c.graph, c.colour)

    @pytest.mark.parametrize("name", sorted(PLANTED_BUILDS))
    def test_matches_the_previous_array_scan_on_constructions(self, name):
        c = PLANTED_BUILDS[name]().coloured
        assert_matches(depth_scan_forest, c.graph, c.colour)
        for graph, colours in planted_copies(PLANTED_BUILDS[name], range(12)):
            assert_matches(depth_scan_forest, graph, colours)

    def test_colliding_keys_on_constructions(self):
        def build():
            return build_binary_tree_8(complete_dary_tree(2, 3))

        c = build().coloured
        with mock.patch.object(verifier, "_hash_weights", colliding_weights):
            assert_matches(scalar_scan_forest, c.graph, c.colour)
            for graph, colours in planted_copies(build, range(6)):
                assert_matches(scalar_scan_forest, graph, colours)

    def test_counterexample_order(self):
        # 0-1-2-3 with 1-4-5-6-7 and 1-8: vertex 1 has degree 3
        edges = ((0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (5, 6), (6, 7), (1, 8))
        g = BaseGraph(9, edges)
        # 1 2 1 2 on 0-1-2-3 and 3 4 3 4 on 4-5-6-7: both 4-vertex anagrams,
        # centred on (1, 2) and (5, 6); vertex 8 repeats vertex 0's colour,
        # so the smaller end vertex 0 is taken on 1's side
        c = ColouredGraph(g, (1, 2, 1, 2, 3, 4, 3, 4, 1))
        assert find_anagram(c).counterexample.vertices == (0, 1, 2, 3)
        # 5 and 6 share a colour, and so do 6 and 7: the shortest anagram
        # wins over the earlier centre edge, then the smaller centre edge
        c = ColouredGraph(g, (1, 2, 1, 2, 3, 4, 4, 4, 1))
        assert find_anagram(c).counterexample.vertices == (5, 6)
        # centre (0, 1) with three 3-vertex halves leaving 0 and two leaving
        # 1; the shortest anagrams have 6 vertices and all use this edge
        edges = ((0, 1), (0, 2), (0, 3), (0, 10), (1, 4), (1, 5), (2, 6), (3, 7), (4, 8), (5, 9), (10, 11))
        c = ColouredGraph(BaseGraph(12, edges), (0, 3, 4, 3, 4, 1, 3, 1, 0, 0, 1, 3))
        # shared multisets {0, 3, 4} (0-2-6 with 1-4-8) and {0, 1, 3} (0-3-7
        # and 0-10-11 with 1-5-9): {0, 1, 3} has the smaller signature, since
        # its largest colour ranks lower, and 7 is its smaller end on 0's side
        ce = find_anagram(c).counterexample
        assert (ce.vertices, ce.split, ce.multiset) == ((7, 3, 0, 1, 5, 9), 3, ((0, 1), (1, 1), (3, 1)))
        assert first_anagrams(c) == (6, (0, 1))

    @pytest.mark.parametrize(
        "build,halves",
        [
            (lambda: build_binary_tree_8(complete_dary_tree(2, 5)), 54_716),
            (lambda: build_binary_tree_8(complete_dary_tree(2, 6)), 515_874),
            (lambda: build_dary_tree_10(3, 3), 61_809),
            (lambda: build_dary_tree_10(2, 5), 568_808),
        ],
        ids=["binary-tree-h5", "binary-tree-h6", "dary-3-3", "dary-2-5"],
    )
    def test_half_path_pins(self, build, halves):
        c = build().coloured
        with pytest.raises(WindowCeilingExceeded) as exc:
            find_anagram(c, max_windows=halves - 1)
        assert (exc.value.windows, exc.value.steps, exc.value.unit) == (halves, None, "half-paths")
        assert f"more than {halves - 1} half-paths (reached {halves})" in str(exc.value)
        report = find_anagram(c, max_windows=halves)
        assert (report.outcome, report.paths_checked, report.mode) == ("anagram_free", halves, "exhaustive")

    @given(subdivided_forests())
    @settings(max_examples=150, deadline=None)
    def test_subdivided_forests_match_both_oracles(self, c):
        assert_matches(scalar_scan_forest, c.graph, c.colour)
        assert_matches(depth_scan_forest, c.graph, c.colour)

    @given(subdivided_forests(max_divisions=6))
    @settings(max_examples=60, deadline=None)
    def test_colliding_keys_on_subdivided_forests(self, c):
        with mock.patch.object(verifier, "_hash_weights", colliding_weights):
            assert_matches(scalar_scan_forest, c.graph, c.colour)
            assert_matches(depth_scan_forest, c.graph, c.colour)

    def test_planted_anagram_at_every_depth(self):
        # binary-tree h=4 is scanned to depth 40.  Along a longest path,
        # centred on its middle, L new colours painted twice over, in the
        # same order, are an anagram of half-length L, and every other
        # anagram would need a colour the tree had: so the shortest anagram
        # is the planted one, for L = 1 .. 40, at every offset of the blocks
        c = build_binary_tree_8(complete_dary_tree(2, 4)).coloured
        adj = c.graph.adjacency
        assert depth_scan_forest(adj, c.colour, None).paths_checked == 5646
        ends = [0]
        for _ in range(2):  # the far end of a far end is a longest path's end
            parent = {ends[-1]: None}
            order = [ends[-1]]
            for v in order:
                for w in adj[v]:
                    if w not in parent:
                        parent[w] = v
                        order.append(w)
            ends.append(order[-1])
        path = [ends[-1]]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        assert len(path) == 81
        for half in range(1, 41):
            colours = list(c.colour)
            for i, v in enumerate(path[40 - half : 40 + half]):
                colours[v] = 8 + i % half
            ce = verifier._scan_forest(c.graph, tuple(colours), None).counterexample
            assert (ce.split, set(ce.vertices)) == (half, set(path[40 - half : 40 + half]))
            assert_matches(depth_scan_forest, c.graph, tuple(colours))

    def test_ceilings_inside_the_blocks(self):
        # a ceiling trips at the first depth whose running count passes it,
        # wherever that depth falls in its round's block
        for build in (PLANTED_BUILDS["binary-tree-h5"], lambda: build_binary_tree_8(complete_dary_tree(2, 4))):
            c = build().coloured
            count = depth_scan_forest(c.graph.adjacency, c.colour, None).paths_checked
            assert_matches(depth_scan_forest, c.graph, c.colour, range(0, count, count // 97))

    def test_star_and_complete_tree_keep_a_one_step_table(self):
        # a 200-leaf star's first step already holds 39,800 walks; the
        # complete binary tree of height 11 has 12,278 one-step walks, which
        # multiply at every step, so a second step would pass
        # _BLOCK_ELEMENTS.  Both scans go past depth 1.
        star = subdivide(BaseGraph(201, tuple((0, leaf) for leaf in range(1, 201))), [0] * 200)
        colours = (0,) + tuple(1 + leaf % 3 for leaf in range(200))
        tree = subdivide(tree_to_base_graph(complete_dary_tree(2, 11)), [0] * 4094)
        by_depth = tuple(words.keranen_symbols(12)[(v + 1).bit_length() - 1] for v in range(4095))
        for graph, colours in ((star, colours), (tree, by_depth)):
            assert walk_steps(graph, colours)[1] == [1]
            assert_matches(depth_scan_forest, graph, colours)
        # on a subdivided tree the table does grow
        c = build_binary_tree_8(complete_dary_tree(2, 4)).coloured
        assert walk_steps(c.graph, c.colour)[1] == [8]

    def test_find_anagram_leaves_the_adjacency_unbuilt(self):
        # the forest scan reads the base graph and the division runs, on a
        # verdict and on a counterexample found past depth 1
        text = to_json_str(build_binary_tree_8(complete_dary_tree(2, 3)).coloured)
        cs = from_json_str(text)
        assert find_anagram(cs).outcome == "anagram_free"
        assert "adjacency" not in cs.graph.__dict__
        run = cs.graph.division_paths[0]
        colour = list(cs.colour)
        colour[run[2]], colour[run[3]] = colour[run[0]], colour[run[1]]
        planted = from_json_str(to_json_str(coloured_subdivision(cs.graph, colour, cs.provenance)))
        ce = find_anagram(planted).counterexample
        assert ce.split == 2 and revalidate(ce, planted)
        assert "adjacency" not in planted.graph.__dict__


class TestFindAnagram:
    def test_alternating_square(self):
        report = find_anagram(coloured_path([1, 2, 1, 2]))
        assert report.outcome == "counterexample"
        assert report.counterexample.vertices == (0, 1, 2, 3)

    def test_odd_palindrome_is_fine(self):
        report = find_anagram(coloured_path([1, 2, 1]))
        assert report.outcome == "anagram_free"
        assert report.paths_checked == 1

    def test_counterexample_revalidates(self):
        c = coloured_path([3, 1, 2, 2, 1, 3])
        report = find_anagram(c)
        assert report.outcome == "counterexample"
        assert revalidate(report.counterexample, c)

    @pytest.mark.parametrize(
        "colours,vertices,split,multiset",
        [
            ([1, 2, 2, 1], (0, 1, 2, 3), 1, ((1, 1),)),  # split is not half the length
            ([1, 2, 1, 1], (0, 1, 2, 3), 2, ((1, 1), (2, 1))),  # halves differ
            ([1, 2, 2, 1], (0, 1, 2, 3), 2, ((1, 2),)),  # recorded multiset is wrong
            ([1, 2, 2, 1], (0, 1, 0, 1), 2, ((1, 1), (2, 1))),  # a vertex repeats
            ([1, 2, 2, 1], (0, 1, 3, 2), 2, ((1, 1), (2, 1))),  # 1 and 3 are not adjacent
        ],
        ids=["split", "halves", "multiset", "repeat", "gap"],
    )
    def test_revalidate_rejects_forged_counterexamples(self, colours, vertices, split, multiset):
        genuine = Counterexample((0, 1, 2, 3), 2, ((1, 1), (2, 1)))
        assert revalidate(genuine, coloured_path([1, 2, 2, 1]))
        assert not revalidate(Counterexample(vertices, split, multiset), coloured_path(colours))

    @pytest.mark.parametrize("seed", range(40))
    def test_subdivision_steps_match_the_adjacency(self, seed):
        # every ordered pair, so reversed and non-adjacent pairs too, and ids
        # just outside the graph, as a two-vertex counterexample on a
        # one-colour copy: revalidate refuses an id outside the graph before
        # _joined reads the step
        rng = random.Random(seed)
        n0 = rng.randint(1, 7)
        edges = tuple((u, v) for u, v in itertools.combinations(range(n0), 2) if rng.random() < 0.5)
        g = subdivide(BaseGraph(n0, edges), [rng.choice((0, 0, 1, 2, 3)) for _ in edges])
        n = g.vertex_count
        adj = g.flatten().adjacency
        one_colour = ColouredSubdivision(g, (0,) * n, (0,))
        for a, b in itertools.product(range(-1, n + 1), repeat=2):
            ce = Counterexample((a, b), 1, ((0, 1),))
            assert revalidate(ce, one_colour) == (0 <= a < n and 0 <= b < n and b in adj[a]), (a, b)

    @pytest.mark.parametrize("c", [
        ColouredGraph(path_graph(3), (0, 1, 1)),
        coloured_subdivision(subdivide(path_graph(2), [1]), (0, 1, 1), {}),
    ], ids=["graph", "subdivision"])
    def test_revalidate_refuses_ids_outside_the_graph(self, c):
        # vertices 1 and 2 share colour 1 and are adjacent in both; vertex -1
        # would index vertex 2's colour, and vertex 3 has none
        assert revalidate(Counterexample((1, 2), 1, ((1, 1),)), c)
        for vertices in ((-1, 1), (1, -1), (3, 2), (2, 3)):
            assert not revalidate(Counterexample(vertices, 1, ((1, 1),)), c)

    @pytest.mark.parametrize("c", [
        ColouredGraph(path_graph(3), (0, 1, 1)),
        coloured_subdivision(subdivide(path_graph(2), [1]), (0, 1, 1), {}),
    ], ids=["graph", "subdivision"])
    def test_revalidate_refuses_an_empty_counterexample(self, c):
        # its two halves share the empty multiset, but no anagram is empty
        assert not revalidate(Counterexample((), 0, ()), c)
        assert revalidate(Counterexample((1, 2), 1, ((1, 1),)), c)

    def test_revalidate_leaves_the_adjacency_unbuilt(self):
        # planted: a base vertex and the first two vertices of its division
        # run share a colour; the first is its neighbour, the second is not
        cs = colour_14(path_graph(2)).coloured
        u, first = cs.graph.base.edges[0][0], cs.graph.division_paths[0][0]
        colour = list(cs.colour)
        colour[first] = colour[first + 1] = colour[u]
        planted = from_json_str(to_json_str(coloured_subdivision(cs.graph, colour, cs.provenance)))
        assert revalidate(Counterexample.of((u, first), 1, planted.colour), planted)
        assert not revalidate(Counterexample.of((u, first + 1), 1, planted.colour), planted)
        assert "adjacency" not in planted.graph.__dict__

    def test_deterministic_counterexample(self):
        c = coloured_path([1, 1, 2, 2, 1, 1])
        first = find_anagram(c).counterexample
        second = find_anagram(c).counterexample
        assert first == second
        assert first.vertices == (0, 1)  # canonical (start, length) order

    def test_window_ceiling(self):
        c = coloured_path(words.keranen_symbols(60))
        with pytest.raises(WindowCeilingExceeded):
            find_anagram(c, max_windows=10)
        assert find_anagram(c, max_windows=None).outcome == "anagram_free"

    def test_ceiling_message_names_the_unit_that_tripped(self):
        # K_4 with two leaves on vertex 0 has 6 vertices, so a ceiling of 2
        # caps the DFS at 6 + 4 * 2 = 14 steps; the 15th comes before the
        # first maximal path, though a full scan needs 98 windows
        edges = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (0, 5))
        c = ColouredGraph(BaseGraph(6, edges), tuple(range(6)))
        with pytest.raises(WindowCeilingExceeded) as steps:
            find_anagram(c, max_windows=2)
        assert "more than 14 path-enumeration DFS steps (reached 15 after 0 path-windows)" in str(steps.value)
        assert (steps.value.windows, steps.value.ceiling, steps.value.steps) == (0, 14, 15)
        with pytest.raises(WindowCeilingExceeded) as windows:
            find_anagram(c, max_windows=97)
        assert (windows.value.windows, windows.value.steps) == (98, None)
        assert find_anagram(c, max_windows=98).outcome == "anagram_free"
        # a spider with three 20-vertex legs is a forest: it trips on the
        # 120 half-paths of its 60 edges' first layer
        with pytest.raises(WindowCeilingExceeded) as windows:
            find_anagram(spider(3, 20), max_windows=10)
        assert "more than 10 half-paths (reached 120)" in str(windows.value)
        assert (windows.value.windows, windows.value.steps) == (120, None)
        # a path has maximum degree 2, so it takes no DFS steps: its 60
        # vertices trip on their 900 windows
        c = coloured_path(words.keranen_symbols(60))
        with pytest.raises(WindowCeilingExceeded) as windows:
            find_anagram(c, max_windows=10)
        assert "more than 10 path-windows (reached 900)" in str(windows.value)
        assert (windows.value.windows, windows.value.steps) == (900, None)
        # 8 vertices give 16 windows
        c = coloured_path(words.keranen_symbols(8))
        with pytest.raises(WindowCeilingExceeded) as windows:
            find_anagram(c, max_windows=10)
        assert "more than 10 path-windows (reached 16)" in str(windows.value)
        assert (windows.value.windows, windows.value.steps) == (16, None)

    @pytest.mark.parametrize("seed", range(40))
    def test_step_cap_never_trips_within_the_window_ceiling(self, seed):
        # distinct colours make every graph anagram-free, so the scan is
        # complete; a ceiling equal to its window count must then decide.
        # A forest off max degree 2 is scanned in half-paths and takes no
        # DFS steps: its own count decides and one less trips.
        g = seeded_instance(seed).graph.base
        c = ColouredGraph(g, tuple(range(g.vertex_count)))
        if max(map(len, g.adjacency)) > 2 and g.is_forest:
            halves = find_anagram(c, max_windows=None).paths_checked
            assert find_anagram(c, max_windows=halves).outcome == "anagram_free"
            with pytest.raises(WindowCeilingExceeded):
                find_anagram(c, max_windows=halves - 1)
            return
        paths = list(enumerate_maximal_simple_paths(g))
        windows = sum(len(p) // 2 * (len(p) - len(p) // 2) for p in paths)
        assert find_anagram(c, max_windows=windows).outcome == "anagram_free"

    @pytest.mark.parametrize("seed", range(40))
    def test_agrees_with_naive_oracle(self, seed):
        c = seeded_instance(seed)
        assert find_anagram(c).outcome == naive_find_anagram(c).outcome

    @pytest.mark.parametrize("h", [2, 3])
    def test_naive_oracle_confirms_tree_construction(self, h):
        # the 8-colour construction is small enough (<= 60 vertices) for the
        # brute-force oracle to certify directly
        from afsub.graph_model import complete_dary_tree
        from afsub.tree_constructions import build_binary_tree_8

        cs = build_binary_tree_8(complete_dary_tree(2, h)).coloured
        assert cs.graph.vertex_count <= 60
        assert naive_find_anagram(cs).outcome == "anagram_free"
        assert find_anagram(cs).outcome == "anagram_free"

    @pytest.mark.parametrize("seed", range(20))
    def test_soundness_of_counterexamples(self, seed):
        c = seeded_instance(1000 + seed)
        report = find_anagram(c)
        if report.outcome == "counterexample":
            assert revalidate(report.counterexample, c)


@st.composite
def coloured_subdivisions(draw):
    """A subdivision of a random graph on up to 7 vertices, each edge
    divided 0 to 3 times, coloured from up to 3 colours."""
    n = draw(st.integers(1, 7))
    possible = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=n + 1)) if possible else []
    s = subdivide(BaseGraph(n, tuple(edges)), draw(st.lists(st.integers(0, 3), min_size=len(edges),
                                                             max_size=len(edges))))
    colours = tuple(draw(st.lists(st.integers(0, 2), min_size=s.vertex_count, max_size=s.vertex_count)))
    return ColouredSubdivision(s, colours, tuple(sorted(set(colours))))


class TestBaseGraphDispatch:
    """A subdivision answers is_forest and max_degree_2 from its base graph,
    a plain graph from itself."""

    @given(coloured_subdivisions())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_the_flattened_graph(self, cs):
        flat = cs.graph.flatten()
        assert cs.graph.max_degree_2 == flat.max_degree_2 == all(len(ns) <= 2 for ns in flat.adjacency)
        assert cs.graph.is_forest == flat.is_forest
        plain = ColouredGraph(flat, cs.colour)
        report = find_anagram(cs)
        assert report == find_anagram(plain)
        sampled = find_anagram_sampled(cs, 5, 3)
        assert sampled == find_anagram_sampled(plain, 5, 3)
        assert check_restriction(cs, cs.palette) == check_restriction(plain, cs.palette)
        naive = naive_find_anagram(cs)
        assert naive == naive_find_anagram(plain)
        assert report.outcome == naive.outcome
        if report.counterexample is not None:
            assert revalidate(report.counterexample, cs) and revalidate(report.counterexample, plain)

    def test_other_types_are_refused(self):
        with pytest.raises(AttributeError):
            find_anagram(path_graph(3))

    @given(coloured_subdivisions())
    @settings(max_examples=150, deadline=None)
    def test_maximal_paths_agree_with_the_flattened_graph(self, cs):
        flat = cs.graph.flatten()
        assert list(enumerate_maximal_simple_paths(cs.graph)) == list(enumerate_maximal_simple_paths(flat))


class TestFindAnagramSampled:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            find_anagram_sampled(coloured_path([1, 2]), 0, 1)

    def test_planted_square_in_long_path(self):
        # calibration: a short square planted mid-path is found under every seed
        colours = list(words.keranen_symbols(1000))
        colours[500:504] = [4, 5, 4, 5]
        c = ColouredGraph(path_graph(1000), tuple(colours))
        found = sum(
            find_anagram_sampled(c, 100_000, seed).outcome == "counterexample"
            for seed in range(100)
        )
        assert found >= 99

    def test_sampled_counterexample_revalidates(self):
        colours = list(words.keranen_symbols(300))
        colours[200:204] = [4, 5, 4, 5]
        c = ColouredGraph(path_graph(300), tuple(colours))
        report = find_anagram_sampled(c, 1000, 7)
        assert report.outcome == "counterexample"
        assert revalidate(report.counterexample, c)

    def test_no_counterexample_on_sound_construction(self):
        from afsub.graph_constructions import colour_8

        c8 = colour_8(path_graph(3))
        report = find_anagram_sampled(c8.coloured, 100_000, 5)
        assert report.outcome == "anagram_free"

    def test_branching_graph_walks(self):
        # star graph exercises the general random-walk branch; leaf 5 shares
        # the centre's colour, so the edge 0-5 is a two-vertex anagram
        g = BaseGraph(6, ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5)))
        c = ColouredGraph(g, (1, 2, 2, 3, 4, 1))
        report = find_anagram_sampled(c, 2000, 3)
        assert report.outcome == "counterexample"
        assert revalidate(report.counterexample, c)

    @staticmethod
    def paw_and_planted():
        """graph14 of the paw, and its copy with division vertex 101 of base
        edge 6 given the colour of vertex 100: vertices 297, 298 and 299
        then share colour 7."""
        cs = colour_14(BaseGraph(4, ((0, 1), (1, 2), (0, 2), (2, 3)))).coloured
        run = cs.graph.division_paths[6]
        colour = list(cs.colour)
        colour[run[101]] = colour[run[100]]
        return cs, coloured_subdivision(cs.graph, colour, cs.provenance)

    def test_planted_paw_reports_are_pinned(self):
        # the walks of the 20 seeds end on either side of the planted
        # vertex 298, so a backward extension read in the wrong order would
        # move the counterexample
        _, planted = self.paw_and_planted()
        after = {2, 3, 5, 7, 9, 11, 12, 15, 17}  # the seeds that end at (299, 298)
        for seed in range(1, 21):
            report = find_anagram_sampled(planted, 40, seed)
            ce = report.counterexample
            assert (ce.vertices, ce.split, ce.multiset) == ((299, 298) if seed in after else (297, 298), 1, ((7, 1),))
            assert (report.paths_checked, report.mode) == (2 if seed == 2 else 1, f"sampled(budget=40,seed={seed})")

    def test_repeated_walks_are_scanned_again_with_the_same_reports(self):
        # the walks of these runs repeat; reports taken before the sampler
        # stopped skipping repeats.  A repeat was anagram-free when first
        # scanned, so scanning it again changes no report
        paw, planted = self.paw_and_planted()
        star = ColouredGraph(BaseGraph(6, ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5))), (1, 2, 2, 3, 4, 1))
        scanned = []
        path_anagram = verifier._path_anagram

        def recorded(path, colours, **order):
            scanned.append(min(tuple(path), tuple(path[::-1])))
            return path_anagram(path, colours, **order)

        cases = [
            (planted, 300, 1, ("counterexample", (297, 298), 1), 1, 1),
            (paw, 300, 1, ("anagram_free", None, 300), 300, 39),
            (star, 2000, 4, ("counterexample", (5, 0), 12), 12, 9),
            (star, 2000, 8, ("counterexample", (0, 5), 7), 7, 6),
        ]
        with mock.patch.object(verifier, "_path_anagram", recorded):
            for c, budget, seed, expected, scans, distinct in cases:
                scanned.clear()
                report = find_anagram_sampled(c, budget, seed)
                ce = report.counterexample
                assert (report.outcome, ce and ce.vertices, report.paths_checked) == expected
                assert report.mode == f"sampled(budget={budget},seed={seed})"
                assert (len(scanned), len(set(scanned))) == (scans, distinct)

    def test_deterministic_per_seed(self):
        c = seeded_instance(77)
        a = find_anagram_sampled(c, 500, 9)
        b = find_anagram_sampled(c, 500, 9)
        assert (a.outcome, a.counterexample) == (b.outcome, b.counterexample)


class TestCheckRestriction:
    def test_forward_witness(self):
        # restriction of an anagram to one colour is an anagram
        report = check_restriction(coloured_path([1, 2, 1, 2]), {1})
        assert report.outcome == "counterexample"
        assert report.counterexample.vertices == (0, 2)

    def test_empty_keep_is_refused(self):
        # an empty restriction is empty on every path, so it certifies
        # nothing, even on a path that is itself an anagram
        for keep in (set(), [], ()):
            with pytest.raises(ValueError, match="empty"):
                check_restriction(coloured_path([1, 2, 1, 2]), keep)

    def test_rejects_colours_outside_palette(self):
        with pytest.raises(ValueError):
            check_restriction(coloured_path([1, 2]), {9})

    def test_window_ceiling(self):
        c = coloured_path(words.keranen_symbols(60))
        with pytest.raises(WindowCeilingExceeded):
            check_restriction(c, {0, 1, 2, 3}, max_windows=10)
        # windows are counted on the restricted word: all 8 vertices of
        # 0120 2321 give 16 windows, the three 2s only 2
        c = coloured_path(words.keranen_symbols(8))
        with pytest.raises(WindowCeilingExceeded) as full:
            check_restriction(c, {0, 1, 2, 3}, max_windows=10)
        assert (full.value.windows, full.value.steps) == (16, None)
        report = check_restriction(c, {2}, max_windows=10)
        assert report.counterexample.vertices == (2, 4)

    def test_full_palette_restriction_certifies(self):
        sym = words.keranen_symbols(40)
        report = check_restriction(coloured_path(sym), {0, 1, 2, 3})
        assert report.outcome == "anagram_free"

    @pytest.mark.parametrize("seed", range(25))
    def test_monotone_refutation(self, seed):
        # a window whose restriction is non-empty and anagram-free is no anagram
        rng = random.Random(seed)
        colours = [rng.randrange(4) for _ in range(rng.randrange(4, 14))]
        keep = set(rng.sample(range(4), rng.randrange(1, 4)))
        n = len(colours)
        for i in range(n):
            for L in range(1, (n - i) // 2 + 1):
                window = colours[i : i + 2 * L]
                reduced = [c for c in window if c in keep]
                if reduced and words.find_abelian_square(reduced) is None:
                    assert not is_anagram(window)


GALLERY_GRAPHS = {
    "P2": path_graph(2),
    "P3": path_graph(3),
    "K3": complete_graph(3),
    "C4": cycle_graph(4),
    "K4": complete_graph(4),
    "paw": BaseGraph(4, ((0, 1), (1, 2), (0, 2), (2, 3))),
}
# graph14 and graph-merged (k = 1, 2) of every gallery graph, graph8 of the
# two it can build at test scale
GALLERY_AUDITS = (
    *(f"graph14-{g}" for g in GALLERY_GRAPHS),
    *(f"merged{k}-{g}" for k in (1, 2) for g in GALLERY_GRAPHS if len(GALLERY_GRAPHS[g].edges) >= k),
    "graph8-P2",
    "graph8-P3",
)


@functools.cache
def gallery_audit(name):
    """The construction a gallery audit name stands for, built once."""
    kind, graph = name.split("-")
    g = GALLERY_GRAPHS[graph]
    if kind.startswith("merged"):
        return colour_merged(g, int(kind[len("merged") :]))
    return {"graph14": colour_14, "graph8": colour_8}[kind](g)


def assert_same_audit(s, labels, colours):
    """check_discriminating against the scanning oracle; returns its report."""
    report = check_discriminating(s, labels, colours)
    oracle = scanned_check_discriminating(s, labels, colours)
    assert report.witnesses == oracle.witnesses
    assert report.exclusive_colours == oracle.exclusive_colours
    return report


@st.composite
def near_keranen_words(draw):
    """A word of 3t colours read from a reference, either the Keränen prefix
    of length 3t or three blocks of the prefix of length t over symbols
    0-3, 4-7 and 8-11, each symbol coloured by one of its own colours.
    Merged blocks share their colours, so the blocks are not disjoint, and
    an edit moves one position to a fresh colour or another symbol's."""
    t = draw(st.integers(1, 1000))
    blocks, merged = draw(st.booleans()), draw(st.booleans())
    if blocks:
        reference = [4 * q * (not merged) + sym for q in range(3) for sym in words.keranen_symbols(t)]
    else:
        reference = words.keranen_symbols(3 * t)
    width = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    colours = [2 + width * sym + rng.randrange(width) for sym in reference]
    edit = draw(st.sampled_from(("none", "fresh", "symbol")))
    if edit != "none":
        j = draw(st.integers(0, 3 * t - 1))
        if edit == "fresh":
            colours[j] = 2 + width * 12
        else:
            sym = draw(st.sampled_from([x for x in range(12 if blocks and not merged else 4) if x != reference[j]]))
            colours[j] = 2 + width * sym + rng.randrange(width)
    return colours


class TestCheckDiscriminating:
    def test_sound_construction_passes(self):
        c = colour_14(path_graph(2))
        report = check_discriminating(c.coloured.graph, c.labels, c.coloured.colour)
        assert report.conditions == (True, True, True, True)
        assert report.passed
        # short prefixes only realise the first symbols of the X block
        assert report.exclusive_colours["X"] == {2, 3}

    def test_monochromatic_division_paths_fail_condition_2(self):
        c = colour_14(path_graph(2))
        colours = list(c.coloured.colour)
        for path in c.coloured.graph.division_paths:
            for v in path:
                colours[v] = 5
        report = check_discriminating(c.coloured.graph, c.labels, colours)
        assert not report.conditions[1]
        assert not report.passed
        # neither test recognises a monochromatic word, so the first is scanned
        assert report.scanned == (0,)
        assert report.witnesses[2] == ("division path of edge carries an anagram", 0, (0, 2))

    def test_constant_sequence_fails_condition_4(self):
        # three-edge bipartite path with t = (1, 1, 1): later thirds cannot
        # outgrow the accumulated earlier ones
        g = path_graph(4)
        bipartition = (0, 1, 0, 1)
        s, labels = build_sequence_subdivision(g, bipartition, (1, 1, 1))
        colours = [0] * s.vertex_count
        for v in range(4):
            colours[v] = bipartition[v]
        for i in range(3):
            x, y, z = consecutive_thirds(oriented_division_path(s, labels, i))
            colours[x[0]], colours[y[0]], colours[z[0]] = 2, 3, 4
        report = check_discriminating(s, labels, colours)
        assert report.conditions[0] and report.conditions[1] and report.conditions[2]
        assert not report.conditions[3]

    def test_bipartition_of_the_wrong_length_raises(self):
        c = colour_14(path_graph(2))
        labels = c.labels[:-1]
        with pytest.raises(ValueError, match="do not describe"):
            check_discriminating(c.coloured.graph, labels, c.coloured.colour)

    @pytest.mark.parametrize("labels", [(0, 0, 0, 2, 2), (7, 0, 0, 1, 1)])
    def test_labels_other_than_0_and_1_raise(self, labels):
        # with no white class, condition 1 would never reserve colour 1
        c = colour_14(path_graph(3))
        with pytest.raises(ValueError, match=r"bipartition must assign 0 \(black\) or 1 \(white\) to every vertex"):
            check_discriminating(c.coloured.graph, labels, c.coloured.colour)

    @pytest.mark.parametrize("cut", [-1, 1])
    def test_colouring_of_the_wrong_length_raises(self, cut):
        c = colour_14(path_graph(2))
        colours = c.coloured.colour[:-1] if cut < 0 else c.coloured.colour + (2,)
        with pytest.raises(ValueError, match="colouring does not cover"):
            check_discriminating(c.coloured.graph, c.labels, colours)

    @pytest.mark.parametrize("name", GALLERY_AUDITS)
    def test_gallery_is_recognised_and_matches_the_oracle(self, name):
        c = gallery_audit(name)
        report = assert_same_audit(c.coloured.graph, c.labels, c.coloured.colour)
        assert report.scanned == ()
        assert report.conditions[:3] == (True, True, True)

    @given(st.sampled_from(GALLERY_AUDITS), st.sampled_from(("recolour", "flip", "swap")), st.data())
    @settings(max_examples=200, deadline=None)
    def test_mutations_match_the_oracle(self, name, kind, data):
        c = gallery_audit(name)
        s, labels, colours = c.coloured.graph, c.labels, list(c.coloured.colour)
        n0, m = s.base.vertex_count, len(s.base.edges)
        if kind == "recolour":  # one division vertex to any palette colour
            moved = [data.draw(st.integers(n0, s.vertex_count - 1))]
            colours[moved[0]] = data.draw(st.sampled_from(c.coloured.palette))
        elif kind == "flip":  # one original to the other class's colour
            colours[data.draw(st.integers(0, n0 - 1))] ^= 1
            moved = []
        else:  # two division vertices of different families swap colours
            q, r = data.draw(st.permutations(range(3)))[:2]
            moved = []
            for family in (q, r):
                third = consecutive_thirds(oriented_division_path(s, labels, data.draw(st.integers(0, m - 1))))[family]
                moved.append(third[data.draw(st.integers(0, len(third) - 1))])
            colours[moved[0]], colours[moved[1]] = colours[moved[1]], colours[moved[0]]
        report = assert_same_audit(s, labels, colours)
        # a mutated path that recognition still accepts has no anagram
        stop = report.witnesses[2][1] if 2 in report.witnesses else m
        for i in {i for i, run in enumerate(s.division_paths) for v in moved if v in run}:
            if i < stop and i not in report.scanned:
                assert words.find_abelian_square([colours[v] for v in s.division_paths[i]]) is None

    @given(near_keranen_words())
    @settings(max_examples=200, deadline=None)
    def test_recognised_words_have_no_abelian_square(self, colours):
        # one edge, read from its white end 0: the word is its division path
        s = subdivide(path_graph(2), [len(colours)])
        report = check_discriminating(s, (1, 0), [1, 0, *colours])
        hit = words.find_abelian_square(colours)
        if report.scanned == ():
            assert hit is None
        assert (2 in report.witnesses) == (hit is not None)

    def test_path_length_not_a_multiple_of_3_raises(self):
        # the builder gives every edge 3 * t division vertices
        s = subdivide(path_graph(2), [4])
        labels = (0, 1)
        colours = [0, 1] + [2, 3, 2, 4]
        with pytest.raises(ValueError, match="division path of edge 0 has 4 vertices"):
            check_discriminating(s, labels, colours)

    def test_reused_original_colour_fails_condition_1(self):
        c = colour_14(path_graph(2))
        colours = list(c.coloured.colour)
        colours[c.coloured.graph.division_paths[0][0]] = 0  # black on a division vertex
        report = check_discriminating(c.coloured.graph, c.labels, colours)
        assert not report.conditions[0]

    def test_shared_division_colours_fail_condition_3(self):
        c = colour_14(path_graph(2))
        colours = list(c.coloured.colour)
        # recolour every division vertex from the X block into the Y block
        for path in c.coloured.graph.division_paths:
            for v in path:
                if colours[v] in (2, 3, 4, 5):
                    colours[v] = colours[v] + 4
        report = check_discriminating(c.coloured.graph, c.labels, colours)
        assert not report.conditions[2]
