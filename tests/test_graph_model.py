import bisect
import itertools
import operator
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afsub import graph_model
from afsub.graph_constructions import colour_14
from afsub.graph_model import (
    BaseGraph,
    ColouredGraph,
    RootedTree,
    StepBudgetExceeded,
    SubdividedGraph,
    _adjacency,
    coloured_subdivision,
    complete_dary_tree,
    complete_graph,
    cycle_graph,
    enumerate_maximal_simple_paths,
    k_subdivision,
    one_subdivision,
    path_graph,
    random_binary_tree,
    subdivide,
    tree_to_base_graph,
)
from oracles import (
    adjacency_is_forest,
    adjacency_max_degree_2,
    leaves,
    level_loop_children,
    maximal_paths_by_frames,
    parent_map_tree,
    root_path,
)


def enumerate_simple_paths(g):
    """Every simple path with >= 1 vertex, once up to reversal, ordered
    lexicographically by (first endpoint, last endpoint, full sequence).
    Exponential; the oracle for the maximal-path enumeration."""
    adj = g.adjacency
    out = [(v,) for v in range(len(adj))]
    path = []

    def dfs(v):
        path.append(v)
        if len(path) >= 2 and tuple(path) <= tuple(path[::-1]):
            out.append(tuple(path))
        for w in adj[v]:
            if w not in path:
                dfs(w)
        path.pop()

    for start in range(len(adj)):
        dfs(start)
    return sorted(out, key=lambda p: (p[0], p[-1], p))


def contracted(s):
    """Recover the base graph from the flat adjacency by contracting the
    degree-2 division chains; the oracle for subdivide."""
    adj = s.adjacency
    n0 = s.base.vertex_count
    edges = set()
    for u in range(n0):
        for first in adj[u]:
            prev, cur = u, first
            while cur >= n0:
                nxt = [w for w in adj[cur] if w != prev]
                assert len(nxt) == 1, f"division vertex {cur} does not have degree 2"
                prev, cur = cur, nxt[0]
            edges.add((min(u, cur), max(u, cur)))
    return BaseGraph(n0, tuple(sorted(edges)))


@st.composite
def sparse_graphs(draw, max_vertices=9):
    n = draw(st.integers(2, max_vertices))
    possible = list(itertools.combinations(range(n), 2))
    m = draw(st.integers(0, min(len(possible), n + 2)))
    edges = draw(st.permutations(possible).map(lambda p: tuple(p[:m])))
    return BaseGraph(n, edges)


@st.composite
def walker_graphs(draw):
    """A sparse graph on up to 7 vertices, with cycles and branch vertices
    as drawn, left plain or with each edge divided 0 to 3 times."""
    g = draw(sparse_graphs(max_vertices=7))
    if draw(st.booleans()):
        return g
    return subdivide(g, draw(st.lists(st.integers(0, 3), min_size=len(g.edges), max_size=len(g.edges))))


@st.composite
def child_lists(draw):
    """Child lists and a root: a random tree on 1..7 vertices, either kept
    or given one defect (a repeated child, the root listed as a child, a
    cycle, an unreached vertex, an id out of range, a child renamed to its
    negative alias id - n), or arbitrary lists of small ids."""
    defect = draw(st.sampled_from(["none", "none", "repeat", "root", "cycle", "unreached", "range", "negative",
                                   "arbitrary"]))
    if defect == "arbitrary":
        n = draw(st.integers(0, 5))
        lists = draw(st.lists(st.lists(st.integers(-2, n + 1), max_size=3), min_size=n, max_size=n))
        return lists, draw(st.integers(-1, n))
    n = draw(st.integers(1, 7))
    order = draw(st.permutations(range(n)))
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(1, n):
        children[order[draw(st.integers(0, i - 1))]].append(order[i])
    root, inner = order[0], order[1:]
    at = draw(st.integers(0, n - 1))
    if defect == "repeat" and inner:
        children[at].append(draw(st.sampled_from(inner)))
    elif defect == "root":
        children[at].append(root)
    elif defect == "cycle" and inner:
        # hang a non-root vertex under itself or one of its own descendants
        c = draw(st.sampled_from(inner))
        below = [c]
        for v in below:
            below.extend(children[v])
        next(cs for cs in children if c in cs).remove(c)
        children[draw(st.sampled_from(below))].append(c)
    elif defect == "unreached":
        children.append([])
    elif defect == "range":
        children[at].append(n + draw(st.integers(0, 2)))
    elif defect == "negative" and inner:
        c = draw(st.sampled_from(inner))
        cs = next(cs for cs in children if c in cs)
        cs[cs.index(c)] = c - n
    return [draw(st.permutations(cs)) for cs in children], root


tree_facts = operator.attrgetter("parent", "depth", "edges", "sibling_labels")


def walk_result(walk, g, budget):
    """The paths walk yields on g under step_budget=budget, and the step
    at which it trips the budget, or None if it finishes."""
    paths = []
    try:
        for path in walk(g, step_budget=budget):
            paths.append(path)
    except StepBudgetExceeded as exc:
        return paths, exc.steps
    return paths, None


def steps_taken(walk, g):
    """The DFS steps walk takes on g: the least step_budget it finishes
    within.  Each step enters a distinct directed simple path, so there are
    at most twice as many as simple paths up to reversal."""
    budgets = range(2 * len(enumerate_simple_paths(g)) + 1)
    return bisect.bisect_left(budgets, True, key=lambda b: walk_result(walk, g, b)[1] is None)


def edge_by_edge(n, edges):
    """The oracle of BaseGraph's edge check: each edge checked in turn, as
    the normalised edge tuple or the message of the first bad edge."""
    seen = []
    for u, v in edges:
        if u == v:
            return f"self-loop at vertex {u}"
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u}, {v}) outside vertex range"
        key = (min(u, v), max(u, v))
        if key in seen:
            return f"duplicate edge {key}"
        seen.append(key)
    return tuple(seen)


class TestBaseGraph:
    @given(st.integers(0, 6), st.lists(st.tuples(st.integers(-1, 7), st.integers(-1, 7)), max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_bulk_check_agrees_edge_by_edge(self, n, edges):
        # random pairs make self-loops, duplicates and out-of-range ends,
        # often several in one list, so the first bad edge must win
        try:
            outcome = BaseGraph(n, tuple(edges)).edges
        except ValueError as exc:
            outcome = str(exc)
        assert outcome == edge_by_edge(n, edges)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            BaseGraph(2, ((1, 1),))

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError):
            BaseGraph(3, ((0, 1), (1, 0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            BaseGraph(2, ((0, 2),))

    def test_normalises_orientation(self):
        g = BaseGraph(3, ((2, 0),))
        assert g.edges == ((0, 2),)

    def test_empty_graph_allowed(self):
        g = BaseGraph(0, ())
        assert g.vertex_count == 0 and g.adjacency == ()


@st.composite
def shaped_graphs(draw):
    """A disjoint union of up to five pieces, each an isolated vertex, a
    star, a cycle, a path or a random tree, with shuffled ids, edge order
    and edge orientation, and on one draw in three an extra edge between
    two drawn vertices, which may close a cycle or join two pieces."""
    pieces = draw(st.lists(st.sampled_from(["isolated", "star", "cycle", "path", "tree"]), max_size=5))
    edges: list[tuple[int, int]] = []
    n = 0
    for piece in pieces:
        size = 1 if piece == "isolated" else draw(st.integers(3 if piece == "cycle" else 2, 7))
        ids = range(n, n + size)
        if piece == "star":
            edges += [(ids[0], v) for v in ids[1:]]
        elif piece in ("cycle", "path"):
            edges += list(zip(ids, ids[1:]))
            if piece == "cycle":
                edges.append((ids[-1], ids[0]))
        elif piece == "tree":
            edges += [(ids[draw(st.integers(0, i - 1))], ids[i]) for i in range(1, size)]
        n += size
    if n >= 2 and draw(st.integers(0, 2)) == 0:
        u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        if (u, v) not in edges and (v, u) not in edges:
            edges.append((u, v))
    rename = draw(st.permutations(range(n)))
    edges = [(rename[u], rename[v]) if draw(st.booleans()) else (rename[v], rename[u]) for u, v in edges]
    return BaseGraph(n, tuple(draw(st.permutations(edges))))


def networkx_shape(g):
    """(max_degree_2, is_forest) of g by networkx; the graph on no vertices
    is a forest, which networkx refuses to decide."""
    G = nx.Graph()
    G.add_nodes_from(range(g.vertex_count))
    G.add_edges_from(g.edges)
    return max(dict(G.degree).values(), default=0) <= 2, not g.vertex_count or nx.is_forest(G)


class TestShape:
    """BaseGraph.max_degree_2 and is_forest, read from the edge list,
    against networkx and against the adjacency DFS they replaced."""

    @given(shaped_graphs() | sparse_graphs())
    @settings(max_examples=400, deadline=None)
    def test_against_networkx_and_the_adjacency_dfs(self, g):
        shape = (g.max_degree_2, g.is_forest)
        assert "adjacency" not in g.__dict__
        assert shape == networkx_shape(g)
        assert shape == (adjacency_max_degree_2(g.adjacency), adjacency_is_forest(g.adjacency))

    @pytest.mark.parametrize("g,shape", [
        (BaseGraph(0, ()), (True, True)),
        (BaseGraph(5, ()), (True, True)),  # isolated vertices only
        (BaseGraph(7, ((0, 1), (2, 3), (3, 4), (5, 6))), (True, True)),  # paths and an isolated pair
        (cycle_graph(3), (True, False)),
        (BaseGraph(7, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))), (True, False)),  # two triangles
        (BaseGraph(6, ((0, 1), (0, 2), (0, 3), (4, 5))), (False, True)),  # a star beside an edge
        (BaseGraph(5, ((0, 1), (1, 2), (0, 2), (2, 3))), (False, False)),  # the paw, with an isolated vertex
        (BaseGraph(4, ((3, 2), (2, 1), (1, 0), (0, 3))), (True, False)),  # a cycle listed backwards
        (tree_to_base_graph(complete_dary_tree(2, 5)), (False, True)),
        (complete_graph(4), (False, False)),
    ])
    def test_pins(self, g, shape):
        assert (g.max_degree_2, g.is_forest) == shape == networkx_shape(g)
        assert "adjacency" not in g.__dict__


class TestSubdivide:
    def test_zero_counts_leave_graph_unchanged(self):
        s = subdivide(path_graph(2), [0])
        assert s.vertex_count == 2
        assert s.flatten().edges == ((0, 1),)

    def test_single_edge_three_times_gives_path_of_five(self):
        s = subdivide(path_graph(2), [3])
        assert s.vertex_count == 5
        flat = s.flatten()
        degrees = [len(a) for a in flat.adjacency]
        assert sorted(degrees) == [1, 1, 2, 2, 2]

    def test_triangle_all_twice(self):
        s = subdivide(cycle_graph(3), [2, 2, 2])
        assert s.vertex_count == 9
        assert len(s.flatten().edges) == 9

    def test_counts_must_cover_every_edge(self):
        with pytest.raises(ValueError):
            subdivide(cycle_graph(3), [1, 1])

    def test_constructor_rejections_keep_their_messages(self, monkeypatch):
        g = path_graph(3)
        with pytest.raises(ValueError, match="^counts must be given for every edge$"):
            SubdividedGraph(g, (1,))
        with pytest.raises(ValueError, match="^division counts must be non-negative$"):
            SubdividedGraph(g, (2, -1))
        monkeypatch.setattr(graph_model, "MAX_VERTICES", 5)
        assert SubdividedGraph(g, (2, 3)).vertex_count == 8
        with pytest.raises(ValueError, match="^subdivision needs 6 division vertices, more than 5$"):
            SubdividedGraph(g, (3, 3))

    def test_division_ids_sequential_in_edge_order(self):
        s = subdivide(cycle_graph(3), [2, 0, 1])
        assert [list(p) for p in s.division_paths] == [[3, 4], [], [5]]

    @given(sparse_graphs(), st.lists(st.integers(0, 3), min_size=12, max_size=12))
    @settings(max_examples=80)
    def test_adjacency_from_division_runs_equals_the_flattened_graphs(self, g, counts):
        # counts of 0 and 1 give edges with no division vertex and runs
        # whose two ends are one vertex
        s = subdivide(g, counts[: len(g.edges)])
        paths = s.division_paths
        assert all(type(p) is range and p.step == 1 for p in paths)
        assert [len(p) for p in paths] == counts[: len(g.edges)]
        assert list(itertools.chain.from_iterable(paths)) == list(range(g.vertex_count, s.vertex_count))
        assert s.adjacency == _adjacency(s.vertex_count, s.chain_edges())
        assert s.adjacency == s.flatten().adjacency

    @given(sparse_graphs())
    @settings(max_examples=50)
    def test_zero_count_adjacency_is_the_base_graphs(self, g):
        assert subdivide(g, [0] * len(g.edges)).adjacency is g.adjacency


@st.composite
def strand_graphs(draw):
    """Stars, pure cycles, cycles hung back on a branch vertex, paths,
    isolated vertices and sparse graphs side by side, with shuffled ids and
    edge order, each edge divided 0 to 3 times."""
    edges, n = [], 0
    for kind in draw(st.lists(st.sampled_from(["star", "cycle", "loop", "path", "isolated", "sparse"]),
                              min_size=1, max_size=4)):
        if kind == "sparse":
            g = draw(sparse_graphs(max_vertices=6))
            edges += [(n + u, n + v) for u, v in g.edges]
            n += g.vertex_count
            continue
        size = {"star": 4, "cycle": 3, "loop": 4, "path": 2, "isolated": 1}[kind] + draw(st.integers(0, 3))
        vs = range(n, n + size)
        n += size
        if kind == "star":  # branch vertex vs[0] with three legs, the last 1 to 4 edges long
            edges += [(vs[0], v) for v in vs[1:4]] + list(zip(vs[3:], vs[4:]))
        elif kind in ("cycle", "loop"):  # a loop also hangs vs[-1] off vs[0]
            ring = vs if kind == "cycle" else vs[:-1]
            edges += list(zip(ring, ring[1:])) + [(ring[-1], ring[0])]
            if kind == "loop":
                edges.append((vs[0], vs[-1]))
        elif kind == "path":
            edges += list(zip(vs, vs[1:]))
    ids = draw(st.permutations(range(n)))
    edges = draw(st.permutations([(ids[u], ids[v]) for u, v in edges]))
    return subdivide(BaseGraph(n, tuple(edges)), draw(st.lists(st.integers(0, 3), min_size=len(edges),
                                                              max_size=len(edges))))


class TestStrands:
    @given(strand_graphs())
    @settings(max_examples=200, deadline=None)
    def test_strands_cover_the_edges_along_degree_2_joins(self, s):
        edges, adj = s.base.edges, s.base.adjacency
        g = nx.Graph(edges)
        g.add_nodes_from(range(s.base.vertex_count))
        strands = s.strands()
        assert sorted(i for steps, _ in strands for i, _ in steps) == list(range(len(edges)))
        for steps, cycle in strands:
            ends = []  # each step's far end
            for i, v in steps:
                assert v in edges[i] and (not ends or v == ends[-1])
                ends.append(sum(edges[i]) - v)
            assert all(len(adj[v]) == 2 for v in ends[:-1])
            start = steps[0][1]
            component = nx.node_connected_component(g, start)
            assert cycle == all(len(adj[v]) == 2 for v in component)
            if cycle:
                assert ends[-1] == start == min(component)
            else:
                assert len(adj[start]) != 2 and len(adj[ends[-1]]) != 2
        # runs with ends first, by start vertex; then cycles by start vertex
        starts = [(cycle, steps[0][1]) for steps, cycle in strands]
        assert starts == sorted(starts)

    def test_paw_triangle_comes_back_to_its_branch_vertex(self):
        paw = subdivide(BaseGraph(4, ((0, 1), (1, 2), (0, 2), (2, 3))), [0] * 4)
        assert paw.strands() == [(((1, 2), (0, 1), (2, 0)), False), (((3, 2),), False)]

    def test_graph14_k4_base_has_six_two_edge_strands(self):
        s = colour_14(complete_graph(4)).coloured.graph
        edges = s.base.edges
        assert (s.base.vertex_count, len(edges)) == (10, 12)
        strands = s.strands()
        assert [(len(steps), cycle) for steps, cycle in strands] == [(2, False)] * 6
        ends = set()
        for steps, _ in strands:
            (_, start), (i, v) = steps[0], steps[-1]
            ends |= {start, sum(edges[i]) - v}
        assert ends == {0, 1, 2, 3}

    def test_cycle_starts_toward_the_smaller_first_id(self):
        # C_3 with edge (0, 2) divided: 0 steps to 1 first; with (0, 1)
        # divided instead, to 2 first
        assert subdivide(cycle_graph(3), [0, 0, 1]).strands() == [(((0, 0), (1, 1), (2, 2)), True)]
        assert subdivide(cycle_graph(3), [1, 0, 0]).strands() == [(((2, 0), (1, 2), (0, 1)), True)]
        # both divided: edge 0's run holds the smaller ids
        assert subdivide(cycle_graph(3), [1, 1, 1]).strands()[0][0][0] == (0, 0)


class TestDivisionPathFrom:
    def test_runs_forward_from_u_and_reversed_from_v(self):
        s = subdivide(path_graph(3), [3, 0])
        assert list(s.division_path_from(0, 0)) == [3, 4, 5]
        assert list(s.division_path_from(0, 1)) == [5, 4, 3]

    def test_undivided_edge_has_an_empty_run(self):
        s = subdivide(path_graph(3), [3, 0])
        assert list(s.division_path_from(1, 1)) == list(s.division_path_from(1, 2)) == []

    def test_refuses_a_vertex_that_is_not_an_endpoint(self):
        s = subdivide(path_graph(3), [3, 0])
        with pytest.raises(ValueError, match="^vertex 2 is not an endpoint of edge 0$"):
            s.division_path_from(0, 2)


class TestColouredGraph:
    @given(sparse_graphs(), st.data())
    @settings(max_examples=80)
    def test_is_the_zero_count_coloured_subdivision(self, g, data):
        colours = data.draw(st.lists(st.integers(0, 4), min_size=g.vertex_count, max_size=g.vertex_count))
        c = ColouredGraph(g, colours)
        assert c == coloured_subdivision(subdivide(g, [0] * len(g.edges)), colours, {})
        assert (c.graph.base, c.colour) == (g, tuple(colours))

    def test_colouring_must_be_total(self):
        with pytest.raises(ValueError, match="^colouring must be total$"):
            ColouredGraph(path_graph(3), (0, 1))


class TestSizeGuard:
    def test_subdivide_refuses_before_building_any_path(self):
        # building first would allocate 10^15 ids
        with pytest.raises(ValueError, match="needs 1000000000000000 division vertices, more than 10000000"):
            subdivide(path_graph(3), [1, 10**15 - 1])

    def test_subdivide_builds_up_to_the_cap(self, monkeypatch):
        monkeypatch.setattr(graph_model, "MAX_VERTICES", 5)
        assert subdivide(path_graph(3), [2, 3]).vertex_count == 8
        with pytest.raises(ValueError, match="needs 6 division vertices, more than 5"):
            subdivide(path_graph(3), [3, 3])

    def test_complete_graph_refuses_before_listing_its_edges(self, monkeypatch):
        # listing first would allocate 4,999,950,000 edge tuples
        with pytest.raises(ValueError, match="^complete graph on 100000 vertices has 4999950000 edges, "
                                             "more than 10000000$"):
            complete_graph(100_000)
        monkeypatch.setattr(graph_model, "MAX_VERTICES", 10)
        assert len(complete_graph(5).edges) == 10
        with pytest.raises(ValueError, match="^complete graph on 6 vertices has 15 edges, more than 10$"):
            complete_graph(6)

    def test_complete_dary_tree_refuses_by_its_closed_form(self, monkeypatch):
        with pytest.raises(ValueError, match="height 40 has 2199023255551 vertices, more than 10000000"):
            complete_dary_tree(2, 40)
        monkeypatch.setattr(graph_model, "MAX_VERTICES", 15)
        assert complete_dary_tree(2, 3).vertex_count == 15
        assert complete_dary_tree(1, 14).vertex_count == 15
        with pytest.raises(ValueError, match="has 31 vertices, more than 15"):
            complete_dary_tree(2, 4)
        with pytest.raises(ValueError, match="has 16 vertices, more than 15"):
            complete_dary_tree(1, 15)


    def test_complete_dary_tree_refuses_a_huge_height_from_the_height(self):
        # 2 ** (10**20 + 1), the closed form, would never be computed
        refused = f"^complete 2-ary tree of height {10**20} has more than 10000000 vertices$"
        with pytest.raises(ValueError, match=refused):
            complete_dary_tree(2, 10**20)


class TestKSubdivision:
    def test_k3_once(self):
        assert k_subdivision(complete_graph(3), 1).vertex_count == 6

    def test_k4_twice(self):
        assert k_subdivision(complete_graph(4), 2).vertex_count == 16

    def test_identity_at_zero(self):
        s = k_subdivision(path_graph(2), 0)
        assert s.flatten() == path_graph(2)

    @given(sparse_graphs(), st.lists(st.integers(0, 3), min_size=12, max_size=12))
    @settings(max_examples=60)
    def test_contract_recovers_base(self, g, counts):
        s = subdivide(g, counts[: len(g.edges)])
        back = contracted(s)
        assert back.vertex_count == g.vertex_count
        assert set(back.edges) == set(g.edges)


class TestCompleteDaryTree:
    @pytest.mark.parametrize("d,h,expected", [(2, 3, 15), (3, 2, 13), (2, 0, 1)])
    def test_sizes(self, d, h, expected):
        assert complete_dary_tree(d, h).vertex_count == expected

    @given(st.integers(2, 4), st.integers(0, 5))
    def test_size_formula(self, d, h):
        t = complete_dary_tree(d, h)
        assert t.vertex_count == (d ** (h + 1) - 1) // (d - 1)
        assert t.height == h

    def test_leaves_at_depth_h(self):
        t = complete_dary_tree(3, 2)
        assert all(t.depth[v] == 2 for v in leaves(t))


class TestRootedTree:
    @pytest.mark.parametrize("children", [
        ((1,), (2,), (1,)),  # 1 listed twice, 1-2 a cycle
        ((), (2,), (1,)),  # the cycle 1-2, unreached from the root
        ((), ()),
        ((1,), (0,)),  # the root listed as a child
        ((2,), ()),
        ((-1,), ()),  # the negative alias of vertex 1
        (),
    ])
    def test_rejects(self, children):
        with pytest.raises(ValueError):
            RootedTree(children)

    @given(child_lists())
    @settings(max_examples=400, deadline=None)
    def test_accepts_what_the_parent_map_oracle_accepts(self, case):
        # the same trees as when a tree was stored as a parent map beside
        # its child lists, but a negative id, which that form read as its
        # alias id + n, is refused
        children, root = case
        try:
            old = parent_map_tree(children, root)
        except (ValueError, IndexError):
            old = None
        negative = any(c < 0 for cs in children for c in cs)
        try:
            t = RootedTree(children, root)
        except ValueError:
            assert old is None or negative
            return
        assert old is not None and not negative
        assert tree_facts(t) == tree_facts(old)

    @given(child_lists())
    @settings(max_examples=300, deadline=None)
    def test_height_is_the_deepest_depth_without_the_depth_tuple(self, case):
        children, root = case
        try:
            t = RootedTree(children, root)
        except ValueError:
            return
        assert t.height == max(parent_map_tree(children, root).depth)
        assert "depth" not in t.__dict__

    @pytest.mark.parametrize("d,h", [(1, 0), (1, 9), (2, 6), (16, 3)])
    def test_height_of_complete_trees(self, d, h):
        t = complete_dary_tree(d, h)
        assert t.height == h
        assert "depth" not in t.__dict__ and max(t.depth) == h

    @pytest.mark.parametrize("d,h", [*itertools.product(range(1, 6), range(6)), (16, 3)])
    def test_complete_dary_tree_matches_the_level_loop(self, d, h):
        t, old = complete_dary_tree(d, h), parent_map_tree(level_loop_children(d, h))
        assert t.children == old.children
        assert tree_facts(t) == tree_facts(old)

    def test_root_path(self):
        t = complete_dary_tree(2, 2)
        leaf = leaves(t)[0]
        path = root_path(t, leaf)
        assert path[0] == t.root and path[-1] == leaf and len(path) == 3

    @pytest.mark.parametrize("t", [complete_dary_tree(3, 2), *(random_binary_tree(5, seed) for seed in range(4))])
    def test_sibling_labels_place_each_child(self, t):
        assert t.sibling_labels == tuple(t.children[u].index(c) + 1 for u, c in t.edges)

    def test_random_binary_tree_is_deterministic_and_binary(self):
        a = random_binary_tree(4, 11)
        b = random_binary_tree(4, 11)
        assert a == b
        assert all(len(cs) <= 2 for cs in a.children)
        assert 1 <= a.height <= 4


class TestEnumerateSimplePaths:
    def test_path_of_three(self):
        paths = set(enumerate_simple_paths(path_graph(3)))
        assert paths == {(0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)}

    def test_triangle_hand_count(self):
        # 3 singletons + 3 edges + 3 two-edge paths, up to reversal
        assert len(list(enumerate_simple_paths(complete_graph(3)))) == 9

    def test_single_vertex(self):
        assert list(enumerate_simple_paths(BaseGraph(1, ()))) == [(0,)]

    def test_sorted_canonically(self):
        out = list(enumerate_simple_paths(complete_graph(3)))
        assert out == sorted(out, key=lambda p: (p[0], p[-1], p))
        assert all(p <= p[::-1] for p in out)

    @given(st.integers(2, 4), st.integers(0, 2), st.integers(0, 999))
    @settings(max_examples=25, deadline=None)
    def test_tree_path_count(self, d, h, seed):
        t = complete_dary_tree(d, h) if seed % 2 else random_binary_tree(max(h, 1), seed)
        g = tree_to_base_graph(t)
        n = g.vertex_count
        assert len(list(enumerate_simple_paths(g))) == n + n * (n - 1) // 2

    @given(sparse_graphs(max_vertices=7))
    @settings(max_examples=40, deadline=None)
    def test_against_networkx(self, g):
        ours = {p for p in enumerate_simple_paths(g) if len(p) >= 2}
        gx = nx.Graph()
        gx.add_nodes_from(range(g.vertex_count))
        gx.add_edges_from(g.edges)
        theirs = set()
        for u in range(g.vertex_count):
            for v in range(u + 1, g.vertex_count):
                for path in nx.all_simple_paths(gx, u, v):
                    tup = tuple(path)
                    theirs.add(min(tup, tup[::-1]))
        assert ours == theirs

    @given(sparse_graphs(max_vertices=4), st.lists(st.integers(0, 2), min_size=8, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_subdivided_graphs_against_networkx(self, g, counts):
        # subdivisions stay within ~12 vertices here; cross-check their full
        # path inventory on the flattened graph
        s = subdivide(g, counts[: len(g.edges)])
        flat = s.flatten()
        ours = {p for p in enumerate_simple_paths(s) if len(p) >= 2}
        gx = nx.Graph()
        gx.add_nodes_from(range(flat.vertex_count))
        gx.add_edges_from(flat.edges)
        theirs = set()
        for u in range(flat.vertex_count):
            for v in range(u + 1, flat.vertex_count):
                for path in nx.all_simple_paths(gx, u, v):
                    tup = tuple(path)
                    theirs.add(min(tup, tup[::-1]))
        assert ours == theirs


class TestMaximalPaths:
    def test_path_graph_has_one(self):
        assert list(enumerate_maximal_simple_paths(path_graph(3))) == [(0, 1, 2)]

    def test_triangle_has_three(self):
        assert len(list(enumerate_maximal_simple_paths(complete_graph(3)))) == 3

    def test_isolated_vertex_is_maximal(self):
        assert list(enumerate_maximal_simple_paths(BaseGraph(1, ()))) == [(0,)]

    @given(sparse_graphs(max_vertices=7))
    @settings(max_examples=30, deadline=None)
    def test_every_simple_path_is_a_window_of_a_maximal_one(self, g):
        maximal = list(enumerate_maximal_simple_paths(g))
        windows = set()
        for p in maximal:
            for i in range(len(p)):
                for j in range(i + 1, len(p) + 1):
                    win = p[i:j]
                    windows.add(min(win, win[::-1]))
        for path in enumerate_simple_paths(g):
            assert min(path, path[::-1]) in windows

    @given(walker_graphs())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_the_frame_walker(self, g):
        # the same paths in the same order, and under a step budget one
        # below the walk's steps and at them, the same trip or none
        steps = steps_taken(maximal_paths_by_frames, g)
        assert walk_result(maximal_paths_by_frames, g, steps - 1)[1] == steps
        for budget in (None, steps - 1, steps):
            assert walk_result(enumerate_maximal_simple_paths, g, budget) == walk_result(
                maximal_paths_by_frames, g, budget)

    @given(sparse_graphs(max_vertices=7))
    @settings(max_examples=30, deadline=None)
    def test_maximality(self, g):
        for p in enumerate_maximal_simple_paths(g):
            body = set(p)
            assert all(w in body for w in g.adjacency[p[0]])
            assert all(w in body for w in g.adjacency[p[-1]])


class TestOneSubdivision:
    """one_subdivision(g) is flat: base edge i's midpoint is g.vertex_count + i,
    so the originals (below g.vertex_count) and the midpoints are its two
    colour classes."""

    def test_triangle(self):
        one = one_subdivision(complete_graph(3))
        assert one.vertex_count == 6
        assert len(one.edges) == 6
        for u, v in one.edges:
            assert (u < 3) != (v < 3)

    def test_single_edge_is_path_of_three(self):
        one = one_subdivision(path_graph(2))
        assert one.vertex_count == 3
        assert one.edges == ((0, 2), (1, 2))  # ends 0 and 1, midpoint 2
        assert one.adjacency[2] == (0, 1)

    def test_k4(self):
        g = complete_graph(4)
        one = one_subdivision(g)
        assert one.vertex_count == 10
        assert len(one.edges) == 12
        for i, (u, v) in enumerate(g.edges):
            assert one.adjacency[g.vertex_count + i] == (u, v)


def test_tree_to_base_graph_edge_order():
    t = RootedTree([(1, 2), (), ()])
    assert tree_to_base_graph(t).edges == ((0, 1), (0, 2))
