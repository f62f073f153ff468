from fractions import Fraction

import pytest

from afsub import graph_model, words
from afsub.graph_constructions import (
    SequenceConstruction,
    _sequence_ranks,
    build_sequence_subdivision,
    colour_14,
    colour_8,
    colour_merged,
    consecutive_thirds,
    density_sequence,
    doubling_sequence,
    oriented_division_path,
)
from afsub.graph_model import (
    MAX_VERTICES,
    BaseGraph,
    complete_graph,
    cycle_graph,
    one_subdivision,
    path_graph,
)
from afsub.verifier import check_discriminating, find_anagram, find_anagram_sampled


def one_bipartition(g):
    """The proper 2-colouring of one_subdivision(g): the originals black,
    base edge i's midpoint g.vertex_count + i white."""
    return (0,) * g.vertex_count + (1,) * len(g.edges)


def reference_density_sequence(m):
    """Independent evaluation of the recurrence with exact rationals."""
    ts = [8]
    for _ in range(m - 1):
        ts.append(15 + int(Fraction(25, 3) * sum(ts)))
    return tuple(ts)


class TestSequences:
    def test_doubling_prefix(self):
        assert doubling_sequence(4) == (1, 2, 4, 8)
        assert doubling_sequence(1) == (1,)

    def test_doubling_condition_4_identity(self):
        # sum of earlier terms is one less than the next term
        t = doubling_sequence(16)
        for n in range(1, 16):
            assert sum(t[:n]) == t[n] - 1

    def test_density_prefix(self):
        assert density_sequence(4) == (8, 81, 756, 7056)

    def test_density_matches_reference(self):
        assert density_sequence(12) == reference_density_sequence(12)

    def test_density_growth_bound(self):
        t = density_sequence(12)
        for n in range(2, 13):
            assert t[n - 1] <= 15 * Fraction(84, 9) ** (n - 1)

    def test_density_margin_is_positive(self):
        # the operational condition-4 slack: (5/9) * sum of earlier terms is
        # strictly below t_n / 15
        t = density_sequence(12)
        for n in range(2, 13):
            assert Fraction(t[n - 1], 15) - Fraction(5, 9) * sum(t[: n - 1]) > 0

    def test_density_integer_count_slack(self):
        # worst-case occurrence counts: ceil(t/2) per earlier third versus
        # floor(t_n/8) in the new one
        t = density_sequence(12)
        for n in range(2, 13):
            assert sum((x + 1) // 2 for x in t[: n - 1]) < t[n - 1] // 8


class TestBuildSequenceSubdivision:
    def test_three_division_vertices_each(self):
        g = path_graph(3)
        s, labels = build_sequence_subdivision(g, (0, 1, 0), (1, 1))
        assert [len(p) for p in s.division_paths] == [3, 3]

    def test_one_subdivision_of_k2(self):
        g = path_graph(2)
        s, labels = build_sequence_subdivision(one_subdivision(g), one_bipartition(g), (1, 2))
        assert sorted(len(p) for p in s.division_paths) == [3, 6]
        assert labels == (0, 0, 1)

    def test_whites_ranked_above_blacks(self):
        # vertex ranks as the construction defines them: a bijection onto
        # 1..n, every white above every black, each class in id order; the
        # edge ranks follow (white rank, black rank)
        g = complete_graph(3)
        one, bipartition = one_subdivision(g), one_bipartition(g)
        n = one.vertex_count
        by_rank = sorted(range(n), key=lambda v: (bipartition[v], v))
        vertex_rank = [0] * n
        for r, v in enumerate(by_rank, start=1):
            vertex_rank[v] = r
        assert sorted(vertex_rank) == list(range(1, n + 1))
        for v in range(n):
            for u in range(n):
                if bipartition[v] == 1 and bipartition[u] == 0:
                    assert vertex_rank[v] > vertex_rank[u]

        def key(i):
            u, v = one.edges[i]
            w, b = (u, v) if bipartition[u] == 1 else (v, u)
            return (vertex_rank[w], vertex_rank[b])

        edge_rank = _sequence_ranks(one, bipartition)
        order = sorted(range(6), key=key)
        assert [edge_rank[i] for i in order] == list(range(1, 7))

    def test_edge_rank_consistent_with_vertex_rank(self):
        g = complete_graph(3)
        one, bipartition = one_subdivision(g), one_bipartition(g)
        white_black = [(u, v) if bipartition[u] == 1 else (v, u) for u, v in one.edges]
        order = sorted(range(6), key=white_black.__getitem__)
        edge_rank = _sequence_ranks(one, bipartition)
        assert [edge_rank[i] for i in order] == list(range(1, 7))
        # the builder subdivides edge i by the term of its rank
        s, _labels = build_sequence_subdivision(one, bipartition, doubling_sequence(6))
        assert [len(p) for p in s.division_paths] == [3 * 2 ** (r - 1) for r in edge_rank]

    def test_thirds_partition_and_anchor(self):
        g = path_graph(2)
        s, labels = build_sequence_subdivision(one_subdivision(g), one_bipartition(g), (2, 3))
        for i, (u, v) in enumerate(s.base.edges):
            oriented = oriented_division_path(s, labels, i)
            x, y, z = consecutive_thirds(oriented)
            assert len(x) == len(y) == len(z) == len(s.division_paths[i]) // 3
            assert [*x, *y, *z] == list(oriented)
            white = u if labels[u] == 1 else v
            black = v if white == u else u
            assert white in s.adjacency[x[0]]
            assert black in s.adjacency[z[-1]]

    def test_rejects_odd_cycle(self):
        g = cycle_graph(3)
        with pytest.raises(ValueError):
            build_sequence_subdivision(g, (0, 1, 0), (1, 1, 1))

    def test_rejects_short_sequence(self):
        with pytest.raises(ValueError):
            build_sequence_subdivision(path_graph(3), (0, 1, 0), (1,))

    def test_rejects_nonpositive_terms(self):
        with pytest.raises(ValueError):
            build_sequence_subdivision(path_graph(2), (0, 1), (0,))


class TestColour14:
    def test_k2_shape(self):
        c = colour_14(path_graph(2))
        assert sorted(len(p) for p in c.coloured.graph.division_paths) == [3, 6]
        assert len(c.coloured.palette) <= 14
        assert c.coloured.provenance["division_bound"] == 3 * 2 ** (2 * 1 - 1)

    def test_k3_max_division(self):
        c = colour_14(complete_graph(3))
        assert len(c.coloured.graph.base.edges) == 6
        assert c.coloured.max_division_count == 3 * 2**5  # 96

    @pytest.mark.parametrize("g", [path_graph(2), path_graph(3)])
    def test_discriminating_and_exhaustive(self, g):
        c = colour_14(g)
        report = check_discriminating(c.coloured.graph, c.labels, c.coloured.colour)
        assert report.passed
        assert find_anagram(c.coloured).outcome == "anagram_free"

    def test_k3_discriminating_and_sampled(self):
        c = colour_14(complete_graph(3))
        assert check_discriminating(c.coloured.graph, c.labels, c.coloured.colour).passed
        assert find_anagram_sampled(c.coloured, 10_000, 0).outcome == "anagram_free"

    def test_k3_exhaustive_verification(self):
        # 195 vertices, ~1.9M path windows: still in exhaustive reach
        c = colour_14(complete_graph(3))
        assert find_anagram(c.coloured).outcome == "anagram_free"

    def test_rejects_edgeless(self):
        with pytest.raises(ValueError):
            colour_14(BaseGraph(3, ()))


class TestColour8:
    def test_k2_shape(self):
        c = colour_8(path_graph(2))
        assert sorted(len(p) for p in c.coloured.graph.division_paths) == [24, 243]
        assert len(c.coloured.palette) <= 8

    def test_symbol_split_by_thirds(self):
        # the fourth word symbol lands on colour 5 in X, 6 in Y, 7 in Z
        c = colour_8(path_graph(2))
        s = c.coloured.graph
        for i in range(len(s.base.edges)):
            path = oriented_division_path(s, c.labels, i)
            t = len(path) // 3
            word = words.keranen_symbols(len(path))
            x, y, z = consecutive_thirds(path)
            for j, v in enumerate(path):
                if word[j] < 3:
                    assert c.coloured.colour[v] == 2 + word[j]
                else:
                    expected = 5 if v in x else (6 if v in y else 7)
                    assert v in (x if j < t else (y if j < 2 * t else z))
                    assert c.coloured.colour[v] == expected

    def test_density_window_bounds_hold_on_thirds(self):
        # each third holds its dedicated colour with frequency in [1/15, 5/9]
        c = colour_8(path_graph(2))
        for i in range(len(c.coloured.graph.base.edges)):
            thirds = consecutive_thirds(oriented_division_path(c.coloured.graph, c.labels, i))
            for third, dedicated in zip(thirds, (5, 6, 7)):
                count = sum(1 for v in third if c.coloured.colour[v] == dedicated)
                assert Fraction(1, 15) <= Fraction(count, len(third)) <= Fraction(5, 9)

    def test_discriminating_and_exhaustive(self):
        c = colour_8(path_graph(2))
        report = check_discriminating(c.coloured.graph, c.labels, c.coloured.colour)
        assert report.passed
        assert report.exclusive_colours == {"X": {5}, "Y": {6}, "Z": {7}}
        assert find_anagram(c.coloured).outcome == "anagram_free"

    def test_division_words_are_anagram_free(self):
        c = colour_8(path_graph(2))
        for path in c.coloured.graph.division_paths:
            assert words.find_abelian_square([c.coloured.colour[v] for v in path]) is None

    def test_size_guard_refuses_before_building(self, monkeypatch):
        real = graph_model.SubdividedGraph.division_paths

        def guarded(s):
            if sum(s.counts) > graph_model.MAX_VERTICES:
                raise AssertionError("built division paths past the size guard")
            return real.__get__(s)

        monkeypatch.setattr(graph_model.SubdividedGraph, "division_paths", property(guarded))
        tree = BaseGraph(5, ((0, 1), (1, 2), (2, 3), (1, 4)))
        with pytest.raises(ValueError, match="needs 179905728 division vertices, more than 10000000"):
            colour_8(tree)
        # P_3, the largest gallery input, needs 23,703: one above the guard
        # is refused, the guard itself builds
        monkeypatch.setattr(graph_model, "MAX_VERTICES", 23_702)
        with pytest.raises(ValueError, match="needs 23703 division vertices"):
            colour_8(path_graph(3))
        monkeypatch.undo()
        assert 3 * sum(density_sequence(4)) == 23_703 <= MAX_VERTICES
        monkeypatch.setattr(graph_model, "MAX_VERTICES", 23_703)
        assert colour_8(path_graph(3)).coloured.graph.vertex_count == 23_708


def edge_groups(merged):
    """The group j of each subdivided edge, read from the colour block
    12j + 2..13 of its division vertices, which must all lie in one block."""
    c = merged.coloured
    groups = []
    for path in c.graph.division_paths:
        blocks = {(c.colour[v] - 2) // 12 for v in path}
        assert len(blocks) == 1
        groups.append(blocks.pop())
    return groups


class TestColourMerged:
    def test_k1_identical_to_colour_14(self):
        for g in (path_graph(3), complete_graph(3)):
            merged = colour_merged(g, 1)
            plain = colour_14(g)
            assert merged.coloured.graph == plain.coloured.graph
            assert merged.coloured.colour == plain.coloured.colour
            assert merged.coloured.palette == plain.coloured.palette

    def test_degenerate_partition_counts(self):
        g = path_graph(4)
        merged = colour_merged(g, 3)
        groups = edge_groups(merged)
        assert groups == [0, 0, 1, 1, 2, 2]  # source edge j, sub-edges 2j and 2j + 1, is group j
        for j in range(3):
            counts = sorted(len(p) for p, group in zip(merged.coloured.graph.division_paths, groups) if group == j)
            assert counts == [3, 6]  # doubling sequence on two sub-edges

    def test_p3_with_two_groups(self):
        merged = colour_merged(path_graph(3), 2)
        assert len(merged.coloured.palette) <= 2 + 12 * 2
        assert find_anagram(merged.coloured).outcome == "anagram_free"

    def test_equitable_group_sizes(self):
        merged = colour_merged(complete_graph(4), 4)
        groups = edge_groups(merged)
        # groups are runs of source edges, and both sub-edges of a source edge
        # share its group
        assert groups == sorted(groups)
        assert all(groups[2 * i] == groups[2 * i + 1] for i in range(6))
        sizes = sorted(groups.count(j) // 2 for j in set(groups))
        assert sizes == [1, 1, 2, 2]
        assert sum(sizes) == 6

    def test_per_source_edge_division_bound(self):
        g = complete_graph(3)
        for k in (1, 2, 3):
            merged = colour_merged(g, k)
            bound = 3 * 4 ** (-(-len(g.edges) // k))
            for i in range(len(g.edges)):
                total = (
                    len(merged.coloured.graph.division_paths[2 * i])
                    + len(merged.coloured.graph.division_paths[2 * i + 1])
                    + 1
                )
                assert total <= bound

    def test_division_colours_disjoint_between_groups(self):
        merged = colour_merged(path_graph(3), 2)
        # two source edges in two groups: source edge j, whose sub-edges are
        # 2j and 2j + 1, is group j
        group_edge_indices = ((0, 1), (2, 3))
        seen = {}
        for j, group_edges in enumerate(group_edge_indices):
            block = set(range(2 + 12 * j, 14 + 12 * j))
            for ei in group_edges:
                for v in merged.coloured.graph.division_paths[ei]:
                    assert merged.coloured.colour[v] in block
                    seen.setdefault(merged.coloured.colour[v], j)
        for colour, j in seen.items():
            assert 2 + 12 * j <= colour < 14 + 12 * j

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            colour_merged(path_graph(3), 0)
        with pytest.raises(ValueError):
            colour_merged(path_graph(3), 3)

    @pytest.mark.parametrize("g", [path_graph(2), path_graph(3), complete_graph(3), cycle_graph(4)])
    def test_k1_labels_pass_the_audit(self, g):
        c = colour_merged(g, 1)
        assert check_discriminating(c.coloured.graph, c.labels, c.coloured.colour).passed

    def test_k2_audit_fails_condition_4(self):
        # each group restarts the doubling sequence, so the audit, which
        # reads the whole graph in one edge order, is not the merged lemma:
        # the first edge of group 1 cannot outnumber group 0
        c = colour_merged(path_graph(3), 2)
        report = check_discriminating(c.coloured.graph, c.labels, c.coloured.colour)
        assert report.conditions == (True, True, True, False)
        assert report.witnesses[4] == ("prefix count not dominated", "X", 2, 3, 1)
        # the colouring is still anagram-free
        assert find_anagram(c.coloured).outcome == "anagram_free"

    def test_paw_k2_audit_pin(self):
        # recorded while the labels still stored the ranks and the thirds
        paw = BaseGraph(4, ((0, 1), (1, 2), (0, 2), (2, 3)))
        c = colour_merged(paw, 2)
        report = check_discriminating(c.coloured.graph, c.labels, c.coloured.colour)
        assert report.conditions == (True, True, True, False)
        assert report.witnesses == {4: ("prefix count not dominated", "X", 4, 15, 1)}


class TestSequenceConstruction:
    @pytest.mark.parametrize("build", [colour_14, colour_8, lambda g: colour_merged(g, 2)])
    def test_every_builder_returns_the_labels_of_its_subdivision(self, build):
        g = path_graph(3)
        c = build(g)
        assert isinstance(c, SequenceConstruction)
        one = one_subdivision(g)
        assert c.coloured.graph.base == one
        assert c.labels == one_bipartition(g)
        t = [len(c.coloured.graph.division_paths[i]) // 3 for i in range(len(one.edges))]
        by_rank = [0] * len(t)
        for i, r in enumerate(_sequence_ranks(one, c.labels)):
            by_rank[r - 1] = t[i]
        s, labels = build_sequence_subdivision(one, one_bipartition(g), by_rank)
        assert s == c.coloured.graph
        assert labels == c.labels

    @pytest.mark.parametrize(
        "g", [path_graph(2), path_graph(4), complete_graph(4), cycle_graph(5), BaseGraph(5, ((3, 4), (0, 1), (2, 1)))]
    )
    def test_halves_of_source_edge_i_take_ranks_2i_plus_1_and_2(self, g):
        # the builders index their sequences by this rank order
        one = one_subdivision(g)
        edge_rank = _sequence_ranks(one, one_bipartition(g))
        for i, (u, v) in enumerate(g.edges):
            # subdivided edges 2i and 2i + 1 join source edge i's ends to
            # its midpoint g.vertex_count + i
            mid = g.vertex_count + i
            assert one.edges[2 * i : 2 * i + 2] == ((min(u, v), mid), (max(u, v), mid))
            assert sorted(edge_rank[2 * i : 2 * i + 2]) == [2 * i + 1, 2 * i + 2]
