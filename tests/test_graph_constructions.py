from fractions import Fraction

import pytest

from afsub import words
from afsub import graph_constructions
from afsub.graph_constructions import (
    MAX_GRAPH8_DIVISION_VERTICES,
    build_sequence_subdivision,
    colour_14,
    colour_8,
    colour_merged,
    density_sequence,
    density_sequence_margin,
    doubling_sequence,
    oriented_division_path,
)
from afsub.graph_model import (
    BaseGraph,
    complete_graph,
    cycle_graph,
    one_subdivision,
    path_graph,
)
from afsub.verifier import check_discriminating, find_anagram, find_anagram_sampled


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
        for n in range(2, 13):
            assert density_sequence_margin(n) > 0

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
        one = one_subdivision(path_graph(2))
        s, labels = build_sequence_subdivision(one.graph, one.colour_class, (1, 2))
        assert sorted(len(p) for p in s.division_paths) == [3, 6]

    def test_whites_ranked_above_blacks(self):
        one = one_subdivision(complete_graph(3))
        _s, labels = build_sequence_subdivision(one.graph, one.colour_class, doubling_sequence(6))
        n = one.graph.vertex_count
        assert sorted(labels.vertex_rank) == list(range(1, n + 1))
        for v in range(n):
            for u in range(n):
                if labels.bipartition[v] == 1 and labels.bipartition[u] == 0:
                    assert labels.vertex_rank[v] > labels.vertex_rank[u]

    def test_edge_rank_consistent_with_vertex_rank(self):
        one = one_subdivision(complete_graph(3))
        s, labels = build_sequence_subdivision(one.graph, one.colour_class, doubling_sequence(6))

        def key(i):
            u, v = s.base.edges[i]
            w = u if labels.bipartition[u] == 1 else v
            b = v if labels.bipartition[u] == 1 else u
            return (labels.vertex_rank[w], labels.vertex_rank[b])

        order = sorted(range(6), key=key)
        assert [labels.edge_rank[i] for i in order] == list(range(1, 7))

    def test_thirds_partition_and_anchor(self):
        one = one_subdivision(path_graph(2))
        s, labels = build_sequence_subdivision(one.graph, one.colour_class, (2, 3))
        for i, (u, v) in enumerate(s.base.edges):
            x, y, z = labels.thirds[i]
            assert len(x) == len(y) == len(z) == len(s.division_paths[i]) // 3
            oriented = oriented_division_path(s, labels, i)
            assert x + y + z == oriented
            white = u if labels.bipartition[u] == 1 else v
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
        assert len(c.one_sub.graph.edges) == 6
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
            x, y, z = c.labels.thirds[i]
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
            for third, dedicated in zip(c.labels.thirds[i], (5, 6, 7)):
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
        def never(*args):
            raise AssertionError("built a subdivision past the size guard")

        monkeypatch.setattr(graph_constructions, "build_sequence_subdivision", never)
        tree = BaseGraph(5, ((0, 1), (1, 2), (2, 3), (1, 4)))
        with pytest.raises(ValueError, match="needs 179905728 division vertices, more than 10000000"):
            colour_8(tree)
        # P_3, the largest gallery input, needs 23,703: one above the guard
        # is refused, the guard itself builds
        monkeypatch.setattr(graph_constructions, "MAX_GRAPH8_DIVISION_VERTICES", 23_702)
        with pytest.raises(ValueError, match="needs 23703 division vertices"):
            colour_8(path_graph(3))
        monkeypatch.undo()
        assert 3 * sum(density_sequence(4)) == 23_703 <= MAX_GRAPH8_DIVISION_VERTICES
        monkeypatch.setattr(graph_constructions, "MAX_GRAPH8_DIVISION_VERTICES", 23_703)
        assert colour_8(path_graph(3)).coloured.graph.vertex_count == 23_708


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
        assert merged.groups == ((0,), (1,), (2,))
        for group_edges in merged.group_edge_indices:
            counts = sorted(len(merged.coloured.graph.division_paths[i]) for i in group_edges)
            assert counts == [3, 6]  # doubling sequence on two sub-edges

    def test_p3_with_two_groups(self):
        merged = colour_merged(path_graph(3), 2)
        assert len(merged.coloured.palette) <= 2 + 12 * 2
        assert find_anagram(merged.coloured).outcome == "anagram_free"

    def test_equitable_group_sizes(self):
        merged = colour_merged(complete_graph(4), 4)
        sizes = sorted(len(g) for g in merged.groups)
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
        seen = {}
        for j, group_edges in enumerate(merged.group_edge_indices):
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
