import random

import pytest

from afsub import words
from afsub.graph_model import (
    ColouredGraph,
    RootedTree,
    complete_dary_tree,
    complete_graph,
    enumerate_maximal_simple_paths,
    k_subdivision,
    path_graph,
    random_binary_tree,
)
from afsub.tree_constructions import (
    EmbeddingError,
    band_parameters,
    build_binary_tree_8,
    build_dary_banded,
    build_dary_tree_10,
    extend_plus_4,
    prune_to_subtree,
    subdivision_step,
)
from afsub.verifier import find_anagram, naive_find_anagram
from oracles import leaves, root_path


class TestBinaryTree8:
    def test_height2_division_counts(self):
        lab = build_binary_tree_8(complete_dary_tree(2, 2))
        by_depth = {}
        for (u, _c), path in zip(lab.tree.edges, lab.coloured.graph.division_paths):
            by_depth.setdefault(lab.tree.depth[u], set()).add(len(path))
        assert by_depth == {0: {2}, 1: {0}}

    @pytest.mark.parametrize("h", [1, 2, 3, 4])
    def test_division_count_formula(self, h):
        lab = build_binary_tree_8(complete_dary_tree(2, h))
        for (u, _c), path in zip(lab.tree.edges, lab.coloured.graph.division_paths):
            assert len(path) == 3 ** (h - lab.tree.depth[u] - 1) - 1
        assert lab.coloured.max_division_count == 3 ** (h - 1) - 1

    @pytest.mark.parametrize("h", [1, 2, 3, 5])
    def test_complete_trees_verify(self, h):
        lab = build_binary_tree_8(complete_dary_tree(2, h))
        assert len(lab.coloured.palette) <= 8
        assert find_anagram(lab.coloured, max_windows=50_000_000).outcome == "anagram_free"

    @pytest.mark.parametrize("seed", range(12))
    def test_random_trees_verify(self, seed):
        lab = build_binary_tree_8(random_binary_tree(4, seed))
        assert len(lab.coloured.palette) <= 8
        assert find_anagram(lab.coloured).outcome == "anagram_free"

    @pytest.mark.parametrize(
        "tree",
        [complete_dary_tree(2, 3)] + [random_binary_tree(5, seed) for seed in range(10)],
        ids=["complete-h3"] + [f"seed{seed}" for seed in range(10)],
    )
    def test_label_restriction_is_keranen_prefix(self, tree):
        # along a root-to-leaf path, the vertices of one label spell a prefix
        # of the anagram-free word in their colour's second component
        lab = build_binary_tree_8(tree)
        cs = lab.coloured
        edges = lab.tree.edges
        eidx = {e: i for i, e in enumerate(edges)}
        for leaf in leaves(lab.tree):
            rp = root_path(lab.tree, leaf)
            walk = [lab.tree.root]
            for u, v in zip(rp, rp[1:]):
                walk.extend(cs.graph.division_paths[eidx[(u, v)]])
                walk.append(v)
            for label in (1, 2):
                block = set(range(4 * (label - 1), 4 * label))
                spelled = [cs.colour[v] - 4 * (label - 1) for v in walk if cs.colour[v] in block]
                assert spelled == words.keranen_symbols(len(spelled))

    def test_root_label_and_colour(self):
        lab = build_binary_tree_8(complete_dary_tree(2, 2))
        assert lab.vertex_labels[lab.tree.root] == 1
        assert lab.coloured.colour[lab.tree.root] == words.keranen_symbols(1)[0]

    def test_branch_children_get_distinct_labels(self):
        lab = build_binary_tree_8(complete_dary_tree(2, 3))
        edges = lab.tree.edges
        for v in range(lab.tree.vertex_count):
            kids = lab.tree.children[v]
            if len(kids) == 2:
                got = {lab.tree.sibling_labels[edges.index((v, c))] for c in kids}
                assert got == {lab.vertex_labels[c] for c in kids} == {1, 2}

    def test_height_zero_is_single_coloured_vertex(self):
        lab = build_binary_tree_8(RootedTree([()]))
        assert lab.coloured.graph.vertex_count == 1
        assert len(lab.coloured.palette) == 1

    def test_rejects_ternary(self):
        with pytest.raises(ValueError):
            build_binary_tree_8(complete_dary_tree(3, 1))


class TestDaryTree10:
    def test_fig_counts_d3_h2(self):
        lab = build_dary_tree_10(3, 2)
        top = {len(p) for (u, _c), p in zip(lab.tree.edges, lab.coloured.graph.division_paths) if lab.tree.depth[u] == 0}
        bottom = {len(p) for (u, _c), p in zip(lab.tree.edges, lab.coloured.graph.division_paths) if lab.tree.depth[u] == 1}
        assert top == {8, 16, 24}  # 2 * y * (d+1)^(h-1) for y = 1..3
        assert bottom == {2, 4, 6}

    def test_counts_d2_h1(self):
        lab = build_dary_tree_10(2, 1)
        assert sorted(len(p) for p in lab.coloured.graph.division_paths) == [2, 4]

    @pytest.mark.parametrize("d,h", [(2, 1), (2, 2), (3, 2), (2, 3), (2, 4), (4, 2)])
    def test_general_count_formula_and_verify(self, d, h):
        lab = build_dary_tree_10(d, h)
        edges = lab.tree.edges
        for i, (u, _c) in enumerate(edges):
            z = lab.tree.depth[u]
            y = lab.tree.sibling_labels[i]
            assert len(lab.coloured.graph.division_paths[i]) == 2 * subdivision_step(d, h - z, y)
        assert len(lab.coloured.palette) <= 10
        assert lab.coloured.max_division_count <= 2 * d * (d + 1) ** (h - 1)
        assert find_anagram(lab.coloured).outcome == "anagram_free"

    def test_half_red_half_green(self):
        lab = build_dary_tree_10(2, 2)
        for path in lab.coloured.graph.division_paths:
            reds = [v for v in path if lab.vertex_labels[v] == "red"]
            greens = [v for v in path if lab.vertex_labels[v] == "green"]
            assert len(reds) == len(greens) == len(path) // 2
            assert reds == list(path[: len(path) // 2])  # red half nearer the parent

    @pytest.mark.parametrize("d,h", [(2, 2), (2, 4), (3, 3), (4, 2)])
    def test_red_depth_increments_along_root_paths(self, d, h):
        lab = build_dary_tree_10(d, h)
        cs = lab.coloured
        # red colours are 2..5 encoding word symbols; walking any root-leaf
        # path, the red subsequence must spell a prefix of the word
        edges = lab.tree.edges
        eidx = {e: i for i, e in enumerate(edges)}
        for leaf in leaves(lab.tree):
            walk = []
            rp = root_path(lab.tree, leaf)
            for u, v in zip(rp, rp[1:]):
                walk.extend(cs.graph.division_paths[eidx[(u, v)]])
            reds = [cs.colour[v] - 2 for v in walk if lab.vertex_labels[v] == "red"]
            greens = [cs.colour[v] - 6 for v in walk if lab.vertex_labels[v] == "green"]
            assert reds == words.keranen_symbols(len(reds))
            assert greens == words.keranen_symbols(len(greens))

    def test_originals_properly_two_coloured(self):
        lab = build_dary_tree_10(2, 2)
        for v in range(lab.tree.vertex_count):
            assert lab.coloured.colour[v] == (1 if lab.tree.depth[v] % 2 == 0 else 0)

    def test_rejects_unary(self):
        with pytest.raises(ValueError):
            build_dary_tree_10(1, 2)

    def test_height_zero_is_single_coloured_vertex(self):
        lab = build_dary_tree_10(3, 0)
        assert lab.coloured.graph.vertex_count == 1
        assert len(lab.coloured.palette) == 1


class TestPruneToSubtree:
    def test_prune_to_itself_is_identity(self):
        full = build_dary_tree_10(2, 2)
        pruned = prune_to_subtree(full, full.tree)
        assert pruned.coloured.colour == full.coloured.colour
        assert pruned.coloured.graph.division_paths == full.coloured.graph.division_paths

    def test_prune_to_root_leaf_path(self):
        full = build_dary_tree_10(2, 2)
        spine = RootedTree([(1,), (2,), ()])
        pruned = prune_to_subtree(full, spine)
        assert find_anagram(pruned.coloured).outcome == "anagram_free"
        assert len(pruned.coloured.palette) <= 10

    def test_binary_subtree_of_ternary(self):
        full = build_dary_tree_10(3, 2)
        t = RootedTree([(1, 2), (3, 4), (), (), ()])
        pruned = prune_to_subtree(full, t)
        assert set(pruned.coloured.palette) <= set(full.coloured.palette)
        assert find_anagram(pruned.coloured).outcome == "anagram_free"

    @pytest.mark.parametrize("seed", range(8))
    def test_prune_banded_tree(self, seed):
        full = build_dary_banded(2, 6, 40)
        pruned = prune_to_subtree(full, random_binary_tree(6, seed))
        cs = pruned.coloured
        assert find_anagram(cs).outcome == "anagram_free"
        assert cs.max_division_count <= 40
        assert len(cs.palette) <= 10 * cs.provenance["bands"]
        assert cs.provenance["construction"] == "dary-banded-pruned"

    def test_pruned_banded_tree_agrees_with_naive(self):
        pruned = prune_to_subtree(build_dary_banded(2, 6, 40), random_binary_tree(6, 3))
        assert pruned.coloured.graph.vertex_count == 76
        assert naive_find_anagram(pruned.coloured).outcome == find_anagram(pruned.coloured).outcome == "anagram_free"

    @pytest.mark.parametrize("seed", range(4))
    def test_pruned_edges_keep_their_sibling_labels(self, seed):
        # embed_by_child_order maps the i-th child to the i-th child, and the
        # binary builder gives each child its parent edge's label
        pruned = prune_to_subtree(build_binary_tree_8(complete_dary_tree(2, 5)), random_binary_tree(5, seed))
        for (_u, c), y in zip(pruned.tree.edges, pruned.tree.sibling_labels):
            assert pruned.vertex_labels[c] == y

    def test_too_wide_rejected(self):
        full = build_dary_tree_10(2, 2)
        wide = RootedTree([(1, 2, 3), (), (), ()])
        with pytest.raises(EmbeddingError):
            prune_to_subtree(full, wide)

    def test_too_deep_rejected(self):
        full = build_dary_tree_10(2, 1)
        deep = RootedTree([(1,), (2,), ()])
        with pytest.raises(EmbeddingError):
            prune_to_subtree(full, deep)


def banded_by_components(d, hprime, k):
    """The banded colouring built the long way, as an oracle: every
    component gets its own build_dary_tree_10 at its height, mapped into the
    host tree child order to child order and shifted onto its band's colour
    block; a one-vertex component takes the block's first colour and the
    cut edges stay unsubdivided.  Returns the colours of the originals and,
    per host edge, the colours of its division path."""
    x, band = band_parameters(d, hprime, k)
    tree = complete_dary_tree(d, hprime)
    eidx = {e: i for i, e in enumerate(tree.edges)}
    band_of = [min(depth // band, x - 1) for depth in tree.depth]
    original = [None] * tree.vertex_count
    division = [[] for _ in eidx]
    for r in range(tree.vertex_count):
        p = tree.parent[r]
        if p is not None and band_of[p] == band_of[r]:
            continue
        offset = 10 * band_of[r]
        height, v = 0, r
        while tree.children[v] and band_of[tree.children[v][0]] == band_of[r]:
            height, v = height + 1, tree.children[v][0]
        if height == 0:
            original[r] = offset
            continue
        local = build_dary_tree_10(d, height)
        image = {local.tree.root: r}
        for lv in range(local.tree.vertex_count):  # local ids are BFS order too
            for i, lc in enumerate(local.tree.children[lv]):
                image[lc] = tree.children[image[lv]][i]
        for lv, hv in image.items():
            original[hv] = offset + local.coloured.colour[lv]
        for (lu, lc), path in zip(local.tree.edges, local.coloured.graph.division_paths):
            division[eidx[(image[lu], image[lc])]] = [offset + local.coloured.colour[dv] for dv in path]
    return original, division


class TestDaryBanded:
    def test_band_parameters_exact(self):
        assert band_parameters(2, 4, 12) == (4, 1)
        assert band_parameters(2, 1, 13) == (1, 1)

    def test_band_parameters_match_the_stepwise_search(self):
        # the search from x = 1, one pair of powers per x, that the float
        # start replaced
        def stepwise(d, hprime, k):
            x = 1
            while (2 * d) ** x * (d + 1) ** hprime > k**x:
                x += 1
            return x, -(-hprime // x)

        rng = random.Random(3)
        for _ in range(1000):
            d = rng.randint(2, 40)
            hprime = rng.randint(1, 4 if d > 9 else 6)
            k = 2 * d + rng.choice((1, 2, rng.randint(1, 100), rng.randint(1, 10**9), 10**30))
            assert band_parameters(d, hprime, k) == stepwise(d, hprime, k), (d, hprime, k)

    def test_band_parameters_of_a_wide_tree(self):
        # 48,045 bands, which the stepwise search reaches only after 48,045
        # pairs of ever larger powers
        x, band = band_parameters(3000, 1, 6001)
        assert (x, band) == (48_045, 1)
        assert 6000**x * 3001 <= 6001**x and 6000 ** (x - 1) * 3001 > 6001 ** (x - 1)

    def test_band_parameters_refuse_a_huge_height_first(self):
        # (d+1) ** hprime is never computed; a bad k is still named first
        with pytest.raises(ValueError, match="^complete 2-ary tree of height 10+ has more than 10000000 "):
            band_parameters(2, 10**20, 5)
        with pytest.raises(ValueError, match="^need k > 2d$"):
            band_parameters(2, 10**20, 4)

    def test_case_h4_k12(self):
        b = build_dary_banded(2, 4, 12)
        assert b.coloured.provenance["bands"] == 4  # palette capped at 10 * 4 = 40
        assert len(b.coloured.palette) <= 40
        assert b.coloured.max_division_count <= 12
        assert find_anagram(b.coloured).outcome == "anagram_free"

    def test_single_band(self):
        b = build_dary_banded(2, 1, 13)
        assert b.coloured.provenance["bands"] == 1
        assert len(b.coloured.palette) <= 10
        assert find_anagram(b.coloured).outcome == "anagram_free"

    @pytest.mark.parametrize("d,h,k", [(2, 2, 5), (2, 3, 7), (3, 2, 50), (3, 3, 100)])
    def test_desk_scale_instances_verify(self, d, h, k):
        b = build_dary_banded(d, h, k)
        assert b.coloured.max_division_count <= k
        assert len(b.coloured.palette) <= 10 * b.coloured.provenance["bands"]
        assert find_anagram(b.coloured).outcome == "anagram_free"

    @pytest.mark.parametrize("d,hprime,ks", [
        *((2, hprime, range(5, 61)) for hprime in range(1, 7)),
        (3, 3, [100]),
        (3, 4, [60]),
    ])
    def test_matches_per_component_oracle(self, d, hprime, ks):
        for k in ks:
            b = build_dary_banded(d, hprime, k)
            original, division = banded_by_components(d, hprime, k)
            colour = b.coloured.colour
            assert list(colour[: len(original)]) == original, (d, hprime, k)
            got = [[colour[v] for v in path] for path in b.coloured.graph.division_paths]
            assert got == division, (d, hprime, k)

    def test_oracle_sweep_has_divided_bands_of_height_two(self):
        # the sweep above reaches several bands with division vertices
        b = build_dary_banded(2, 6, 40)
        assert (b.coloured.provenance["bands"], b.coloured.provenance["band_height"]) == (3, 2)
        divided = {b.coloured.colour[v] // 10 for path in b.coloured.graph.division_paths for v in path}
        assert divided == {0, 1, 2}

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            build_dary_banded(2, 3, 4)

    def test_block_colours_confined_to_one_band(self):
        # an original at depth z is coloured in the block of its band
        # min(z // band_height, bands - 1), and a divided edge has both ends
        # in one band and its division path coloured in that band's block,
        # so a path's restriction to one block stays inside a single band
        for d, hprime, k in [(2, 4, 12), (2, 6, 40)]:
            b = build_dary_banded(d, hprime, k)
            prov, colour = b.coloured.provenance, b.coloured.colour
            band_of = [min(z // prov["band_height"], prov["bands"] - 1) for z in b.tree.depth]
            assert [colour[v] // 10 for v in range(b.tree.vertex_count)] == band_of
            for (u, c), path in zip(b.tree.edges, b.coloured.graph.division_paths):
                if path:
                    assert band_of[u] == band_of[c]
                    assert {colour[v] // 10 for v in path} == {band_of[u]}


class TestExtendPlus4:
    def test_trivial_base(self):
        base = ColouredGraph(path_graph(1), (0,))
        s = k_subdivision(path_graph(1), 0)
        out = extend_plus_4(base, s)
        assert out.colour == (0,)

    def test_two_vertex_base_three_subdivision(self):
        base = ColouredGraph(path_graph(2), (0, 1))
        s = k_subdivision(path_graph(2), 3)
        out = extend_plus_4(base, s)
        assert len(out.palette) <= 6
        assert find_anagram(out).outcome == "anagram_free"

    def test_triangle_base(self):
        base = ColouredGraph(complete_graph(3), (0, 1, 2))
        s = k_subdivision(complete_graph(3), 2)
        out = extend_plus_4(base, s)
        assert len(out.palette) <= 7
        assert find_anagram(out).outcome == "anagram_free"

    def test_palette_collision_rejected(self):
        base = ColouredGraph(path_graph(2), (0, 1))
        s = k_subdivision(path_graph(2), 2)
        with pytest.raises(ValueError):
            extend_plus_4(base, s, new_colours=(1, 5, 6, 7))

    def test_mismatched_subdivision_rejected(self):
        base = ColouredGraph(path_graph(2), (0, 1))
        s = k_subdivision(path_graph(3), 1)
        with pytest.raises(ValueError):
            extend_plus_4(base, s)

    def test_divided_base_rejected(self):
        # the base must be a ColouredGraph, the zero-count subdivision of s's base
        divided = extend_plus_4(ColouredGraph(path_graph(2), (0, 1)), k_subdivision(path_graph(2), 1))
        with pytest.raises(ValueError, match="^subdivision does not match the coloured base graph$"):
            extend_plus_4(divided, k_subdivision(path_graph(2), 2))

    def test_restriction_to_new_colours_traces_division_paths(self):
        base = ColouredGraph(path_graph(2), (0, 1))
        s = k_subdivision(path_graph(2), 5)
        out = extend_plus_4(base, s)
        new = set(out.palette) - {0, 1}
        for path in enumerate_maximal_simple_paths(out.graph):
            assert words.find_abelian_square([out.colour[v] for v in path if out.colour[v] in new]) is None
