import copy
import dataclasses
import itertools
import math
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afsub import graph_model
from afsub.bounds import (
    EffectiveStructure,
    MonochromaticWitness,
    PreconditionError,
    _draws,
    dary_two_sided,
    effective_structure,
    extract_monochromatic_subtree,
    find_anagram_pigeonhole,
    find_anagram_undercoloured_tree,
    height_condition_met,
    is_d_branch,
    kn_lower_bound,
    seeded_complete_subdivision_colouring,
    seeded_tree_colouring,
    subdivision_tree_lower_bound,
    tree_lower_bound,
)
from afsub.cli import main
from afsub.graph_model import (
    BaseGraph,
    ColouredGraph,
    RootedTree,
    complete_dary_tree,
    complete_graph,
    coloured_subdivision,
    k_subdivision,
    random_binary_tree,
    tree_to_base_graph,
)
from afsub.verifier import revalidate
from oracles import (
    effective_height,
    multiset_count,
    randrange_kn_colouring,
    randrange_tree_colouring,
    validate_monochromatic_witness,
)


class TestKnLowerBound:
    def test_vacuous_at_n_equals_c(self):
        assert kn_lower_bound(5, 5) == -5.0

    def test_hundred_two(self):
        assert kn_lower_bound(100, 2) == pytest.approx(math.sqrt(98) - 2, rel=1e-12)

    def test_hundred_four(self):
        expected = (math.factorial(4) * 24) ** 0.25 - 4
        assert kn_lower_bound(100, 4) == pytest.approx(expected, rel=1e-9)
        assert kn_lower_bound(100, 4) == pytest.approx(0.899, abs=1e-3)

    def test_exact_when_integral(self):
        # c = 1: bound is n - 2 exactly
        assert kn_lower_bound(7, 1) == 5.0
        # c = 2: inner 2(n/2 - 1) = n - 2; perfect square at n = 51: 49
        assert kn_lower_bound(51, 2) == 5.0

    def test_radicand_past_float_range(self):
        # (c-1)! * (n - c) = 199! * 800 has 1,248 bits: the root is taken by
        # logarithms there, and by the float power everywhere below
        inner = math.factorial(199) * 800
        assert inner.bit_length() == 1248
        assert kn_lower_bound(1000, 200) == pytest.approx(math.exp(math.log(inner) / 200) - 200, rel=1e-12)
        assert kn_lower_bound(10**400, 2) == pytest.approx(1e200, rel=1e-12)
        with pytest.raises(OverflowError):  # the bound n - 2 itself is past float range
            kn_lower_bound(10**400, 1)

    def test_past_float_factorial(self):
        # from c = 172, (c-1)! is past float range and the root is taken
        # from lgamma(c) + ln(n - c); it agrees with the exact radicand's
        for c in (172, 200, 500, 1000):
            for n in (c + 1, c + 1000, 10**6, 10**30):
                exact = math.exp(math.log(math.factorial(c - 1) * (n - c)) / c) - c
                assert kn_lower_bound(n, c) == pytest.approx(exact, rel=1e-12), (n, c)
        # c = 10**6, against (c-1)! taken as a sum of logs
        n, c = 2_000_000, 1_000_000
        log_inner = math.fsum(math.log(i) for i in range(1, c)) + math.log(n - c)
        assert kn_lower_bound(n, c) == pytest.approx(math.exp(log_inner / c) - c, rel=1e-9)
        assert kn_lower_bound(171, 171) == -171.0 and kn_lower_bound(172, 172) == -172.0

    def test_rejects_n_below_c(self):
        with pytest.raises(ValueError):
            kn_lower_bound(3, 4)

    def test_integer_radicand_matches_the_rational_form(self):
        # the radicand c! * (n/c - 1), evaluated in rationals as written
        def rational_form(n, c):
            inner = Fraction(math.factorial(c)) * (Fraction(n, c) - 1)
            if inner == 0:
                return float(-c)
            root = round(float(inner) ** (1.0 / c))
            exact = [p for p in (root - 1, root, root + 1) if p >= 0 and Fraction(p) ** c == inner]
            return float(exact[0] - c) if exact else float(inner) ** (1.0 / c) - c

        for n in range(1, 300):
            for c in range(1, min(n, 12) + 1):
                assert kn_lower_bound(n, c) == rational_form(n, c), (n, c)


def multiset_count_by_summation(k, c):
    """Independent summation form: sum over i <= k of C(i + c - 1, c - 1)."""
    return sum(math.comb(i + c - 1, c - 1) for i in range(k + 1))


class TestMultisetCount:
    def test_empty(self):
        assert multiset_count(0, 3) == 1

    def test_two_two_by_enumeration(self):
        # direct enumeration oracle: multisets of size <= 2 over 2 colours
        found = set()
        for size in range(3):
            for combo in itertools.combinations_with_replacement(range(2), size):
                found.add(combo)
        assert multiset_count(2, 2) == len(found) == 6

    def test_single_colour(self):
        for k in range(6):
            assert multiset_count(k, 1) == k + 1

    def test_binomial_equals_summation(self):
        for k in range(31):
            for c in range(1, 31):
                assert multiset_count(k, c) == multiset_count_by_summation(k, c)


class TestPigeonhole:
    def test_unsubdivided_k10_two_colours(self):
        cs = seeded_complete_subdivision_colouring(10, 2, 0, 3)
        ce = find_anagram_pigeonhole(cs, 2)
        assert len(ce.vertices) == 2
        assert cs.colour[ce.vertices[0]] == cs.colour[ce.vertices[1]]
        assert revalidate(ce, cs)

    def test_k30_three_colours(self):
        assert kn_lower_bound(30, 3) > 0
        cs = seeded_complete_subdivision_colouring(30, 3, 0, 11)
        ce = find_anagram_pigeonhole(cs, 3)
        assert revalidate(ce, cs)

    @pytest.mark.parametrize("seed", range(10))
    def test_k100_with_divisions(self, seed):
        cs = seeded_complete_subdivision_colouring(100, 2, 3, seed)
        ce = find_anagram_pigeonhole(cs, 2)
        assert revalidate(ce, cs)
        left = Counter(cs.colour[v] for v in ce.vertices[: ce.split])
        right = Counter(cs.colour[v] for v in ce.vertices[ce.split :])
        assert left == right

    def test_rejects_when_bound_not_violated(self):
        cs = seeded_complete_subdivision_colouring(10, 2, 5, 0)  # bound ~ 0.83 < 5
        with pytest.raises(PreconditionError):
            find_anagram_pigeonhole(cs, 2)

    def test_rejects_non_complete_base(self):
        from afsub.graph_model import path_graph

        s = k_subdivision(path_graph(3), 0)
        cs = coloured_subdivision(s, (0, 0, 0), {})
        with pytest.raises(PreconditionError):
            find_anagram_pigeonhole(cs, 2)
        # completeness is read off the edge count: K_10 less one edge
        s = k_subdivision(BaseGraph(10, tuple(itertools.combinations(range(10), 2))[1:]), 0)
        cs = coloured_subdivision(s, (0,) * 10, {})
        with pytest.raises(PreconditionError, match="not a complete graph"):
            find_anagram_pigeonhole(cs, 2)

    def test_rejects_too_many_colours(self):
        cs = seeded_complete_subdivision_colouring(10, 4, 0, 0)
        with pytest.raises(PreconditionError):
            find_anagram_pigeonhole(cs, 2)


class TestEffectiveStructure:
    def test_complete_tree(self):
        t = complete_dary_tree(2, 3)
        eff = effective_structure(t)
        assert eff.effective_root == t.root
        assert eff.effective_height == 3
        assert all(len(t.children[v]) != 1 for v in eff.effective_vertices)

    def test_spine_with_one_branch(self):
        # path of two vertices ending in a branch: effective height 1
        t = RootedTree([(1,), (2, 3), (), ()])
        eff = effective_structure(t)
        assert eff.effective_root == 1
        assert eff.effective_height == 1
        assert is_d_branch(t, 2)

    @pytest.mark.parametrize("seed", range(40))
    def test_cached_height_is_the_rules_on_random_trees(self, seed):
        t = random_binary_tree(1 + seed % 9, seed)
        assert t.effective_height == effective_height(t.children, t.root)
        assert effective_structure(t).effective_height == t.effective_height

    @pytest.mark.parametrize("d, h", [(d, h) for d in (1, 2, 3, 5, 16) for h in range(4)])
    def test_cached_height_is_the_rules_on_complete_trees(self, d, h):
        t = complete_dary_tree(d, h)
        assert t.effective_height == effective_height(t.children, t.root) == (0 if d == 1 else h)

    def test_one_witness_tree_run_derives_it_once(self, monkeypatch, capsys):
        calls = []
        rule = graph_model.RootedTree.effective_height.func

        def counted(tree):
            calls.append(tree.root)
            return rule(tree)

        monkeypatch.setattr(graph_model.RootedTree.effective_height, "func", counted)
        assert main(["witness", "tree", "--d", "16", "--h", "3", "--x", "2", "--seed", "1"]) == 0
        capsys.readouterr()
        assert calls == [0]


@dataclasses.dataclass(frozen=True)
class WitnessTwin:
    """What MonochromaticWitness was: a frozen dataclass with its fields."""

    colour: int
    root: int
    vertices: frozenset


class TestWitnessRecords:
    """The witness records compare, hash, print, copy and refuse assignment
    as frozen dataclasses do."""

    def test_behaves_as_its_frozen_dataclass_twin(self):
        vertices = frozenset({0, 1, 2})
        w, twin = MonochromaticWitness(1, 0, vertices), WitnessTwin(1, 0, vertices)
        assert w == MonochromaticWitness(1, 0, frozenset({2, 1, 0}))
        assert w != MonochromaticWitness(0, 0, vertices) and w != MonochromaticWitness(1, 0, frozenset())
        assert hash(w) == hash(twin) == hash(MonochromaticWitness(1, 0, frozenset(vertices)))
        assert repr(w) == repr(twin).replace("WitnessTwin", "MonochromaticWitness")
        assert (w.colour, w.root, w.vertices) == (1, 0, vertices)
        # no equality across types, as a dataclass has none
        assert w != twin and w != (1, 0, vertices)
        assert len({w, MonochromaticWitness(1, 0, vertices)}) == 1

    def test_is_immutable(self):
        w = MonochromaticWitness(1, 0, frozenset({0}))
        for attempt in (lambda: setattr(w, "colour", 2), lambda: setattr(w, "extra", 2),
                        lambda: delattr(w, "root")):
            with pytest.raises(AttributeError):
                attempt()
        assert w == MonochromaticWitness(1, 0, frozenset({0}))

    def test_checks_its_field_count(self):
        with pytest.raises(TypeError):
            MonochromaticWitness(1, 0)
        with pytest.raises(TypeError):
            EffectiveStructure(1, 2, 3, 4, 5)

    def test_copies_and_pickles(self):
        eff = effective_structure(complete_dary_tree(2, 2))
        for again in (copy.copy(eff), copy.deepcopy(eff), pickle.loads(pickle.dumps(eff))):
            assert again == eff and type(again) is EffectiveStructure


class TestExtractMonochromatic:
    def test_zero_targets_single_vertex(self):
        t = complete_dary_tree(2, 2)
        colours = seeded_tree_colouring(t, 2, 0)
        w = extract_monochromatic_subtree(t, colours, 2, (0, 0))
        assert len(w.vertices) == 1
        assert validate_monochromatic_witness(t, colours, 2, 0, w)

    def test_monochromatic_tree_is_its_own_witness(self):
        t = complete_dary_tree(2, 4)
        colours = (0,) * t.vertex_count
        w = extract_monochromatic_subtree(t, colours, 2, (4,))
        assert w.colour == 0
        assert validate_monochromatic_witness(t, colours, 2, 4, w)
        assert w.vertices == frozenset(range(t.vertex_count))

    @pytest.mark.parametrize("seed", range(25))
    def test_random_two_colourings(self, seed):
        t = complete_dary_tree(2, 6)
        colours = seeded_tree_colouring(t, 2, seed)
        w = extract_monochromatic_subtree(t, colours, 2, (3, 3))
        assert validate_monochromatic_witness(t, colours, 2, 3, w)

    def test_long_unary_chains_validate_without_recursion(self):
        # complete binary tree of height 3 with every edge a 400-vertex
        # unary chain: 5,615 vertices, root paths 1,204 deep
        base = complete_dary_tree(2, 3)
        children = [list(kids) for kids in base.children]
        for u in range(base.vertex_count):
            for j, c in enumerate(base.children[u]):
                first = len(children)
                children.extend([v + 1] for v in range(first, first + 399))
                children.append([c])
                children[u][j] = first
        t = RootedTree(children)
        assert t.vertex_count == 5615
        colours = (0,) * t.vertex_count
        w = extract_monochromatic_subtree(t, colours, 2, [3])
        assert validate_monochromatic_witness(t, colours, 2, 3, w)
        assert not validate_monochromatic_witness(t, colours, 2, 4, w)

    def test_member_whose_parent_is_outside_is_invalid(self):
        # 7's parent 3 is not a member, so {0, 1, 7} is not a subtree
        t = complete_dary_tree(2, 3)
        w = MonochromaticWitness(0, 0, frozenset({0, 1, 7}))
        assert not validate_monochromatic_witness(t, (0,) * t.vertex_count, 2, 0, w)

    def test_rejects_insufficient_effective_height(self):
        t = complete_dary_tree(2, 2)
        with pytest.raises(PreconditionError):
            extract_monochromatic_subtree(t, (0,) * t.vertex_count, 2, (3,))

    def test_rejects_non_d_branch(self):
        t = RootedTree([(1,), (2, 3), (), ()])
        with pytest.raises(PreconditionError):
            extract_monochromatic_subtree(t, (0, 0, 0, 0), 3, (1,))


class TestTreeLowerBound:
    def test_binary_sixteen(self):
        assert tree_lower_bound(2, 16, 16) == 2

    def test_sixteen_ary(self):
        assert tree_lower_bound(16, 16, 16) == 4

    def test_vacuous_at_zero_effective_height(self):
        assert tree_lower_bound(2, 0, 16) == 0

    def test_height_condition_reporting(self):
        assert height_condition_met(2, 2)
        assert height_condition_met(16, 4)
        assert not height_condition_met(16, 3)

    def test_rejects_tiny_height(self):
        with pytest.raises(PreconditionError):
            tree_lower_bound(2, 4, 1)


class TestUndercolouredTree:
    def test_monochromatic_small_binary(self):
        t = complete_dary_tree(2, 2)
        colours = (0,) * t.vertex_count
        ce = find_anagram_undercoloured_tree(t, colours, 1, 2, 2)
        assert len(ce.vertices) == 2
        assert revalidate(ce, ColouredGraph(tree_to_base_graph(t), colours))

    def test_sixteen_ary_height_four_single_colour(self):
        t = complete_dary_tree(16, 4)
        colours = (0,) * t.vertex_count
        ce = find_anagram_undercoloured_tree(t, colours, 1, 16, 4)
        assert revalidate(ce, ColouredGraph(tree_to_base_graph(t), colours))

    @pytest.mark.parametrize("seed", range(8))
    def test_sixteen_ary_height_three_two_colours(self, seed):
        t = complete_dary_tree(16, 3)
        colours = seeded_tree_colouring(t, 2, seed)
        ce = find_anagram_undercoloured_tree(t, colours, 2, 16, 3)
        inst = ColouredGraph(tree_to_base_graph(t), colours)
        assert revalidate(ce, inst)
        # a recount on a graph without division vertices builds no runs
        assert "division_paths" not in inst.graph.__dict__

    def test_rejects_tree_taller_than_h(self):
        t = complete_dary_tree(2, 3)
        colours = (0,) * t.vertex_count
        with pytest.raises(PreconditionError, match="tree height 3 exceeds h = 2"):
            find_anagram_undercoloured_tree(t, colours, 1, 2, 2)
        ce = find_anagram_undercoloured_tree(t, colours, 1, 2, 3)
        assert revalidate(ce, ColouredGraph(tree_to_base_graph(t), colours))

    def test_rejects_x_at_bound(self):
        t = complete_dary_tree(2, 2)
        with pytest.raises(PreconditionError):
            find_anagram_undercoloured_tree(t, (0,) * t.vertex_count, 5, 2, 2)


class TestSeededDraws:
    @given(
        st.one_of(
            st.integers(1, 4),
            st.integers(1, 40).flatmap(lambda b: st.sampled_from([2**b - 1, 2**b, 2**b + 1])),
            st.integers(1, 2**40),
        ),
        st.integers(0, 2000),
        st.integers(),
    )
    @settings(max_examples=150, deadline=None)
    @example(1, 2000, 0)
    @example(2, 2000, 1)
    def test_are_randranges_draws(self, n, count, seed):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert _draws(ours, n, count) == [theirs.randrange(n) for _ in range(count)]
        assert ours.getstate() == theirs.getstate()

    @given(st.integers(0, 2**40), st.integers(0, 2000), st.integers())
    @settings(max_examples=60, deadline=None)
    @example(0, 2000, 0)
    def test_shifted_draws_are_randints(self, k, count, seed):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert _draws(ours, k + 1, count) == [theirs.randint(0, k) for _ in range(count)]
        assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize("seed", [0, 1, 4, 7, 2**31 - 1])
    @pytest.mark.parametrize("n, c, k", [(2, 1, 0), (30, 2, 1), (100, 2, 3), (12, 5, 9)])
    def test_kn_colouring_is_the_randrange_colouring(self, n, c, k, seed):
        counts, colours = randrange_kn_colouring(n, c, k, seed)
        cs = seeded_complete_subdivision_colouring(n, c, k, seed)
        assert (list(cs.graph.counts), list(cs.colour)) == (counts, colours)

    @pytest.mark.parametrize("seed", [0, 1, 4, 7, 2**31 - 1])
    @pytest.mark.parametrize("d, h, x", [(16, 3, 2), (2, 5, 3), (3, 2, 1), (1, 4, 7)])
    def test_tree_colouring_is_the_randrange_colouring(self, d, h, x, seed):
        t = complete_dary_tree(d, h)
        assert seeded_tree_colouring(t, x, seed) == randrange_tree_colouring(t, x, seed)


class TestBoundConsistencyWithConstructions:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_verified_complete_graph_colourings_respect_the_bound(self, n):
        # any anagram-free c-colouring of a (<= k)-subdivision of the
        # complete graph needs k >= kn_lower_bound(n, c); the constructions
        # use palettes larger than n here, where the bound is vacuous, but
        # the relation must never be violated
        from afsub.graph_constructions import colour_14

        g = complete_graph(n)
        c = colour_14(g)
        palette_size = len(c.coloured.palette)
        per_edge = [
            len(c.coloured.graph.division_paths[2 * i])
            + len(c.coloured.graph.division_paths[2 * i + 1])
            + 1
            for i in range(len(g.edges))
        ]
        k_real = max(per_edge)
        if n >= palette_size:
            assert k_real >= kn_lower_bound(n, palette_size)


class TestPigeonholePremise:
    @pytest.mark.parametrize("seed", range(6))
    def test_fewer_multisets_than_paths_in_extracted_subtree(self, seed):
        # the collision argument needs strictly fewer distinct root-to-leaf
        # colour multisets than root-to-leaf paths
        from afsub.bounds import witness_children

        t = complete_dary_tree(16, 3)
        colours = seeded_tree_colouring(t, 2, seed)
        w = extract_monochromatic_subtree(t, colours, 16, (2, 1))
        kids = witness_children(t, w)
        paths = []
        stack = [(w.root, [w.root])]
        while stack:
            v, path = stack.pop()
            if not kids[v]:
                paths.append(path)
                continue
            for c in kids[v]:
                stack.append((c, path + [c]))
        keys = {tuple(sorted(Counter(colours[u] for u in p).items())) for p in paths}
        assert len(keys) < len(paths)


class TestDaryTwoSided:
    def test_reference_point(self):
        lower, upper = dary_two_sided(2, 16, 12)
        assert upper == pytest.approx(160 / math.log(3, 3) + 14, rel=1e-12)
        assert upper == pytest.approx(174.0, rel=1e-12)
        expected_lower = math.sqrt(16 / math.log(16 * 13, 2))
        assert lower == pytest.approx(expected_lower, rel=1e-12)
        assert lower == pytest.approx(1.44, abs=5e-3)

    def test_rejects_k_at_most_2d(self):
        with pytest.raises(ValueError):
            dary_two_sided(2, 4, 4)

    def test_lower_at_most_upper_on_random_sweep(self):
        rng = random.Random(2024)
        for _ in range(1000):
            d = rng.randint(2, 40)
            h = rng.randint(1, 500)
            k = rng.randint(2 * d + 1, 10_000)
            lower, upper = dary_two_sided(d, h, k)
            assert lower <= upper

    def test_exposed_lower_form(self):
        assert subdivision_tree_lower_bound(2, 16, 12) == pytest.approx(
            math.sqrt(16 / math.log(208, 2)), rel=1e-12
        )

    @pytest.mark.parametrize("d", [2, 3, 16])
    def test_lower_form_refuses_a_one_vertex_path(self, d):
        # h * (k + 1) == 1 would take its log to base min(d, 1) == 1
        with pytest.raises(ValueError, match=r"h \* \(k \+ 1\) >= 2"):
            subdivision_tree_lower_bound(d, 1, 0)
        assert subdivision_tree_lower_bound(d, 1, 1) == pytest.approx(math.sqrt(1 / math.log(2, min(d, 4))))
        assert subdivision_tree_lower_bound(d, 2, 0) == pytest.approx(math.sqrt(2 / math.log(2, min(d, 4))))
