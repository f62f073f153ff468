"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criterion 6 is split: one test checks the 8-colour construction, the other
checks the condition-4 chain of its floor-rounded density sequence exactly.
The real-valued form (5/9) * S <= t_n/15 - 1 misses by (25S mod 3)/45, so
that test pins the miss as an exact identity and asserts the integer form
that condition 4's occurrence counts need.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from afsub import words
from afsub.bounds import (
    extract_monochromatic_subtree,
    find_anagram_pigeonhole,
    find_anagram_undercoloured_tree,
    kn_lower_bound,
    seeded_complete_subdivision_colouring,
    seeded_tree_colouring,
)
from afsub.graph_constructions import colour_14, colour_8, colour_merged, density_sequence
from afsub.graph_model import (
    BaseGraph,
    ColouredGraph,
    complete_dary_tree,
    complete_graph,
    path_graph,
    random_binary_tree,
    tree_to_base_graph,
)
from afsub.tree_constructions import build_binary_tree_8, build_dary_tree_10
from afsub.verifier import (
    check_discriminating,
    find_anagram,
    find_anagram_sampled,
    naive_find_anagram,
    revalidate,
)
from oracles import longest_anagram_free, validate_monochromatic_witness


class _Stopwatch:
    def __init__(self, budget_seconds):
        self.budget = budget_seconds
        self.start = time.perf_counter()

    @property
    def elapsed(self):
        return time.perf_counter() - self.start

    def check(self):
        assert self.elapsed < self.budget, f"exceeded time budget of {self.budget}s"


def _report(number, description):
    print(f"ACCEPTANCE {number}: PASS  {description}")


def test_criterion_01_word_extremes():
    clock = _Stopwatch(10)
    length2, witness2 = longest_anagram_free(2)
    length3, witness3 = longest_anagram_free(3)
    assert length2 == 3
    assert length3 == 7
    assert words.find_abelian_square(witness2) is None and len(witness2) == 3
    assert words.find_abelian_square(witness3) is None and len(witness3) == 7
    clock.check()
    _report(1, f"longest anagram-free words: alphabet 2 -> 3, alphabet 3 -> 7 ({clock.elapsed:.2f}s)")


def test_criterion_02_keranen_validity_and_density():
    clock = _Stopwatch(60)
    n = 10_000
    word = words.keranen_word(n)
    assert words.find_abelian_square(word) is None

    sym = np.array(word.symbols, dtype=np.int64)
    prefix = np.zeros((4, n + 1), dtype=np.int64)
    for c in range(4):
        prefix[c, 1:] = np.cumsum(sym == c)
    # every length-8 window contains all four symbols
    window8 = prefix[:, 8:] - prefix[:, :-8]
    assert int((window8 > 0).all(axis=0).sum()) == n - 7
    # every symbol appears at most ceil(m/2) times in every length-m window
    for m in range(8, n + 1):
        diff = prefix[:, m:] - prefix[:, :-m]
        assert int(diff.max()) <= (m + 1) // 2
    clock.check()
    _report(2, f"anagram-free 10^4 prefix with exact density bounds ({clock.elapsed:.1f}s)")


def test_criterion_03_binary_tree_reproduction():
    clock = _Stopwatch(300)
    cases = [complete_dary_tree(2, h) for h in (2, 3, 4)]
    cases += [random_binary_tree(4, seed) for seed in range(50)]
    for tree in cases:
        lab = build_binary_tree_8(tree)
        h = tree.height
        assert len(lab.coloured.palette) <= 8
        assert lab.coloured.max_division_count == 3 ** (h - 1) - 1
        assert find_anagram(lab.coloured).outcome == "anagram_free"
    clock.check()
    _report(3, f"8-colour binary constructions verified on {len(cases)} trees ({clock.elapsed:.1f}s)")


def test_criterion_04_dary_tree_reproduction():
    clock = _Stopwatch(600)
    for d, h in ((2, 2), (2, 3), (3, 2)):
        lab = build_dary_tree_10(d, h)
        assert len(lab.coloured.palette) <= 10
        edges = [(v, c) for v in range(lab.tree.vertex_count) for c in lab.tree.children[v]]
        for i, (u, _c) in enumerate(edges):
            z = lab.tree.depth[u]
            y = lab.tree.sibling_labels[i]
            assert len(lab.coloured.graph.division_paths[i]) == 2 * y * (d + 1) ** (h - z - 1)
        assert find_anagram(lab.coloured).outcome == "anagram_free"
        if (d, h) == (3, 2):
            top = {len(p) for (u, _), p in zip(edges, lab.coloured.graph.division_paths) if lab.tree.depth[u] == 0}
            bottom = {len(p) for (u, _), p in zip(edges, lab.coloured.graph.division_paths) if lab.tree.depth[u] == 1}
            assert top == {8, 16, 24} and bottom == {2, 4, 6}
    clock.check()
    _report(4, f"10-colour d-ary constructions with exact division counts ({clock.elapsed:.1f}s)")


def test_criterion_05_fourteen_colour_reproduction():
    clock = _Stopwatch(600)
    for g in (path_graph(2), path_graph(3)):
        c = colour_14(g)
        report = check_discriminating(c.coloured.graph, c.labels, c.coloured.colour)
        assert report.conditions == (True, True, True, True)
        assert find_anagram(c.coloured).outcome == "anagram_free"
    c = colour_14(complete_graph(3))
    report = check_discriminating(c.coloured.graph, c.labels, c.coloured.colour)
    assert report.conditions == (True, True, True, True)
    assert find_anagram(c.coloured).outcome == "anagram_free"
    assert find_anagram_sampled(c.coloured, 100_000, 20260810).outcome == "anagram_free"
    clock.check()
    _report(5, f"14-colour constructions: discriminating + verified ({clock.elapsed:.1f}s)")


def test_criterion_06_eight_colour_reproduction():
    clock = _Stopwatch(300)
    # sequence prefix against an independent exact evaluation
    def reference(m):
        ts = [8]
        for _ in range(m - 1):
            ts.append(15 + int(Fraction(25, 3) * sum(ts)))
        return tuple(ts)

    assert density_sequence(4) == (8, 81, 756, 7056) == reference(4)

    c = colour_8(path_graph(2))
    assert sorted(len(p) for p in c.coloured.graph.division_paths) == [24, 243]
    report = check_discriminating(c.coloured.graph, c.labels, c.coloured.colour)
    assert report.conditions == (True, True, True, True)
    assert find_anagram(c.coloured).outcome == "anagram_free"
    clock.check()
    _report(6, f"8-colour construction: sequence, discriminating, verified ({clock.elapsed:.1f}s)")


def test_criterion_06_rational_inequality():
    """Exact condition-4 chain of the density sequence for 2 <= n <= 12.

    With S = t_1 + ... + t_{n-1} and t_n = 15 + floor(25/3 * S),
    t_n - 15 = (25S - r)/3 where r = 25S mod 3, so exactly

        (5/9) * S - (t_n/15 - 1) == r/45.

    The real-valued form (5/9) * S <= t_n/15 - 1 therefore holds only when
    3 divides S.  Occurrence counts are integers, and condition 4 needs the
    integer form floor(5S/9) <= floor(t_n/15) - 1: an earlier total of at
    most (5/9) * S occurrences stays strictly below any count of at least
    floor(t_n/15).  For n <= 12 that bound holds with equality.
    """
    t = density_sequence(12)
    failures = []
    for n in range(2, 13):
        s = sum(t[: n - 1])
        excess = Fraction(5, 9) * s - (Fraction(t[n - 1], 15) - 1)
        miss = Fraction(25 * s % 3, 45)
        if excess != miss:
            failures.append((n, f"(5/9)*S - (t_n/15 - 1) = {excess}, not {miss}"))
        lower, upper = (5 * s) // 9, t[n - 1] // 15 - 1
        if lower > upper:
            failures.append((n, f"floor(5S/9) = {lower} > floor(t_n/15) - 1 = {upper}"))
    if failures:
        print("ACCEPTANCE 6 (rational inequality): FAIL  "
              f"condition-4 chain broken at {failures}")
    assert not failures, f"condition-4 chain of the density sequence broken: {failures}"
    _report("6 (rational inequality)", "exact condition-4 chain")


def test_criterion_07_merged_reproduction():
    clock = _Stopwatch(300)
    merged = colour_merged(path_graph(3), 2)
    assert len(merged.coloured.palette) <= 26
    assert find_anagram(merged.coloured).outcome == "anagram_free"

    merged1 = colour_merged(path_graph(3), 1)
    plain = colour_14(path_graph(3))
    assert merged1.coloured.graph == plain.coloured.graph
    assert merged1.coloured.colour == plain.coloured.colour
    assert find_anagram(merged1.coloured).outcome == find_anagram(plain.coloured).outcome == "anagram_free"
    clock.check()
    _report(7, f"merged constructions: palette cap + identical k=1 ({clock.elapsed:.1f}s)")


def test_criterion_08_complete_graph_witnesses():
    clock = _Stopwatch(120)
    assert 3 < kn_lower_bound(100, 2)
    produced = 0
    for seed in range(100):
        cs = seeded_complete_subdivision_colouring(100, 2, 3, seed)
        ce = find_anagram_pigeonhole(cs, 2)
        assert revalidate(ce, cs)
        produced += 1
    assert produced == 100
    clock.check()
    _report(8, f"pigeonhole witnesses on K_100: 100/100 validated ({clock.elapsed:.1f}s)")


def test_criterion_09_monochromatic_subtree_witnesses():
    clock = _Stopwatch(60)
    tree = complete_dary_tree(2, 6)
    produced = 0
    for seed in range(100):
        colours = seeded_tree_colouring(tree, 2, seed)
        w = extract_monochromatic_subtree(tree, colours, 2, (3, 3))
        assert validate_monochromatic_witness(tree, colours, 2, 3, w)
        produced += 1
    assert produced == 100
    clock.check()
    _report(9, f"monochromatic subtree extraction: 100/100 validated ({clock.elapsed:.1f}s)")


def test_criterion_10_undercoloured_tree_witnesses():
    clock = _Stopwatch(120)
    tree = complete_dary_tree(16, 3)
    base = tree_to_base_graph(tree)
    produced = 0
    for x, seed in itertools.product((1, 2), range(10)):
        colours = seeded_tree_colouring(tree, x, seed)
        ce = find_anagram_undercoloured_tree(tree, colours, x, 16, 3)
        assert revalidate(ce, ColouredGraph(base, colours))
        produced += 1
    assert produced == 20
    clock.check()
    _report(10, f"undercoloured tree witnesses: 20/20 validated ({clock.elapsed:.1f}s)")


def test_criterion_11_oracle_agreement():
    clock = _Stopwatch(60)
    agreements = 0
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randrange(4, 13)
        possible = list(itertools.combinations(range(n), 2))
        rng.shuffle(possible)
        g = BaseGraph(n, tuple(possible[: rng.randrange(1, n + 3)]))
        colours = tuple(rng.randrange(4) for _ in range(n))
        c = ColouredGraph(g, colours)
        fast = find_anagram(c)
        slow = naive_find_anagram(c)
        assert fast.outcome == slow.outcome
        if fast.outcome == "counterexample":
            assert revalidate(fast.counterexample, c)
            assert revalidate(slow.counterexample, c)
        agreements += 1
    assert agreements == 200
    clock.check()
    _report(11, f"exhaustive verifier agrees with naive oracle 200/200 ({clock.elapsed:.1f}s)")
