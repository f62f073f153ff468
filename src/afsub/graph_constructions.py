"""Sequence-subdivisions of general graphs and their discriminating colourings.

A bipartite graph whose edges are ranked white-endpoint-major and given
3 * t_rank division vertices apiece, with the division paths cut into
thirds X / Y / Z anchored at the white and black ends, supports colourings
whose restriction structure rules out anagrams.  colour_14 does this with a
doubling sequence and 14 colours; colour_8 squeezes the palette to 8 with a
faster-growing sequence calibrated to symbol densities of anagram-free
words; colour_merged splits the edges into k groups to trade division
counts against palette size (2 + 12k colours).

All three build through one helper, _sequence_construction, and return
one result type, SequenceConstruction(coloured, labels).  The helper
sequence-subdivides the 1-subdivision of the input by
build_sequence_subdivision, then colours the originals by their
bipartition class and each division path's thirds by the builder's rule.
The labels are the bipartition alone: the edge order (_sequence_ranks) and
each path's thirds (consecutive_thirds of oriented_division_path) follow
from it, and check_discriminating derives them by the same rules.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .graph_model import (
    BaseGraph,
    ColouredSubdivision,
    SubdividedGraph,
    coloured_subdivision,
    one_subdivision,
    subdivide,
)
from .words import keranen_symbols

BLACK_COLOUR = 0
WHITE_COLOUR = 1


def doubling_sequence(m: int) -> tuple[int, ...]:
    """(1, 2, 4, ..., 2^(m-1))."""
    if m < 1:
        raise ValueError("need at least one term")
    return tuple(1 << i for i in range(m))


def density_sequence(m: int) -> tuple[int, ...]:
    """t_1 = 8, t_n = 15 + floor(25/3 * sum of earlier terms), exact integers.

    Grows so that even the sparsest admissible occurrence count of a
    dedicated colour in one third of edge n beats the densest possible
    total over all earlier edges; satisfies t_n <= 15 * (1 + 75/9)^(n-1).
    With S = t_1 + ... + t_{n-1}, the floor makes
    (5/9) * S - (t_n/15 - 1) equal (25S mod 3)/45 exactly, so the
    real-valued form (5/9) * S <= t_n/15 - 1 holds only when 3 divides S;
    the integer form floor(5S/9) <= floor(t_n/15) - 1 is what condition 4's
    occurrence counts use.
    """
    if m < 1:
        raise ValueError("need at least one term")
    ts = [8]
    while len(ts) < m:
        ts.append(15 + (25 * sum(ts)) // 3)
    return tuple(ts)


def _sequence_ranks(g: BaseGraph, bipartition: Sequence[int]) -> list[int]:
    """1-based edge ranks of a sequence-subdivision.

    The vertex ranks put the blacks first and the whites after them, each
    class in id order; edges are ranked by (white-endpoint rank,
    black-endpoint rank), which is (white id, black id).
    """

    def key(i: int) -> tuple[int, int]:
        u, v = g.edges[i]
        return (u, v) if bipartition[u] == 1 else (v, u)

    edge_rank = [0] * len(g.edges)
    for r, i in enumerate(sorted(range(len(g.edges)), key=key), start=1):
        edge_rank[i] = r
    return edge_rank


def build_sequence_subdivision(
    g: BaseGraph, bipartition: Sequence[int], t: Sequence[int]
) -> tuple[SubdividedGraph, tuple[int, ...]]:
    """Subdivide edge e of a properly 2-coloured graph 3 * t[rank(e) - 1] times.

    Ranks are those of _sequence_ranks, and the labels returned are the
    bipartition as a tuple.  Edge i's thirds are the consecutive_thirds of
    its oriented_division_path, so X is adjacent to the white end and Z to
    the black.
    """
    bipartition = tuple(bipartition)
    if len(bipartition) != g.vertex_count or any(b not in (0, 1) for b in bipartition):
        raise ValueError("bipartition must assign 0 (black) or 1 (white) to every vertex")
    for u, v in g.edges:
        if bipartition[u] == bipartition[v]:
            raise ValueError(f"edge ({u}, {v}) is monochromatic: graph not properly 2-coloured")
    m = len(g.edges)
    if len(t) < m:
        raise ValueError(f"sequence has {len(t)} terms but {m} edges need ranks")
    if any(x < 1 for x in t[:m]):
        raise ValueError("sequence terms must be positive")

    s = subdivide(g, [3 * t[r - 1] for r in _sequence_ranks(g, bipartition)])
    return s, bipartition


def oriented_division_path(s: SubdividedGraph, bipartition: Sequence[int], i: int) -> tuple[int, ...]:
    """Division path of edge i ordered from its white end."""
    u, v = s.base.edges[i]
    return s.division_path_from(i, u if bipartition[u] == 1 else v)


def consecutive_thirds(path: Sequence[int]) -> tuple:
    """X, Y, Z: path cut into three equal consecutive parts, in order."""
    t = len(path) // 3
    return path[:t], path[t : 2 * t], path[2 * t :]


@dataclass(frozen=True)
class SequenceConstruction:
    """A coloured sequence-subdivision and its labels, the bipartition."""

    coloured: ColouredSubdivision
    labels: tuple[int, ...]


def _sequence_construction(
    g_prime: BaseGraph,
    sequence: Callable[[int], Sequence[int]],
    division_colours: Callable[[int, tuple], Iterable[int]],
    provenance: dict,
) -> SequenceConstruction:
    """Sequence-subdivide the 1-subdivision of g_prime and colour it.

    The 1-subdivision is properly 2-coloured with its originals black and
    its midpoints white.  The midpoints are numbered in source-edge order,
    so source edge i's two halves, subdivided edges 2i and 2i + 1, take the
    edge ranks 2i + 1 and 2i + 2.  sequence(m) gives the terms for its m
    edges in that rank order.  The originals are coloured black or white by
    class, and division_colours(i, thirds) gives the colours of edge i's X,
    Y and Z vertices, in that order, where thirds are the
    consecutive_thirds of its oriented_division_path.
    """
    if not g_prime.edges:
        raise ValueError("need at least one edge")
    one = one_subdivision(g_prime)
    bipartition = [0] * g_prime.vertex_count + [1] * len(g_prime.edges)
    s, labels = build_sequence_subdivision(one, bipartition, sequence(len(one.edges)))
    colours = [WHITE_COLOUR if b == 1 else BLACK_COLOUR for b in bipartition]
    colours += [0] * (s.vertex_count - len(colours))
    for i in range(len(one.edges)):
        thirds = consecutive_thirds(oriented_division_path(s, labels, i))
        for v, colour in zip(itertools.chain(*thirds), division_colours(i, thirds)):
            colours[v] = colour
    return SequenceConstruction(coloured_subdivision(s, colours, provenance), labels)


def _block_colours(j: int, thirds: tuple) -> list[int]:
    """Colours of a group-j edge of a doubling construction: each X, Y, Z
    third gets a fresh prefix of the anagram-free 4-symbol word over its own
    4-colour block, 12j + 2..5, 6..9 or 10..13."""
    return [12 * j + 4 * q + 2 + sym for q, third in enumerate(thirds) for sym in keranen_symbols(len(third))]


def colour_14(g_prime: BaseGraph) -> SequenceConstruction:
    """14-colour anagram-free subdivision of an arbitrary graph.

    The 1-subdivision of the input is bipartite; its edges get the doubling
    sequence, and each third family X / Y / Z is coloured path-by-path with
    fresh prefixes of the anagram-free 4-symbol word over its own 4-colour
    block.  The largest division count realised is 3 * 2^(2|E| - 1).
    """
    e_src = len(g_prime.edges)
    return _sequence_construction(
        g_prime,
        doubling_sequence,
        lambda _i, thirds: _block_colours(0, thirds),
        {
            "construction": "graph14",
            "source_edges": e_src,
            "division_bound": 3 * 2 ** (2 * e_src - 1),
            "division_bound_alt": 3 * 2 ** (2 * e_src - 1) - 1,
        },
    )


def colour_8(g_prime: BaseGraph) -> SequenceConstruction:
    """8-colour anagram-free subdivision of an arbitrary graph.

    Like colour_14 but over the density-calibrated sequence: each edge's
    whole division path is coloured by a fresh prefix of the anagram-free
    4-symbol word, with the fourth symbol split into three colours by
    X / Y / Z membership.  Palette: black, white, and colours 2..7.
    The density sequence grows about ninefold per term, with two terms per
    source edge: P_3 needs 23,703 division vertices, K_3 2,065,239 and a
    4-edge tree 179,905,728, which subdivide refuses as more than
    graph_model.MAX_VERTICES.
    """

    def division_colours(_i: int, thirds: tuple) -> list[int]:
        # one word along the path from its white end: 5 in X, 6 in Y, 7 in Z
        ti = len(thirds[0])
        return [2 + sym if sym < 3 else 5 + j // ti for j, sym in enumerate(keranen_symbols(3 * ti))]

    return _sequence_construction(
        g_prime, density_sequence, division_colours, {"construction": "graph8", "source_edges": len(g_prime.edges)}
    )


def colour_merged(g: BaseGraph, k: int) -> SequenceConstruction:
    """(2 + 12k)-colour subdivision: split the edges into k near-equal groups.

    Group j is a run of consecutive source edges, the first m mod k groups
    one edge longer than the rest.  Each group is treated as its own
    doubling-sequence construction over the shared 1-subdivision: its
    subdivided edges, a run of edge ranks, take 1, 2, 4, ... and the colours
    12j + 2..13, with black and white common to all groups, so larger k caps
    the division count at 3 * 4^ceil(|E|/k) per source edge.  k = 1 is
    colour_14.  The labels describe the whole 1-subdivision, and
    check_discriminating covers only k = 1: for k >= 2 each group restarts
    the sequence at 1, so condition 4, counted in one edge order over the
    whole graph, fails.
    """
    m = len(g.edges)
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= number of edges")
    sizes = [m // k + (1 if j < m % k else 0) for j in range(k)]
    group_of = [j for j, size in enumerate(sizes) for _ in range(size)]  # by source edge
    return _sequence_construction(
        g,
        lambda _m: [term for size in sizes for term in doubling_sequence(2 * size)],
        lambda i, thirds: _block_colours(group_of[i // 2], thirds),
        {
            "construction": "graph-merged",
            "source_edges": m,
            "k": k,
            "per_edge_division_bound": 3 * 4 ** (-(-m // k)),
        },
    )
