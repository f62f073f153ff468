"""Anagram-free colourings of tree subdivisions.

build_binary_tree_8: subdivides a binary tree so that a 2-label edge
colouring plus one anagram-free 4-symbol word yields an 8-colour
anagram-free colouring.  build_dary_tree_10 does the complete d-ary case
with 10 colours via a red/green split of each edge's division path, and
build_dary_banded trades division count against palette size by cutting
that tree into height bands, each coloured on its own 10-colour block; the
10-colour tree is the one-band case of the same labeller, _dary_bands.
All three builders return a LabelledTreeSubdivision, so prune_to_subtree
and the label checks serve each of them.  Every builder only assigns
labels (binary: root 1, every other vertex its parent edge's sibling label
1 or 2; d-ary: originals black or white by depth parity within their band,
each division path red in its parent half and green in the rest) and
colours through one kernel, _root_path_counts, which counts for every
vertex the vertices of its label on its root path: a vertex of label L
with count x is coloured (L, w_x), w the canonical anagram-free word.
Edge i of every labelling is RootedTree.edges[i], the base edge i of
tree_to_base_graph.  extend_plus_4 recolours any subdivision of an
already anagram-free graph with four extra colours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from . import graph_model
from .graph_model import (
    ColouredSubdivision,
    RootedTree,
    SubdividedGraph,
    complete_dary_tree,
    coloured_subdivision,
    dary_tree_vertex_count,
    subdivide,
    tree_to_base_graph,
)
from .words import keranen_symbols

BLACK, WHITE, RED, GREEN = "black", "white", "red", "green"
_OFFSET10 = {RED: 2, GREEN: 6}  # red and green colours are offset + word symbol


class EmbeddingError(ValueError):
    pass


@dataclass(frozen=True)
class LabelledTreeSubdivision:
    """A coloured tree subdivision plus the labelling that produced it."""

    coloured: ColouredSubdivision
    vertex_labels: tuple
    tree: RootedTree


def _trivial_vertex(tree: RootedTree, construction: str, **params) -> LabelledTreeSubdivision:
    base = tree_to_base_graph(tree)
    s = subdivide(base, [])
    cs = coloured_subdivision(s, (0,), {"construction": construction, "height": 0, **params})
    return LabelledTreeSubdivision(cs, (1,), tree)


def _root_path_counts(tree: RootedTree, s: SubdividedGraph, labels: Sequence) -> list[int]:
    """For every vertex of the subdivision s of tree, how many vertices on
    its root path, itself included, carry its label."""
    edges = tree.edges
    counts = [0] * s.vertex_count
    counts[tree.root] = 1
    on_path = {tree.root: {labels[tree.root]: 1}}  # label counts down to each original
    for i in sorted(range(len(edges)), key=lambda i: tree.depth[edges[i][0]]):
        u, c = edges[i]
        seen = dict(on_path[u])
        for v in (*s.division_paths[i], c):
            seen[labels[v]] = seen.get(labels[v], 0) + 1
            counts[v] = seen[labels[v]]
        on_path[c] = seen
    return counts


def build_binary_tree_8(tree: RootedTree) -> LabelledTreeSubdivision:
    """8-colour anagram-free subdivision of a binary tree.

    Edges at depth x from the root get 3^(h-x-1) - 1 division vertices.
    Sibling edges under a branch vertex are labelled 1 and 2 (single-child
    edges get label 1), the root is labelled 1, and every other vertex
    inherits its parent edge's label.  A vertex with label L whose root path
    contains x vertices of label L (itself included) is coloured (L, w_x)
    with w the canonical anagram-free 4-symbol word.
    """
    for v in range(tree.vertex_count):
        if len(tree.children[v]) > 2:
            raise ValueError(f"vertex {v} has more than two children")
    h = tree.height
    if h == 0:
        return _trivial_vertex(tree, "binary-tree-8")
    # the root edges alone have 3^(h-1) - 1 each: refused before every
    # edge's count is computed, and without printing that count
    if 3 ** (h - 1) - 1 > graph_model.MAX_VERTICES:
        raise ValueError(f"binary tree of height {h} needs more than {graph_model.MAX_VERTICES} "
                         "division vertices on a root edge")

    edges = tree.edges
    s = subdivide(tree_to_base_graph(tree), [3 ** (h - tree.depth[u] - 1) - 1 for u, _c in edges])
    labels = [1] * s.vertex_count
    for (_u, c), lab, path in zip(edges, tree.sibling_labels, s.division_paths):
        for v in (*path, c):
            labels[v] = lab
    counts = _root_path_counts(tree, s, labels)
    word = keranen_symbols(max(counts))
    colours = [_enc8(lab, word[x - 1]) for lab, x in zip(labels, counts)]

    cs = coloured_subdivision(
        s,
        colours,
        {
            "construction": "binary-tree-8",
            "height": h,
            "colour_legend": {str(_enc8(l, w)): [l, w + 1] for l in (1, 2) for w in range(4)},
        },
    )
    return LabelledTreeSubdivision(cs, tuple(labels), tree)


def _enc8(label: int, symbol: int) -> int:
    return 4 * (label - 1) + symbol


def subdivision_step(d: int, x: int, y: int) -> int:
    """Half the division count of a depth-(h-x) edge with sibling label y."""
    return y * (d + 1) ** (x - 1)


def _dary_bands(d: int, h: int, x: int, band: int, provenance: dict) -> LabelledTreeSubdivision:
    """Label and colour the complete d-ary tree of height h cut into x bands.

    Band i holds the depths i*band .. (i+1)*band - 1, the last band running
    to the leaves.  Within a band each edge at local depth z with sibling
    label y gets 2 * subdivision_step(d, band height - z, y) division
    vertices; the cut edges between bands get none.  Originals are black or
    white by local depth parity, each division path red in its parent half
    and green in the rest, and labels are counted per (band, label) so no
    count crosses a cut.  Band i colours on its own block 10*i .. 10*i + 9;
    the vertex of a one-vertex band gets 10*i.
    """
    tree = complete_dary_tree(d, h)
    edges = tree.edges
    band_of = [min(depth // band, x - 1) for depth in tree.depth]
    local_depth = [depth - band * i for depth, i in zip(tree.depth, band_of)]
    height = [min((i + 1) * band - 1, h) - i * band for i in range(x - 1)] + [h - (x - 1) * band]
    divisions = [
        2 * subdivision_step(d, height[band_of[u]] - local_depth[u], y) if band_of[u] == band_of[c] else 0
        for (u, c), y in zip(edges, tree.sibling_labels)
    ]
    s = subdivide(tree_to_base_graph(tree), divisions)
    labels = [WHITE if z % 2 == 0 else BLACK for z in local_depth]
    bands = list(band_of)
    for (u, _c), k in zip(edges, s.counts):  # division ids follow the originals, edge by edge
        labels += [RED] * (k // 2) + [GREEN] * (k - k // 2)
        bands += [band_of[u]] * k
    counts = _root_path_counts(tree, s, list(zip(bands, labels)))
    word = keranen_symbols(max(counts))
    # the black and white counts are never read: originals keep their side
    colours = [
        10 * i + (_OFFSET10[lab] + word[n - 1] if lab in _OFFSET10 else int(lab == WHITE and height[i] > 0))
        for i, lab, n in zip(bands, labels, counts)
    ]
    cs = coloured_subdivision(s, colours, provenance)
    return LabelledTreeSubdivision(cs, tuple(labels), tree)


def build_dary_tree_10(d: int, h: int) -> LabelledTreeSubdivision:
    """10-colour anagram-free subdivision of the complete d-ary tree.

    Sibling edges get labels 1..d; the edge at depth z with label y gets
    2 * y * (d+1)^(h-z-1) division vertices.  Originals carry a proper black
    and white 2-colouring.  The half of each division path nearer the parent
    is red, the other half green, and a red vertex whose root path holds i
    red vertices is coloured (w_i, red); green likewise.  This is the
    one-band case of the banded construction.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    if h < 0:
        raise ValueError("height must be non-negative")
    if h == 0:
        return _trivial_vertex(complete_dary_tree(d, h), "dary-tree-10", d=d)
    legend = {"0": [BLACK], "1": [WHITE]}
    legend.update({str(_OFFSET10[lab] + w): [lab, w + 1] for lab in (RED, GREEN) for w in range(4)})
    return _dary_bands(
        d, h, 1, h, {"construction": "dary-tree-10", "d": d, "height": h, "colour_legend": legend}
    )


def embed_by_child_order(t: RootedTree, host: RootedTree) -> dict[int, int]:
    """Map t's vertices into host, root to root and i-th child to i-th child."""
    image = {t.root: host.root}
    stack = [t.root]
    while stack:
        v = stack.pop()
        hv = image[v]
        kids = t.children[v]
        if len(kids) > len(host.children[hv]):
            raise EmbeddingError(
                f"vertex {v} has {len(kids)} children but its image offers "
                f"{len(host.children[hv])}"
            )
        for i, c in enumerate(kids):
            image[c] = host.children[hv][i]
            stack.append(c)
    return image


def prune_to_subtree(full: LabelledTreeSubdivision, t: RootedTree) -> LabelledTreeSubdivision:
    """Restrict a complete-tree construction to an embedded subtree.

    The colouring of a subgraph of an anagram-free colouring stays
    anagram-free, so the result inherits the full construction's guarantee.
    """
    prov = full.coloured.provenance
    image = embed_by_child_order(t, full.tree)
    full_index = {e: i for i, e in enumerate(full.tree.edges)}
    edge_image = [full_index[(image[u], image[c])] for u, c in t.edges]
    full_paths = full.coloured.graph.division_paths
    s = subdivide(tree_to_base_graph(t), [full.coloured.graph.counts[fi] for fi in edge_image])

    # the full-tree vertex behind each new one: division ids follow the
    # originals, edge by edge
    source = [image[v] for v in range(t.vertex_count)] + [dv for fi in edge_image for dv in full_paths[fi]]
    colours = [full.coloured.colour[v] for v in source]
    labels = [full.vertex_labels[v] for v in source]

    cs = coloured_subdivision(
        s,
        colours,
        {**prov, "construction": prov["construction"] + "-pruned", "pruned_vertices": t.vertex_count},
    )
    return LabelledTreeSubdivision(cs, tuple(labels), t)


def band_parameters(d: int, hprime: int, k: int) -> tuple[int, int]:
    """Number of bands x and band height for the banded construction.

    x is the least integer with (2d)^x * (d+1)^hprime <= k^x, i.e. the
    ceiling of hprime / log_{d+1}(k / 2d).  The float form, less two, is
    where an exact integer search starts; it steps x up by running
    products, so a wide tree, whose x runs to the tens of thousands, costs
    a few big-integer powers.  x = 1 when k >= 2d * (d+1)^hprime.  Refuses
    a tree of more than MAX_VERTICES vertices before (d+1)^hprime is
    computed.
    """
    if k <= 2 * d:
        raise ValueError("need k > 2d")
    dary_tree_vertex_count(d, hprime)
    lhs_base = 2 * d
    grow = (d + 1) ** hprime
    x = 1
    if k < lhs_base * grow:  # else x = 1; here k fits a float
        x = max(1, math.floor(hprime * math.log(d + 1) / math.log1p((k - lhs_base) / lhs_base)) - 2)
    lhs, rhs = lhs_base**x * grow, k**x
    while lhs > rhs:
        lhs, rhs, x = lhs * lhs_base, rhs * k, x + 1
    band = -(-hprime // x)
    return x, band


def build_dary_banded(d: int, hprime: int, k: int) -> LabelledTreeSubdivision:
    """(<= k)-subdivision of the complete d-ary tree with at most 10x colours.

    Cuts the edges at depths i * ceil(hprime/x) - 1 (the i = 0 cut is the
    vacuous depth -1), leaves them unsubdivided, and colours each band the
    way the 10-colour construction colours a tree of the band's height, on
    the band's own colour block (_dary_bands).
    """
    if d < 2 or hprime < 1:
        raise ValueError("need d >= 2 and hprime >= 1")
    x, band = band_parameters(d, hprime, k)
    lab = _dary_bands(
        d, hprime, x, band,
        {"construction": "dary-banded", "d": d, "height": hprime, "k": k, "bands": x, "band_height": band},
    )
    assert lab.coloured.max_division_count <= k
    return lab


def extend_plus_4(
    base: ColouredSubdivision,
    s: SubdividedGraph,
    new_colours: Optional[Sequence[int]] = None,
) -> ColouredSubdivision:
    """Colour a subdivision of an anagram-free-coloured graph with 4 extra colours.

    base is a ColouredGraph, the zero-count subdivision of s's base graph;
    originals keep its colours, and each edge's division path gets a fresh
    prefix of the canonical anagram-free 4-symbol word over four colours
    disjoint from the base palette.  The base colouring must itself be
    anagram-free for the result to be.
    """
    if s.base != base.graph.base or any(base.graph.counts):
        raise ValueError("subdivision does not match the coloured base graph")
    base_palette = set(base.palette)
    if new_colours is None:
        start = max(base_palette, default=-1) + 1
        new_colours = tuple(range(start, start + 4))
    else:
        new_colours = tuple(new_colours)
        if len(new_colours) != 4 or len(set(new_colours)) != 4:
            raise ValueError("exactly four distinct new colours required")
        if set(new_colours) & base_palette:
            raise ValueError("palette collision: new colours overlap the base palette")

    colours = list(base.colour) + [0] * (s.vertex_count - base.graph.vertex_count)
    for path in s.division_paths:
        word = keranen_symbols(len(path))
        for dv, sym in zip(path, word):
            colours[dv] = new_colours[sym]
    return coloured_subdivision(
        s,
        colours,
        {"construction": "extend-plus-4", "new_colours": list(new_colours)},
    )
