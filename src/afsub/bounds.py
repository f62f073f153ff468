"""Constructive lower-bound witnesses.

find_anagram_pigeonhole turns a violation of kn_lower_bound into a
concrete anagram by grouping clique edges by division-multiset.
extract_monochromatic_subtree and find_anagram_undercoloured_tree do the
analogous job for subdivided trees coloured below tree_lower_bound.  Both
witnesses key paths by verifier.multiset_of and build their Counterexample
with Counterexample.of.  The tree witnesses read a tree's effective
height from RootedTree.effective_height, derived once per tree, and its
height from RootedTree.height, which keeps no depth per vertex.  The
closed forms live in closed_forms, which a bound loads alone; they are
re-exported here.

The seeded colourings draw through _draws, which makes exactly the draws
random.Random(seed).randrange makes, word for word, without its
per-call overhead: their outputs are those of randrange and randint.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .closed_forms import (
    PreconditionError,
    dary_two_sided,
    height_condition_met,
    kn_lower_bound,
    subdivision_tree_lower_bound,
    tree_lower_bound,
)
from .graph_model import ColouredSubdivision, RootedTree, coloured_subdivision, complete_graph, subdivide
from .verifier import Counterexample, multiset_of


class WitnessSearchFailed(RuntimeError):
    """A guaranteed witness could not be produced; indicates a build defect."""


def find_anagram_pigeonhole(s: ColouredSubdivision, c: int) -> Counterexample:
    """Anagram witness in an undersubdivided colouring of a complete graph.

    Picks a largest monochromatic original-vertex class, groups the clique
    edges inside it by the colour multiset of their division vertices, and
    finds a vertex v meeting two same-multiset edges alpha = uv and
    beta = vw.  The walk u, divisions(alpha), v, divisions(beta) splits into
    halves {u} + alpha-divisions and {v} + beta-divisions with equal
    multisets, hence is an anagram.  Guaranteed to exist whenever the
    palette has at most c colours and the maximum division count is below
    kn_lower_bound(n, c).
    """
    g = s.graph.base
    n = g.vertex_count
    if len(g.edges) != n * (n - 1) // 2:  # a BaseGraph has no loops or repeats
        raise PreconditionError("base graph is not a complete graph")
    if len(s.palette) > c:
        raise PreconditionError(f"colouring uses {len(s.palette)} > {c} colours")
    k = s.max_division_count
    bound = kn_lower_bound(n, c)
    if k >= bound:
        raise PreconditionError(f"division count {k} is not below the bound {bound:.4f}")

    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(s.colour[v], []).append(v)
    best_colour = max(classes, key=lambda col: (len(classes[col]), -col))
    clique = set(classes[best_colour])

    edge_of: dict[tuple, int] = {}  # (multiset key, shared endpoint) -> edge index
    for i, (u, v) in enumerate(g.edges):
        if u not in clique or v not in clique:
            continue
        key = multiset_of(s.colour, s.graph.division_paths[i])
        for shared, other in ((u, v), (v, u)):
            prev = edge_of.get((key, shared))
            if prev is not None:
                return _assemble_pigeonhole_witness(s, prev, i, shared)
        edge_of[(key, u)] = i
        edge_of[(key, v)] = i
    raise WitnessSearchFailed(
        "no same-multiset edge pair shares a vertex; the pigeonhole guarantee failed"
    )


def _assemble_pigeonhole_witness(s: ColouredSubdivision, alpha: int, beta: int, shared: int) -> Counterexample:
    au, av = s.graph.base.edges[alpha]
    u = av if au == shared else au
    path_alpha = s.graph.division_path_from(alpha, u)  # runs u -> shared
    path_beta = s.graph.division_path_from(beta, shared)  # runs shared -> w
    return Counterexample.of((u, *path_alpha, shared, *path_beta), 1 + len(path_alpha), s.colour)


@dataclass(frozen=True)
class EffectiveStructure:
    """Leaves and branch vertices of a rooted tree, with derived heights."""

    tree: RootedTree
    effective_vertices: frozenset
    effective_root: int
    effective_height: int


def branch_vertices(t: RootedTree) -> list[int]:
    return [v for v in range(t.vertex_count) if len(t.children[v]) >= 2]


def effective_structure(t: RootedTree) -> EffectiveStructure:
    eff = {v for v in range(t.vertex_count) if len(t.children[v]) != 1}
    root = t.root
    while root not in eff:
        root = t.children[root][0]
    return EffectiveStructure(t, frozenset(eff), root, t.effective_height)


def is_d_branch(t: RootedTree, d: int) -> bool:
    return all(len(t.children[v]) >= d for v in branch_vertices(t))


@dataclass(frozen=True)
class MonochromaticWitness:
    """A subtree whose leaves and branch vertices all share one colour."""

    colour: int
    root: int
    vertices: frozenset


def extract_monochromatic_subtree(
    t: RootedTree, colours: Sequence[int], d: int, targets: Sequence[int]
) -> MonochromaticWitness:
    """Essentially monochromatic d-branch subtree extraction.

    Given a d-branch tree whose effective height is at least the sum of the
    targets, returns a witness of colour i whose effective height is at
    least targets[i], following the inductive recipe: recurse below the
    effective root with that root's colour target lowered, bubble up any
    other-coloured witness unchanged, or stitch the d same-coloured
    witnesses back together through the effective root.
    """
    if d < 2:
        raise PreconditionError("need d >= 2")
    if not is_d_branch(t, d):
        raise PreconditionError("tree is not d-branch")
    targets = list(targets)
    if any(a < 0 for a in targets):
        raise PreconditionError("targets must be non-negative")
    if t.effective_height < sum(targets):
        raise PreconditionError("effective height below the sum of targets")
    for v in range(t.vertex_count):
        if not 0 <= colours[v] < len(targets):
            raise PreconditionError(f"vertex {v} coloured outside the target range")

    def effective_root_below(v: int) -> int:
        while len(t.children[v]) == 1:
            v = t.children[v][0]
        return v

    def rec(sub_root: int, a: list[int]) -> tuple[int, int, set[int]]:
        v = effective_root_below(sub_root)
        i = colours[v]
        if a[i] <= 0:
            return i, v, {v}
        if not t.children[v]:
            raise WitnessSearchFailed("ran out of branch vertices with targets unmet")
        a_next = a.copy()
        a_next[i] -= 1
        parts: list[tuple[int, set[int]]] = []
        for child in t.children[v][:d]:
            ij, rj, sj = rec(child, a_next)
            if ij != i:
                return ij, rj, sj  # already meets its full, undecremented target
            parts.append((rj, sj))
        members = {v}
        for rj, sj in parts:
            members |= sj
            cur = rj
            while cur != v:
                members.add(cur)
                cur = t.parent[cur]
        return i, v, members

    colour, root, members = rec(t.root, targets)
    return MonochromaticWitness(colour, root, frozenset(members))


def witness_children(t: RootedTree, w: MonochromaticWitness) -> dict[int, list[int]]:
    """Child lists of the witness subtree, in t's child order."""
    return {v: [c for c in t.children[v] if c in w.vertices] for v in w.vertices}


def find_anagram_undercoloured_tree(
    t: RootedTree, colours: Sequence[int], x: int, d: int, h: int
) -> Counterexample:
    """Anagram witness in an x-coloured tree with x below tree_lower_bound.

    Extracts an essentially monochromatic d-branch subtree with equitable
    targets (earlier colours take the ceilings), groups its root-to-leaf
    paths by colour multiset, and on the guaranteed collision P1, P2 with
    meeting vertex v and leaf l1 returns the path that climbs from just
    above l1 through v and down to l2: dropping l1 and adding v preserves
    the half multisets because both are effective, hence share the
    monochromatic colour.  Refuses a tree of height above h.
    """
    if (height := t.height) > h:
        raise PreconditionError(f"tree height {height} exceeds h = {h}")
    h_eff = t.effective_height
    bound = tree_lower_bound(d, h_eff, h)
    if x >= bound:
        raise PreconditionError(f"x = {x} is not below the bound {bound}")
    used = {colours[v] for v in range(t.vertex_count)}
    if not used <= set(range(x)):
        raise PreconditionError(f"colours {sorted(used)} not within 0..{x - 1}")

    base_target, extra = divmod(h_eff, x)
    targets = [base_target + (1 if i < extra else 0) for i in range(x)]
    w = extract_monochromatic_subtree(t, colours, d, targets)
    kids = witness_children(t, w)

    # witness members are closed under t-parents, so root-to-leaf paths of
    # the witness follow direct child links
    paths: dict[tuple, list[int]] = {}
    stack: list[tuple[int, list[int]]] = [(w.root, [w.root])]
    while stack:
        v, path = stack.pop()
        if not kids[v]:
            key = multiset_of(colours, path)
            other = paths.get(key)
            if other is not None:
                return _assemble_tree_witness(colours, other, path)
            paths[key] = path
            continue
        for c in reversed(kids[v]):
            stack.append((c, path + [c]))
    raise WitnessSearchFailed("no two root-to-leaf colour multisets collided")


def _assemble_tree_witness(colours: Sequence[int], p1: list[int], p2: list[int]) -> Counterexample:
    common = 0
    while common < min(len(p1), len(p2)) and p1[common] == p2[common]:
        common += 1
    v = p1[common - 1]
    seg1 = p1[common:]
    seg2 = p2[common:]
    vertices = list(reversed(seg1))[1:] + [v] + seg2  # drop leaf l1, keep v
    return Counterexample.of(vertices, len(seg1), colours)


def seeded_complete_subdivision_colouring(n: int, c: int, k: int, seed: int) -> ColouredSubdivision:
    """Uniform (<= k)-subdivision of the complete graph on n vertices with a
    uniform c-colouring, both driven by one seed.  Witness-instance plumbing."""
    if n < 2 or c < 1 or k < 0:
        raise ValueError("need n >= 2, c >= 1, k >= 0")
    rng = random.Random(seed)
    g = complete_graph(n)
    s = subdivide(g, _draws(rng, k + 1, len(g.edges)))  # randint(0, k) per edge
    colours = _draws(rng, c, s.vertex_count)
    return coloured_subdivision(
        s, colours, {"construction": "seeded-kn", "n": n, "c": c, "k": k, "seed": seed}
    )


def seeded_tree_colouring(t: RootedTree, x: int, seed: int) -> tuple[int, ...]:
    """Uniform x-colouring of a tree's vertices."""
    if x < 1:
        raise ValueError("need at least one colour")
    return tuple(_draws(random.Random(seed), x, t.vertex_count))


def _draws(rng: random.Random, n: int, count: int) -> list[int]:
    """count draws of rng.randrange(n), n >= 1, leaving rng as they would:
    randrange's own rejection loop, which draws n.bit_length() bits and
    draws again at n or above, run inline."""
    getrandbits = rng.getrandbits
    k = n.bit_length()
    out: list[int] = []
    append = out.append
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        append(r)
    return out
