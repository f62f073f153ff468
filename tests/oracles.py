"""Brute-force oracles and helpers that only the tests use.

Each restates a rule directly and slowly, so a test can check the package's
own code against it; none of them ships in afsub.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Optional, Sequence

from afsub.bounds import MonochromaticWitness, _effective_height, witness_children
from afsub.graph_model import RootedTree
from afsub.words import _LETTERS, Word


def word_from_string(text: str, alphabet_size: Optional[int] = None) -> Word:
    """The word spelled by letters a, b, c, ... as symbols 0, 1, 2, ...; the
    alphabet defaults to the symbols up to the largest one used."""
    symbols = tuple(_LETTERS.index(ch) for ch in text)
    if alphabet_size is None:
        alphabet_size = max(symbols, default=-1) + 1 or 1
    return Word(symbols, alphabet_size)


def is_anagram(w) -> bool:
    """True iff w has even length >= 2 and its halves share one multiset."""
    s = w.symbols if isinstance(w, Word) else w
    n = len(s)
    if n < 2 or n % 2:
        return False
    h = n // 2
    return Counter(s[:h]) == Counter(s[h:])


def restrict(w: Word, keep: Iterable[int]) -> Word:
    """Subsequence of w keeping exactly the positions whose symbol is in keep."""
    keep_set = set(keep)
    for sym in keep_set:
        if not 0 <= sym < w.alphabet_size:
            raise ValueError(f"symbol {sym} outside alphabet")
    return Word(tuple(s for s in w.symbols if s in keep_set), w.alphabet_size)


def longest_anagram_free(alphabet_size: int) -> tuple[int, Word]:
    """Exhaustive search for the longest anagram-free word on 1-3 symbols.

    Explores only words whose distinct symbols first appear in increasing
    order; every word is a symbol permutation of such a word, and
    permutations preserve anagram-freeness, so the search is exhaustive.
    Returns the maximum length and the first witness found at that length.
    """
    if alphabet_size not in (1, 2, 3):
        raise ValueError(
            "exhaustive search only terminates for alphabets of size 1-3; "
            "4 symbols admit arbitrarily long anagram-free words"
        )
    best_len = 0
    best: tuple[int, ...] = ()
    word: list[int] = []

    def extend(used: int) -> None:
        nonlocal best_len, best
        if len(word) > best_len:
            best_len = len(word)
            best = tuple(word)
        for sym in range(min(used + 1, alphabet_size)):
            word.append(sym)
            if not any(is_anagram(word[-2 * L :]) for L in range(1, len(word) // 2 + 1)):
                extend(max(used, sym + 1))
            word.pop()

    extend(0)
    return best_len, Word(best, alphabet_size)


def multiset_count(k: int, c: int) -> int:
    """Number of multisets of size at most k over c colours: C(k + c, c)."""
    return math.comb(k + c, c)


def validate_monochromatic_witness(
    t: RootedTree, colours: Sequence[int], d: int, target: int, w: MonochromaticWitness
) -> bool:
    """Recount the witness guarantees from scratch: a subtree of t whose
    effective vertices all have w's colour and at least d children, and
    whose effective height is at least target."""
    kids = witness_children(t, w)
    for v in w.vertices:
        if v != w.root and t.parent[v] not in w.vertices:
            return False
    effective = {v for v in w.vertices if len(kids[v]) != 1}
    if any(colours[v] != w.colour for v in effective):
        return False
    if any(len(kids[v]) < d for v in effective if kids[v]):
        return False
    return _effective_height(kids, w.root) >= target


def leaves(t: RootedTree) -> tuple[int, ...]:
    return tuple(v for v in range(t.vertex_count) if not t.children[v])


def root_path(t: RootedTree, v: int) -> list[int]:
    """Vertices from the root of t down to v, inclusive."""
    path = [v]
    while t.parent[path[-1]] is not None:
        path.append(t.parent[path[-1]])
    return path[::-1]
