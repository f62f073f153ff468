"""Square-free and abelian-square-free words over small integer alphabets.

An *anagram* (abelian square) is a word of even length whose two halves have
equal symbol multisets.  A *square* is a word WW with W non-empty.  This
module generates arbitrarily long square-free words on 3 symbols and
anagram-free words on 4 symbols, and detects both kinds of repetition.

Abelian squares are found by one scanner for every length: prefix sums of
one wrapping uint64 hash weight per symbol rank select candidate windows,
and each candidate is confirmed by exact counts of its two halves, so the
result is exact and deterministic.  _ranks and _hash_weights serve this
scanner and the forest scan in verifier alike (which ranks by _ranks only
colours outside int64), and _ranks serves the discriminating audit too.
Squares are found exactly, from runs of matching positions.  Both
scanners compare a block of consecutive half-lengths in one numpy call,
one row per half-length read from a strided view of the padded word or
prefix array, with at most _BLOCK_ELEMENTS elements a block.

Symbols are 0-based integers; rendering as letters happens only at the CLI
boundary.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Word:
    """A finite symbol sequence over the alphabet {0, ..., alphabet_size-1}."""

    symbols: tuple[int, ...]
    alphabet_size: int

    def __post_init__(self):
        if self.alphabet_size <= 0:
            raise ValueError("alphabet_size must be positive")
        for s in self.symbols:
            if not 0 <= s < self.alphabet_size:
                raise ValueError(f"symbol {s} outside alphabet of size {self.alphabet_size}")

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __getitem__(self, i):
        return self.symbols[i]

    def to_string(self) -> str:
        if self.alphabet_size > len(_LETTERS):
            raise ValueError("alphabet too large for letter rendering")
        return "".join(_LETTERS[s] for s in self.symbols)


WordLike = Word | Sequence[int]


def _symbols_of(w: WordLike) -> Sequence[int]:
    return w.symbols if isinstance(w, Word) else w


def _ranks(symbols: Sequence[int]) -> tuple[np.ndarray, list[int]]:
    """Each symbol's rank among the distinct symbols, as an intp array, and
    the distinct symbols in sorted order, the rank of each its index."""
    import numpy as np

    distinct = sorted(set(symbols))
    rank_of = {sym: r for r, sym in enumerate(distinct)}
    return np.fromiter(map(rank_of.__getitem__, symbols), np.intp, len(symbols)), distinct


@functools.lru_cache(maxsize=64)
def _hash_weights(k: int, bits: int) -> np.ndarray:
    """k hash weights below 2 ** bits, one per symbol rank, from a fixed
    seed so that every run does the same work.  Cached per (k, bits), so
    the array is shared by every caller and read-only."""
    import numpy as np

    rng = random.Random(0x5EED)
    weights = np.array([rng.getrandbits(bits) for _ in range(k)], dtype=np.uint64)
    weights.flags.writeable = False
    return weights


# Most elements one block of a word scan compares at once: the block is
# as many consecutive half-lengths as fit, one row each.
_BLOCK_ELEMENTS = 16_384


def find_abelian_square(
    w: WordLike, *, length_major: bool = False, max_length: Optional[int] = None
) -> Optional[tuple[int, int]]:
    """Locate the first even factor of w that is an anagram.

    Returns (start, length) of the first abelian square under (start, length)
    order, or None if w is anagram-free.  With length_major=True the scan
    order is (length, start) instead, which finds short repetitions first.
    max_length, when given, skips the factors longer than it; the cyclic
    scan of a cycle's colour word uses it to keep each window a simple path.

    H[j] is the wrapping uint64 sum of one hash weight per symbol rank over
    w[:j], so halves with equal multisets have equal sums and every window
    (i, 2L) with 2 * H[i+L] == H[i] + H[i+2L] is a candidate.  H is padded
    past the word, and two read-only strided views of it hold one row per
    half-length L, starting at H[L] and at H[2L].  One comparison tests a
    block of consecutive half-lengths, rows x m with m the starts still in
    play and rows = max(1, _BLOCK_ELEMENTS // m).  The block's candidates
    are taken in the scan order, (length, start) or (start, length); in
    the latter, one any over the block finds the starts with a hit, and
    each one's lengths are read only when reached (_start_major_hits).
    Unequal multisets may collide too, so each candidate is confirmed by
    exact counts of its two halves, and one that fails is skipped: the
    result is exact and deterministic.  A candidate that runs past the word
    fails too, as its second half is cut shorter than its first.
    Total work is O(|w|^2) in either order, plus O(L) for each candidate
    checked.
    """
    import numpy as np
    from numpy.lib.stride_tricks import as_strided

    s = _symbols_of(w)
    n = len(s)
    top = (n if max_length is None else min(n, max_length)) // 2
    if top < 1:
        return None
    rank, distinct = _ranks(s)
    k = len(distinct)
    H = np.zeros(n + 2 * top, dtype=np.uint64)
    np.cumsum(_hash_weights(k, 64)[rank], out=H[1 : n + 1])
    twice = H * np.uint64(2)
    step = H.strides[0]
    # row L - 1 of mid starts at twice[L], of far at H[2L]
    mid = as_strided(twice[1:], shape=(top, n - 1), strides=(step, step), writeable=False)
    far = as_strided(H[2:], shape=(top, n - 1), strides=(2 * step, step), writeable=False)
    best: Optional[tuple[int, int]] = None
    starts = n  # only starts below this can still come first
    L = 1
    while L <= top:
        m = min(n - 2 * L + 1, starts)
        rows = min(max(1, _BLOCK_ELEMENTS // m), top - L + 1)
        block = mid[L - 1 : L - 1 + rows, :m] == H[:m] + far[L - 1 : L - 1 + rows, :m]
        if block.any():  # rarely true, and any costs far less than nonzero
            if length_major:
                found = zip(*(a.tolist() for a in np.nonzero(block)))
            else:
                found = _start_major_hits(block)
            for r, i in found:
                half = L + r
                if np.array_equal(
                    np.bincount(rank[i : i + half], minlength=k),
                    np.bincount(rank[i + half : i + 2 * half], minlength=k),
                ):
                    best, starts = (i, 2 * half), i
                    break
            if best is not None and (length_major or starts == 0):
                break
        L += rows
    return best


def _start_major_hits(block: np.ndarray) -> Iterator[tuple[int, int]]:
    """The (row, column) of every True of block, column by column and down
    each column: the columns with a hit are found at once, and each one's
    rows are read only when the scan reaches it."""
    import numpy as np

    for i in np.flatnonzero(block.any(axis=0)).tolist():
        for r in np.flatnonzero(block[:, i]).tolist():
            yield r, i


def find_square(w: WordLike) -> Optional[tuple[int, int]]:
    """First factor WW (W non-empty) by (start, length) order, or None.

    The word is padded with a number below every symbol, and a read-only
    strided view of it holds one row per half-length L,
    starting at position L.  One comparison with the word's start marks
    every position whose symbol differs from the one L places on, for a
    block of consecutive half-lengths, each row between two extra marks.
    (i, 2L) is a square iff its first L positions all match, that is iff a
    run of at least L matches starts at i: so a row's first square starts
    where the first such run does, read from the gaps between its marks.
    A window that runs past the word compares a symbol with the padding, so
    it is never a square.  A block has at most _BLOCK_ELEMENTS elements, and its hits are
    taken in (start, length) order.

    The scan is exact by construction.  It takes no positional hash:
    polynomial hashes mod 2^64 collide on Thue-Morse-like words, so their
    candidates would need confirming, and on thue_symbols(16384) one such
    hash gave 12,288 false candidates.
    """
    import numpy as np
    from numpy.lib.stride_tricks import as_strided

    s = _symbols_of(w)
    n = len(s)
    top = n // 2
    if top < 1:
        return None
    a = np.asarray(s, dtype=np.int64)
    a = np.concatenate((a, np.full(n, a.min() - 1)))
    step = a.strides[0]
    # row L - 1 of ahead starts at a[L]; a block reads at most n + top - 2
    # positions of a row
    ahead = as_strided(a[1:], shape=(top, n + top - 2), strides=(step, step), writeable=False)
    best: Optional[tuple[int, int]] = None
    starts = n  # only starts below this can still come first
    L = 1
    while L <= top:
        m = min(n - 2 * L + 1, starts)
        # a block of rows half-lengths reads width = m + L + rows - 2
        # positions per row, and rows * (width + 2) <= _BLOCK_ELEMENTS
        c = m + L
        rows = min(max(1, (math.isqrt(c * c + 4 * _BLOCK_ELEMENTS) - c) // 2), top - L + 1)
        width = c + rows - 2
        marks = np.ones((rows, width + 2), dtype=bool)
        np.not_equal(a[:width], ahead[L - 1 : L - 1 + rows, :width], out=marks[:, 1:-1])
        at = np.flatnonzero(marks)
        # gap - 1 matches follow each mark; marks column j + 1 holds
        # position j, so they start at the position numbered as the mark's
        # column
        gap = at[1:] - at[:-1]
        long = np.flatnonzero(gap > L)
        if long.size:
            row, col = np.divmod(at[long], width + 2)
            hit = (gap[long] > L + row) & (col < m)
            if hit.any():
                starts, r = divmod(int((col * rows + row)[hit].min()), rows)
                best = (starts, 2 * (L + r))
                if starts == 0:
                    break
        L += rows
    return best


# Fixed point of 0 -> 012, 1 -> 02, 2 -> 1, a standard square-free word on
# three symbols.
_THUE_IMAGES = ((0, 1, 2), (0, 2), (1,))

# 85-uniform morphism producing an abelian-square-free fixed point on four
# symbols.  The image of symbol k is the image of 0 shifted by k mod 4
# (cyclic symbol permutation), which makes the output reproducible
# bit-for-bit.
KERANEN_IMAGE: tuple[int, ...] = tuple(
    "abcd".index(ch)
    for ch in "abcacdcbcdcadcdbdabacabadbabcbdbcbacbcdcacbabdabacadcbcdcacdbcbacbcdcacdcbdcdadbdcbca"
)
_KERANEN_IMAGES = tuple(tuple((s + k) % 4 for s in KERANEN_IMAGE) for k in range(4))

_keranen_cache: list[int] = [0]
_thue_cache: list[int] = [0]


def _fixed_point_prefix(cache: list[int], images, n: int) -> list[int]:
    while len(cache) < n:
        out: list[int] = []
        for sym in cache:
            out.extend(images[sym])
            if len(out) >= n:
                break
        cache[:] = out
    return cache[:n]


def thue_symbols(n: int) -> list[int]:
    if n < 0:
        raise ValueError("length must be non-negative")
    return _fixed_point_prefix(_thue_cache, _THUE_IMAGES, n)


def keranen_symbols(n: int) -> list[int]:
    if n < 0:
        raise ValueError("length must be non-negative")
    return _fixed_point_prefix(_keranen_cache, _KERANEN_IMAGES, n)


def thue_word(n: int) -> Word:
    """Length-n prefix of a fixed square-free word on {0, 1, 2}."""
    return Word(tuple(thue_symbols(n)), 3)


def keranen_word(n: int) -> Word:
    """Length-n prefix of a fixed abelian-square-free word on {0, 1, 2, 3}."""
    return Word(tuple(keranen_symbols(n)), 4)
