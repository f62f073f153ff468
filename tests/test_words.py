import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afsub import words
from afsub.words import (
    KERANEN_IMAGE,
    Word,
    find_abelian_square,
    find_square,
    keranen_word,
    thue_word,
)
from oracles import is_anagram, longest_anagram_free, restrict, word_from_string


def naive_abelian_square(symbols, max_length=None):
    """Reference oracle: direct Counter comparison over all windows no
    longer than max_length."""
    n = len(symbols)
    top = n if max_length is None else max_length
    for i in range(n):
        for L in range(1, min(n - i, top) // 2 + 1):
            if Counter(symbols[i : i + L]) == Counter(symbols[i + L : i + 2 * L]):
                return (i, 2 * L)
    return None


def naive_abelian_square_length_major(symbols, max_length=None):
    """Reference oracle in (length, start) order: direct Counter comparison."""
    n = len(symbols)
    top = n if max_length is None else max_length
    for L in range(1, min(n, top) // 2 + 1):
        for i in range(n - 2 * L + 1):
            if Counter(symbols[i : i + L]) == Counter(symbols[i + L : i + 2 * L]):
                return (i, 2 * L)
    return None


def naive_square(symbols):
    """Reference oracle: exhaustive factor scan."""
    n = len(symbols)
    for i in range(n):
        for L in range(1, (n - i) // 2 + 1):
            if symbols[i : i + L] == symbols[i + L : i + 2 * L]:
                return (i, 2 * L)
    return None


def w(text):
    return word_from_string(text, alphabet_size=4)


class TestIsAnagram:
    def test_halves_share_multiset(self):
        assert is_anagram(w("abba"))

    def test_halves_differ(self):
        assert not is_anagram(w("aabb"))

    def test_odd_length(self):
        assert not is_anagram(w("abc"))

    def test_empty_and_single(self):
        assert not is_anagram(w(""))
        assert not is_anagram(w("a"))

    @given(st.lists(st.integers(0, 3), max_size=24))
    def test_matches_full_window_scan(self, symbols):
        # an anagram is exactly a word whose full window is an abelian square
        full = (0, len(symbols))
        hit = naive_abelian_square(symbols)
        windows = set()
        n = len(symbols)
        for i in range(n):
            for L in range(1, (n - i) // 2 + 1):
                if Counter(symbols[i : i + L]) == Counter(symbols[i + L : i + 2 * L]):
                    windows.add((i, 2 * L))
        assert is_anagram(symbols) == (full in windows)


class TestFindAbelianSquare:
    def test_all_distinct(self):
        assert find_abelian_square(w("abcd")) is None

    def test_square_is_found_whole(self):
        assert find_abelian_square(w("abab")) == (0, 4)

    def test_shortest(self):
        assert find_abelian_square(w("aa")) == (0, 2)

    @given(st.lists(st.integers(0, 3), max_size=40))
    def test_agrees_with_naive_oracle(self, symbols):
        assert find_abelian_square(symbols) == naive_abelian_square(symbols)

    @given(st.lists(st.integers(0, 3), max_size=40))
    def test_length_major_agrees_with_naive_oracle(self, symbols):
        assert find_abelian_square(symbols, length_major=True) == naive_abelian_square_length_major(symbols)

    @pytest.mark.parametrize("seed", range(6))
    def test_long_random_words_agree_with_naive_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(300, 700)
        symbols = [rng.randrange(4) for _ in range(n)]
        assert find_abelian_square(symbols) == naive_abelian_square(symbols)

    @pytest.mark.parametrize("seed", range(4))
    def test_vectorised_length_major_agrees(self, seed):
        rng = random.Random(100 + seed)
        symbols = [rng.randrange(3) for _ in range(rng.randrange(280, 500))]
        assert find_abelian_square(symbols, length_major=True) == naive_abelian_square_length_major(symbols)

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_both_orders_against_oracles_across_threshold(self, data):
        # Keränen prefixes are anagram-free, so a few random edits leave the
        # first hit anywhere in the word.  The 26-symbol words stay
        # anagram-free before the edits: six consecutive blocks over
        # disjoint 4-symbol ranges between two symbols that occur once.
        n = data.draw(st.sampled_from([16, 63, 255, 256, 300]))
        alphabet = data.draw(st.sampled_from([4, 26]))
        if alphabet == 4:
            symbols = words.keranen_symbols(n)
        else:
            body = words.keranen_symbols(n - 2)
            symbols = [24] + [sym + 4 * (6 * j // (n - 2)) for j, sym in enumerate(body)] + [25]
        for _ in range(data.draw(st.integers(0, 3))):
            symbols[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(0, alphabet - 1))
        assert find_abelian_square(symbols) == naive_abelian_square(symbols)
        assert find_abelian_square(symbols, length_major=True) == naive_abelian_square_length_major(symbols)

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_max_length_against_capped_oracles_across_threshold(self, data):
        # edits in a Keränen prefix leave hits of every length, so a cap
        # both drops some and keeps others
        n = data.draw(st.sampled_from([16, 63, 255, 256, 300]))
        symbols = words.keranen_symbols(n)
        for _ in range(data.draw(st.integers(0, 3))):
            symbols[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(0, 3))
        cap = data.draw(st.integers(0, n + 2))
        assert find_abelian_square(symbols, max_length=cap) == naive_abelian_square(symbols, cap)
        assert find_abelian_square(symbols, length_major=True, max_length=cap) == (
            naive_abelian_square_length_major(symbols, cap)
        )

    @given(st.lists(st.integers(0, 3), max_size=40), st.integers(0, 42))
    def test_max_length_on_short_words(self, symbols, cap):
        assert find_abelian_square(symbols, max_length=cap) == naive_abelian_square(symbols, cap)
        assert find_abelian_square(symbols, length_major=True, max_length=cap) == (
            naive_abelian_square_length_major(symbols, cap)
        )

    def test_length_major_order(self):
        # (start, length) order picks (0, 4); (length, start) picks (1, 2)
        symbols = [0, 1, 1, 0]
        assert find_abelian_square(symbols) == (0, 4)
        assert find_abelian_square(symbols, length_major=True) == (1, 2)


def equal_weights(k, bits):
    """Hash weights that give both halves of every window the same sum."""
    return np.ones(k, dtype=np.uint64)


def assert_both_orders_match_oracles(symbols, cap):
    assert find_abelian_square(symbols, max_length=cap) == naive_abelian_square(symbols, cap)
    assert find_abelian_square(symbols, length_major=True, max_length=cap) == (
        naive_abelian_square_length_major(symbols, cap)
    )


class TestCollidingWeights:
    # every window is a candidate, so only the exact confirmation decides

    @given(st.lists(st.integers(0, 3), max_size=40), st.none() | st.integers(0, 42))
    def test_short_words(self, symbols, cap):
        with mock.patch.object(words, "_hash_weights", equal_weights):
            assert_both_orders_match_oracles(symbols, cap)

    @pytest.mark.parametrize("seed", range(4))
    def test_edited_keranen_prefix(self, seed):
        rng = random.Random(seed)
        symbols = words.keranen_symbols(256)
        for _ in range(seed):
            symbols[rng.randrange(256)] = rng.randrange(4)
        with mock.patch.object(words, "_hash_weights", equal_weights):
            for cap in (None, rng.randrange(2, 257)):
                assert_both_orders_match_oracles(symbols, cap)


def edited(symbols, data, alphabet):
    """symbols with up to three positions drawn and rewritten."""
    symbols = list(symbols)
    for _ in range(data.draw(st.integers(0, 3))):
        if symbols:
            symbols[data.draw(st.integers(0, len(symbols) - 1))] = data.draw(st.integers(0, alphabet - 1))
    return symbols


small_blocks = st.sampled_from([1, 2, 3, 7, 40])


class TestBlocksOfHalfLengths:
    # a small block makes short words cross several blocks, with rows of
    # different widths in one block

    @given(st.lists(st.integers(0, 3), max_size=60), st.none() | st.integers(0, 62), small_blocks)
    @settings(max_examples=200, deadline=None)
    def test_abelian_both_orders(self, symbols, cap, block):
        with mock.patch.object(words, "_BLOCK_ELEMENTS", block):
            assert_both_orders_match_oracles(symbols, cap)

    @given(st.data(), small_blocks)
    @settings(max_examples=60, deadline=None)
    def test_abelian_on_edited_keranen_prefixes(self, data, block):
        n = data.draw(st.integers(0, 180))
        symbols = edited(words.keranen_symbols(n), data, 4)
        cap = data.draw(st.none() | st.integers(0, n + 2))
        with mock.patch.object(words, "_BLOCK_ELEMENTS", block):
            assert_both_orders_match_oracles(symbols, cap)

    @given(st.lists(st.integers(0, 3), max_size=40), st.none() | st.integers(0, 42), small_blocks)
    @settings(max_examples=100, deadline=None)
    def test_abelian_under_equal_weights(self, symbols, cap, block):
        # every window is a candidate, so the block's candidate order and
        # the exact confirmation decide
        with mock.patch.object(words, "_BLOCK_ELEMENTS", block), mock.patch.object(
            words, "_hash_weights", equal_weights
        ):
            assert_both_orders_match_oracles(symbols, cap)

    @given(st.lists(st.integers(0, 2), max_size=60), small_blocks)
    @settings(max_examples=200, deadline=None)
    def test_square(self, symbols, block):
        with mock.patch.object(words, "_BLOCK_ELEMENTS", block):
            assert find_square(symbols) == naive_square(symbols)

    @given(st.data(), small_blocks)
    @settings(max_examples=100, deadline=None)
    def test_square_on_edited_thue_prefixes(self, data, block):
        # Thue prefixes are square-free, so a few edits leave the first
        # square anywhere in the word
        symbols = edited(words.thue_symbols(data.draw(st.integers(0, 200))), data, 3)
        with mock.patch.object(words, "_BLOCK_ELEMENTS", block):
            assert find_square(symbols) == naive_square(symbols)

    @pytest.mark.parametrize("block", [1, 5, 10, 16_384])
    def test_a_later_block_keeps_the_shortest_at_the_first_start(self, block):
        # no repetition starts at 0, and start 1 holds squares of several
        # half-lengths, which fall in different blocks when blocks are small
        with mock.patch.object(words, "_BLOCK_ELEMENTS", block):
            assert find_square([0, 1, 1, 1, 1, 1, 1]) == (1, 2)
            assert find_square([0, 1, 1, 1, 1, 0]) == (1, 2)
            assert find_abelian_square([0, 1, 1, 1, 1, 1, 1]) == (1, 2)

    def test_padding_matches_no_symbol(self):
        # the window (1, 4) compares the last 0 (or -2) with the padding, so
        # a padding equal to any symbol would make it a square
        assert find_square([1, 2, 0, 2]) is None
        assert find_square([-1, 2, -2, 2]) is None

    @pytest.mark.parametrize("block", [1, 5, 16_384])
    def test_square_free_and_anagram_free_prefixes(self, block):
        with mock.patch.object(words, "_BLOCK_ELEMENTS", block):
            assert find_square(words.thue_symbols(300)) is None
            assert find_abelian_square(words.keranen_symbols(300)) is None
            assert find_abelian_square(words.keranen_symbols(300), length_major=True) is None


class TestHashWeights:
    def test_cached_weights_are_read_only(self):
        weights = words._hash_weights(5, 40)
        assert words._hash_weights(5, 40) is weights
        with pytest.raises(ValueError, match="read-only"):
            weights[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            weights += np.uint64(1)

    def test_weights_come_from_the_fixed_seed(self):
        rng = random.Random(0x5EED)
        expected = [rng.getrandbits(40) for _ in range(5)]
        assert words._hash_weights(5, 40).tolist() == expected
        assert all(w < 2**40 for w in expected)


class TestFindSquare:
    def test_whole_square(self):
        assert find_square(word_from_string("abcabc", 3)) == (0, 6)

    def test_square_free_word(self):
        sym = word_from_string("abcacb", 3)
        assert naive_square(sym.symbols) is None  # oracle cross-check
        assert find_square(sym) is None

    def test_empty(self):
        assert find_square(Word((), 1)) is None

    @given(st.lists(st.integers(0, 2), max_size=36))
    def test_agrees_with_naive_oracle(self, symbols):
        assert find_square(tuple(symbols)) == naive_square(tuple(symbols))

    @pytest.mark.parametrize("seed", range(4))
    def test_vectorised_path(self, seed):
        rng = random.Random(200 + seed)
        symbols = tuple(rng.randrange(3) for _ in range(rng.randrange(300, 600)))
        assert find_square(symbols) == naive_square(symbols)


class TestThueWord:
    def test_empty(self):
        assert len(thue_word(0)) == 0

    @pytest.mark.parametrize("n", [4, 100, 1000])
    def test_square_free(self, n):
        assert find_square(thue_word(n)) is None

    def test_square_free_to_ten_thousand(self):
        # a square in any prefix is a factor of the full word, so this one
        # check covers every n up to 10^4
        assert find_square(thue_word(10_000)) is None

    def test_alphabet(self):
        word = thue_word(500)
        assert word.alphabet_size == 3
        assert set(word.symbols) == {0, 1, 2}

    def test_prefix_stability(self):
        long = thue_word(400).symbols
        assert thue_word(150).symbols == long[:150]

    def test_deterministic(self):
        assert thue_word(333) == thue_word(333)


class TestKeranenWord:
    def test_empty(self):
        assert len(keranen_word(0)) == 0

    def test_single_image(self):
        # one morphism application of the first letter
        word = keranen_word(85)
        assert word.symbols == KERANEN_IMAGE
        assert find_abelian_square(word) is None

    def test_image_shift_structure(self):
        # the image of symbol k is the image of 0 shifted by k
        from afsub.words import _KERANEN_IMAGES

        for k in range(4):
            assert _KERANEN_IMAGES[k] == tuple((s + k) % 4 for s in KERANEN_IMAGE)

    # 21,168 is the longest division path of graph8 on P_3, whose audit
    # recognises it as this prefix instead of scanning it
    @pytest.mark.parametrize("n", [85, 1000, 4096, 21168])
    def test_anagram_free(self, n):
        assert find_abelian_square(keranen_word(n)) is None

    def test_prefix_stability_and_determinism(self):
        long = keranen_word(3000).symbols
        assert keranen_word(700).symbols == long[:700]
        assert keranen_word(3000).symbols == long

    def test_no_adjacent_repeats(self):
        sym = keranen_word(4096).symbols
        assert all(a != b for a, b in zip(sym, sym[1:]))

    def test_every_length8_window_has_all_symbols(self):
        sym = keranen_word(4096).symbols
        counts = Counter(sym[:8])
        assert len(counts) == 4
        for i in range(8, len(sym)):
            counts[sym[i]] += 1
            counts[sym[i - 8]] -= 1
            if counts[sym[i - 8]] == 0:
                del counts[sym[i - 8]]
            assert len(counts) == 4

    def test_window_density_bounds(self):
        # per window of length m >= 8: each symbol appears at most ceil(m/2)
        # and at least floor(m/8) times
        sym = keranen_word(1024).symbols
        for m in (8, 9, 16, 47, 120, 511):
            counts = Counter(sym[:m])
            for i in range(m, len(sym) + 1):
                assert max(counts.values()) <= (m + 1) // 2
                assert len(counts) == 4 and min(counts.values()) >= m // 8
                if i < len(sym):
                    counts[sym[i]] += 1
                    counts[sym[i - m]] -= 1
                    if counts[sym[i - m]] == 0:
                        del counts[sym[i - m]]


class TestRestrict:
    def test_definition(self):
        assert restrict(w("acbc"), {0, 1}).symbols == (0, 1)

    def test_identity_on_full_alphabet(self):
        word = keranen_word(60)
        assert restrict(word, {0, 1, 2, 3}) == word

    def test_empty_keep_set(self):
        assert restrict(w("abcd"), set()).symbols == ()

    def test_rejects_foreign_symbols(self):
        with pytest.raises(ValueError):
            restrict(w("ab"), {7})

    @given(st.lists(st.integers(0, 3), max_size=30), st.sets(st.integers(0, 3)))
    def test_is_the_kept_subsequence(self, symbols, keep):
        word = Word(tuple(symbols), 4)
        expected = tuple(s for s in symbols if s in keep)
        assert restrict(word, keep).symbols == expected


class TestRestrictionOfAnagrams:
    """Restriction of an anagram to any symbol set is an anagram or empty."""

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=12), st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_random_anagrams(self, half, rnd):
        permuted = list(half)
        rnd.shuffle(permuted)
        word = Word(tuple(half + permuted), 4)
        assert is_anagram(word)
        for mask in range(1, 16):
            keep = {s for s in range(4) if mask & (1 << s)}
            reduced = restrict(word, keep)
            assert len(reduced) == 0 or is_anagram(reduced)


class TestLongestAnagramFree:
    def test_single_symbol(self):
        length, witness = longest_anagram_free(1)
        assert (length, witness.symbols) == (1, (0,))

    def test_two_symbols(self):
        length, witness = longest_anagram_free(2)
        assert length == 3
        assert len(witness) == 3 and find_abelian_square(witness) is None

    def test_three_symbols(self):
        length, witness = longest_anagram_free(3)
        assert length == 7
        assert len(witness) == 7 and find_abelian_square(witness) is None

    def test_four_symbols_rejected(self):
        with pytest.raises(ValueError):
            longest_anagram_free(4)


class TestWordType:
    def test_symbol_range_enforced(self):
        with pytest.raises(ValueError):
            Word((0, 3), 3)

    def test_string_round_trip(self):
        assert word_from_string("cab").to_string() == "cab"

    def test_alphabet_must_be_positive(self):
        with pytest.raises(ValueError):
            Word((), 0)
