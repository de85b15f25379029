import math

import numpy as np
import pytest

from shiftcode.errors import CoverageError, EmptySftError, NotMixingError
from shiftcode.interp import iter_connectors
from shiftcode.shiftspace import (Word, WindowMetricParams, build_sft,
                                  count_words, enumerate_words, parse_sft,
                                  serialize_sft, specification_gap,
                                  topological_entropy, window_codes,
                                  window_distance_below)

from conftest import GOLDEN_ENTROPY, LOG2


def brute_words(sft, n):
    """Independent enumeration oracle: scan all alphabet^n words for
    forbidden factors."""
    out = []
    for v in range(sft.alphabet_size ** n):
        digits = []
        x = v
        for _ in range(n):
            digits.append(x % sft.alphabet_size)
            x //= sft.alphabet_size
        digits.reverse()
        s = "".join(map(str, digits))
        if all("".join(map(str, f)) not in s for f in sft.forbidden):
            out.append(s)
    return out


def reference_window_codes(symbols, k, m):
    """Oracle: base-m codes of the k-windows of a 1-D sequence, one by one."""
    return [sum(int(symbols[i + j]) * m ** (k - 1 - j) for j in range(k))
            for i in range(len(symbols) - k + 1)]


class TestWindowCodes:
    @pytest.mark.parametrize("k", range(5))
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("n", [0, 1, 4, 9])
    def test_matches_loop(self, k, m, n):
        rng = np.random.default_rng(1000 * k + 10 * m + n)
        sym = rng.integers(0, m, size=n).astype(np.uint8)
        assert window_codes(sym, k, m).tolist() == reference_window_codes(sym, k, m)
        cols = rng.integers(0, m, size=(n, 3)).astype(np.uint8)
        got = window_codes(cols, k, m)
        assert got.shape == (max(n - k + 1, 0), 3)
        for c in range(3):
            assert got[:, c].tolist() == reference_window_codes(cols[:, c], k, m)

    @pytest.mark.parametrize("k, m, dtype", [
        (8, 2, np.uint8), (2, 16, np.uint8), (1, 256, np.uint8),
        (1, 257, np.uint16), (2, 257, np.uint32), (64, 2, np.uint64)])
    def test_dtype_holds_all_codes(self, k, m, dtype):
        top = np.full(k, m - 1)
        codes = window_codes(top, k, m)
        assert codes.dtype == dtype
        assert codes.tolist() == [m ** k - 1]

    def test_codes_beyond_64_bits_rejected(self):
        with pytest.raises(ValueError):
            window_codes(np.zeros(65, dtype=np.uint8), 65, 2)

    def test_state_path(self):
        sft = build_sft(2, ["11", "000"])   # states 00, 01, 10
        path = sft.state_path(Word.from_string("001101"))
        assert path.tolist() == [0, 1, -1, 2, 1]
        assert len(sft.state_path(Word.from_string("0"))) == 0


class TestBuild:
    def test_full_shift(self, full2):
        assert full2.memory == 0
        assert full2.alphabet_size == 2
        assert np.array_equal(full2.adjacency, np.ones((2, 2), dtype=np.uint8))

    def test_golden_mean(self, golden_mean):
        assert golden_mean.memory == 1
        assert np.array_equal(golden_mean.adjacency,
                              np.array([[1, 1], [1, 0]], dtype=np.uint8))

    def test_empty(self):
        with pytest.raises(EmptySftError):
            build_sft(2, ["0", "1"])

    def test_forbidden_validation(self):
        with pytest.raises(ValueError):
            build_sft(2, ["2"])
        with pytest.raises(ValueError):
            build_sft(2, [""])

    def test_pruning_drops_dead_ends(self):
        # forbidding 00 and 01 kills symbol 0 entirely
        sft = build_sft(2, ["00", "01"])
        assert sft.states == ((1,),)


class TestEntropy:
    def test_full2_anchor(self, full2):
        assert abs(topological_entropy(full2) - LOG2) < 1e-10

    def test_single_loop(self):
        assert topological_entropy(build_sft(1, [])) == 0.0

    def test_golden_mean_vs_count(self, golden_mean):
        # derived cross-check at n = 40 against exhaustive-style counting
        h = topological_entropy(golden_mean)
        assert abs(h - GOLDEN_ENTROPY) < 1e-10
        assert abs(math.log(count_words(golden_mean, 40)) / 40 - h) < 0.02

    @pytest.mark.parametrize("forbidden,alphabet", [
        ([], 2), (["11"], 2), ([], 3), ([], 4), (["111"], 2), (["22"], 3),
    ])
    def test_count_growth_matches_entropy(self, forbidden, alphabet):
        sft = build_sft(alphabet, forbidden)
        h = topological_entropy(sft)
        c40, c41 = count_words(sft, 40), count_words(sft, 41)
        assert abs(math.log(c40) / 40 - h) < 0.02
        # ratio converges to the Perron eigenvalue
        assert abs(c41 / c40 - math.exp(h)) < 1e-4 * math.exp(h)


class TestSpecificationGap:
    def test_anchors(self, full2, golden_mean):
        assert specification_gap(full2) == 1
        assert specification_gap(golden_mean) == 2

    def test_not_mixing(self):
        with pytest.raises(NotMixingError):
            specification_gap(build_sft(2, ["00", "11"]))

    def test_connecting_contract_brute(self, sft_zoo):
        # every gap in [L, L+3]; all word pairs up to length 6 on binary
        # alphabets, and up to length 4 plus a seeded sample of longer
        # pairs on ternary ones (the full ternary product is ~10^6 pairs)
        rng = np.random.default_rng(99)

        def check(sft, L, u, v):
            for gap in range(L, L + 4):
                w = next(iter_connectors(sft, u, v, gap), None)
                assert w is not None, (sft.forbidden, u, v, gap)
                joined = Word(np.concatenate(
                    [u.symbols, w.symbols, v.symbols]))
                assert sft.is_admissible(joined)

        for sft in sft_zoo:
            L = specification_gap(sft)
            full_len = 6 if sft.alphabet_size <= 2 else 4
            words = []
            for n in range(1, full_len + 1):
                words.extend(enumerate_words(sft, n))
            for u in words:
                for v in words:
                    check(sft, L, u, v)
            if sft.alphabet_size > 2:
                longer = []
                for n in (5, 6):
                    longer.extend(enumerate_words(sft, n))
                for _ in range(500):
                    u = longer[rng.integers(0, len(longer))]
                    v = longer[rng.integers(0, len(longer))]
                    check(sft, L, u, v)


class TestWindowDistance:
    def test_identical(self):
        u = Word.from_string("010101")
        assert window_distance_below(u, u, WindowMetricParams(0, 6))

    def test_differs_at_lo(self):
        u = Word.from_string("010101")
        v = Word.from_string("110101")
        assert not window_distance_below(u, v, WindowMetricParams(0, 6))

    def test_difference_outside_window(self):
        u = Word.from_string("01010100", base=-2)
        v = Word.from_string("01010110", base=-2)
        # differ at coordinate 4 = hi + 3 with radius 2, window [0-2, 1+2)
        assert window_distance_below(u, v, WindowMetricParams(0, 1, radius=2))

    def test_coverage_error(self):
        u = Word.from_string("01")
        with pytest.raises(CoverageError):
            window_distance_below(u, u, WindowMetricParams(0, 2, radius=1))


class TestEnumerate:
    def test_golden_mean_n3(self, golden_mean):
        words = enumerate_words(golden_mean, 3)
        assert [w.to_string() for w in words] == ["000", "001", "010", "100", "101"]
        assert count_words(golden_mean, 3) == 5

    @pytest.mark.parametrize("k", [0, 1, 5, 10])
    def test_full_shift_counts(self, full2, k):
        assert count_words(full2, k) == 2 ** k

    def test_empty_word(self, golden_mean):
        assert count_words(golden_mean, 0) == 1
        assert enumerate_words(golden_mean, 0) == [Word(np.zeros(0, dtype=np.uint8))]

    def test_lex_order_and_admissibility(self, sft_zoo):
        for sft in sft_zoo:
            for n in (3, 6):
                words = enumerate_words(sft, n)
                strings = [w.to_string() for w in words]
                assert strings == sorted(strings)
                assert len(set(strings)) == len(strings)
                assert strings == brute_words(sft, n)

    def test_constraint_filter(self, full2):
        odd = enumerate_words(full2, 4, constraint=lambda w: int(np.sum(w.symbols)) % 2)
        assert all(int(np.sum(w.symbols)) % 2 == 1 for w in odd)
        assert len(odd) == 8


class TestTextFormat:
    def test_roundtrip(self, golden_mean):
        text = serialize_sft(golden_mean)
        again = parse_sft(text)
        assert serialize_sft(again) == text
        assert again.forbidden == golden_mean.forbidden

    def test_comments_and_errors(self):
        sft = parse_sft("# golden mean\nalphabet 2\nforbid 11\n")
        assert sft.forbidden == ((1, 1),)
        with pytest.raises(ValueError):
            parse_sft("forbid 11\n")
        with pytest.raises(ValueError):
            parse_sft("alphabet 2\nnonsense here\n")


class TestWord:
    def test_window_and_at(self):
        w = Word.from_string("0110", base=-1)
        assert w.at(-1) == 0 and w.at(0) == 1
        assert w.window(0, 2).to_string() == "11"
        with pytest.raises(CoverageError):
            w.window(0, 5)
        with pytest.raises(CoverageError):
            w.at(3)

    def test_symbols_immutable(self):
        w = Word.from_string("01")
        with pytest.raises(ValueError):
            w.symbols[0] = 1
