import itertools
import math
import re
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftcode import shiftspace
from shiftcode.errors import (CoverageError, EmptySftError, NotMixingError,
                              ParameterError)
from shiftcode.interp import iter_connectors
from shiftcode.measures import MarkovMeasure
from shiftcode.shiftspace import (Sft, Word, WindowMetricParams, build_sft,
                                  count_words, enumerate_words, parse_sft,
                                  occurrences, serialize_sft,
                                  specification_gap, strong_components,
                                  topological_entropy, window_codes,
                                  window_distance_below)

from conftest import (GOLDEN_ENTROPY, LOG2, reference_admissible_pieces,
                      reference_factor_dfa,
                      reference_specification_gap, reference_strong_components,
                      reference_occurrences, reference_sft_tables,
                      reference_topological_entropy, reference_walk)


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


class TestOccurrences:
    @given(st.data())
    @settings(max_examples=300)
    def test_matches_reference(self, data):
        m = data.draw(st.sampled_from([2, 3, 256]), label="m")
        sym = np.array(data.draw(st.lists(st.integers(0, m - 1), max_size=80),
                                 label="symbols"), dtype=np.uint8)
        n = data.draw(st.integers(1, 20), label="n")
        if n <= len(sym) and data.draw(st.booleans(), label="planted"):
            at = data.draw(st.integers(0, len(sym) - n), label="at")
            word = sym[at:at + n].copy()
        else:       # input shorter than the word, or a word drawn alone
            word = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=n,
                                               max_size=n), label="word"),
                            dtype=np.uint8)
        got = occurrences(sym, word)
        assert got.dtype == np.int64
        assert got.tolist() == reference_occurrences(sym, word)
        # strided input and a word of another integer dtype
        for view in (sym[::2], sym[::-1]):
            assert (occurrences(view, word.astype(np.int64)).tolist()
                    == reference_occurrences(view, word))

    @pytest.mark.parametrize("word", ["0000", "0101", "00100", "0" * 9,
                                      "01" * 10, "11"])
    def test_self_overlapping(self, word):
        rng = np.random.default_rng(len(word))
        sym = np.concatenate([rng.integers(0, 2, 300), np.zeros(30),
                              np.tile([0, 1], 30), [0, 0, 1, 0, 0, 1, 0, 0]])
        sym = sym.astype(np.uint8)
        w = Word.from_string(word).symbols
        got = occurrences(sym, w).tolist()
        assert got == reference_occurrences(sym, w)
        assert any(b - a < len(w) for a, b in zip(got, got[1:]))   # overlapping

    def test_short_input_and_empty_word(self):
        assert occurrences(np.zeros(3, dtype=np.uint8), [0] * 4).tolist() == []
        assert occurrences([], [1]).dtype == np.int64
        with pytest.raises(ValueError, match="empty word"):
            occurrences(np.zeros(3, dtype=np.uint8), [])


class TestBuild:
    def test_full_shift(self, full2):
        assert full2.memory == 0
        assert full2.alphabet_size == 2
        assert full2._step.tolist() == [[0, 1], [0, 1]]

    def test_golden_mean(self, golden_mean):
        assert golden_mean.memory == 1
        assert golden_mean._step.tolist() == [[0, 1], [0, -1]]

    def test_no_dense_matrix(self, golden_mean):
        # the step table is the one graph table an Sft keeps
        assert not hasattr(golden_mean, "adjacency")

    def test_empty(self):
        with pytest.raises(EmptySftError):
            build_sft(2, ["0", "1"])

    def test_forbidden_validation(self):
        with pytest.raises(ValueError):
            build_sft(2, ["2"])
        with pytest.raises(ValueError):
            build_sft(2, [""])

    @pytest.mark.parametrize("length,what", [
        (17, "an SFT with 65,536 states: its 65,536 x 65,536 matrices"),
        (22, "an SFT with 2,097,152 states"),
        (41, "a table of the 2^41 words of length 41"),
    ])
    def test_tables_above_budget_refused_fast(self, length, what):
        # refused before the grid or the n x n tables are allocated
        start = time.perf_counter()
        with pytest.raises(ParameterError, match=re.escape(what) + r".* would take "
                           r"[\d,]+ bytes, above the 536,870,912-byte table budget"):
            build_sft(2, ["0" * length])
        assert time.perf_counter() - start < 1.0

    def test_largest_sft_within_budget_builds(self):
        assert build_sft(2, ["0" * 14]).n_states == 8192

    def test_pruning_drops_dead_ends(self):
        # forbidding 00 and 01 kills symbol 0 entirely
        sft = build_sft(2, ["00", "01"])
        assert sft.states == ((1,),)


# alphabets of 1-4 symbols, up to six forbidden words of length 1-4
SFT_INPUTS = st.integers(1, 4).flatmap(lambda m: st.tuples(
    st.just(m),
    st.lists(st.lists(st.integers(0, m - 1), min_size=1, max_size=4).map(tuple),
             max_size=6)))

# alphabets of 1-4 symbols, up to five forbidden words of length 1-5
FACTOR_INPUTS = st.integers(1, 4).flatmap(lambda m: st.tuples(
    st.just(m),
    st.lists(st.lists(st.integers(0, m - 1), min_size=1, max_size=5).map(tuple),
             max_size=5)))


class TestTables:
    @given(SFT_INPUTS)
    @settings(max_examples=300)
    def test_match_reference(self, inputs):
        m, forbidden = inputs
        try:
            want = reference_sft_tables(m, forbidden)
        except EmptySftError:
            with pytest.raises(EmptySftError):
                Sft(m, forbidden)
            return
        sft = Sft(m, forbidden)
        assert sft.states == want["states"]
        for name, got in [("state_codes", sft.state_codes),
                          ("last_symbol", sft.last_symbol), ("step", sft._step)]:
            assert got.dtype == want[name].dtype, name
            assert np.array_equal(got, want[name]), name

    @given(data=st.data())
    @settings(max_examples=200)
    def test_factor_dfa_matches_reference(self, supports, data):
        # prefix nodes are numbered level by level, the reference's in
        # tuple-sort order; the states, the start (node 0, the empty
        # prefix, in both) and the language agree
        if data.draw(st.booleans(), label="support"):
            sft = supports[data.draw(st.integers(0, len(supports) - 1), label="index")]
        else:
            m, forbidden = data.draw(FACTOR_INPUTS, label="sft")
            try:
                sft = Sft(m, forbidden)
            except EmptySftError:
                return
        got, want = sft.factor_dfa(), reference_factor_dfa(sft)
        assert got.n_nodes == want.n_nodes
        assert got.step.dtype == want.step.dtype
        assert np.array_equal(got.step[-sft.n_states:], want.step[-sft.n_states:])
        for length in range(9):
            assert got.count(length) == want.count(length)
            assert np.array_equal(np.concatenate(list(got.enumerate(length))),
                                  np.concatenate(list(want.enumerate(length))))

    def test_edges_are_the_live_words(self, golden_mean):
        # 2-words 00, 01, 10, 11: only 11 is forbidden
        assert golden_mean.edges.tolist() == [True, True, True, False]
        # 01 has no forbidden factor but ends in state 1, which has no out-edge
        assert build_sft(2, ["11", "10"]).edges.tolist() == [True, False, False, False]


class TestAdmissible:
    @pytest.mark.parametrize("forbidden", [[], ["11"], ["111"]])
    @pytest.mark.parametrize("text", ["2", "020", "0120", "00002", "20000000"])
    def test_symbol_outside_alphabet(self, forbidden, text):
        sft = build_sft(2, forbidden)
        assert sft.is_admissible(Word.from_string(text)) is False
        assert sft.is_admissible([int(c) for c in text]) is False

    @pytest.mark.parametrize("index", range(8))
    @given(data=st.data())
    @settings(max_examples=40)
    def test_matches_walk(self, supports, index, data):
        sft = supports[index]
        length = data.draw(st.integers(0, 12), label="length")
        if data.draw(st.booleans(), label="sampled"):
            word = MarkovMeasure.uniform(sft).sample_path(
                length, seed=data.draw(st.integers(0, 999)))
        else:
            word = Word(np.array(data.draw(st.lists(
                st.integers(0, sft.alphabet_size - 1), min_size=length,
                max_size=length), label="symbols"), dtype=np.uint8))
        assert sft.is_admissible(word) == (
            reference_walk(sft.factor_dfa(), word.symbols) >= 0)

    @pytest.mark.parametrize("index", range(12))
    @given(data=st.data())
    @settings(max_examples=40)
    def test_pieces_match_walk(self, supports, wide_codes, many_forbidden,
                               index, data):
        # pieces shorter and longer than k, empty ones, admissible ones
        # next to inadmissible ones, and symbols off the alphabet; codes
        # are uint16 for wide_codes and the last SFT, uint8 for the others,
        # and windows are compared except in many_forbidden's SFTs
        sft = (supports + wide_codes + many_forbidden)[index]
        m, dfa = sft.alphabet_size, sft.factor_dfa()
        pieces = []
        for _ in range(data.draw(st.integers(0, 6), label="pieces")):
            n = data.draw(st.integers(0, 2 * sft.k + 3), label="length")
            if data.draw(st.booleans(), label="admissible"):
                r = data.draw(st.integers(0, dfa.count(n) - 1), label="rank")
                sym = dfa.unrank_rows(n, [r])[0].copy()
            else:
                sym = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=n,
                                                  max_size=n)), dtype=np.uint8)
            if n and data.draw(st.booleans(), label="off"):
                sym[data.draw(st.integers(0, n - 1))] = data.draw(
                    st.sampled_from([m, 255]), label="symbol")
            pieces.append(sym)
        got = sft.admissible_pieces(
            np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.uint8),
            [len(p) for p in pieces])
        assert got.dtype == bool
        assert got.tolist() == [reference_walk(dfa, p) >= 0 for p in pieces]
        for p in pieces:
            assert sft.is_admissible(p) == (reference_walk(dfa, p) >= 0)

    @pytest.mark.parametrize("index", range(12))
    @given(data=st.data())
    @settings(max_examples=40)
    def test_pieces_in_chunks_match_one_take(self, supports, wide_codes,
                                             many_forbidden, index, data):
        # windows looked up a few at a time, by gathers and by compares:
        # pieces straddling the chunk edges, pieces shorter than k + 1,
        # symbols off the alphabet (as uint8 or as signed ints) and empty
        # input, against one take
        sft = (supports + wide_codes + many_forbidden)[index]
        m, k = sft.alphabet_size, sft.k
        dtype = data.draw(st.sampled_from([np.uint8, np.int64]), label="dtype")
        off = [m, 255] + [-1] * (dtype is np.int64)
        lengths = data.draw(st.lists(st.integers(0, 3 * k + 4), max_size=6),
                            label="lengths")
        sym = np.array(data.draw(st.lists(
            st.one_of(st.integers(0, m - 1), st.sampled_from(off)) if data.draw(
                st.booleans(), label="off") else st.integers(0, m - 1),
            min_size=sum(lengths), max_size=sum(lengths)), label="symbols"),
            dtype=dtype)
        if data.draw(st.booleans(), label="admissible run"):
            sym[:] = sft.factor_dfa().unrank_rows(len(sym), [0])[0]
        want = reference_admissible_pieces(sft, sym, lengths)
        chunk = data.draw(st.integers(1, 2 * k + 3), label="chunk")
        for few in (0, 1 << 20):   # the gather side, then the compares
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(shiftspace, "CHUNK", chunk)
                mp.setattr(shiftspace, "FEW_FORBIDDEN", few)
                built = build_sft(m, sft.forbidden)
                got = built.admissible_pieces(sym, lengths)
            assert (built._forbidden_codes is None) == (few == 0 and not sft.edges.all())
            assert got.tolist() == want.tolist()

    def test_forbidden_codes_kept_when_few(self, full2, golden_mean, supports,
                                           wide_codes, many_forbidden):
        assert full2._forbidden_codes == []
        assert golden_mean._forbidden_codes == [3]          # the window 11
        for sft in supports + wide_codes:
            assert sft._forbidden_codes == np.flatnonzero(~sft.edges).tolist()
        for sft in many_forbidden:
            assert (~sft.edges).sum() > shiftspace.FEW_FORBIDDEN
            assert sft._forbidden_codes is None

    @pytest.mark.parametrize("symbols, lengths", [
        ([1], [3]), ([1, 1, 1], [1]), ([0, 1], [1, 1, 1]), ([0, 1], [3, -1]),
        ([0], []), ([], [-1, 1])])
    def test_pieces_refuse_malformed_lengths(self, golden_mean, full2, symbols,
                                             lengths):
        for sft in (golden_mean, full2):
            with pytest.raises(ValueError, match=rf"^{len(symbols)} symbols, "
                               rf"but piece lengths total {sum(lengths)} "):
                sft.admissible_pieces(np.array(symbols, dtype=np.uint8), lengths)

    def test_pieces_ignore_boundary_windows(self, golden_mean):
        # "1" | "1" and "01" | "10" are admissible apart, not joined
        got = golden_mean.admissible_pieces(
            np.array([1, 1, 0, 1, 1, 0, 1, 1], dtype=np.uint8), [1, 1, 2, 2, 2])
        assert got.tolist() == [True, True, True, True, False]

    @pytest.mark.parametrize("index", range(8))
    def test_states_ending_in_matches_suffix_scan(self, supports, index):
        sft = supports[index]
        m = sft.alphabet_size
        for n in range(sft.k + 1):
            for v in range(m ** n):
                word = tuple(v // m ** (n - 1 - j) % m for j in range(n))
                want = [s[sft.k - n:] == word for s in sft.states]
                assert sft.states_ending_in(word).tolist() == want, word
        assert not sft.states_ending_in([m]).any()
        with pytest.raises(ValueError):
            sft.states_ending_in([0] * (sft.k + 1))


# alphabets of 1-4 symbols, at most 16 states: words of length 1-5 over
# 1-2 symbols, 1-3 over 3-4
GAP_INPUTS = st.integers(1, 4).flatmap(lambda m: st.tuples(
    st.just(m),
    st.lists(st.lists(st.integers(0, m - 1), min_size=1,
                      max_size=5 if m <= 2 else 3).map(tuple),
             max_size=5)))


def cycle_exit_sft(length, chords=()):
    """A cycle on symbols 0..length-1, a step from its last symbol into the
    fixed point ``length``, and the given extra steps."""
    allowed = ({(i, (i + 1) % length) for i in range(length)}
               | {(length - 1, length), (length, length)} | set(chords))
    return build_sft(length + 1, [(a, b) for a in range(length + 1)
                                  for b in range(length + 1) if (a, b) not in allowed])


class TestEntropy:
    def test_full2_anchor(self, full2):
        assert abs(topological_entropy(full2) - LOG2) < 1e-10

    def test_single_loop(self):
        assert topological_entropy(build_sft(1, [])) == 0.0

    @given(GAP_INPUTS)
    @example((2, [(1, 0)]))               # reducible: 0 reaches 1, not back
    @example((2, [(0, 1), (1, 0)]))       # reducible: two fixed points
    @example((2, [(1, 0, 0)]))            # reducible: a fixed point feeds a mixing part
    @example((2, [(0, 0), (1, 1)]))       # period 2
    # reducible, and the two sides straddle a 12-digit rounding boundary:
    # 0.881373587019 against 0.88137358702, 4.7e-14 apart
    @example((4, [(1,), (3, 2, 2), (2, 2, 0), (2, 3)]))
    @settings(max_examples=150)
    def test_matches_reference(self, inputs):
        # both sides are certified to a 1e-13 bracket only, so they agree
        # to a relative 1e-12, not to a fixed number of printed digits
        m, forbidden = inputs
        try:
            sft = Sft(m, forbidden)
        except EmptySftError:
            return
        got, want = topological_entropy(sft), reference_topological_entropy(sft)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("length", [7, 14, 18])
    def test_disjoint_cycles_exactly_zero(self, length):
        # a cycle through symbols 0..length-1 beside a fixed point: reducible,
        # and the eigensolve reads its Perron root 1 as 1 + 2^-51 or so
        allowed = {(i, (i + 1) % length) for i in range(length)} | {(length, length)}
        sft = build_sft(length + 1, [(a, b) for a in range(length + 1)
                                     for b in range(length + 1) if (a, b) not in allowed])
        assert topological_entropy(sft) == 0.0 == reference_topological_entropy(sft)

    @pytest.mark.parametrize("length", [7, 60])
    def test_cycle_with_transient_exit_exactly_zero(self, length):
        # a cycle that also steps into a fixed point: every component is one
        # cycle, but not every state has one successor, and an eigensolve
        # read the Perron root of the 7-cycle as 1 + 2^-51; a component with
        # as many internal edges as states is read as 0 with no iteration
        assert topological_entropy(cycle_exit_sft(length)) == 0.0

    @pytest.mark.parametrize("length", [7, 60])
    def test_cycle_with_chord_and_exit_positive(self, length):
        # a step from the last symbol to the middle one makes two cycles
        # through the last symbol, so the component is no longer one cycle
        sft = cycle_exit_sft(length, [(length - 1, length // 2)])
        got, want = topological_entropy(sft), reference_topological_entropy(sft)
        assert got > 0 and abs(got - want) <= 1e-9 * want

    def test_large_shift_fast(self):
        # 8,192 states: the dense A + I product took seconds
        sft = build_sft(2, ["0" * 14])
        start = time.perf_counter()
        h = topological_entropy(sft)
        assert time.perf_counter() - start < 0.5
        assert abs(h - LOG2) < 1e-4

    def test_large_reducible_fast(self):
        # 512 states; nine 0s in a row are never left: the fixed point is a
        # component of its own, so the mixing part settles alone
        sft = build_sft(2, ["0000000001"])
        start = time.perf_counter()
        h = topological_entropy(sft)
        assert time.perf_counter() - start < 0.5
        assert 0 < h < LOG2

    def test_largest_reducible_fast_and_small(self):
        # 8,191 states, the most the table budget admits on alphabet 3: 2 is
        # followed only by 2, so the 4,096 {0, 1} states are one component
        # beside the fixed point 2^12 and 4,094 transient states; a dense
        # eigensolve of the whole matrix took 24 s and 1.2 GB
        sft = build_sft(3, ["20", "21", "0" * 13])
        assert sft.n_states == 8191
        start = time.perf_counter()
        h = topological_entropy(sft)
        assert time.perf_counter() - start < 1.0
        tracemalloc.start()
        try:
            assert topological_entropy(sft) == h
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2 ** 20
        want = topological_entropy(build_sft(2, ["0" * 13]))
        assert abs(h - want) <= 1e-12 * want

    def test_long_path_reducible_fast(self):
        # the order-12 binary de Bruijn cycle, every state of which also
        # steps into the fixed point of symbol 2: its shortest paths run to
        # 4,096 steps, and a closure grown one step per round took 51 s
        order = 12
        seq, seen = [0] * order, {(0,) * order}
        while True:   # prefer-one: the first 2^order symbols are the cycle
            for a in (1, 0):
                w = (*seq[1 - order:], a)
                if w not in seen:
                    seen.add(w)
                    seq.append(a)
                    break
            else:
                break
        cyc = seq[:2 ** order] * 2
        edges = {tuple(cyc[i:i + order + 1]) for i in range(2 ** order)}
        sft = build_sft(3, ["20", "21"] + [w for w in itertools.product(
            (0, 1), repeat=order + 1) if w not in edges])
        assert sft.n_states == 8191
        start = time.perf_counter()
        assert topological_entropy(sft) == 0.0
        assert time.perf_counter() - start < 1.0

    def test_component_that_does_not_settle(self):
        # two 150-cycles through state 0 and an exit from state 149 into
        # the fixed point 299: lambda^150 = 2 on the cycles' component, whose
        # power iteration does not settle in 100,000 rounds, so its own
        # block is eigensolved; the entropy reads only the step table
        step = np.full((300, 2), -1)
        step[:, 0] = np.r_[1:150, 0, 151:299, 0, 299]
        step[[0, 149], 1] = [150, 299]
        h = topological_entropy(SimpleNamespace(_step=step, n_states=300))
        assert abs(h - LOG2 / 150) <= 1e-10 * LOG2 / 150

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


class TestStrongComponents:
    @given(st.integers(1, 12).flatmap(lambda n: st.lists(
        st.lists(st.integers(-1, n - 1), min_size=3, max_size=3),
        min_size=n, max_size=n)))
    @example([[-1, -1, -1]])                          # a state on no cycle
    @example([[0, -1, -1], [-1, -1, -1], [0, 1, -1]])  # a self-loop, an isolated state
    @example([[(i + 1) % 300, -1, -1] for i in range(300)])   # one long cycle
    @example([[i + 1, -1, -1] for i in range(299)] + [[-1, -1, -1]])   # one long path
    @settings(max_examples=300)
    def test_matches_closure(self, rows):
        succ = np.array(rows, dtype=np.intp)
        got, want = strong_components(succ), reference_strong_components(succ)
        assert np.array_equal(got[:, None] == got, want[:, None] == want)
        # labels count components in the order they complete
        assert sorted(set(got.tolist())) == list(range(got.max() + 1))
        u, j = np.nonzero(succ >= 0)
        assert (got[succ[u, j]] <= got[u]).all()

    def test_long_cycle_without_recursion(self):
        # deeper than Python's recursion limit
        succ = np.roll(np.arange(20_000), -1)[:, None]
        assert not strong_components(succ).any()


class TestSpecificationGap:
    def test_anchors(self, full2, golden_mean):
        assert specification_gap(full2) == 1
        assert specification_gap(golden_mean) == 2
        assert specification_gap(build_sft(2, ["1111111111"])) == 10

    def test_not_mixing(self):
        with pytest.raises(NotMixingError):
            specification_gap(build_sft(2, ["00", "11"]))

    def test_one_state(self):
        # A = [[1]]: the walk starts from A, so the gap is 1 (from I it is 0)
        assert specification_gap(build_sft(1, [])) == 1
        assert specification_gap(build_sft(2, ["1"])) == 1

    @staticmethod
    def wielandt(a):
        """a + 1 states whose gap reaches Wielandt's bound a^2 + 1: ones
        apart by a - 1 or a zeros, cycles of lengths a and a + 1."""
        return build_sft(2, ["11"] + ["1" + "0" * j + "1" for j in range(1, a - 1)]
                         + ["0" * (a + 1)])

    @pytest.mark.parametrize("a", [2, 3, 4, 5, 6, 8])
    def test_wielandt_bound_matches_reference(self, a):
        sft = self.wielandt(a)
        assert sft.n_states == a + 1
        assert specification_gap(sft) == reference_specification_gap(sft) == a * a + 1

    def test_wielandt_bound_long_walk(self):
        sft = self.wielandt(20)
        assert sft.n_states == 21
        start = time.perf_counter()
        assert specification_gap(sft) == 401
        assert time.perf_counter() - start < 2.0

    def test_large_mixing_fast(self):
        # 8,192 states: the float32 squares took seconds
        sft = build_sft(2, ["0" * 14])
        start = time.perf_counter()
        assert specification_gap(sft) == 14
        assert time.perf_counter() - start < 2.0

    @given(GAP_INPUTS)
    @example((2, [(0, 0), (1, 1)]))       # period 2
    @example((2, [(1, 0)]))               # reducible: 0 reaches 1, not back
    @example((2, [(0, 1), (1, 0)]))       # two fixed points
    @example((3, [(0, 0), (1, 1), (2, 2), (0, 2), (2, 1), (1, 0)]))  # a 3-cycle
    @settings(max_examples=300)
    def test_matches_reference(self, inputs):
        m, forbidden = inputs
        try:
            sft = Sft(m, forbidden)
        except EmptySftError:
            return
        try:
            want = reference_specification_gap(sft)
        except NotMixingError:
            with pytest.raises(NotMixingError):
                specification_gap(sft)
            return
        assert specification_gap(sft) == want

    def test_large_non_mixing_refused_fast(self):
        # 512 states, Wielandt exponent 261,122: a product per power took hours
        sft = build_sft(2, ["0000000001"])
        start = time.perf_counter()
        with pytest.raises(NotMixingError):
            specification_gap(sft)
        assert time.perf_counter() - start < 2.0

    def test_connecting_contract_brute(self, sft_zoo):
        # every gap in [L, L+3]; all word pairs up to length 6 on binary
        # alphabets, and up to length 4 plus a seeded sample of longer
        # pairs on ternary ones (the full ternary product is ~10^6 pairs)
        rng = np.random.default_rng(99)
        for sft in sft_zoo:
            L = specification_gap(sft)
            full_len = 6 if sft.alphabet_size <= 2 else 4
            words = []
            for n in range(1, full_len + 1):
                words.extend(enumerate_words(sft, n))
            pairs = [(u, v) for u in words for v in words]
            if sft.alphabet_size > 2:
                longer = []
                for n in (5, 6):
                    longer.extend(enumerate_words(sft, n))
                for _ in range(500):
                    u = longer[rng.integers(0, len(longer))]
                    v = longer[rng.integers(0, len(longer))]
                    pairs.append((u, v))
            triples, joined = [], []
            for u, v in pairs:
                for gap in range(L, L + 4):
                    w = next(iter_connectors(sft, u, v, gap), None)
                    assert w is not None, (sft.forbidden, u, v, gap)
                    triples.append((u, v, gap))
                    joined.append(np.concatenate(
                        [u.symbols, w.symbols, v.symbols]))
            # every joined word u w v of this SFT in one window pass
            ok = sft.admissible_pieces(np.concatenate(joined),
                                       [len(j) for j in joined])
            assert ok.all(), (sft.forbidden, *triples[int(np.argmin(ok))])


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
        odd = [w for w in enumerate_words(full2, 4) if int(np.sum(w.symbols)) % 2]
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

    @given(st.lists(st.integers(0, 9), max_size=200), st.integers(-50, 50))
    def test_text_roundtrip(self, symbols, base):
        w = Word(np.array(symbols, dtype=np.uint8), base)
        assert w.to_string() == "".join(map(str, symbols))
        assert Word.from_string(w.to_string(), base) == w

    @pytest.mark.parametrize("text, position", [
        ("01٣", 2), ("0a1", 1), ("²", 0), (" 1", 0), ("0/", 1), ("٣" * 10 ** 6, 0),
    ], ids=["arabic-indic-3", "letter", "superscript-2", "space", "slash", "long"])
    def test_from_string_refuses_all_but_ascii_digits(self, text, position):
        # int() read "٣" (Arabic-Indic three) as 3; the message names one
        # character, however long the text
        with pytest.raises(ValueError) as exc:
            Word.from_string(text)
        assert str(exc.value) == (f"position {position} holds {text[position]!r}, "
                                  "not an ASCII digit")

    def test_to_string_refuses_a_symbol_above_9(self):
        with pytest.raises(ValueError, match="above 9"):
            Word(np.array([0, 10, 1], dtype=np.uint8)).to_string()

    def test_repr_of_any_symbols(self):
        # the decoder writes 255 at coordinates it did not recover
        assert repr(Word(np.array([1, 255, 0]), 4)) == "Word('[1, 255, 0]', base=4)"
        assert repr(Word.from_string("01" * 25)) == f"Word('{'01' * 18}0...', base=0)"

    def test_non_ascii_forbidden_word_refused(self):
        # Sft(10, ["٣"]) once forbade the symbol 3
        with pytest.raises(ValueError, match="not an ASCII digit"):
            Sft(10, ["٣"])
        with pytest.raises(ValueError, match="line 2: cannot parse"):
            parse_sft("alphabet 10\nforbid ٣\n")
