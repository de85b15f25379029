import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftcode import automata, markers
from shiftcode.errors import (MarkerSearchError, NoMarkerExistsError,
                              NotMixingError, ParameterError, ShiftcodeError)
from shiftcode.markers import (MarkerScheme, avoidance_filter, check_scheme,
                               find_marker, locate_offset)
from shiftcode.measures import MarkovMeasure
from shiftcode.shiftspace import Word, build_sft, enumerate_words

from conftest import markov_on_support


def exhaustive_valid_markers(sft, nu, M, alpha):
    """Oracle: scan every admissible 8M-word."""
    return [w for w in enumerate_words(sft, 8 * M)
            if check_scheme(sft, nu, w, M, alpha)[3]]


def longest_run(symbols):
    best = run = 1
    for i in range(1, len(symbols)):
        run = run + 1 if symbols[i] == symbols[i - 1] else 1
        best = max(best, run)
    return best


def reference_exhaustive_marker(sft, nu, M, alpha):
    """Oracle: the exhaustive branch of find_marker, one candidate at a time.

    Among the admissible 8M-words that pass check_scheme, the shortest
    longest constant run wins, ties going to the first in lex order.
    """
    candidates = []
    any_distinguishing = False
    for word in enumerate_words(sft, 8 * M):
        viol, nu1, nu2, ok = check_scheme(sft, nu, word, M, alpha)
        if viol == 0:
            any_distinguishing = True
        if ok:
            sym = tuple(int(a) for a in word.symbols)
            candidates.append((longest_run(sym), sym, word, nu1, nu2))
    if candidates:
        _, _, word, nu1, nu2 = min(candidates, key=lambda c: (c[0], c[1]))
        return MarkerScheme(word, M, alpha, nu1, nu2)
    if not any_distinguishing:
        raise NoMarkerExistsError("no marker exists")
    raise MarkerSearchError("alpha too small for this M", best=None)


def assert_matches_reference(sft, nu, M, alpha):
    try:
        expected = reference_exhaustive_marker(sft, nu, M, alpha)
    except (NoMarkerExistsError, MarkerSearchError) as exc:
        with pytest.raises(type(exc)) as info:
            find_marker(sft, nu, M=M, alpha=alpha)
        assert type(info.value) is type(exc)
        return
    scheme = find_marker(sft, nu, M=M, alpha=alpha)
    assert scheme.word == expected.word
    # exact float equality: both sides call nu.cylinder_probability
    assert scheme.nu_h1 == expected.nu_h1
    assert scheme.nu_h2 == expected.nu_h2


class TestFindMarker:
    def test_exhaustive_against_oracle(self, full2, bern_01):
        scheme = find_marker(full2, bern_01, M=1, alpha=0.5, seed=1)
        oracle = exhaustive_valid_markers(full2, bern_01, 1, 0.5)
        assert oracle, "oracle says valid markers exist"
        assert any(scheme.word == w for w in oracle)
        assert scheme.nu_h1 < 0.5 and scheme.nu_h2 < 0.5
        assert_matches_reference(full2, bern_01, 1, 0.5)

    @pytest.mark.parametrize("index", range(6))
    @given(data=st.data())
    @settings(max_examples=6)
    def test_exhaustive_matches_reference_on_zoo(self, sft_zoo, index, data):
        sft = sft_zoo[index]
        n = sft.n_states
        weights = data.draw(st.lists(st.floats(0.05, 1.0), min_size=n * n,
                                     max_size=n * n), label="weights")
        nu = markov_on_support(sft, np.reshape(weights, (n, n)))
        # alpha either anywhere or exactly at a 2-window mass, where the
        # strict inequality nu(H) < alpha/M decides
        masses = sorted({nu.cylinder_probability(w)
                         for w in enumerate_words(sft, 2)})
        alpha = data.draw(st.one_of(st.floats(1e-3, 1.0),
                                    st.sampled_from(masses)), label="alpha")
        assert_matches_reference(sft, nu, 1, alpha)

    @pytest.mark.parametrize("forbidden, alpha", [
        ((), 0.5), (("11",), 0.9), (("11",), 0.3), (("111",), 0.5),
        (("111",), 0.2)])
    def test_exhaustive_matches_reference_at_m2(self, forbidden, alpha):
        sft = build_sft(2, forbidden)
        nu = (MarkovMeasure.bernoulli([0.5, 0.5]) if not forbidden
              else MarkovMeasure.uniform(sft))
        assert_matches_reference(sft, nu, 2, alpha)

    @pytest.mark.parametrize("index", range(6))
    def test_exhaustive_ties_across_blocks(self, sft_zoo, index, monkeypatch):
        # with many small blocks, a tie between blocks goes to the earlier
        monkeypatch.setattr(automata, "ENUM_BLOCK_ROWS", 7)
        sft = sft_zoo[index]
        assert_matches_reference(sft, MarkovMeasure.uniform(sft), 1, 0.5)

    def test_exhaustive_no_marker_matches_reference(self):
        one = build_sft(1, [])
        assert_matches_reference(one, MarkovMeasure.bernoulli([1.0]), 1, 0.5)

    def test_exhaustive_alpha_too_small_matches_reference(self, full2, bern_half):
        assert_matches_reference(full2, bern_half, 1, 0.01)

    def test_self_distinguishing_reverified(self, scheme_m2):
        scheme = scheme_m2
        sym = scheme.word.symbols
        h2 = sym[12:16]
        for i in range(12):
            assert not np.array_equal(sym[i:i + 4], h2), i

    def test_degenerate_no_marker(self):
        one = build_sft(1, [])
        with pytest.raises(NoMarkerExistsError):
            find_marker(one, MarkovMeasure.bernoulli([1.0]), M=1, alpha=0.5)

    def test_not_mixing_rejected(self):
        cyc = build_sft(2, ["00", "11"])
        with pytest.raises(NotMixingError):
            find_marker(cyc, MarkovMeasure.uniform(cyc), M=1, alpha=0.5)

    def test_alpha_zero(self, full2, bern_half):
        with pytest.raises(ParameterError):
            find_marker(full2, bern_half, M=1, alpha=0.0)

    def test_alpha_too_small_reports_condition(self, full2, bern_half):
        # every 2-window has mass 1/4 >= alpha/M
        with pytest.raises(MarkerSearchError) as exc:
            find_marker(full2, bern_half, M=1, alpha=0.01)
        assert "alpha" in str(exc.value)

    def test_random_mode_valid(self, full2, bern_half):
        scheme = find_marker(full2, bern_half, M=4, alpha=0.5, seed=7)
        viol, nu1, nu2, ok = check_scheme(full2, bern_half, scheme.word, 4, 0.5)
        assert ok and viol == 0

    @pytest.mark.parametrize("forbidden,M,alpha,seed,word,nu_h1,nu_h2", [
        # the first restart violates one offset and hill-climbs to the word
        ([], 1, 0.5, 0, "11000001", 1 / 4, 1 / 4),
        ([], 2, 0.5, 0, "1100010100111110", 1 / 16, 1 / 16),
        ([], 2, 0.5, 1, "0100010011001011", 1 / 16, 1 / 16),
        (["11"], 2, 0.9, 0, "0101010100100001", 1 / 6, 1 / 12),
        (["11"], 2, 0.9, 3, "0010101010010000", 1 / 6, 1 / 12),
        (["111"], 2, 0.9, 0, "1001001000101100", 1 / 14, 1 / 14),
        # hill-climbs as well: the first restart draws 0010101001011001
        (["111"], 2, 0.9, 1, "0010100001011001", 1 / 14, 1 / 14),
    ])
    def test_random_mode_pinned(self, monkeypatch, forbidden, M, alpha, seed,
                                word, nu_h1, nu_h2):
        # the random branch's seeded draws, pinned on small instances
        monkeypatch.setattr(markers, "EXHAUSTIVE_BITS", 0)
        sft = build_sft(2, forbidden)
        nu = (MarkovMeasure.bernoulli([0.5, 0.5]) if not forbidden
              else MarkovMeasure.uniform(sft))
        scheme = find_marker(sft, nu, M=M, alpha=alpha, seed=seed)
        assert scheme.word.to_string() == word
        assert scheme.nu_h1 == pytest.approx(nu_h1, rel=1e-12)
        assert scheme.nu_h2 == pytest.approx(nu_h2, rel=1e-12)

    def test_random_restarts_unrank_successive_draws(self, monkeypatch, full2,
                                                     bern_half):
        # restart i starts from the i-th seeded draw, across the ends of
        # the doubling batches and of the capped ones: every candidate
        # passes with no violation and no mass, so each restart's hill
        # climb tries its n single-symbol flips and stops
        monkeypatch.setattr(markers, "EXHAUSTIVE_BITS", 0)
        seen = []

        def check(sft, nu, word, M, alpha):
            seen.append(word.to_string())
            return 0, 0.0, 0.0, False

        monkeypatch.setattr(markers, "check_scheme", check)
        n, restarts = 24, 3 * markers.RESTART_BATCH + 6
        with pytest.raises(MarkerSearchError):
            find_marker(full2, bern_half, M=3, alpha=0.5,
                        budget=restarts * (n + 1), seed=9)
        rng, dfa = random.Random(9), full2.factor_dfa()
        want = ["".join(map(str, dfa.unrank(n, rng.randrange(2 ** n))))
                for _ in range(restarts)]
        assert seen[::n + 1] == want

    @pytest.mark.parametrize("alpha,budget,viol,word", [
        (0.5, 2, 1, "11000101"),    # stopped inside the first hill climb
        (0.01, 30, 0, "11000001"),  # no violation, but the masses exceed alpha
    ])
    def test_random_mode_budget_exhausted(self, monkeypatch, full2, bern_half,
                                          alpha, budget, viol, word):
        monkeypatch.setattr(markers, "EXHAUSTIVE_BITS", 0)
        with pytest.raises(MarkerSearchError) as exc:
            find_marker(full2, bern_half, M=1, alpha=alpha, budget=budget, seed=0)
        best_viol, best_word, nu1, nu2 = exc.value.best
        assert (best_viol, best_word.to_string()) == (viol, word)
        assert (nu1, nu2) == pytest.approx((1 / 4, 1 / 4), rel=1e-12)
        assert f"budget {budget} exhausted" in str(exc.value)

    def test_alpha_monotonicity(self, full2, bern_01):
        # nu masses of 2-windows are 0.81, 0.09, 0.09, 0.01, so the
        # feasible set steps up strictly across those thresholds
        counts = [len(exhaustive_valid_markers(full2, bern_01, 1, a))
                  for a in (0.05, 0.2, 0.95)]
        assert counts[0] < counts[1] < counts[2]

    def test_admissible_in_constrained_target(self, golden_mean):
        nu = MarkovMeasure.uniform(golden_mean)
        scheme = find_marker(golden_mean, nu, M=2, alpha=0.9, seed=3)
        assert golden_mean.is_admissible(scheme.word)


@pytest.fixture(scope="module")
def scheme_m2(full2, bern_half):
    return find_marker(full2, bern_half, M=2, alpha=0.5, seed=1)


class TestLocateOffset:
    def test_zero_offset(self, scheme_m2):
        scheme = scheme_m2
        L, M = 50, 2
        w = np.zeros(L, dtype=np.uint8)
        w[L - 9 * M:L - 9 * M + 16] = scheme.word.symbols
        assert locate_offset(Word(w), scheme, L) == 0

    def test_shifted(self, scheme_m2):
        scheme = scheme_m2
        L, M = 50, 2
        w = np.zeros(L, dtype=np.uint8)
        w[L - 9 * M - 5:L - 9 * M - 5 + 16] = scheme.word.symbols
        assert locate_offset(Word(w), scheme, L) == 5

    def test_not_found(self, scheme_m2):
        scheme = scheme_m2
        with pytest.raises(ShiftcodeError, match="marker not found"):
            locate_offset(Word(np.ones(50, dtype=np.uint8)), scheme, 50)

    def test_length_hypothesis_enforced(self, scheme_m2):
        scheme = scheme_m2
        with pytest.raises(ParameterError):
            locate_offset(Word(np.zeros(38, dtype=np.uint8)), scheme, 38)


class TestAvoidanceFilter:
    def make_scheme(self):
        # hand-built scheme: H1 window = "11", H2 window = "10"
        return MarkerScheme(Word.from_string("11000010"), M=1, alpha=0.5,
                            nu_h1=0.01, nu_h2=0.09)

    def test_all_zero_passes(self):
        scheme = self.make_scheme()
        words = [Word(np.zeros(20, dtype=np.uint8))]
        assert list(avoidance_filter(words, scheme, N=18)) == words

    def test_occurrence_inside_range_rejected(self):
        scheme = self.make_scheme()
        w = Word.from_string("00011000000000000000")
        assert list(avoidance_filter([w], scheme, N=10)) == []

    def test_occurrence_outside_range_passes(self):
        scheme = self.make_scheme()
        sym = np.zeros(20, dtype=np.uint8)
        sym[11] = sym[12] = 1   # occurrence at offset 11 > N
        w = Word(sym)
        assert list(avoidance_filter([w], scheme, N=10)) == [w]

    def test_short_words_scanned_over_their_extent(self):
        scheme = self.make_scheme()
        good = Word.from_string("0000")
        bad = Word.from_string("0110")
        assert list(avoidance_filter([good, bad], scheme, N=4)) == [good]


class TestSerialization:
    def test_roundtrip(self, bern_half, scheme_m2):
        scheme = scheme_m2
        line = scheme.serialize()
        again = MarkerScheme.parse(line, bern_half)
        assert again.word == scheme.word
        assert again.M == scheme.M
        assert again.alpha == pytest.approx(scheme.alpha)
        assert again.nu_h1 == pytest.approx(scheme.nu_h1)
