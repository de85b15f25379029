import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shiftcode import measures
from shiftcode.errors import ReducibleChainError
from shiftcode.estimators import BlockDistribution, binary_entropy
from shiftcode.measures import (MarkovMeasure, parse_measure,
                                serialize_measure, stationary_vector)
from shiftcode.shiftspace import Word, build_sft, enumerate_words

from conftest import LOG2, markov_on_support, reference_sample_path

# -(0.1 log 0.1 + 0.9 log 0.9), evaluated directly
H_01 = 0.3250829733914482


def reference_log_cylinder(measure, word):
    """Oracle: the scaled forward algorithm over states.

    The emission of a state at time i is its last symbol, and the first
    k - 1 coordinates are marginalized.  It never counts the initial mass,
    so it returns log 1 for every one-symbol word: compare at n >= 2 only.
    """
    sym = np.asarray(word.symbols)
    states = measure.sft.states
    alpha = np.array([measure.stationary[i] if states[i][-1] == sym[0] else 0.0
                      for i in range(len(states))])
    total = 0.0
    for i in range(1, len(sym)):
        alpha = alpha @ measure.transition
        mask = np.array([1.0 if s[-1] == sym[i] else 0.0 for s in states])
        alpha = alpha * mask
        z = alpha.sum()
        if z <= 0.0:
            return -math.inf
        alpha /= z
        total += math.log(z)
    return total


class TestStationary:
    def test_symmetric(self):
        pi = stationary_vector(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert np.allclose(pi, [0.5, 0.5], atol=1e-12)

    def test_two_state_elimination_oracle(self):
        # pi P = pi for P = [[0.9, 0.1], [0.5, 0.5]] solves to (5/6, 1/6):
        # pi_0 = 0.9 pi_0 + 0.5 pi_1 and pi_0 + pi_1 = 1.
        pi = stationary_vector(np.array([[0.9, 0.1], [0.5, 0.5]]))
        assert np.allclose(pi, [5 / 6, 1 / 6], atol=1e-12)

    def test_reducible_names_states(self):
        with pytest.raises(ReducibleChainError) as exc:
            stationary_vector(np.eye(2))
        assert "0" in str(exc.value) and "1" in str(exc.value)

    def test_not_stochastic(self):
        with pytest.raises(ValueError):
            stationary_vector(np.array([[0.7, 0.2], [0.5, 0.5]]))


class TestCylinder:
    def test_bernoulli_half(self, bern_half):
        assert bern_half.cylinder_probability(Word.from_string("01")) == pytest.approx(0.25, abs=1e-15)

    def test_empty_word(self, bern_half):
        assert bern_half.cylinder_probability(Word(np.zeros(0, dtype=np.uint8))) == 1.0

    def test_markov_chain(self, full2):
        m = MarkovMeasure(full2, [[0.9, 0.1], [0.5, 0.5]])
        assert m.cylinder_probability(Word.from_string("01")) == pytest.approx(1 / 12, abs=1e-12)

    def test_inadmissible_is_zero(self, golden_mean):
        m = MarkovMeasure.uniform(golden_mean)
        assert m.cylinder_probability(Word.from_string("0110")) == 0.0

    def test_support_outside_sft_rejected(self, golden_mean):
        with pytest.raises(ValueError):
            MarkovMeasure(golden_mean, [[0.5, 0.5], [0.5, 0.5]])

    @pytest.mark.parametrize("builder,n", [
        (lambda: MarkovMeasure.bernoulli([0.5, 0.5]), 12),
        (lambda: MarkovMeasure.uniform(build_sft(2, ["11"])), 12),
        (lambda: MarkovMeasure(build_sft(2, []), [[0.9, 0.1], [0.5, 0.5]]), 12),
        (lambda: MarkovMeasure.bernoulli([0.2, 0.3, 0.5]), 10),
        (lambda: MarkovMeasure.uniform(build_sft(2, ["111"])), 10),
    ])
    def test_total_mass_one(self, builder, n):
        m = builder()
        total = math.fsum(m.cylinder_probability(w)
                          for w in enumerate_words(m.sft, n))
        assert abs(total - 1.0) < 1e-9


    def test_pruned_symbol(self):
        # states (1,), (2,): symbols are not state indices
        m = MarkovMeasure.uniform(build_sft(3, ["0"]))
        for text, p in [("2", 0.5), ("12", 0.25), ("21", 0.25), ("22", 0.25)]:
            assert m.cylinder_probability(Word.from_string(text)) == pytest.approx(p, abs=1e-15)
        # "11" forbidden: pi = (1/3, 2/3) over states (1,), (2,)
        m = MarkovMeasure.uniform(build_sft(3, ["0", "11"]))
        assert m.cylinder_probability(Word.from_string("1")) == pytest.approx(1 / 3, abs=1e-15)

    @pytest.mark.parametrize("forbidden", [(2, ["111"]), (3, ["012"])])
    def test_one_symbol_words_with_memory(self, forbidden):
        m = MarkovMeasure.uniform(build_sft(*forbidden))
        masses = [m.cylinder_probability(w) for w in enumerate_words(m.sft, 1)]
        assert all(p < 1.0 for p in masses)
        assert abs(math.fsum(masses) - 1.0) < 1e-12
        assert BlockDistribution.exact(m, 1).freqs

    @pytest.mark.parametrize("index", range(8))
    def test_short_words_total_mass_one(self, supports, index):
        m = MarkovMeasure.uniform(supports[index])
        for n in range(1, 5):
            total = math.fsum(m.cylinder_probability(w)
                              for w in enumerate_words(m.sft, n))
            assert abs(total - 1.0) < 1e-12, n

    @pytest.mark.parametrize("index", range(8))
    @given(data=st.data())
    @settings(max_examples=25)
    def test_matches_forward_reference(self, supports, index, data):
        sft = supports[index]
        n = sft.n_states
        weights = data.draw(st.lists(st.floats(0.05, 1.0), min_size=n * n,
                                     max_size=n * n), label="weights")
        m = markov_on_support(sft, np.reshape(weights, (n, n)))
        length = data.draw(st.integers(2, 12), label="length")
        if data.draw(st.booleans(), label="sampled"):
            word = m.sample_path(length, seed=data.draw(st.integers(0, 999)))
        else:
            word = Word(np.array(data.draw(st.lists(
                st.integers(0, sft.alphabet_size - 1), min_size=length,
                max_size=length), label="symbols"), dtype=np.uint8))
        got = m.log_cylinder_probability(word)
        want = reference_log_cylinder(m, word)
        if want == -math.inf:
            assert got == -math.inf
        else:
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)


class TestEntropy:
    def test_bernoulli_half(self, bern_half):
        assert bern_half.entropy() == pytest.approx(LOG2, abs=1e-15)

    def test_deterministic_cycle(self):
        cyc = build_sft(2, ["00", "11"])
        m = MarkovMeasure.uniform(cyc)
        assert m.entropy() == 0.0

    def test_bernoulli_01(self, bern_01):
        assert bern_01.entropy() == pytest.approx(H_01, abs=1e-12)

    @pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.9])
    def test_matches_binary_entropy(self, p):
        m = MarkovMeasure.bernoulli([1 - p, p])
        assert abs(m.entropy() - binary_entropy(p)) < 1e-12


class TestSampling:
    def test_empty(self, bern_half):
        assert len(bern_half.sample_path(0, seed=1)) == 0

    def test_frequency(self, bern_half):
        w = bern_half.sample_path(100_000, seed=7)
        assert abs(float(np.mean(w.symbols)) - 0.5) < 0.01

    def test_cycle_periodic(self):
        cyc = build_sft(2, ["00", "11"])
        m = MarkovMeasure.uniform(cyc)
        w = m.sample_path(100, seed=3)
        assert set(np.diff(w.symbols.astype(int))) <= {1, -1}

    @pytest.mark.parametrize("index", range(8))
    def test_samples_admissible(self, supports, index):
        m = MarkovMeasure.uniform(supports[index])
        for seed in range(3):
            assert m.sft.is_admissible(m.sample_path(200, seed=seed))

    def test_iid_sampler_emits_symbols(self):
        # one state per symbol 1, 2; equal rows select the iid branch
        m = MarkovMeasure.uniform(build_sft(3, ["0"]))
        w = m.sample_path(20, seed=1)
        assert set(w.symbols.tolist()) <= {1, 2}
        assert m.sft.is_admissible(w)

    @pytest.mark.parametrize("index", range(8))
    @given(data=st.data())
    @settings(max_examples=30)
    def test_matches_loop_reference(self, supports, index, data):
        sft = supports[index]
        n, k = sft.n_states, sft.k
        weights = data.draw(st.lists(st.floats(0.05, 1.0), min_size=n * n,
                                     max_size=n * n), label="weights")
        m = markov_on_support(sft, np.reshape(weights, (n, n)))
        # equal rows at k = 1 take the iid branch, which the loop is not
        assume(k > 1 or not np.allclose(m.transition, m.transition[0]))
        # the scan cuts the length - k draws into blocks of ceil(sqrt(.))
        near_square = st.tuples(st.integers(1, 70), st.integers(-1, 1)).map(
            lambda rd: k + rd[0] ** 2 + rd[1])
        length = data.draw(st.one_of(st.integers(0, k + 3), near_square,
                                     st.integers(0, 5000)), label="length")
        seed = data.draw(st.one_of(st.integers(0, 2 ** 32),
                                   st.tuples(st.integers(0, 99), st.integers(0, 9))),
                         label="seed")
        got = m.sample_path(length, seed=seed).symbols
        want = reference_sample_path(m, length, seed)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 15])
    @pytest.mark.parametrize("length", [1, 6, 7, 8, 50, 1000])
    def test_iid_chunks_continue_one_stream(self, monkeypatch, chunk, length):
        # the iid branch takes its uniforms in chunks; they must be the
        # uniforms of one rng.random(n), mapped by the same rule
        monkeypatch.setattr(measures, "SAMPLE_CHUNK", chunk)
        m = MarkovMeasure.bernoulli([0.2, 0.3, 0.5])
        for seed in (4, (2001, 3, 0x5A)):
            u = np.random.default_rng(seed).random(length)
            draws = np.minimum(np.searchsorted(np.cumsum([0.2, 0.3, 0.5]), u,
                                               side="right"), 2)
            got = m.sample_path(length, seed=seed).symbols
            assert got.dtype == np.uint8
            assert got.tobytes() == draws.astype(np.uint8).tobytes()

    def test_deterministic_per_seed(self, bern_01):
        assert bern_01.sample_path(1000, seed=5) == bern_01.sample_path(1000, seed=5)
        assert bern_01.sample_path(1000, seed=5) != bern_01.sample_path(1000, seed=6)

    def test_three_block_distribution(self, bern_01):
        # total variation between empirical and exact 3-block masses
        w = bern_01.sample_path(1_000_000, seed=11)
        sym = w.symbols
        codes = sym[:-2].astype(int) * 4 + sym[1:-1].astype(int) * 2 + sym[2:].astype(int)
        counts = np.bincount(codes, minlength=8) / len(codes)
        exact = np.array([bern_01.cylinder_probability(
            Word(np.array([b // 4, (b // 2) % 2, b % 2], dtype=np.uint8)))
            for b in range(8)])
        assert 0.5 * float(np.abs(counts - exact).sum()) < 0.02


class TestTextFormat:
    def test_roundtrip(self, full2):
        m = MarkovMeasure(full2, [[0.9, 0.1], [0.5, 0.5]])
        text = serialize_measure(m)
        again = parse_measure(text, full2)
        assert np.array_equal(again.transition, m.transition)
        assert serialize_measure(again) == text

    def test_validates_stochasticity(self, full2):
        with pytest.raises(ValueError):
            parse_measure("states 2\nrow 0.9 0.2\nrow 0.5 0.5\n", full2)
        with pytest.raises(ValueError):
            parse_measure("states 2\nrow 0.5 0.5\n", full2)
