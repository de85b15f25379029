import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shiftcode import measures
from shiftcode.errors import ReducibleChainError
from shiftcode.estimators import BlockDistribution, binary_entropy
from shiftcode.measures import (MarkovMeasure, parse_measure,
                                serialize_measure, stationary_vector)
from shiftcode.shiftspace import (Word, adjacency_matrix, build_sft,
                                  enumerate_words, parse_sft)

from conftest import (LOG2, markov_on_support, reference_full_width_fold,
                      reference_reach_pair, reference_sample_path,
                      reference_stationary_vector)

DATA = Path(__file__).resolve().parent / "data"

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


def _irreducible_chain(sft_zoo, data):
    """A random irreducible chain: positive weights on the edges of an SFT
    of the zoo, or on every edge from each class of a periodic chain to the
    next (1 to 8 classes of 1 to 8 states, 1 to 64 states in all)."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1),
                                          label="weight seed"))
    if data.draw(st.booleans(), label="periodic"):
        sizes = data.draw(st.lists(st.integers(1, 8), min_size=1,
                                   max_size=8), label="class sizes")
        cls = np.repeat(np.arange(len(sizes)), sizes)
        p = (cls[None, :] == (cls[:, None] + 1) % len(sizes)) * rng.uniform(
            0.05, 1.0, (len(cls), len(cls)))
        return p / p.sum(axis=1, keepdims=True)
    sft = data.draw(st.sampled_from(sft_zoo), label="sft")
    n = sft.n_states
    return markov_on_support(sft, rng.uniform(0.05, 1.0, (n, n))).transition


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_not_finite_names_row(self, bad):
        with pytest.raises(ValueError, match="row 1 has an entry that is not finite"):
            stationary_vector(np.array([[0.5, 0.5], [bad, 1.0]]))

    @pytest.mark.parametrize("probs", [[0.7, 0.2], [-0.5, 1.5], [np.nan, 1.0]])
    def test_bernoulli_rows_checked(self, probs):
        with pytest.raises(ValueError):
            MarkovMeasure.bernoulli(probs)

    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=n,
                 max_size=n),
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n))))
    @settings(max_examples=300)
    def test_reducible_names_closure_pair(self, inputs):
        # a random support, with one forced entry a row so that every row
        # has mass; reducible and irreducible chains both occur
        support, forced = inputs
        n = len(support)
        p = np.array(support, dtype=np.float64)
        p[np.arange(n), forced] = 1.0
        p /= p.sum(axis=1, keepdims=True)
        pair = reference_reach_pair(p)
        if pair is None:
            stationary_vector(p)
            return
        with pytest.raises(ReducibleChainError,
                           match=f"state {pair[0]} does not communicate with state {pair[1]}$"):
            stationary_vector(p)

    def test_large_reducible_refused_fast(self):
        # 512 states; nine 0s in a row are never left
        sft = build_sft(2, ["0000000001"])
        start = time.perf_counter()
        with pytest.raises(ReducibleChainError):
            MarkovMeasure.uniform(sft)
        assert time.perf_counter() - start < 2.0

    @given(data=st.data())
    @settings(max_examples=200)
    def test_matches_lstsq_reference(self, sft_zoo, data):
        p = _irreducible_chain(sft_zoo, data)
        pi = stationary_vector(p)
        want = reference_stationary_vector(p)
        assert np.all(pi > 0)
        assert np.all(np.abs(pi - want) <= 1e-12 * want)
        assert np.max(np.abs(pi @ p - pi)) <= 1e-15

    @given(data=st.data())
    @settings(max_examples=200)
    def test_support_fold_matches_full_width(self, sft_zoo, data):
        p = _irreducible_chain(sft_zoo, data)
        assert stationary_vector(p).tobytes() == reference_full_width_fold(p).tobytes()

    def test_support_fold_matches_full_width_at_1024_states(self):
        adj = adjacency_matrix(build_sft(2, ["0" * 11])._step)
        p = adj / adj.sum(axis=1, keepdims=True)
        assert stationary_vector(p).tobytes() == reference_full_width_fold(p).tobytes()

    def test_thousand_states_fast(self):
        # the uniform chain of forbid 0^11, 1,024 states: a dense
        # least-squares solve took 0.25-1.3 s
        adj = adjacency_matrix(build_sft(2, ["0" * 11])._step)
        p = adj / adj.sum(axis=1, keepdims=True)
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            stationary_vector(p)
            best = min(best, time.perf_counter() - start)
        assert best < 0.5

    def test_data_measures_call_no_linalg(self, monkeypatch):
        # building the data measures and their entropies loads no LAPACK
        called = []

        def refuse(name):
            def call(*args, **kwargs):
                called.append(name)
                raise AssertionError(f"numpy.linalg.{name} called")
            return call

        for name in np.linalg.__all__:
            if not isinstance(getattr(np.linalg, name), type):
                monkeypatch.setattr(np.linalg, name, refuse(name))
        for msr, sft in [("b01", "full2"), ("b5", "full2"), ("gmu", "gm"),
                         ("u3", "full3")]:
            m = parse_measure((DATA / f"{msr}.msr").read_text(),
                              parse_sft((DATA / f"{sft}.sft").read_text()))
            assert math.isfinite(m.entropy())
        assert called == []


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


def _check_loop_reference(sft, data, threaded):
    """A drawn chain on ``sft`` samples the loop reference's bytes, its
    block entry states found by the scan or, ``threaded``, by a Python
    step per block."""
    n, k = sft.n_states, sft.k
    weights = data.draw(st.lists(st.floats(0.05, 1.0), min_size=n * n,
                                 max_size=n * n), label="weights")
    # the table budget sets the block width w and the chunk
    budget = data.draw(st.sampled_from([measures.SAMPLE_CHUNK, 1, 40, 300,
                                        4000]), label="budget")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "SAMPLE_CHUNK", budget)
        mp.setattr(measures, "_THREAD_STATES", 0 if threaded else 10 ** 9)
        m = markov_on_support(sft, np.reshape(weights, (n, n)))
        # equal rows at k = 1 take the iid branch, which the loop is not
        assume(k > 1 or not (m.transition == m.transition[0]).all())
        w = m._emit.itemsize
        step = max(budget // w, 1) * w
        near_square = st.tuples(st.integers(1, 70), st.integers(-1, 1)).map(
            lambda rd: k + rd[0] ** 2 + rd[1])
        # lengths around q blocks and q chunks
        block = st.tuples(st.sampled_from([w, step]), st.integers(1, 3),
                          st.integers(-1, 1)).map(
            lambda uqd: k + uqd[0] * uqd[1] + uqd[2])
        # the scan threads at most _WALK_TOP block columns in Python and
        # halves wider levels, an odd last column going up alone
        scan_edge = st.tuples(st.integers(0, 6), st.integers(-1, 1)).map(
            lambda jd: k + w * measures._WALK_TOP * 2 ** jd[0] + jd[1])
        length = data.draw(st.one_of(st.integers(0, k + 3), near_square, block,
                                     scan_edge, st.integers(0, 5000)),
                           label="length")
        seed = data.draw(st.one_of(st.integers(0, 2 ** 32),
                                   st.tuples(st.integers(0, 99), st.integers(0, 9))),
                         label="seed")
        got = m.sample_path(length, seed=seed).symbols
    want = reference_sample_path(m, length, seed)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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

    def test_near_equal_rows_step_by_own_row(self):
        # rows equal to within 5e-9 are not iid: stepping state 2 by row
        # 0's cuts emitted the forbidden 21 on a draw in [0.5, 0.5 + 5e-9)
        # after a 2 (draw 1365 at this seed)
        sft = build_sft(3, ["21"])
        m = MarkovMeasure(sft, [[0.5, 5e-9, 0.5 - 5e-9], [0.5, 5e-9, 0.5 - 5e-9],
                                [0.5 + 5e-9, 0.0, 0.5 - 5e-9]])
        got = m.sample_path(2000, seed=22791)
        assert got.symbols.tobytes() == reference_sample_path(m, 2000, 22791).tobytes()
        assert sft.is_admissible(got)

    @pytest.mark.parametrize("index", range(8))
    @given(data=st.data())
    @settings(max_examples=30)
    def test_matches_loop_reference(self, supports, index, data):
        _check_loop_reference(supports[index], data, threaded=False)

    @pytest.mark.parametrize("index", range(8))
    @given(data=st.data())
    @settings(max_examples=30)
    def test_threaded_matches_loop_reference(self, supports, index, data):
        _check_loop_reference(supports[index], data, threaded=True)

    @pytest.mark.parametrize("budget", [1, 100, 1000])
    @pytest.mark.parametrize("rows", [
        # repeated cuts, within a row (a zero inside) and across rows
        [[0.5, 0.0, 0.5], [0.25, 0.25, 0.5], [0.5, 0.25, 0.25]],
        # zero before a positive entry: a cut at 0.0
        [[0.0, 0.5, 0.5], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]],
        # rows ending in zeros: +inf cuts
        [[0.6, 0.4, 0.0, 0.0], [0.0, 0.0, 0.3, 0.7], [0.3, 0.0, 0.7, 0.0],
         [1.0, 0.0, 0.0, 0.0]],
        # equal rows take the iid branch
        [[0.5, 0.25, 0.25]] * 3,
    ])
    def test_special_cuts_match_loop_reference(self, monkeypatch, budget, rows):
        monkeypatch.setattr(measures, "SAMPLE_CHUNK", budget)
        n = len(rows)
        m = MarkovMeasure(build_sft(n, []), rows)
        w = 1 if m._iid else m._emit.itemsize
        step = max(budget // w, 1) * w
        for length in sorted({0, 1, 2, w - 1, w, w + 2, 3 * w + 1, step,
                              step + 2, 2 * step + w - 1, 1000}):
            for seed in (0, 5, (7, 1)):
                got = m.sample_path(length, seed=seed).symbols
                if m._iid:
                    u = np.random.default_rng(seed).random(length)
                    want = np.searchsorted(np.cumsum(rows[0]), u, "right")
                    want = np.minimum(want, 2).astype(np.uint8)
                else:
                    want = reference_sample_path(m, length, seed)
                assert got.tobytes() == want.tobytes(), (length, seed)

    @pytest.mark.parametrize("threaded", [False, True])
    def test_many_cuts_match_loop_reference(self, monkeypatch, threaded):
        # 30 states of random rows: far more than 255 distinct cuts, so
        # uint16 codes, and blocks of one draw
        monkeypatch.setattr(measures, "_THREAD_STATES", 0 if threaded else 10 ** 9)
        sft = build_sft(30, [])
        m = markov_on_support(sft, np.random.default_rng(3).uniform(0.05, 1.0,
                                                                    (30, 30)))
        assert len(m._edges) > 255 and m._emit.itemsize == 1
        assert m._codes(np.zeros(1)).dtype == np.uint16
        for length in (1, 2, 700, measures.SAMPLE_CHUNK + 2):
            got = m.sample_path(length, seed=length).symbols
            assert got.tobytes() == reference_sample_path(m, length, length).tobytes()

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

    @pytest.mark.parametrize("chunk", [1, 7, 64, 500])
    @pytest.mark.parametrize("index", range(8))
    def test_memory_chunks_continue_one_stream(self, monkeypatch, supports,
                                               index, chunk):
        # a chain with memory takes its uniforms in chunks of whole blocks
        # of w draws, w set by the table budget, and carries its state
        # across them
        monkeypatch.setattr(measures, "SAMPLE_CHUNK", chunk)
        sft = supports[index]
        n, k = sft.n_states, sft.k
        m = markov_on_support(sft, np.arange(1.0, n * n + 1).reshape(n, n))
        w = m._emit.itemsize
        step = max(chunk // w, 1) * w
        for length in sorted({1, k, k + 1, k + w - 1, k + w, k + w + 1,
                              k + 3 * w - 1, k + step - 1, k + step,
                              k + step + 1, k + 3 * step - 1, 1000}):
            for seed in (4, (2001, 3, 0x5A)):
                got = m.sample_path(length, seed=seed).symbols
                want = reference_sample_path(m, length, seed)
                assert got.tobytes() == want.tobytes(), (length, seed)

    @pytest.mark.parametrize("index", [0, 3])
    def test_memory_chunk_edge(self, supports, index):
        sft = supports[index]
        n = sft.n_states
        m = markov_on_support(sft, np.arange(1.0, n * n + 1).reshape(n, n))
        w = m._emit.itemsize
        step = measures.SAMPLE_CHUNK // w * w
        for length in (sft.k + step - 1, sft.k + step + 1,
                       sft.k + measures.SAMPLE_CHUNK + 1):
            got = m.sample_path(length, seed=9).symbols
            assert got.tobytes() == reference_sample_path(m, length, 9).tobytes()

    def test_reach_at_1024_states(self):
        # the uniform chain on forbid 0^11 samples with no n_states x chunk
        # array: a Python step per block through the end table
        m = MarkovMeasure.uniform(build_sft(2, ["0" * 11]))
        assert m.sft.n_states == 1024 > measures._THREAD_STATES
        m.sample_path(100, seed=1)
        start = time.perf_counter()
        m.sample_path(10 ** 5, seed=2)
        assert time.perf_counter() - start < 0.5
        tracemalloc.start()
        try:
            got = m.sample_path(10 ** 5, seed=2).symbols
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        assert got[:20_000].tobytes() == reference_sample_path(m, 20_000, 2).tobytes()

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_next_states_match_searchsorted(self, data):
        # every row's state on each draw's interval code against the
        # documented rule, at every cut, the doubles on either side of it,
        # and the ends of [0, 1)
        n = data.draw(st.integers(1, 7), label="n_states")
        weight = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
        w = np.reshape(data.draw(st.lists(weight, min_size=n * n, max_size=n * n),
                                 label="weights"), (n, n))
        if data.draw(st.booleans(), label="equal rows"):
            w = np.tile(w[0] + 0.01, (n, 1))
        else:   # a positive cycle keeps the chain irreducible
            w[np.arange(n), (np.arange(n) + 1) % n] += 0.01
        p = w / w.sum(axis=1, keepdims=True)
        m = MarkovMeasure(build_sft(n, []), p)
        cum = np.cumsum(p, axis=1)
        draws = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                   max_size=20), label="draws")
        u = np.concatenate([cum.ravel(), np.nextafter(cum.ravel(), 0.0),
                            np.nextafter(cum.ravel(), 2.0), draws,
                            [0.0, 5e-324, 2.0 ** -53, np.nextafter(1.0, 0.0)]])
        u = u[(u >= 0.0) & (u < 1.0)]
        last = [np.flatnonzero(row > 0)[-1] for row in p]   # the clamp
        want = np.array([np.minimum(np.searchsorted(row, u, "right"), j)
                         for row, j in zip(cum, last)])
        codes = m._codes(u)
        assert np.array_equal(codes, np.searchsorted(m._edges, u, "right"))
        assert np.array_equal(m._after[:, codes], want)

    def test_draw_above_row_total_stays_on_a_successor(self, monkeypatch):
        # row 2's float total is 0.9999999999999999, so the largest double
        # below 1 lies above it: it once stepped 2 -> 3, a forbidden word
        sft = build_sft(4, ["23"])
        p = MarkovMeasure.uniform(sft).transition
        p[2] = [0.2, 0.7, 0.1, 0.0]
        m = MarkovMeasure(sft, p)
        top = np.nextafter(1.0, 0.0)
        assert np.cumsum(p[2])[-1] <= top
        assert m._after[2, m._codes(np.array([top]))].tolist() == [2]

        class Top:      # a generator whose every uniform is ``top``
            def __init__(self, seed):
                pass

            def choice(self, n, p):
                return 2

            def random(self, size=None, out=None):
                if out is None:
                    return np.full(size, top)
                out[:] = top

        monkeypatch.setattr(np.random, "default_rng", Top)
        path = m.sample_path(1000, seed=0)
        assert sft.is_admissible(path)
        assert path.symbols.tolist() == [2] * 1000

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
