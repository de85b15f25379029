import math
import random
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from shiftcode.dictionary import (BoySet, ParameterPack, _type_class_boys,
                                  boys, build_relation,
                                  choose_parameters, dictionary, girls,
                                  hall_match, marriage_bound,
                                  verify_dictionary_bounds, wilson_interval)
from shiftcode.errors import (CapacityError, DegreeError, NoGirlsError,
                              ParameterError, ReducibleChainError)
from shiftcode.markers import MarkerScheme, avoidance_filter, find_marker
from shiftcode.measures import MarkovMeasure, parse_measure
from shiftcode.shiftspace import Word, build_sft, enumerate_words, parse_sft

from conftest import (LOG2, brute_max_matching, markov_on_support,
                      reference_adjacency, reference_binomial_rank,
                      reference_binomial_unrank, reference_boys,
                      reference_edge_excess, reference_invert_rows,
                      reference_log_cylinder_extreme, reference_lookup_rows,
                      reference_unrank)

H_01 = 0.3250829733914482
DATA = Path(__file__).parent / "data"


def practical_pack(h_s, h_t, eps, N, M, delta, alpha=0.5, **kw):
    return choose_parameters(h_s, h_t, eps, mode="practical",
                             overrides={"N": N, "M": M, "delta": delta,
                                        "alpha": alpha}, **kw)


def drawn_chains(sft, rng, tries=12):
    """Irreducible chains on the SFT's edges with drawn rows; every other
    try sets about a third of the allowed edges to probability 0."""
    adj = reference_adjacency(sft)
    chains = []
    for i in range(tries):
        p = adj * rng.uniform(0.2, 1.0, adj.shape)
        if i % 2:
            p *= rng.random(adj.shape) > 0.3
        if (p.sum(axis=1) > 0).all():
            try:
                chains.append(MarkovMeasure(sft, p / p.sum(axis=1, keepdims=True)))
            except ReducibleChainError:
                pass
    return chains


class PublicSource:
    """A source that forwards only a MarkovMeasure's public members."""

    def __init__(self, measure):
        self._measure = measure

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._measure, name)


class TestChooseParameters:
    def test_delta_formula_exact(self):
        pack = choose_parameters(H_01, LOG2, 0.5)
        assert pack.Delta == (LOG2 - H_01) / 10

    def test_binding_constraint_chain(self):
        # at eps = 0.5 the partition inequality binds:
        # delta < eps Delta / (16 (1 + log 2)) ~ 6.79e-4
        pack = choose_parameters(H_01, LOG2, 0.5)
        bound = 0.5 * pack.Delta / (16 * (1 + math.log(2)))
        assert pack.binding == "part-cap-delta"
        assert pack.delta == pytest.approx(bound, rel=1e-9)
        assert pack.delta < bound
        assert pack.N >= 11 / pack.delta  # M >= 1 forces N >= 11/delta
        assert pack.M == int(pack.delta * pack.N / 11)

    def test_degenerate_gap_rejected(self):
        with pytest.raises(ParameterError):
            choose_parameters(LOG2, LOG2, 0.5)
        with pytest.raises(ParameterError):
            choose_parameters(0.0, LOG2, 0.5)

    @pytest.mark.parametrize("overrides, named", [
        ({"N": 64}, "N"), ({"M": 2}, "M"), ({"N": 64, "M": 2, "delta": 0.01},
                                            "N and M")])
    def test_strict_refuses_N_and_M(self, overrides, named):
        # both were once dropped: strict mode derives them from delta
        with pytest.raises(ParameterError) as exc:
            choose_parameters(H_01, LOG2, 0.5, overrides=overrides)
        assert str(exc.value) == (f"strict mode derives N and M; it refuses "
                                  f"the {named} override")

    def test_checklist_items_strict(self, full2, bern_half):
        pack = choose_parameters(H_01, LOG2, 0.5, nu=bern_half)
        for key in ("a", "b", "c", "d", "e"):
            assert pack.checklist[key].passed is True, key
        for key in ("en-cap-delta", "part-cap-delta", "stupid",
                    "choice-of-con", "theM"):
            assert pack.checklist[key].passed is True, key

    def test_practical_mode_accepts_overrides(self):
        pack = practical_pack(H_01, LOG2, 0.2, N=64, M=2, delta=0.02)
        assert (pack.N, pack.M, pack.delta) == (64, 2, 0.02)
        # inconsistent theM is recorded, not raised
        assert pack.checklist["theM"].passed is True  # practical accepts
        assert pack.checklist["choice-of-con"].passed is False  # 80d > eps

    @pytest.mark.parametrize("alpha", [0.5, 1e-30, 1e-300])
    def test_practical_mode_skips_the_marker_floor(self, bern_half,
                                                   monkeypatch, alpha):
        # the strict search for M with max nu(2M-cylinder) < alpha/M once
        # ran in practical mode too: 2, 45 and 495 calls at these alphas
        calls = []
        extreme = MarkovMeasure.log_cylinder_extreme
        monkeypatch.setattr(MarkovMeasure, "log_cylinder_extreme", lambda self, *a:
                            calls.append(a[0]) or extreme(self, *a))
        pack = practical_pack(H_01, LOG2, 0.2, N=64, M=2, delta=0.02,
                              alpha=alpha, nu=bern_half)
        assert calls == [4]         # checklist item e, at 2M
        assert pack.checklist["e"].passed is (alpha == 0.5)

    def test_monte_carlo_checklist(self, bern_01, bern_half):
        pack = practical_pack(H_01, LOG2, 0.9, N=200, M=2, delta=0.01,
                              mu=bern_01, nu=bern_half, mc_samples=150, seed=4)
        for key in ("s1", "s2", "s3", "s4", "s5"):
            item = pack.checklist[key]
            assert item.passed in (True, False)
            assert "CI" in item.detail
        assert pack.checklist["s6"].passed is True

    def test_wilson_interval(self):
        lo, hi = wilson_interval(90, 100)
        assert 0.75 < lo < 0.9 < hi <= 1.0
        assert wilson_interval(0, 0) == (0.0, 1.0)


class TestLogCylinderExtremes:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_against_brute_force(self, sft_zoo, seed):
        # memory k >= 2 once ranged over words of length + k - 1
        rng = np.random.default_rng(seed)
        for sft in sft_zoo + [build_sft(2, ["1111"])]:
            mu = markov_on_support(sft, rng.uniform(0.2, 1.0, (sft.n_states,) * 2))
            for n in range(6):
                logs = [mu.log_cylinder_probability(w)
                        for w in enumerate_words(sft, n)]
                for pick in (np.max, np.min):
                    assert mu.log_cylinder_extreme(n, pick) == pytest.approx(
                        pick(logs), abs=1e-12)

    def test_equals_the_dense_dp(self, sft_zoo):
        rng = np.random.default_rng(5)
        cases = zeros = 0
        for sft in sft_zoo:
            for mu in drawn_chains(sft, rng):
                zeros += bool((mu.transition[reference_adjacency(sft) > 0] == 0).any())
                for n in range(3 * sft.k + 6):
                    for pick in (np.max, np.min):
                        cases += 1
                        assert mu.log_cylinder_extreme(n, pick) == (
                            reference_log_cylinder_extreme(mu, n, pick))
        assert cases >= 600 and zeros >= 12

    def test_memory_bounded(self):
        # the dense min-plus DP took 1,024 x 1,024 sums a symbol: 16.1 MiB
        mu = MarkovMeasure.uniform(build_sft(2, ["0" * 11]))
        want = reference_log_cylinder_extreme(mu, 64, np.min)
        tracemalloc.start()
        try:
            got = mu.log_cylinder_extreme(64, np.min)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 2 ** 20


class TestBoys:
    def test_uniform_all_words(self, bern_half):
        # Bernoulli(1/2) into a larger alphabet: the threshold sits below
        # the uniform cylinder mass, so every block is a boy
        b = boys(MarkovMeasure.bernoulli([0.5, 0.5]),
                 practical_pack(LOG2, math.log(3), 0.2, N=12, M=1, delta=0.02))
        assert b.count == 2 ** 12
        assert b.mass == 1.0
        w = Word.from_string("010011001110")
        assert b.member(w) and b.unrank(b.rank(w)) == w

    def test_binomial_threshold_oracle(self, bern_01):
        pack = practical_pack(H_01, LOG2, 0.2, N=64, M=2, delta=0.02)
        b = boys(bern_01, pack)
        # independent oracle: the largest one-count whose log-mass clears
        # the threshold, then the binomial tail
        logT = -64 * (H_01 + pack.Delta)
        ks = [k for k in range(65)
              if k * math.log(0.1) + (64 - k) * math.log(0.9) >= logT]
        assert b.count == sum(math.comb(64, k) for k in ks)
        assert max(ks) == 7
        ones_ok = Word(np.array([1] * 7 + [0] * 57, dtype=np.uint8))
        ones_bad = Word(np.array([1] * 8 + [0] * 56, dtype=np.uint8))
        assert b.member(ones_ok) and not b.member(ones_bad)

    def test_single_block_source(self):
        one = build_sft(1, [])
        mu = MarkovMeasure.bernoulli([1.0])
        pack = ParameterPack(eps=0.2, Delta=0.05, delta=0.02, eta=0.015,
                             r=0.0014, eta_radius=6, r_radius=9, ell=667,
                             M=1, N=8, alpha=0.5, mode="practical",
                             h_source=0.01, h_target=LOG2, h_joint_bound=0.8,
                             source_alphabet=1, gap=1)
        b = boys(mu, pack)
        assert b.count == 1
        assert b.unrank(0) == Word(np.zeros(8, dtype=np.uint8))

    def test_rank_unrank_bijectivity_exhaustive(self):
        mu = MarkovMeasure.bernoulli([0.7, 0.3])
        pack = practical_pack(mu.entropy(), LOG2, 0.2, N=16, M=1, delta=0.02)
        b = boys(mu, pack)
        assert 0 < b.count < 2 ** 16
        prev = None
        for r in range(b.count):
            w = b.unrank(r)
            assert b.rank(w) == r
            s = w.to_string()
            if prev is not None:
                assert prev < s   # strict lex increase
            prev = s

    def test_rank_unrank_sampled_large(self, bern_01):
        import random
        pack = practical_pack(H_01, LOG2, 0.2, N=64, M=2, delta=0.02)
        b = boys(bern_01, pack)
        rng = random.Random(5)
        for _ in range(300):
            r = rng.randrange(b.count)
            assert b.rank(b.unrank(r)) == r

    def test_mass_two_ways(self):
        mu = MarkovMeasure.bernoulli([0.7, 0.3])
        pack = practical_pack(mu.entropy(), LOG2, 0.2, N=16, M=1, delta=0.02)
        b = boys(mu, pack)
        direct = math.fsum(mu.cylinder_probability(b.unrank(r))
                           for r in range(b.count))
        assert abs(direct - b.mass) < 1e-9

    @pytest.mark.parametrize("N", [1980, 2048])
    def test_binomial_mass_past_float_combs(self, bern_01, N):
        # the summed binomials reach past 2^1024 here, where a float sum
        # of comb(N, k) * p^k q^(N-k) raised OverflowError
        import mpmath
        pack = practical_pack(H_01, H_01 + 0.5, 0.2, N=N, M=2, delta=0.02)
        b = boys(bern_01, pack)
        logT = -N * (H_01 + pack.Delta)
        ks = [k for k in range(N + 1)
              if k * math.log(0.1) + (N - k) * math.log(0.9) >= logT]
        assert max(math.comb(N, k) for k in ks) > 2 ** 1024
        assert b.count == sum(math.comb(N, k) for k in ks)
        p0, p1 = (mpmath.mpf(p) for p in bern_01.transition[0])
        with mpmath.workdps(60):
            want = mpmath.fsum(mpmath.binomial(N, k) * p1 ** k * p0 ** (N - k)
                               for k in ks)
        assert b.mass == pytest.approx(float(want), rel=1e-12)

    def test_one_count_table_over_the_limit_refused(self, bern_01):
        # 957 type-class nodes at N = 8192 (the ones so far): a suffix-count
        # table of ~3e10 bits, refused before a row of it is built; the
        # counts are multinomials, not an N-step DP, so the build is quick
        import time
        pack = practical_pack(H_01, LOG2, 0.2, N=8192, M=2, delta=0.02)
        start = time.perf_counter()
        b = boys(bern_01, pack)
        assert time.perf_counter() - start < 2.0
        assert b.dfa.n_nodes == 957
        logT = -8192 * (H_01 + pack.Delta)
        assert b.count == sum(math.comb(8192, k) for k in range(8193)
                              if k * math.log(0.1) + (8192 - k) * math.log(0.9) >= logT)
        with pytest.raises(ParameterError, match="suffix-count table"):
            b.rank_rows(np.zeros((1, 8192), dtype=np.uint8))
        with pytest.raises(ParameterError, match="suffix-count table"):
            b.unrank(0)
        assert b.dfa._suffix is None

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_type_classes_match_listing(self, supports, seed):
        # count, lex list and mass against weighing every admissible block
        rng = np.random.default_rng(seed)
        compared = 0
        for sft in supports:
            mu = markov_on_support(sft, rng.uniform(0.2, 1.0, (sft.n_states,) * 2))
            for N in (sft.k, 6, 10 if sft.alphabet_size == 2 else 7):
                for slack in (0.05, 0.2):
                    thr = -N * (mu.entropy() + slack)
                    listed, mass = reference_boys(mu, N, thr)
                    if mu.log_cylinder_extreme(N, np.min) >= thr or not listed:
                        continue
                    compared += 1
                    b = _type_class_boys(mu, N, thr)
                    assert b.count == len(listed)
                    rows = b.unrank_rows(range(b.count))
                    assert [tuple(w) for w in rows.tolist()] == listed
                    assert b.rank_rows(rows).tolist() == list(range(b.count))
                    assert b.mass == pytest.approx(mass, rel=1e-12, abs=1e-12)
        assert compared >= 30

    def test_excess_is_edge_weight_less_its_kinds_largest(self, sft_zoo):
        # the excesses _type_class_boys reads, against the by-pair gather
        rng = np.random.default_rng(6)
        chains = [mu for sft in sft_zoo for mu in drawn_chains(sft, rng)]
        for mu in chains:
            weight, kind = mu.edge_weights()
            tops = np.array([0.0] + [weight[kind == j].max() for j in (1, 2)])
            excess = weight - tops[kind]
            live, want = reference_edge_excess(mu)
            assert np.array_equal(np.isfinite(excess), live)
            assert np.array_equal(np.where(live, excess, 0.0), want)
        assert len(chains) >= 40

    def test_type_classes_memory_bounded(self):
        # the by-pair excess matrix alone took 2,047^2 floats, 32 MiB
        mu = MarkovMeasure.uniform(build_sft(2, ["0" * 11]))
        N = 40
        thr = -N * (mu.entropy() + 0.0005)
        want = _type_class_boys(mu, N, thr)
        tracemalloc.start()
        try:
            got = _type_class_boys(mu, N, thr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (got.count, got.mass) == (want.count, want.mass)
        assert np.array_equal(got.dfa.step, want.dfa.step)
        assert peak < 16 * 2 ** 20

    @pytest.mark.parametrize("N, M, delta", [(64, 2, 0.02), (1024, 4, 0.01)])
    def test_reads_only_public_source_members(self, bern_01, bern_half,
                                              N, M, delta):
        # the practical and paper packs, through a source without privates
        packs, sets = [], []
        for mu, nu in [(bern_01, bern_half),
                       (PublicSource(bern_01), PublicSource(bern_half))]:
            packs.append(practical_pack(mu.entropy(), LOG2, 0.2, N=N, M=M,
                                        delta=delta, mu=mu, nu=nu,
                                        mc_samples=20, seed=1))
            sets.append(boys(mu, packs[-1]))
        assert packs[1] == packs[0]
        real, stand_in = sets
        assert (stand_in.count, stand_in.mass) == (real.count, real.mass)
        ranks = [0, 1, real.count // 2, real.count - 1]
        rows = real.unrank_rows(ranks)
        assert np.array_equal(stand_in.unrank_rows(ranks), rows)
        assert stand_in.rank_rows(rows).tolist() == ranks

    @pytest.mark.parametrize("N", [6, 8])
    @pytest.mark.parametrize("p", [
        [[0.45, 0.4499999, 0.1000001]] * 3,
        [[0.6, 0.4], [0.4000001, 0.5999999]]])
    def test_near_tied_classes(self, p, N):
        # an excess of ~-2e-7 scores about nothing: the counts are bounded
        # by the N - k + 1 steps an N-block takes, not by the threshold
        import time
        mu = MarkovMeasure(build_sft(len(p), []), np.array(p))
        thr = -N * (mu.entropy() + 0.17)
        assert mu.log_cylinder_extreme(N, np.min) < thr
        start = time.perf_counter()
        b = _type_class_boys(mu, N, thr)
        assert time.perf_counter() - start < 1.0
        listed, mass = reference_boys(mu, N, thr)
        assert [tuple(w) for w in b.unrank_rows(range(b.count)).tolist()] == listed
        assert b.mass == pytest.approx(mass, rel=1e-12)

    def test_shorter_than_the_memory_refused(self):
        # a block shorter than a state weighs several states' pi: no type
        # classes, so boys refuses it unless every block is a boy
        sft = build_sft(2, ["111"])
        mu = markov_on_support(sft, np.ones((sft.n_states,) * 2))
        with pytest.raises(ParameterError, match="shorter than the memory k = 2"):
            _type_class_boys(mu, 1, mu.log_cylinder_extreme(1, np.max))

    def test_ternary_type_classes(self):
        # Bernoulli(0.7, 0.2, 0.1) at N = 16: 3^16 blocks, counted by the
        # multinomials of the boy type classes
        mu = MarkovMeasure.bernoulli([0.7, 0.2, 0.1])
        pack = practical_pack(mu.entropy(), math.log(3), 0.2, N=16, M=1,
                              delta=0.02)
        b = boys(mu, pack)
        thr = -16 * (mu.entropy() + pack.Delta)
        logs = np.log([0.7, 0.2, 0.1])
        types = [(16 - i - j, i, j) for i in range(17) for j in range(17 - i)
                 if np.dot((16 - i - j, i, j), logs) >= thr]
        multinomial = [math.factorial(16) // math.prod(map(math.factorial, t))
                       for t in types]
        assert b.count == sum(multinomial) == 66509
        assert b.mass == pytest.approx(math.fsum(
            c * math.exp(np.dot(t, logs)) for c, t in zip(multinomial, types)),
            rel=1e-12)
        w = Word(np.array([0] * 13 + [1, 2, 1], dtype=np.uint8))
        assert b.member(w) and b.unrank(b.rank(w)) == w

    def test_golden_mean_at_1024_builds(self):
        # the listing took ~33 us a candidate and refused past 2^24
        # candidates (N = 34); here log2 of the candidates is ~710
        import time
        mu = gm_uniform()
        pack = practical_pack(mu.entropy(), math.log(3), 0.2, N=1024, M=1,
                              delta=0.02)
        start = time.perf_counter()
        b = boys(mu, pack)
        assert time.perf_counter() - start < 10.0
        # gmu.msr: log mu = log pi(first symbol) + z log(1/2), z the steps
        # out of a 0; count the words of each first symbol by (last
        # symbol, z) and keep the (first, z) that clear the threshold
        thr = -1024 * (mu.entropy() + pack.Delta)
        count, terms = 0, []
        for first in (0, 1):
            ends = [np.zeros(1024, dtype=object) for _ in range(2)]
            ends[first][0] = 1
            for _ in range(1023):
                out_of_0 = np.concatenate([[0], ends[0][:-1]])
                ends = [out_of_0 + ends[1], out_of_0]
            for z, n in enumerate((ends[0] + ends[1]).tolist()):
                lp = math.log(mu.stationary[first]) + z * math.log(0.5)
                if n and lp >= thr:
                    count += n
                    terms.append(math.log(n) + lp)
        assert b.count == count and b.dfa.n_nodes > 1000
        assert math.log(b.count) == pytest.approx(492.9185, abs=1e-3)
        assert b.mass == pytest.approx(math.fsum(map(math.exp, terms)), rel=1e-12)

    def test_type_class_nodes_refused_before_the_bit_limit(self):
        # a chain on 8 states with random weights: 63 negative excesses of
        # log P and 7 of log pi, whose count vectors grow without bound at
        # a large N; each node is budgeted ~6e5 bits, so ~7,100 nodes
        rng = np.random.default_rng(4)
        mu = markov_on_support(build_sft(8, []), rng.uniform(0.2, 1.0, (8, 8)))
        N = 200_000
        with pytest.raises(ParameterError, match=(
                r"d = 70 classes at N = 200000 passed 7099 nodes")):
            _type_class_boys(mu, N, -N * (mu.entropy() + 0.1))


@pytest.fixture(scope="module")
def m2_scheme(full2, bern_half):
    return find_marker(full2, bern_half, M=2, alpha=0.5, seed=1)


class TestGirls:
    def test_count_vs_bruteforce(self, full2, m2_scheme):
        for n in (33, 36):
            pack = practical_pack(H_01, LOG2, 0.2, N=n, M=2, delta=0.02)
            g = girls(full2, pack, m2_scheme)
            brute = list(avoidance_filter(
                enumerate_words(full2, g.length), m2_scheme, g.length))
            assert g.count == len(brute)
            assert [g.unrank(i) for i in range(g.count)] == brute

    def test_golden_mean_girls(self, golden_mean):
        # length-3 golden-mean girls: 5 admissible words minus avoidance
        # rejections, which on this small alphabet may drop to zero
        nu = MarkovMeasure.uniform(golden_mean)
        scheme = find_marker(golden_mean, nu, M=1, alpha=0.9, seed=2)
        pack = practical_pack(0.2, 0.4, 0.2, N=14, M=1, delta=0.02)
        brute = list(avoidance_filter(
            enumerate_words(golden_mean, 3), scheme, 3))
        assert len(brute) <= 5
        if brute:
            g = girls(golden_mean, pack, scheme)
            assert g.count == len(brute)
        else:
            with pytest.raises(NoGirlsError):
                girls(golden_mean, pack, scheme)

    def test_pack_scheme_mismatch(self, full2, m2_scheme):
        pack = practical_pack(H_01, LOG2, 0.2, N=30, M=1, delta=0.02)
        with pytest.raises(ParameterError):
            girls(full2, pack, m2_scheme)

    def test_no_girls_error(self, full2):
        scheme = MarkerScheme(Word.from_string("00000010"), M=1, alpha=0.9,
                              nu_h1=0.25, nu_h2=0.25)
        # avoiding both "00" and "01" forbids every length-4 word except
        # those built on 1s followed by 10 endings; with length 4 words
        # starting 0 all die: only 1111, 1110 survive? brute-check instead
        pack = practical_pack(H_01, LOG2, 0.2, N=15, M=1, delta=0.02)
        brute = list(avoidance_filter(enumerate_words(full2, 4), scheme, 4))
        if brute:
            g = girls(full2, pack, scheme)
            assert g.count == len(brute)
        else:
            with pytest.raises(NoGirlsError):
                girls(full2, pack, scheme)


@pytest.fixture(scope="module")
def practical(full2, bern_01, m2_scheme):
    """The CLI dict instance: N=64, M=2, Bernoulli(0.9, 0.1) into the full
    2-shift, one-count boys with k in [0, 7]."""
    pack = practical_pack(H_01, LOG2, 0.2, N=64, M=2, delta=0.02)
    b = boys(bern_01, pack)
    g = girls(full2, pack, m2_scheme)
    return b, g, dictionary(b, g, "enumerative", pack=pack)


def gm_uniform():
    """The golden-mean source of ``gm.sft`` and ``gmu.msr``."""
    sft = parse_sft((DATA / "gm.sft").read_text())
    return parse_measure((DATA / "gmu.msr").read_text(), sft)


@pytest.fixture(scope="module")
def listed():
    """Boys of a Markov source that is no Bernoulli one: the golden-mean
    source at N = 12, 224 of the 377 admissible blocks, the listing's."""
    mu = gm_uniform()
    pack = practical_pack(mu.entropy(), math.log(3), 0.2, N=12, M=1,
                          delta=0.02)
    b = boys(mu, pack)
    want, _ = reference_boys(mu, 12, -12 * (mu.entropy() + pack.Delta))
    assert type(b) is BoySet and b.count == len(want) == 224
    return b


class TestBatchMethods:
    def test_rows_match_per_word_loops(self, practical):
        b, g, d = practical
        rng = random.Random(11)
        ranks = [0, b.count - 1] + [rng.randrange(b.count) for _ in range(40)]
        boy_rows = b.unrank_rows(ranks)
        assert [tuple(w) for w in boy_rows.tolist()] == [
            reference_binomial_unrank(64, 7, r) for r in ranks]
        assert b.rank_rows(boy_rows).tolist() == ranks == [
            reference_binomial_rank(64, 7, w) for w in boy_rows.tolist()]
        is_boy, girl_rows = d.lookup_rows(boy_rows, [-1] * len(ranks))
        assert is_boy.all()
        assert [tuple(w) for w in girl_rows.tolist()] == [
            reference_unrank(g.dfa, g.length, r) for r in ranks]
        assert g.rank_rows(girl_rows).tolist() == ranks
        back, found = d.invert_rows(girl_rows)
        assert found.all() and np.array_equal(back, boy_rows)
        # girls ranked at or past the boy count are nobody's image
        assert not d.invert_rows(g.unrank_rows([b.count, g.count - 1]))[1].any()
        assert d.lookup(Word(boy_rows[2])) == Word(girl_rows[2])
        assert d.invert(Word(girl_rows[2])) == Word(boy_rows[2])

    def test_empty_batches(self, practical, listed):
        b, g, d = practical
        no_boys = np.zeros((0, 64), dtype=np.uint8)
        no_girls = np.zeros((0, g.length), dtype=np.uint8)
        assert b.member_rows(no_boys).shape == b.rank_rows(no_boys).shape == (0,)
        assert b.unrank_rows([]).shape == (0, 64)
        is_boy, girl_rows = d.lookup_rows(no_boys, [])
        assert is_boy.shape == (0,) and girl_rows.shape == (0, g.length)
        back, found = d.invert_rows(no_girls)
        assert back.shape == (0, 64) and found.shape == (0,)
        assert listed.member_rows(no_boys[:, :12]).shape == (0,)
        assert listed.rank_rows(no_boys[:, :12]).shape == (0,)
        assert listed.unrank_rows([]).shape == (0, 12)

    def test_other_widths_are_not_members(self, practical, listed):
        # the girl automaton accepts every prefix of a girl
        b, g, d = practical
        for ws in (g, listed):
            word = ws.unrank(0).symbols
            assert not ws.member_rows(word[None, :-1]).any()
            assert not ws.member_rows(np.append(word, 0)[None]).any()
        assert not b.member(Word(b.unrank(0).symbols[:-1]))
        assert d.invert(Word(g.unrank(0).symbols[:-1])) is None

    def test_binomial_boy_off_alphabet_is_no_boy(self, practical):
        # a block of 2s has no ones, so a one-count test alone took it for
        # a boy of rank 0 and the dictionary mapped it to girl 0
        b, g, d = practical
        assert b.count == sum(math.comb(64, k) for k in range(8))
        word = Word(np.full(64, 2, dtype=np.uint8))
        assert b.member(word) is False
        with pytest.raises(ValueError, match="not a boy"):
            b.rank(word)
        with pytest.raises(ValueError, match="not a boy"):
            d.lookup(word)
        rows = np.zeros((3, 64), dtype=np.uint8)
        rows[1, 5] = 2
        rows[2] = 255
        assert b.member_rows(rows).tolist() == [True, False, False]
        with pytest.raises(ValueError, match="not a boy"):
            b.rank_rows(rows)

    @pytest.mark.parametrize("pos", [0, 17, 41])
    @pytest.mark.parametrize("symbol", [2, 255])
    def test_girl_window_off_alphabet(self, practical, pos, symbol):
        b, g, d = practical
        good = g.unrank(0).symbols
        bad = good.copy()
        bad[pos] = symbol
        assert g.member(Word(bad)) is False
        with pytest.raises(ValueError, match="not a girl"):
            g.rank(Word(bad))
        assert d.invert(Word(bad)) is None
        rows = np.stack([good, bad])
        assert g.member_rows(rows).tolist() == [True, False]
        with pytest.raises(ValueError, match="not a girl"):
            g.rank_rows(rows)
        assert d.invert_rows(rows)[1].tolist() == [True, False]

    def test_enumerated_boys_off_alphabet(self, listed):
        bad = listed.unrank(0).symbols.copy()
        bad[3] = 2
        assert listed.member(Word(bad)) is False
        with pytest.raises(ValueError, match="not a boy"):
            listed.rank(Word(bad))

    def test_s2_girls_rank_range(self, full2, m2_scheme):
        # girls in the target shift S_2, ranked on the automaton: -1 is not
        # the last girl and the count is past the end
        pack = practical_pack(H_01, LOG2, 0.2, N=33, M=2, delta=0.02)
        g = girls(full2, pack, m2_scheme)
        for r in (-1, g.count):
            with pytest.raises(ValueError, match="rank out of range"):
                g.unrank(r)
            with pytest.raises(ValueError, match="rank out of range"):
                g.unrank_rows([0, r])
        last = g.count - 1
        assert g.rank(g.unrank(last)) == last
        for ranks in ([0, last], [last, 0]):
            assert g.rank_rows(g.unrank_rows(ranks)).tolist() == ranks

    def test_enumerated_boys_rank_range(self, listed):
        # a list index took -1 for the last word and raised IndexError at
        # the count
        for r in (-1, listed.count):
            with pytest.raises(ValueError, match="rank out of range"):
                listed.unrank(r)
            with pytest.raises(ValueError, match="rank out of range"):
                listed.unrank_rows([0, r])
        last = listed.count - 1
        assert listed.rank(listed.unrank(last)) == last
        for ranks in ([0, last], [last, 0]):
            assert listed.rank_rows(listed.unrank_rows(ranks)).tolist() == ranks

    def test_uniform_full_shift_rows(self):
        b = boys(MarkovMeasure.bernoulli([0.5, 0.5]),
                 practical_pack(LOG2, math.log(3), 0.2, N=12, M=1, delta=0.02))
        ranks = [0, 1, 1234, 2 ** 12 - 1]
        rows = b.unrank_rows(ranks)
        assert [int("".join(map(str, w)), 2) for w in rows.tolist()] == ranks
        assert b.rank_rows(rows).tolist() == ranks
        for r in (-1, 2 ** 12):
            with pytest.raises(ValueError, match="rank out of range"):
                b.unrank(r)
        rows[1, 3] = 2
        assert b.member_rows(rows).tolist() == [True, False, True, True]


@pytest.fixture(scope="module")
def three_shift_dicts(full3, bern_01, bern_half):
    """Dictionaries into the full 3-shift at N = 64, M = 2, whose girls
    (3^42 words less the marker windows) pass 2^63: one-count boys with
    int64 ranks, and every block of the uniform source a boy (2^64)."""
    scheme = find_marker(full3, MarkovMeasure.uniform(full3), M=2, alpha=0.5,
                         seed=1)
    out = []
    for mu in (bern_01, bern_half):
        pack = practical_pack(mu.entropy(), math.log(3), 0.2, N=64, M=2,
                              delta=0.02)
        b, g = boys(mu, pack), girls(full3, pack, scheme)
        assert g.count >= 2 ** 63 and g.dfa._sweep_table(g.length).dtype == object
        out.append(dictionary(b, g, "enumerative", pack=pack))
    assert type(out[1].boys).__name__ == "_FullShiftBoys"
    return out


class TestOneSweepPerWordSet:
    """lookup_rows and invert_rows, one sweep per word set, against the
    member, rank and unrank sweeps they replace."""

    @staticmethod
    def check(d, seed):
        b, g = d.boys, d.girls
        rng = random.Random(seed)
        boy_rows = b.unrank_rows([rng.randrange(b.count) for _ in range(150)])
        blocks = np.concatenate([
            boy_rows,
            np.array([[rng.randrange(2) for _ in range(b.N)] for _ in range(150)],
                     dtype=np.uint8),
            np.full((1, b.N), 2, dtype=np.uint8), np.full((1, b.N), 255, dtype=np.uint8)])
        draws = np.array([-1 if rng.random() < 0.8 else rng.randrange(g.count)
                          for _ in blocks], dtype=object)
        for n in (0, 1, len(blocks)):
            got, want = d.lookup_rows(blocks[:n], draws[:n]), \
                reference_lookup_rows(d, blocks[:n], draws[:n])
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
        assert got[0][:150].all() and not got[0][-2:].any()
        girl_rows = np.concatenate([
            got[1], g.unrank_rows([b.count - 1, g.count - 1]),
            np.full((1, g.length), 2, dtype=np.uint8)])
        girl_rows[::3, rng.randrange(g.length)] ^= 1    # some stay girls
        for n in (0, 1, len(girl_rows)):
            got, want = d.invert_rows(girl_rows[:n]), \
                reference_invert_rows(d, girl_rows[:n])
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
        assert got[1].any() and not got[1].all()

    @pytest.mark.parametrize("seed", range(3))
    def test_int64_ranks(self, practical, seed):
        self.check(practical[2], seed)

    @pytest.mark.parametrize("index", range(2))
    def test_python_int_girls(self, three_shift_dicts, index):
        self.check(three_shift_dicts[index], index)


def test_hall_lookup_rows_table_and_drawn_girls(full2, bern_half):
    # a hall dictionary looks a negative draw's girl up in its table and
    # unranks the others; non-boys get no row
    mu = MarkovMeasure.bernoulli([0.98, 0.02])
    pack = practical_pack(mu.entropy(), LOG2, 0.2, N=32, M=2, delta=0.02)
    scheme = find_marker(full2, bern_half, M=2, alpha=0.5, seed=1)
    b, g = boys(mu, pack), girls(full2, pack, scheme)
    d = dictionary(b, g, "hall", relation={
        b.unrank(i).to_string(): [g.unrank(g.count - 1 - i).to_string()]
        for i in range(b.count)}, K=1, pack=pack)
    rng = random.Random(5)
    blocks = np.concatenate([
        b.unrank_rows([rng.randrange(b.count) for _ in range(40)]),
        np.ones((2, pack.N), dtype=np.uint8)])
    draws = np.array([-1 if rng.random() < 0.5 else rng.randrange(g.count)
                      for _ in blocks], dtype=object)
    for n in (0, 1, len(blocks)):
        is_boy, rows = d.lookup_rows(blocks[:n], draws[:n])
        assert is_boy.tolist() == [i < 40 for i in range(n)]
        assert [Word(row).to_string() for row in rows] == [
            d.table[Word(block).to_string()] if draw < 0 else g.unrank(draw).to_string()
            for block, draw in zip(blocks[:40][:n], draws[:40][:n])]
    assert (draws[:40] < 0).any() and (draws[:40] >= 0).any()


class TestMarriageBound:
    def test_trivial_case(self):
        pack = practical_pack(H_01, LOG2, 0.2, N=64, M=2, delta=0.02)
        lk = marriage_bound(pack, h_joint=H_01, h_source=H_01)
        assert lk == pytest.approx(math.log(0.5) - 2 * 64 * pack.Delta)
        assert lk < 0

    def test_arithmetic(self):
        pack = practical_pack(0.3, 0.7, 0.2, N=100, M=2, delta=0.02)
        pack.Delta = 0.01
        lk = marriage_bound(pack, h_joint=0.6, h_source=0.3)
        assert lk == pytest.approx(math.log(0.5) + 100 * (0.3 - 0.02))


def girl_degrees(relation):
    """The number of boys each girl of a {boy: girls} relation has."""
    return Counter(g for gs in relation.values() for g in gs)


class TestHallMatch:
    def test_spec_example(self):
        rel = {"b1": ["g1", "g2"], "b2": ["g2", "g3"]}
        phi = hall_match(rel, 2)
        assert phi in ({"b1": "g1", "b2": "g2"}, {"b1": "g1", "b2": "g3"},
                       {"b1": "g2", "b2": "g3"})
        assert len(set(phi.values())) == 2

    def test_degree_violation_names_vertex(self):
        rel = {"b1": ["g1"], "b2": ["g1"]}
        with pytest.raises(DegreeError) as exc:
            hall_match(rel, 1)
        assert exc.value.vertex == "g1"
        rel2 = {"b1": ["g1"]}
        with pytest.raises(DegreeError) as exc2:
            hall_match(rel2, 2)
        assert exc2.value.vertex == "b1"

    def test_empty(self):
        assert hall_match({}, 3) == {}

    def test_against_bruteforce_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            nb, ng = rng.integers(1, 7), rng.integers(1, 7)
            edges = {}
            for i in range(nb):
                nbrs = sorted({f"g{int(j)}" for j in
                               rng.integers(0, ng, size=rng.integers(1, ng + 1))})
                edges[f"b{i}"] = nbrs
            K = max(girl_degrees(edges).values())
            if any(len(v) < K for v in edges.values()):
                with pytest.raises(DegreeError):
                    hall_match(edges, K)
                continue
            phi = hall_match(edges, K)
            assert len(phi) == len(edges) == brute_max_matching(edges)
            assert len(set(phi.values())) == len(phi)
            assert all(g in edges[b] for b, g in phi.items())
            assert hall_match(edges, K) == phi

    def test_augmenting_path_moves_earlier_boys(self):
        # b3's girls are both taken when its turn comes: b1 and b2 each
        # move once along one alternating path
        rel = {"b1": ["g1", "g2"], "b2": ["g1", "g3"], "b3": ["g2", "g3"]}
        assert hall_match(rel, 2) == {"b1": "g1", "b2": "g3", "b3": "g2"}

    def test_oracle_is_exhaustive(self):
        # greedy in sorted order would match only b1 -> g1
        assert brute_max_matching({"b1": ["g1", "g2"], "b2": ["g1"]}) == 2
        assert brute_max_matching({"b1": ["g1"], "b2": ["g1"]}) == 1
        assert brute_max_matching({}) == 0


class TestBuildRelation:
    def setup_instance(self, full2, bern_half):
        mu = MarkovMeasure.bernoulli([0.98, 0.02])
        pack = practical_pack(mu.entropy(), LOG2, 0.5, N=12, M=1, delta=0.05)
        nu = bern_half
        scheme = find_marker(full2, nu, M=1, alpha=0.9, seed=2)
        b = boys(mu, pack)
        g = girls(full2, pack, scheme)
        return mu, nu, pack, scheme, b, g

    def test_sampled_edges_witnessed(self, full2, bern_half):
        mu, nu, pack, scheme, b, g = self.setup_instance(full2, bern_half)
        pairs = [(mu.sample_path(pack.N, seed=i),
                  nu.sample_path(pack.N, seed=500 + i)) for i in range(40)]
        rel = build_relation(b, g, pairs, pack)
        assert rel, "sampled relation should be non-empty"
        lo, hi = pack.info_region
        witnessed = {}
        for x, y in pairs:
            bw, gw = x.window(0, pack.N), y.window(lo, hi).rebase()
            if b.member(bw) and g.member(gw):
                witnessed.setdefault(bw.to_string(), set()).add(gw.to_string())
        assert rel == {bs: sorted(gs) for bs, gs in witnessed.items()}

    def test_empty_samples(self, full2, bern_half):
        mu, nu, pack, scheme, b, g = self.setup_instance(full2, bern_half)
        rel = build_relation(b, g, [], pack)
        assert rel == {}

    def test_non_boy_contributes_nothing(self, full2, bern_half):
        mu, nu, pack, scheme, b, g = self.setup_instance(full2, bern_half)
        ones = Word(np.ones(pack.N, dtype=np.uint8))
        rel = build_relation(b, g, [(ones, nu.sample_path(pack.N, seed=1))],
                             pack)
        assert rel == {}


class TestDictionary:
    def test_lex_embedding_example(self, full2):
        # boys = all 2^3 blocks, girls = the length-4 words avoiding both
        # windows 11 of a hand-built marker: the 8 golden-mean words, so
        # the enumerative dictionary pairs boy and girl ranks one to one;
        # N - 11M >= 1 forces separate packs for this synthetic case
        bpack = ParameterPack(eps=0.2, Delta=0.02, delta=0.02, eta=0.015,
                              r=0.0014, eta_radius=6, r_radius=9, ell=667,
                              M=1, N=3, alpha=0.5, mode="practical",
                              h_source=LOG2, h_target=math.log(3),
                              h_joint_bound=1.8, source_alphabet=2, gap=1)
        gpack = ParameterPack(eps=0.2, Delta=0.02, delta=0.02, eta=0.015,
                              r=0.0014, eta_radius=6, r_radius=9, ell=667,
                              M=1, N=15, alpha=0.5, mode="practical",
                              h_source=0.5, h_target=LOG2, h_joint_bound=1.2,
                              source_alphabet=2, gap=1)
        b = boys(MarkovMeasure.bernoulli([0.5, 0.5]), bpack)
        scheme = MarkerScheme(Word.from_string("11000011"), M=1, alpha=0.5,
                              nu_h1=0.25, nu_h2=0.25)
        g = girls(full2, gpack, scheme)
        assert (b.count, g.count) == (8, 8)
        d = dictionary(b, g, "enumerative")
        lex_girls = ["0000", "0001", "0010", "0100",
                     "0101", "1000", "1001", "1010"]
        for r in range(8):
            B = b.unrank(r)
            assert B.to_string() == format(r, "03b")
            assert d.lookup(B).to_string() == lex_girls[r]
            assert d.invert(d.lookup(B)) == B

    def test_hall_table_of_non_members_refused(self, full2, bern_half):
        mu = MarkovMeasure.bernoulli([0.98, 0.02])
        pack = practical_pack(mu.entropy(), LOG2, 0.5, N=12, M=1, delta=0.05)
        scheme = find_marker(full2, bern_half, M=1, alpha=0.9, seed=2)
        b = boys(mu, pack)
        g = girls(full2, pack, scheme)
        boy, girl = b.unrank(0).to_string(), g.unrank(0).to_string()
        non_boy = "1" * pack.N
        assert not b.member(Word.from_string(non_boy))
        for table in ({non_boy: girl}, {boy: "2" * g.length}, {boy: girl + "0"}):
            rel = {k: [v] for k, v in table.items()}
            with pytest.raises(ParameterError, match="is not a boy to a girl"):
                dictionary(b, g, "hall", relation=rel, K=1, pack=pack)

    def test_capacity_failure_counts(self, full3):
        nu3 = MarkovMeasure.uniform(full3)
        scheme = find_marker(full3, nu3, M=1, alpha=0.9, seed=1)
        pack = practical_pack(LOG2, math.log(3), 0.2, N=15, M=1, delta=0.02)
        b = boys(MarkovMeasure.bernoulli([0.5, 0.5]), pack)
        g = girls(full3, pack, scheme)
        assert b.count == 2 ** 15 and g.count < 2 ** 15
        with pytest.raises(CapacityError) as exc:
            dictionary(b, g, "enumerative", pack=pack)
        assert exc.value.n_boys == 2 ** 15
        assert exc.value.n_girls == g.count
        assert "ratio" in str(exc.value)

    def test_hall_mode_subset_of_relation(self, full2, bern_half):
        mu = MarkovMeasure.bernoulli([0.98, 0.02])
        pack = practical_pack(mu.entropy(), LOG2, 0.5, N=12, M=1, delta=0.05)
        scheme = find_marker(full2, bern_half, M=1, alpha=0.9, seed=2)
        b = boys(mu, pack)
        g = girls(full2, pack, scheme)
        pairs = [(mu.sample_path(pack.N, seed=i),
                  bern_half.sample_path(pack.N, seed=900 + i))
                 for i in range(200)]
        rel = build_relation(b, g, pairs, pack)
        K = max(girl_degrees(rel).values())
        usable = {bs: gs for bs, gs in rel.items() if len(gs) >= K}
        if usable and max(girl_degrees(usable).values()) <= K:
            d = dictionary(b, g, "hall", relation=usable, K=K, pack=pack)
            for bs, gs in d.table.items():
                assert gs in usable[bs]
            assert len(set(d.table.values())) == len(d.table)


class TestVerifyBounds:
    def test_practical_mode_honest_failures(self, full2, bern_01, m2_scheme):
        pack = practical_pack(H_01, LOG2, 0.2, N=64, M=2, delta=0.02)
        b = boys(bern_01, pack)
        g = girls(full2, pack, m2_scheme)
        rep = verify_dictionary_bounds(b, g, pack, H_01, LOG2)
        assert rep.boys_below is True
        # at small N the mass and ratio predicates fail and are reported
        assert rep.mass_exceeds is False
        assert rep.ratio_holds is False
        assert rep.boy_mass == pytest.approx(b.mass)

    def test_bounds_report_of_huge_counts(self, bern_01):
        # math.log reads a count of any size; a count of 0 has no log
        pack = practical_pack(H_01, LOG2, 0.2, N=64, M=2, delta=0.02)
        b = boys(bern_01, pack)
        huge = BoySet(None, 64, 3 ** 100_000, 1.0)
        rep = verify_dictionary_bounds(b, huge, pack, H_01, LOG2)
        assert rep.log_girls == pytest.approx(100_000 * math.log(3), rel=1e-12)
        assert rep.log_boys == math.log(b.count) and rep.ratio_holds
        with pytest.raises(ValueError):
            verify_dictionary_bounds(BoySet(None, 64, 0, 0.0), huge, pack,
                                     H_01, LOG2)
