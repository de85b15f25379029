import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftcode.codec import lz78_entropy
from shiftcode.errors import ParameterError
from shiftcode.interp import interpolate
from shiftcode.measures import MarkovMeasure
from shiftcode.shiftspace import Word, build_sft, specification_gap
from shiftcode.splicer import (Skeleton, _plan, skeleton_params,
                               splice_entropy_boost, splice_full_support)

from conftest import (greedy_parse, plan_words, reference_skeleton_blocks,
                      reference_skeleton_symbols, reference_splice_plan)


class TestSkeletonParams:
    def test_worked_example(self):
        (k0, k1, k2), report = skeleton_params(0.2, 0.1, 1000)
        assert (k0, k1, k2) == (50, 750, 150)
        total = 2 * k0 + k1 + k2
        assert k1 / total == pytest.approx(0.75)
        assert k2 / total == pytest.approx(0.15)
        assert report["time_ratio_1"][2] and report["time_ratio_2"][2]

    def test_gamma_order(self):
        with pytest.raises(ParameterError):
            skeleton_params(0.1, 0.2, 1000)

    def test_floor_collapse(self):
        with pytest.raises(ParameterError):
            skeleton_params(0.2, 0.1, 10)

    @pytest.mark.parametrize("eps,gamma,N,k1", [
        (0.9, 0.5, 10, -2),     # eps + gamma/2 > 1
        (0.75, 0.5, 100, 0),    # eps + gamma/2 = 1
    ])
    def test_k1_below_one_refused(self, eps, gamma, N, k1):
        # once returned, and the boost skeleton failed on a negative size
        with pytest.raises(ParameterError, match=(
                rf"k1 = floor\(\(1 - eps - gamma/2\) N\) = {k1} .* "
                rf"eps={eps}, gamma={gamma}, N={N}")):
            skeleton_params(eps, gamma, N)


class TestSkeletonLegality:
    @pytest.mark.parametrize("kind,params", [
        ("boost", (50, 750, 150)),
        ("support", (100, 2)),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_greedy_parse_roundtrip(self, kind, params, seed):
        sk = Skeleton.sample(kind, params, seed, 20_000)
        kinds = greedy_parse(sk)
        assert set(kinds) <= {"short", "long"}
        # round-trip: rebuild from the parse and compare
        short, long_ = reference_skeleton_blocks(kind, params)
        rebuilt = np.concatenate([long_ if k == "long" else short for k in kinds])
        assert np.array_equal(rebuilt, sk.symbols)

    @given(kind=st.sampled_from(["boost", "support"]),
           a=st.integers(0, 12), b=st.integers(1, 60), c=st.integers(0, 12))
    @settings(max_examples=300)
    def test_one_rule_is_the_per_kind_blocks(self, kind, a, b, c):
        # short = 1^a 0^b 2^c 0^b and long = 1^(a+1) + short[a:] for both
        # families, against the blocks built per kind
        params = (a, b, c) if kind == "boost" else (b + 2 * a, a)
        runs = Skeleton._run_lengths(kind, params)
        got = [np.repeat(np.array([1, 0, 2, 0], np.uint8), runs + extra)
               for extra in ([0, 0, 0, 0], [1, 0, 0, 0])]
        for blk, want in zip(got, reference_skeleton_blocks(kind, params)):
            assert np.array_equal(blk, want)

    def test_support_blocks_need_a_one(self):
        with pytest.raises(ParameterError, match="need N - 2M >= 1"):
            Skeleton._run_lengths("support", (4, 2))
        with pytest.raises(ValueError, match="unknown skeleton kind"):
            Skeleton._run_lengths("other", (4, 1))

    @given(kind=st.sampled_from(["boost", "support"]),
           a=st.integers(1, 6), b=st.integers(1, 40), c=st.integers(0, 12),
           seed=st.integers(0, 2**32 - 1), min_length=st.integers(1, 4000))
    @settings(max_examples=200)
    def test_sample_matches_per_block_draws(self, kind, a, b, c, seed,
                                            min_length):
        # one bulk coin draw, cut at min_length, is the per-block loop
        params = (a, b, c) if kind == "boost" else (b + 2 * a, a)
        sk = Skeleton.sample(kind, params, seed, min_length)
        want = reference_skeleton_symbols(kind, params, seed, min_length)
        assert sk.symbols.dtype == want.dtype
        assert np.array_equal(sk.symbols, want)
        assert len(sk) >= min_length

    def test_sample_needs_a_positive_length(self):
        with pytest.raises(ValueError, match="min_length must be >= 1"):
            Skeleton.sample("support", (20, 2), 3, 0)

    def test_corrupted_not_parseable(self):
        sk = Skeleton.sample("support", (20, 2), 3, 200)
        bad = sk.symbols.copy()
        bad[5] = 2
        with pytest.raises(ValueError):
            greedy_parse(Skeleton(bad, "support", (20, 2)))


class TestEntropyBoost:
    def test_frequency_split(self, full2):
        sk = Skeleton.sample("boost", (50, 750, 150), 5, 100_000)
        n = len(sk)
        y1 = Word(np.zeros(n, dtype=np.uint8))
        y2 = Word(np.ones(n, dtype=np.uint8))
        y3 = splice_entropy_boost(full2, y1, y2, sk)
        frac2 = float(np.mean(sk.symbols == 2))
        assert abs(float(np.mean(y3.symbols == 1)) - 150 / 1000) < 0.02
        assert float(np.mean(y3.symbols == 1)) >= frac2  # 2-runs all carry 1s

    def test_agreement_and_admissibility(self, sft_zoo):
        for sft in sft_zoo:
            nu = MarkovMeasure.uniform(sft)
            L = specification_gap(sft)
            sk = Skeleton.sample("boost", (max(3, L), 40, 10), 2, 3000)
            y1 = nu.sample_path(len(sk), seed=1)
            y2 = nu.sample_path(len(sk), seed=2)
            y3 = splice_entropy_boost(sft, y1, y2, sk)
            assert sft.is_admissible(y3)
            m1 = sk.symbols == 1
            m2 = sk.symbols == 2
            assert np.array_equal(y3.symbols[m1], y1.symbols[:len(sk)][m1])
            assert np.array_equal(y3.symbols[m2], y2.symbols[:len(sk)][m2])

    def test_disagreement_bounded_by_skeleton(self, full2):
        eps, gamma = 0.2, 0.1
        (k0, k1, k2), _ = skeleton_params(eps, gamma, 1000)
        sk = Skeleton.sample("boost", (k0, k1, k2), 9, 50_000)
        nu = MarkovMeasure.bernoulli([0.5, 0.5])
        y1 = nu.sample_path(len(sk), seed=4)
        y2 = nu.sample_path(len(sk), seed=5)
        y3 = splice_entropy_boost(full2, y1, y2, sk)
        disagree = float(np.mean(y3.symbols != y1.symbols[:len(sk)]))
        frac0 = float(np.mean(sk.symbols == 0))
        # echoes the weak*-perturbation estimate: only 0- and 2-positions
        # may move, and the 2-fraction is below eps + gamma
        assert disagree <= frac0 + (eps + gamma)

    def test_parameter_guards(self, full2):
        sk = Skeleton.sample("boost", (1, 40, 0), 2, 500)
        y = Word(np.zeros(len(sk), dtype=np.uint8))
        with pytest.raises(ParameterError):
            splice_entropy_boost(full2, y, y, sk)
        gm = build_sft(2, ["11"])
        sk2 = Skeleton.sample("boost", (1, 40, 10), 2, 500)  # k0 = 1 < L = 2
        y2 = Word(np.zeros(len(sk2), dtype=np.uint8))
        with pytest.raises(ParameterError):
            splice_entropy_boost(gm, y2, y2, sk2)

    def test_lz_entropy_increase_majority(self, full2):
        # y2 from a strictly higher-entropy source, k2 fraction >= 0.1
        lo = MarkovMeasure.bernoulli([0.95, 0.05])
        hi = MarkovMeasure.bernoulli([0.5, 0.5])
        (k0, k1, k2), _ = skeleton_params(0.2, 0.05, 1000)
        assert k2 / (2 * k0 + k1 + k2) >= 0.1
        wins = 0
        for seed in range(10):
            sk = Skeleton.sample("boost", (k0, k1, k2), seed, 1_000_000)
            y1 = lo.sample_path(len(sk), seed=(seed, 1))
            y2 = hi.sample_path(len(sk), seed=(seed, 2))
            y3 = splice_entropy_boost(full2, y1, y2, sk)
            if lz78_entropy(y3) > lz78_entropy(y1):
                wins += 1
        assert wins > 5


class TestFullSupport:
    def test_visit_frequency(self, golden_mean):
        nu = MarkovMeasure.uniform(golden_mean)
        y1 = nu.sample_path(210_000, seed=9)
        out = splice_full_support(golden_mean, y1, Word.from_string("1"),
                                  N=100, M=2, seed=3, length=200_000)
        assert golden_mean.is_admissible(out)
        freq = float(np.mean(out.symbols == 1))
        assert freq >= 1 / 101 - 0.002

    def test_agreement_on_kept_runs(self, golden_mean):
        nu = MarkovMeasure.uniform(golden_mean)
        y1 = nu.sample_path(5200, seed=2)
        out = splice_full_support(golden_mean, y1, Word.from_string("1"),
                                  N=50, M=3, seed=1, length=5000)
        sk = Skeleton.sample("support", (50, 3), 1, 5000)
        m1 = sk.symbols == 1
        assert np.array_equal(out.symbols[m1], y1.symbols[:len(sk)][m1])
        m2 = sk.symbols == 2
        assert np.all(out.symbols[m2] == 1)

    def test_longer_target_with_radius(self, full2):
        nu = MarkovMeasure.bernoulli([0.5, 0.5])
        y1 = nu.sample_path(3100, seed=4)
        target = Word.from_string("101")   # radius 1 around the 2-coordinate
        out = splice_full_support(full2, y1, target, N=30, M=3, seed=2,
                                  length=3000)
        sk = Skeleton.sample("support", (30, 3), 2, 3000)
        for pos in np.flatnonzero(sk.symbols == 2):
            assert out.window(pos - 1, pos + 2).to_string() == "101"

    def test_preconditions(self, golden_mean):
        nu = MarkovMeasure.uniform(golden_mean)
        y1 = nu.sample_path(2000, seed=1)
        with pytest.raises(ParameterError):   # M below specification gap
            splice_full_support(golden_mean, y1, Word.from_string("1"),
                                N=50, M=1, seed=1, length=1000)
        with pytest.raises(ParameterError):   # inadmissible target
            splice_full_support(golden_mean, y1, Word.from_string("11011"),
                                N=50, M=4, seed=1, length=1000)


class TestPlan:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_plan_matches_reference(self, sft_zoo, data):
        # both kinds, target radius 0 and 1, y1 and y2 starting before 0:
        # the plan comes out sorted and equals the reference once that is
        # validated, and the splice interpolates the reference plan
        sft = sft_zoo[data.draw(st.integers(0, len(sft_zoo) - 1), label="sft")]
        nu, gap = MarkovMeasure.uniform(sft), specification_gap(sft)
        kind = data.draw(st.sampled_from(["boost", "support"]), label="kind")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        length = data.draw(st.integers(1, 600), label="length")
        lo = data.draw(st.integers(-5, 0), label="y1 lo")
        if kind == "boost":
            params = (gap + data.draw(st.integers(0, 3)), data.draw(st.integers(1, 20)),
                      data.draw(st.integers(1, 10)))
            min_gap = params[0]
        else:
            radius = data.draw(st.integers(0, 1), label="radius")
            M = gap + radius + data.draw(st.integers(0, 2))
            params = (2 * M + data.draw(st.integers(1, 20)), M)
            min_gap = M - radius
        sk = Skeleton.sample(kind, params, seed, length)
        n = len(sk)
        y1 = Word(nu.sample_path(n + 3 - lo, seed=(seed, 1)).symbols, lo)
        if kind == "boost":
            planted = Word(nu.sample_path(n + 2, seed=(seed, 2)).symbols,
                           data.draw(st.integers(-2, 0), label="y2 lo"))
        else:
            planted = Word(y1.symbols[:2 * radius + 1])
        plan = _plan(sk, y1, planted, min_gap)
        assert (np.diff(plan.starts) > 0).all()
        want = reference_splice_plan(sk, y1, planted, min_gap)
        want.validate()
        plan.validate()
        for field in ("lo", "hi", "starts", "lengths", "min_gap"):
            assert np.array_equal(getattr(plan, field), getattr(want, field))
        assert plan_words(plan) == plan_words(want)
        if kind == "boost":
            got = splice_entropy_boost(sft, y1, planted, sk)
        else:
            got = splice_full_support(sft, y1, planted, *params, seed, length=length)
        assert got == interpolate(sft, want)
