import numpy as np
import pytest

from shiftcode.codec import lz78_entropy
from shiftcode.errors import ParameterError
from shiftcode.measures import MarkovMeasure
from shiftcode.shiftspace import Word, build_sft
from shiftcode.splicer import (Skeleton, skeleton_params, splice_entropy_boost,
                               splice_full_support)

from conftest import greedy_parse


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
        short, long_ = (Skeleton._blocks_boost(*params) if kind == "boost"
                        else Skeleton._blocks_support(*params))
        rebuilt = np.concatenate([long_ if k == "long" else short for k in kinds])
        assert np.array_equal(rebuilt, sk.symbols)

    def test_corrupted_not_parseable(self):
        sk = Skeleton.sample("support", (20, 2), 3, 200)
        bad = sk.symbols.copy()
        bad[5] = 2
        with pytest.raises(ValueError):
            greedy_parse(Skeleton(bad, "support", (20, 2), 3, sk.block_lengths))


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
            from shiftcode.shiftspace import specification_gap
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
