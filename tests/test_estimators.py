import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftcode.errors import CoverageError, NoReturnError
from shiftcode.estimators import (BlockDistribution, binary_entropy,
                                  bk_estimate, dbar_entropy_bound,
                                  dbar_sample_upper, dw_estimate,
                                  empirical_family, total_variation,
                                  weakstar_surrogate)
from shiftcode.measures import MarkovMeasure
from shiftcode.shiftspace import Word, build_sft

from conftest import LOG2

H_01 = 0.3250829733914482


class TestBinaryEntropy:
    def test_values(self):
        assert binary_entropy(0.5) == pytest.approx(LOG2, abs=1e-15)
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.1) == pytest.approx(H_01, abs=1e-15)

    def test_range(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)


class TestDbarBound:
    def test_values(self):
        assert dbar_entropy_bound(0.1, 2) == pytest.approx(
            H_01 + 0.1 * LOG2, abs=1e-15)
        assert dbar_entropy_bound(0.5, 2) == pytest.approx(1.5 * LOG2, abs=1e-12)

    def test_monotone_in_eta_and_size(self):
        etas = np.linspace(0.01, 0.5, 25)
        vals = [dbar_entropy_bound(e, 2) for e in etas]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert dbar_entropy_bound(0.2, 3) > dbar_entropy_bound(0.2, 2)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            dbar_entropy_bound(0.0, 2)
        with pytest.raises(ValueError):
            dbar_entropy_bound(0.3, 1)


class TestDbarSample:
    def test_anchors(self):
        u = Word.from_string("0110")
        assert dbar_sample_upper(u, u) == 0.0
        assert dbar_sample_upper(u, Word.from_string("1001")) == 1.0
        assert dbar_sample_upper(u, Word.from_string("0111")) == pytest.approx(0.25)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dbar_sample_upper(Word.from_string("01"), Word.from_string("011"))

    @given(st.integers(1, 40), st.data())
    @settings(max_examples=60)
    def test_symmetry_and_triangle(self, n, data):
        bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
        u, v, w = (Word(np.array(data.draw(bits), dtype=np.uint8))
                   for _ in range(3))
        assert dbar_sample_upper(u, v) == dbar_sample_upper(v, u)
        assert dbar_sample_upper(u, w) <= (
            dbar_sample_upper(u, v) + dbar_sample_upper(v, w) + 1e-12)


class TestBrinKatok:
    def test_bernoulli_exact(self, bern_half):
        x = bern_half.sample_path(200, seed=1)
        for n in (1, 10, 100):
            assert bk_estimate(bern_half, x, n) == pytest.approx(LOG2, abs=1e-12)

    def test_deterministic_cycle(self):
        cyc = MarkovMeasure.uniform(build_sft(2, ["00", "11"]))
        x = cyc.sample_path(100, seed=2)
        # cylinder mass is the stationary weight 1/2 independent of n
        assert bk_estimate(cyc, x, 50) == pytest.approx(math.log(2) / 50, abs=1e-12)

    def test_markov_convergence(self, full2):
        m = MarkovMeasure(full2, [[0.9, 0.1], [0.5, 0.5]])
        x = m.sample_path(10_000, seed=11)
        est = bk_estimate(m, x, 10_000)
        assert abs(est - m.entropy()) < 0.02

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
    def test_bernoulli_seed_average(self, p):
        m = MarkovMeasure.bernoulli([1 - p, p])
        vals = [bk_estimate(m, m.sample_path(10_000, seed=s), 10_000)
                for s in range(20)]
        assert abs(float(np.mean(vals)) - binary_entropy(p)) < 0.03

    def test_coverage(self, bern_half):
        x = bern_half.sample_path(10, seed=1)
        with pytest.raises(CoverageError):
            bk_estimate(bern_half, x, 20)
        with pytest.raises(CoverageError):
            bk_estimate(bern_half, x, 5, radius=1)   # needs [-1, 6)


class TestReturnTime:
    def test_periodic(self):
        z = Word(np.tile(np.array([0, 1, 1], dtype=np.uint8), 50))
        assert dw_estimate(z, 6) == pytest.approx(math.log(3) / 6, abs=1e-12)

    def test_constant(self):
        z = Word(np.zeros(100, dtype=np.uint8))
        assert dw_estimate(z, 10) == 0.0

    def test_bernoulli_mean(self, bern_half):
        vals = [dw_estimate(bern_half.sample_path(1_000_020, seed=1000 + s),
                            14, search_bound=10 ** 6) for s in range(50)]
        assert abs(float(np.mean(vals)) - LOG2) < 0.1

    def test_no_return(self):
        z = Word(np.concatenate([np.array([1], dtype=np.uint8),
                                 np.zeros(60, dtype=np.uint8)]))
        with pytest.raises(NoReturnError) as exc:
            dw_estimate(z, 5)
        assert exc.value.bound == 56


def _dist(k, freqs):
    return BlockDistribution(k, freqs)


class TestWeakstar:
    def test_identical(self):
        fam = empirical_family(Word.from_string("0110101001"), 3)
        assert weakstar_surrogate(fam, fam, 3) == 0.0

    def test_single_level_definition(self):
        a = [_dist(1, {(0,): 0.8, (1,): 0.2})]
        b = [_dist(1, {(0,): 0.5, (1,): 0.5})]
        assert weakstar_surrogate(a, b, 1) == pytest.approx(0.5 * 0.3)

    def test_disjoint_supports(self):
        a = [_dist(k, {tuple([0] * k): 1.0}) for k in range(1, 4)]
        b = [_dist(k, {tuple([1] * k): 1.0}) for k in range(1, 4)]
        assert weakstar_surrogate(a, b, 3) == pytest.approx(0.875)

    def test_k_range_error(self):
        a = [_dist(1, {(0,): 1.0})]
        with pytest.raises(ValueError):
            weakstar_surrogate(a, a, 2)

    @given(st.data())
    @settings(max_examples=40)
    def test_metric_axioms(self, data):
        def family(tag):
            fams = []
            for k in (1, 2):
                blocks = [(0,) * k, (1,) * k, (0, 1)[:k] or (0,)]
                weights = [data.draw(st.integers(0, 10),
                                     label=f"{tag}{k}{i}") + 1e-9
                           for i in range(len(set(blocks)))]
                total = sum(weights)
                fams.append(_dist(k, {b: w / total for b, w in
                                      zip(dict.fromkeys(blocks), weights)}))
            return fams

        a, b, c = family("a"), family("b"), family("c")
        dab = weakstar_surrogate(a, b, 2)
        assert dab == pytest.approx(weakstar_surrogate(b, a, 2))
        assert dab >= 0
        assert weakstar_surrogate(a, c, 2) <= (
            dab + weakstar_surrogate(b, c, 2) + 1e-12)

    def test_tv_against_manual(self):
        a = _dist(2, {(0, 0): 0.5, (0, 1): 0.5})
        b = _dist(2, {(0, 0): 0.25, (1, 1): 0.75})
        assert total_variation(a, b) == pytest.approx(0.75)

