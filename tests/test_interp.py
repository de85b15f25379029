import numpy as np
import pytest

from shiftcode.errors import NoConnectorError
from shiftcode.interp import (SegmentPlan, connect_words, interpolate,
                              iter_connectors, parse_plan, serialize_plan)
from shiftcode.shiftspace import Word, build_sft, specification_gap


class TestConnectWords:
    def test_golden_mean_gap2(self, golden_mean):
        w = connect_words(golden_mean, Word.from_string("1"),
                          Word.from_string("1"), 2)
        assert w.to_string() == "00"

    def test_golden_mean_gap1(self, golden_mean):
        w = connect_words(golden_mean, Word.from_string("1"),
                          Word.from_string("1"), 1)
        assert w.to_string() == "0"

    def test_full_shift_gap0(self, full2):
        w = connect_words(full2, Word.from_string("1"), Word.from_string("1"), 0)
        assert len(w) == 0

    def test_gap_zero_failure(self, golden_mean):
        # the "11" boundary cannot be joined with an empty connector
        with pytest.raises(NoConnectorError):
            connect_words(golden_mean, Word.from_string("1"),
                          Word.from_string("1"), 0)

    def test_lex_least_and_order(self, golden_mean):
        ws = [w.to_string() for w in
              iter_connectors(golden_mean, Word.from_string("0"),
                              Word.from_string("0"), 3)]
        assert ws == ["000", "001", "010", "100", "101"]

    def test_free_endpoints(self, golden_mean):
        w = connect_words(golden_mean, None, None, 5)
        assert w.to_string() == "00000"

    @pytest.mark.parametrize("forbidden,right", [
        (["11"], [2]), (["11"], [2, 0]), (["11"], [3, 1, 0]),
        (["111"], [2]), (["111"], [0, 2]), (["111"], [1, 2, 0])])
    def test_right_context_outside_alphabet(self, forbidden, right):
        # a symbol outside the alphabet among the first k leaves no entry
        # state, as one in the left context leaves no end state
        with pytest.raises(NoConnectorError):
            connect_words(build_sft(2, forbidden), None,
                          Word(np.array(right, dtype=np.uint8)), 3)


class TestInterpolate:
    def test_spec_example(self, golden_mean):
        plan = SegmentPlan(0, 8, [Word.from_string("101", 0),
                                  Word.from_string("101", 5)], min_gap=2)
        assert interpolate(golden_mean, plan).to_string() == "10100101"

    def test_empty_plan_default_fill(self, golden_mean):
        plan = SegmentPlan(0, 5, [], min_gap=2)
        assert interpolate(golden_mean, plan).to_string() == "00000"

    def test_full_shift_zero_filler(self, full2):
        plan = SegmentPlan(0, 10, [Word.from_string("111", 4)], min_gap=1)
        assert interpolate(full2, plan).to_string() == "0000111000"

    def test_determinism(self, golden_mean):
        plan = SegmentPlan(0, 30, [Word.from_string("10100", 4),
                                   Word.from_string("001", 20)], min_gap=2)
        assert interpolate(golden_mean, plan) == interpolate(golden_mean, plan)

    def test_random_plans_admissible_and_agreeing(self, sft_zoo):
        rng = np.random.default_rng(2024)
        per_sft = 1000 // len(sft_zoo) + 1
        for sft in sft_zoo:
            L = specification_gap(sft)
            dfa = sft.factor_dfa()
            for _ in range(per_sft):
                total = int(rng.integers(30, 80))
                segments = []
                pos = int(rng.integers(0, L + 2))
                while pos + 3 < total:
                    seg_len = int(rng.integers(1, 6))
                    end = min(pos + seg_len, total)
                    n_words = dfa.count(end - pos)
                    r = int(rng.integers(0, n_words))
                    segments.append(Word(dfa.unrank_rows(end - pos, [r])[0],
                                         pos))
                    pos = end + L + int(rng.integers(0, 3))
                plan = SegmentPlan(0, total, segments, min_gap=L)
                out = interpolate(sft, plan)
                assert sft.is_admissible(out), (sft.forbidden, plan.segments)
                for seg in plan.segments:
                    assert np.array_equal(
                        out.window(seg.lo, seg.hi).symbols, seg.symbols)

    def test_segment_below_memory_length(self):
        # memory-2 SFT with single-symbol segments exercises the suffix
        # tracking across pieces
        sft = build_sft(2, ["111"])
        L = specification_gap(sft)
        plan = SegmentPlan(0, 20, [Word.from_string("1", 3),
                                   Word.from_string("1", 3 + 1 + L)],
                           min_gap=L)
        out = interpolate(sft, plan)
        assert sft.is_admissible(out)
        assert out.at(3) == 1 and out.at(4 + L) == 1

    def test_inadmissible_segment_rejected(self, golden_mean):
        plan = SegmentPlan(0, 10, [Word.from_string("11", 2)], min_gap=2)
        with pytest.raises(ValueError):
            interpolate(golden_mean, plan)


class TestGapSharpness:
    def test_below_gap_can_fail(self, golden_mean):
        # some gap < L fails for the "11" boundary pair: at gap 0 the
        # words touch and form the forbidden factor
        with pytest.raises(NoConnectorError):
            connect_words(golden_mean, Word.from_string("01"),
                          Word.from_string("10"), 0)

    def test_at_gap_all_pairs_succeed(self, golden_mean):
        # L = 2 is an upper bound certificate: every pair connects at
        # every gap >= L (and here even gap 1 happens to work since the
        # square of the adjacency matrix is positive)
        L = specification_gap(golden_mean)
        for u in ("0", "1", "01", "10"):
            for v in ("0", "1", "01", "10"):
                for gap in (1, L, L + 1):
                    w = connect_words(golden_mean, Word.from_string(u),
                                      Word.from_string(v), gap)
                    assert len(w) == gap


class TestPlanValidation:
    def test_overlap(self):
        plan = SegmentPlan(0, 10, [Word.from_string("000", 0),
                                   Word.from_string("000", 2)], min_gap=1)
        with pytest.raises(ValueError):
            plan.validate()

    def test_gap_below_min(self):
        plan = SegmentPlan(0, 10, [Word.from_string("00", 0),
                                   Word.from_string("00", 3)], min_gap=2)
        with pytest.raises(ValueError):
            plan.validate()

    def test_max_segment(self):
        plan = SegmentPlan(0, 10, [Word.from_string("0000", 0)],
                           min_gap=1, max_segment=3)
        with pytest.raises(ValueError):
            plan.validate()

    def test_boundary_constraint(self):
        plan = SegmentPlan(0, 10, [Word.from_string("00", 0)],
                           min_gap=2, constrain_boundaries=True)
        with pytest.raises(ValueError):
            plan.validate()

    def test_parse_plan(self):
        plan = parse_plan("seg 0 101\nseg 5 101\n", 0, 8, min_gap=2)
        assert len(plan.segments) == 2
        assert plan.segments[1].lo == 5

    def test_plan_serialization_roundtrip(self):
        plan = parse_plan("seg 0 101\nseg 5 101\n", 0, 8, min_gap=2)
        text = serialize_plan(plan)
        assert text == "seg 0 101\nseg 5 101\n"
        again = parse_plan(text, 0, 8, min_gap=2)
        assert again.segments == plan.segments


class TestPeriodicClosure:
    def test_golden_mean(self, golden_mean):
        from shiftcode.interp import periodic_closure
        w = periodic_closure(golden_mean, Word.from_string("101"))
        assert len(w) == 2
        period = "101" + w.to_string()
        assert golden_mean.is_admissible(Word.from_string(period * 4))

    def test_full_shift(self, full2):
        from shiftcode.interp import periodic_closure
        assert periodic_closure(full2, Word.from_string("1")).to_string() == "0"
