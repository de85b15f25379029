import itertools

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from shiftcode import interp
from shiftcode.errors import NoConnectorError
from shiftcode.interp import (SegmentPlan, connect_words, interpolate,
                              iter_connectors)
from shiftcode.measures import MarkovMeasure
from shiftcode.shiftspace import (Word, build_sft, enumerate_words,
                                  specification_gap)
from shiftcode.splicer import splice_full_support

from conftest import (parse_plan, periodic_closure, plan_words,
                      reference_connectors, reference_interpolate,
                      reference_validate, serialize_plan)


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

    @pytest.mark.parametrize("m", [2, 3])
    def test_full_shift_reads_its_contexts(self, m):
        # a full shift is searched like every other SFT: a symbol off the
        # alphabet leaves no connector on the right and is refused on the
        # left once the left context holds k symbols
        sft = build_sft(m, [])
        off = Word(np.array([m], dtype=np.uint8))
        with pytest.raises(NoConnectorError):
            connect_words(sft, None, off, 3)
        with pytest.raises(ValueError):
            connect_words(sft, Word.from_string("0" + str(m)), None, 3)
        assert list(iter_connectors(sft, Word.from_string("1"), off, 2)) == []


def _first_connectors(connectors, n=5):
    """The first n connectors as strings, or ValueError if one was raised."""
    try:
        return [w.to_string() for w in itertools.islice(connectors, n)]
    except ValueError:
        return ValueError


@given(data=st.data())
@settings(max_examples=300)
def test_connectors_match_reference(supports, data):
    sft = supports[data.draw(st.integers(0, len(supports) - 1), label="sft")]
    context = st.none() | st.lists(
        st.integers(0, sft.alphabet_size - 1), max_size=sft.k + 2).map(
        lambda s: Word(np.array(s, dtype=np.uint8)))
    left = data.draw(context, label="left")
    right = data.draw(context, label="right")
    gap = data.draw(st.integers(0, 12), label="gap")
    want = _first_connectors(reference_connectors(sft, left, right, gap))
    assert _first_connectors(iter_connectors(sft, left, right, gap)) == want
    if want is ValueError:
        with pytest.raises(ValueError):
            connect_words(sft, left, right, gap)
    elif not want:
        with pytest.raises(NoConnectorError):
            connect_words(sft, left, right, gap)
    else:
        assert connect_words(sft, left, right, gap).to_string() == want[0]


class TestLongGaps:
    def test_golden_mean_free_endpoints(self, golden_mean):
        w = connect_words(golden_mean, None, None, 5000)
        assert w.to_string() == "0" * 5000
        later = list(itertools.islice(
            iter_connectors(golden_mean, None, None, 3000), 3))
        assert [w.to_string()[-3:] for w in later] == ["000", "001", "010"]

    def test_memory_two_with_contexts(self):
        sft = build_sft(2, ["111"])
        w = connect_words(sft, Word.from_string("11"), Word.from_string("11"),
                          2000)
        assert w.to_string() == "0" * 2000

    def test_interpolate_long_tail(self, golden_mean):
        plan = SegmentPlan.from_words(0, 3003, [Word.from_string("101", 0)], min_gap=2)
        assert interpolate(golden_mean, plan).to_string() == "101" + "0" * 3000


def test_memo_holds_the_keys_splice_used(monkeypatch):
    # interpolate codes every gap's memo key and looks up each distinct key
    # once per call (the splice has no segment shorter than k, so one
    # wave); only the misses go to connect_words, which looks its key up
    # once more and walks to the least connector
    sft = build_sft(2, ["11"])
    lookups, calls = [], []

    class Memo(dict):
        def get(self, key, default=None):
            lookups.append(key)
            return super().get(key, default)

    sft._connectors = Memo()
    real_connect = interp.connect_words

    def connect(*args):
        calls.append(args)
        return real_connect(*args)

    monkeypatch.setattr(interp, "connect_words", connect)
    y1 = MarkovMeasure.uniform(sft).sample_path(5200, seed=2)
    out = splice_full_support(sft, y1, Word.from_string("1"), N=50, M=3,
                              seed=1, length=5000)
    assert sft.is_admissible(out)
    assert set(sft._connectors) == set(lookups)
    distinct = len(set(lookups))
    assert len(calls) == distinct and len(lookups) == 2 * distinct
    for key, word in list(sft._connectors.items()):
        left, right = (np.frombuffer(b, dtype=np.uint8) for b in key[:2])
        assert next(iter_connectors(sft, left, right, key[2])) == word
        assert real_connect(sft, left, right, key[2]) == word
    assert set(sft._connectors) == set(lookups)    # repeated calls only hit
    del lookups[:], calls[:]
    again = splice_full_support(sft, y1, Word.from_string("1"), N=50, M=3,
                                seed=1, length=5000)
    assert again == out and not calls and len(lookups) == distinct


class TestInterpolate:
    def test_spec_example(self, golden_mean):
        plan = SegmentPlan.from_words(0, 8, [Word.from_string("101", 0),
                                             Word.from_string("101", 5)], min_gap=2)
        assert interpolate(golden_mean, plan).to_string() == "10100101"

    def test_empty_plan_default_fill(self, golden_mean):
        plan = SegmentPlan.from_words(0, 5, [], min_gap=2)
        assert interpolate(golden_mean, plan).to_string() == "00000"

    def test_full_shift_zero_filler(self, full2):
        plan = SegmentPlan.from_words(0, 10, [Word.from_string("111", 4)], min_gap=1)
        assert interpolate(full2, plan).to_string() == "0000111000"

    def test_determinism(self, golden_mean):
        plan = SegmentPlan.from_words(0, 30, [Word.from_string("10100", 4),
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
                plan = SegmentPlan.from_words(0, total, segments, min_gap=L)
                out = interpolate(sft, plan)
                assert sft.is_admissible(out), (sft.forbidden, segments)
                for seg in plan_words(plan):
                    assert np.array_equal(
                        out.window(seg.lo, seg.hi).symbols, seg.symbols)

    def test_fill_matches_reference(self, sft_zoo):
        # each gap holds the reference's least connector after everything
        # built so far; in the 010-free shift a one-symbol segment's left
        # context reaches back into the filler before it
        rng = np.random.default_rng(11)
        for sft in sft_zoo + [build_sft(2, ["010"])]:
            L = specification_gap(sft)
            dfa = sft.factor_dfa()
            for _ in range(40):
                total, pos, segments = int(rng.integers(15, 40)), 0, []
                while pos + 2 < total:
                    end = min(pos + int(rng.integers(1, 3)), total)
                    r = int(rng.integers(0, dfa.count(end - pos)))
                    segments.append(Word(dfa.unrank_rows(end - pos, [r])[0], pos))
                    pos = end + L + int(rng.integers(0, 2))
                want = np.zeros(0, dtype=np.uint8)
                for seg in segments + [None]:
                    end = total if seg is None else seg.lo
                    filler = next(reference_connectors(sft, want, seg,
                                                       end - len(want)))
                    want = np.concatenate([want, filler.symbols])
                    if seg is not None:
                        want = np.concatenate([want, seg.symbols])
                plan = SegmentPlan.from_words(0, total, segments, min_gap=L)
                assert np.array_equal(interpolate(sft, plan).symbols, want)

    def test_segment_below_memory_length(self):
        # memory-2 SFT with single-symbol segments exercises the suffix
        # tracking across pieces
        sft = build_sft(2, ["111"])
        L = specification_gap(sft)
        plan = SegmentPlan.from_words(0, 20, [Word.from_string("1", 3),
                                              Word.from_string("1", 3 + 1 + L)],
                                      min_gap=L)
        out = interpolate(sft, plan)
        assert sft.is_admissible(out)
        assert out.at(3) == 1 and out.at(4 + L) == 1

    def test_inadmissible_segment_rejected(self, golden_mean):
        plan = SegmentPlan.from_words(0, 10, [Word.from_string("11", 2)], min_gap=2)
        with pytest.raises(ValueError):
            interpolate(golden_mean, plan)


def _outcome(fn, sft, plan):
    """(base, symbols) of the word, or (exception type, message)."""
    try:
        w = fn(sft, plan)
    except (ValueError, NoConnectorError) as exc:
        return type(exc), str(exc)
    return w.base, w.to_string()


@given(data=st.data())
@settings(max_examples=300)
def test_interpolate_matches_reference(supports, data):
    # segments shorter than k, segments at lo and ending at hi, the empty
    # plan, and a segment after admissible ones that may be inadmissible
    # or hold a symbol off the alphabet
    sft = supports[data.draw(st.integers(0, len(supports) - 1), label="sft")]
    m, dfa = sft.alphabet_size, sft.factor_dfa()
    min_gap = specification_gap(sft) + data.draw(st.integers(0, 1))
    lo = data.draw(st.integers(-5, 5), label="lo")
    pos = lo + data.draw(st.sampled_from([0, 0, 1, 3]), label="lead")
    segments = []
    for _ in range(data.draw(st.integers(0, 5), label="segments")):
        n = data.draw(st.integers(1, sft.k + 3), label="length")
        r = data.draw(st.integers(0, dfa.count(n) - 1), label="rank")
        segments.append(Word(dfa.unrank_rows(n, [r])[0], pos))
        pos += n + min_gap + data.draw(st.integers(0, 2))
    if segments and data.draw(st.booleans(), label="spoil"):
        j = data.draw(st.integers(0, len(segments) - 1), label="spoiled")
        sym = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=len(
            segments[j]), max_size=len(segments[j])), label="symbols"), dtype=np.uint8)
        if data.draw(st.booleans(), label="off"):
            sym[data.draw(st.integers(0, len(sym) - 1))] = data.draw(
                st.sampled_from([m, 255]), label="symbol")
        segments[j] = Word(sym, segments[j].lo)
    end = segments[-1].hi if segments else pos
    hi = end + data.draw(st.sampled_from([0, 0, 1, 4]), label="trail") + (end == lo)
    plan = dict(lo=lo, hi=hi, words=segments, min_gap=min_gap)
    want = _outcome(reference_interpolate, sft, SegmentPlan.from_words(**plan))
    event("error" if isinstance(want[0], type) else "word")
    assert _outcome(interpolate, sft, SegmentPlan.from_words(**plan)) == want


def test_interpolate_names_first_bad_segment(golden_mean):
    # plan order, not input order, decides which segment is named
    plan = SegmentPlan.from_words(0, 20, [
        Word.from_string("11", 12), Word.from_string("1", 0),
        Word(np.array([2], dtype=np.uint8), 6)], min_gap=2)
    with pytest.raises(ValueError, match=r"^planned segment at 6 is not admissible$"):
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


def _plan(segments, lo=0, hi=10, **options):
    """A plan of (word, start) pairs over [lo, hi)."""
    return SegmentPlan.from_words(
        lo, hi, [Word.from_string(text, at) for text, at in segments], **options)


class TestPlanValidation:
    def test_overlap(self):
        plan = SegmentPlan.from_words(0, 10, [Word.from_string("000", 0),
                                              Word.from_string("000", 2)], min_gap=1)
        with pytest.raises(ValueError):
            plan.validate()

    def test_gap_below_min(self):
        plan = SegmentPlan.from_words(0, 10, [Word.from_string("00", 0),
                                              Word.from_string("00", 3)], min_gap=2)
        with pytest.raises(ValueError):
            plan.validate()

    def test_max_segment(self):
        plan = SegmentPlan.from_words(0, 10, [Word.from_string("0000", 0)],
                                      min_gap=1, max_segment=3)
        with pytest.raises(ValueError):
            plan.validate()

    def test_boundary_constraint(self):
        plan = SegmentPlan.from_words(0, 10, [Word.from_string("00", 0)],
                                      min_gap=2, constrain_boundaries=True)
        with pytest.raises(ValueError):
            plan.validate()

    @pytest.mark.parametrize("plan,message", [
        (_plan([], lo=5, hi=5), "empty or inverted range"),
        (_plan([("0", 1), ("", 4)]), "segments must be non-empty"),
        (_plan([("000", 8)]), "segment [8, 11) outside range"),
        (_plan([("0", -1)]), "segment [-1, 0) outside range"),
        (_plan([("0000", 0)], max_segment=3), "segment of length 4 exceeds 3"),
        (_plan([("000", 0), ("000", 2)]), "segments overlap"),
        (_plan([("00", 0), ("00", 3)], min_gap=2), "gap 1 below min_gap 2"),
        (_plan([("00", 0)], min_gap=2, constrain_boundaries=True),
         "boundary gap below min_gap"),
        (_plan([("00", 7)], min_gap=2, constrain_boundaries=True),
         "boundary gap below min_gap"),
        # the first segment in start order is named, with its first
        # failing check: here both segments fail, the later-listed first
        (_plan([("0000", 8), ("0000", 0), ("0", 5)], min_gap=2, max_segment=3),
         "segment of length 4 exceeds 3"),
        (_plan([("00000", 6), ("0", 5)], max_segment=3),
         "segment [6, 11) outside range"),
        (_plan([("00", 4), ("000", 2)], min_gap=3), "segments overlap"),
    ])
    def test_messages(self, plan, message):
        with pytest.raises(ValueError) as exc:
            plan.validate()
        assert str(exc.value) == message

    def test_sorts_stably_by_start(self):
        a, b, c = (Word.from_string("0", 3), Word.from_string("1", 0),
                   Word.from_string("00", 6))
        plan = SegmentPlan.from_words(0, 10, [c, a, b], min_gap=1)
        plan.validate()
        assert plan_words(plan) == [b, a, c]

    @given(data=st.data())
    @settings(max_examples=300)
    def test_matches_reference(self, data):
        segments = [Word(np.zeros(data.draw(st.integers(0, 4)), dtype=np.uint8),
                         data.draw(st.integers(-2, 14)))
                    for _ in range(data.draw(st.integers(0, 5), label="segments"))]
        args = dict(lo=data.draw(st.integers(-1, 2)), hi=data.draw(st.integers(0, 16)),
                    min_gap=data.draw(st.integers(0, 3)),
                    max_segment=data.draw(st.none() | st.integers(0, 4)),
                    constrain_boundaries=data.draw(st.booleans()))
        try:
            want = reference_validate(SegmentPlan.from_words(words=segments, **args))
        except ValueError as exc:
            want = str(exc)
        plan = SegmentPlan.from_words(words=segments, **args)
        try:
            plan.validate()
        except ValueError as exc:
            assert str(exc) == want
        else:
            assert plan_words(plan) == want
        event("error" if isinstance(want, str) else "valid")

    def test_parse_plan(self):
        plan = parse_plan("seg 0 101\nseg 5 101\n", 0, 8, min_gap=2)
        assert len(plan.starts) == 2
        assert plan.starts[1] == 5

    def test_plan_serialization_roundtrip(self):
        plan = parse_plan("seg 0 101\nseg 5 101\n", 0, 8, min_gap=2)
        text = serialize_plan(plan)
        assert text == "seg 0 101\nseg 5 101\n"
        again = parse_plan(text, 0, 8, min_gap=2)
        assert plan_words(again) == plan_words(plan)


class TestPeriodicClosure:
    def test_golden_mean(self, golden_mean):
        w = periodic_closure(golden_mean, Word.from_string("101"))
        assert len(w) == 2
        period = "101" + w.to_string()
        assert golden_mean.is_admissible(Word.from_string(period * 4))

    def test_full_shift(self, full2):
        assert periodic_closure(full2, Word.from_string("1")).to_string() == "0"


@given(data=st.data())
@settings(max_examples=300)
def test_interpolate_waves_match_reference(sft_zoo, data):
    # a few short words repeated at gaps of one or two lengths repeat the
    # memo keys; runs of segments shorter than k that do not start at lo
    # chain their gaps into several waves; a segment may start at lo or
    # end at hi (an empty boundary gap), and max_segment may refuse.  In
    # the 010-free shift the tail 1 of a segment at lo and a tail 01 need
    # different connectors
    sfts = sft_zoo + [build_sft(2, ["010"])]
    sft = sfts[data.draw(st.integers(0, len(sfts) - 1), label="sft")]
    dfa, L = sft.factor_dfa(), specification_gap(sft)
    pool = []
    for _ in range(data.draw(st.integers(1, 3), label="pool")):
        n = data.draw(st.integers(1, sft.k + 1), label="length")
        pool.append(dfa.unrank_rows(n, [data.draw(
            st.integers(0, dfa.count(n) - 1), label="rank")])[0])
    lo = data.draw(st.integers(-3, 3), label="lo")
    pos = lo + data.draw(st.sampled_from([0, L, L + 2]), label="lead")
    segments, waves, run = [], 1, 0
    for _ in range(data.draw(st.integers(0, 12), label="segments")):
        sym = pool[data.draw(st.integers(0, len(pool) - 1), label="word")]
        segments.append(Word(sym, pos))
        run = run + 1 if len(sym) < sft.k and pos > lo else 0
        waves = max(waves, run + 1)
        pos += len(sym) + L + data.draw(st.sampled_from([0, 0, 1]), label="gap")
    end = segments[-1].hi if segments else pos
    hi = end + data.draw(st.sampled_from([0, L, 3]), label="trail") + (end == lo)
    options = dict(min_gap=L, max_segment=data.draw(
        st.none() | st.integers(1, sft.k + 1), label="max_segment"))
    want = _outcome(reference_interpolate, sft,
                    SegmentPlan.from_words(lo, hi, segments, **options))
    event("error" if isinstance(want[0], type) else f"waves {min(waves, 3)}")
    assert _outcome(interpolate, sft,
                    SegmentPlan.from_words(lo, hi, segments, **options)) == want


@pytest.mark.parametrize("m,forbidden", [
    (2, ["111"]), (2, ["010"]), (2, ["00", "111"]), (3, ["012", "22"]),
    (2, ["0110", "1001"])])
def test_least_walk_matches_reference_past_fixed_point(m, forbidden):
    # the first word of the reference search at gaps far past the reach
    # rows' fixed point, with full, short and missing contexts; the
    # 00/111-free shift's least walk cycles through 01 and 011
    import sys
    sft = build_sft(m, forbidden)
    assert sft.k >= 2
    rng = np.random.default_rng(len(forbidden) * 10 + m)
    words = [w.symbols for n in range(sft.k + 1) for w in enumerate_words(sft, n)]
    depth = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)      # the reference recurses once per symbol
    try:
        for gap in (60, 317, 1200, 3100):
            for _ in range(3):
                left, right = (None if rng.random() < 0.2 else
                               words[int(rng.integers(len(words)))]
                               for _ in range(2))
                want = next(reference_connectors(sft, left, right, gap))
                assert connect_words(sft, left, right, gap) == want
                head = interp._context(sft, right, last=False)
                assert len(sft._reach[head.tobytes()]) < 40 < gap
    finally:
        sys.setrecursionlimit(depth)


@pytest.mark.parametrize("bits", [0, 63])
def test_interpolate_keys_as_rows_or_packed(monkeypatch, bits):
    # keys too wide for one int64 are compared as rows; the words agree
    monkeypatch.setattr(interp, "KEY_BITS", bits)
    rng = np.random.default_rng(bits)
    for sft in (build_sft(2, ["111"]), build_sft(3, ["012", "22"])):
        dfa, L = sft.factor_dfa(), specification_gap(sft)
        for _ in range(30):
            segments, pos = [], int(rng.integers(0, 2))
            while pos < 60:
                n = int(rng.integers(1, 4))
                segments.append(Word(dfa.unrank_rows(n, [int(rng.integers(
                    dfa.count(n)))])[0], pos))
                pos += n + L + int(rng.integers(0, 2))
            plan = dict(lo=0, hi=pos, words=segments, min_gap=L)
            want = reference_interpolate(sft, SegmentPlan.from_words(**plan))
            assert interpolate(sft, SegmentPlan.from_words(**plan)) == want


def test_short_tail_at_lo_keyed_apart_from_full_tail():
    # in the 010-free shift a segment 1 at lo and a segment 01 leave the
    # tails 1 and 01, whose least connectors differ; both gaps fill in
    # the first wave with the same head 01 and length
    sft = build_sft(2, ["010"])
    L = specification_gap(sft)
    plan = dict(lo=0, hi=5 + 3 * L, min_gap=L, words=[
        Word.from_string("1", 0), Word.from_string("01", 1 + L),
        Word.from_string("01", 3 + 2 * L)])
    want = reference_interpolate(sft, SegmentPlan.from_words(**plan))
    assert interpolate(sft, SegmentPlan.from_words(**plan)) == want
    assert want.symbols[1] != want.symbols[3 + L]
