import math
import pickle
import sys
import threading
import tracemalloc
from dataclasses import replace
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftcode import codec
from shiftcode.automata import Dfa
from shiftcode.codec import (audit_badset, audit_entropy,
                             audit_weakstar, decode, dictionary_hash, encode,
                             lz78_entropy, lz78_phrases, pack_hash,
                             read_coded, rokhlin_parse, uniform_lz78_phrases,
                             write_coded)
from shiftcode.dictionary import boys, choose_parameters, dictionary, girls
from shiftcode.errors import ParameterError, UnmatchedBoyError
from shiftcode.estimators import BlockDistribution, weakstar_surrogate
from shiftcode.markers import find_marker, locate_offset
from shiftcode.measures import MarkovMeasure
from shiftcode.shiftspace import Word, build_sft

from conftest import (LOG2, reference_block_distribution,
                      reference_block_kinds, reference_decode,
                      reference_draw_flags, reference_lz78_phrases,
                      reference_occurrences, reference_rokhlin_parse)

H_01 = 0.3250829733914482


def practical_pack(h_s, h_t, eps, N, M, delta, alpha=0.5, **kw):
    return choose_parameters(h_s, h_t, eps, mode="practical",
                             overrides={"N": N, "M": M, "delta": delta,
                                        "alpha": alpha}, **kw)


@pytest.fixture(scope="module")
def roundtrip_setup(full2, bern_01, bern_half):
    pack = practical_pack(H_01, LOG2, 0.2, N=64, M=2, delta=0.02)
    scheme = find_marker(full2, bern_half, M=2, alpha=0.5, seed=1)
    b = boys(bern_01, pack)
    g = girls(full2, pack, scheme)
    d = dictionary(b, g, "enumerative", pack=pack)
    return pack, scheme, b, g, d


@pytest.fixture(scope="module")
def hall_setup(full2, bern_half):
    mu = MarkovMeasure.bernoulli([0.98, 0.02])
    pack = practical_pack(mu.entropy(), LOG2, 0.2, N=12, M=1, delta=0.1)
    scheme = find_marker(full2, bern_half, M=1, alpha=0.9, seed=2)
    b = boys(mu, pack)
    g = girls(full2, pack, scheme)
    assert b.count == 1 and g.count == 2
    table = {b.unrank(0).to_string(): g.unrank(0).to_string()}
    d = dictionary(b, g, "hall",
                   relation={bs: [gs] for bs, gs in table.items()}, K=1, pack=pack)
    return mu, pack, scheme, b, g, d


class TestRokhlinParse:
    def test_delta_zero(self, bern_half):
        x = bern_half.sample_path(1000, seed=1)
        parse = rokhlin_parse(x, N=10, delta=0.0, seed=2)
        # all N-blocks except the tail, which parses as unit blocks
        assert set(np.diff(parse.starts)) <= {1, 10}
        n_units = int(np.sum(parse.lengths == 1))
        assert n_units == 1000 % 10 == 0 or n_units < 10

    def test_error_density(self, bern_half):
        x = bern_half.sample_path(1_000_000, seed=3)
        parse = rokhlin_parse(x, N=64, delta=0.1, seed=4)
        frac = float(np.sum(parse.lengths == 1)) / len(x)
        assert abs(frac - 0.1) < 0.005

    def test_structure_exhaustive_small(self, bern_half):
        for seed in range(20):
            x = bern_half.sample_path(37, seed=seed)
            parse = rokhlin_parse(x, N=2, delta=0.5, seed=seed)
            assert set(parse.lengths) <= {1, 2}
            assert parse.starts[0] == 0
            assert parse.starts[-1] + parse.lengths[-1] == 37
            assert np.all(np.diff(parse.starts) == parse.lengths[:-1])

    def test_independent_of_content(self, bern_half, bern_01):
        a = rokhlin_parse(bern_half.sample_path(5000, seed=1), 16, 0.1, seed=9)
        b = rokhlin_parse(bern_01.sample_path(5000, seed=2), 16, 0.1, seed=9)
        assert np.array_equal(a.starts, b.starts)

    def test_preconditions(self, bern_half):
        x = bern_half.sample_path(100, seed=1)
        with pytest.raises(ParameterError):
            rokhlin_parse(x, N=1, delta=0.1, seed=1)
        with pytest.raises(ParameterError):
            rokhlin_parse(x, N=10, delta=1.0, seed=1)

    @given(n=st.integers(0, 400), N=st.integers(2, 50),
           delta=st.just(0.0) | st.floats(0.0, 0.99),
           lo=st.integers(-1000, 1000), seed=st.integers(0, 2**32))
    @settings(max_examples=300)
    @example(n=0, N=2, delta=0.1, lo=0, seed=0)
    @example(n=5, N=10, delta=0.1, lo=-3, seed=1)
    @example(n=300, N=7, delta=0.0, lo=-150, seed=2)
    def test_matches_reference(self, n, N, delta, lo, seed):
        x = Word(np.zeros(n, dtype=np.uint8), lo)
        parse = rokhlin_parse(x, N, delta, seed)
        starts, lengths = reference_rokhlin_parse(x, N, delta, seed)
        assert parse.starts.dtype == parse.lengths.dtype == np.int64
        assert parse.starts.tolist() == starts.tolist()
        assert parse.lengths.tolist() == lengths.tolist()


@pytest.mark.parametrize("N,M,seed", [(64, 2, 0), (64, 2, 1), (38, 2, 2),
                                      (30, 1, 3), (120, 4, 4)])
def test_block_plan_matches_reference(N, M, seed):
    # random parses, boy sets, flags and girl rows (N = 19M makes the
    # girls as long as the marker): the array plan, already sorted, and
    # the mask equal the per-block Word loop's
    from shiftcode.codec import block_plan
    from shiftcode.markers import MarkerScheme
    from conftest import reference_block_plan
    pack = practical_pack(H_01, LOG2, 0.2, N=N, M=M, delta=0.02)
    rng = np.random.default_rng(seed)
    scheme = MarkerScheme(Word(rng.integers(0, 2, 8 * M).astype(np.uint8)),
                          M, 0.5, 0.1, 0.1)
    for _ in range(20):
        n, lo = int(rng.integers(0, 40 * N)), int(rng.integers(-N, N))
        parse = rokhlin_parse(Word(np.zeros(n, dtype=np.uint8), lo), N,
                              float(rng.choice([0.0, 0.02, 0.3])), int(rng.integers(99)))
        longs = parse.starts[parse.lengths > 1]
        boys_at = longs[rng.random(len(longs)) < rng.random()]
        flagged = rng.random(len(boys_at)) < rng.random()
        girl_rows = rng.integers(0, 2, (len(boys_at), N - 11 * M)).astype(np.uint8)
        args = (lo, lo + n, boys_at, girl_rows, flagged, pack, scheme)
        plan, mask = block_plan(*args)
        want, want_mask = reference_block_plan(*args)
        want.validate()
        assert np.array_equal(mask, want_mask)
        for name in ("starts", "lengths", "symbols"):
            assert np.array_equal(getattr(plan, name), getattr(want, name))
        assert plan.min_gap == want.min_gap == M


class TestRoundtrip:
    def test_enumerative_many_seeds(self, roundtrip_setup, bern_01, full2):
        pack, scheme, b, g, d = roundtrip_setup
        for seed in range(1000):
            x = bern_01.sample_path(1500, seed=(seed, 1))
            pair = encode(x, d, scheme, pack, full2, seed=seed)
            x_hat, mask = decode(pair.y, d, scheme, pack)
            assert np.array_equal(mask, pair.mask), seed
            assert np.array_equal(x.symbols[pair.mask],
                                  x_hat.symbols[pair.mask]), seed

    def test_encode_memory_bounded(self, roundtrip_setup, bern_01, full2):
        # windows looked up and fillers written in chunks: one take over
        # all 2 x 10^5 window codes peaked at 3.4 MiB under tracemalloc
        pack, scheme, b, g, d = roundtrip_setup
        x = bern_01.sample_path(200_000, seed=(1, 1, 0x5A))
        want = encode(x, d, scheme, pack, full2, seed=10_001).y
        tracemalloc.start()
        try:
            got = encode(x, d, scheme, pack, full2, seed=10_001).y
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 3 * 2 ** 20

    def test_hall_many_seeds(self, hall_setup, full2):
        mu, pack, scheme, b, g, d = hall_setup
        for seed in range(1000):
            x = mu.sample_path(1200, seed=(seed, 2))
            pair = encode(x, d, scheme, pack, full2, seed=seed)
            x_hat, mask = decode(pair.y, d, scheme, pack)
            assert np.array_equal(mask, pair.mask), seed
            assert np.array_equal(x.symbols[pair.mask],
                                  x_hat.symbols[pair.mask]), seed

    def test_hall_boy_outside_table_names_block(self, full2, bern_01,
                                                bern_half, tmp_path, capsys):
        # more boys than the one-entry table covers: encode used to die
        # with a bare KeyError from the table lookup
        from shiftcode.cli import run, write_dictionary_file
        pack = practical_pack(bern_01.entropy(), LOG2, 0.2, N=12, M=1,
                              delta=0.1, alpha=0.9)
        scheme = find_marker(full2, bern_half, M=1, alpha=0.9, seed=2)
        b = boys(bern_01, pack)
        g = girls(full2, pack, scheme)
        table = {b.unrank(0).to_string(): g.unrank(0).to_string()}
        d = dictionary(b, g, "hall",
                       relation={bs: [gs] for bs, gs in table.items()}, K=1,
                       pack=pack)
        assert b.count > 1
        x = bern_01.sample_path(1200, seed=(0, 2))
        with pytest.raises(UnmatchedBoyError,
                           match=r"dictionary lookup: boy block [01]{12} is not "
                                 r"among the 1 boys"):
            encode(x, d, scheme, pack, full2, seed=0)
        path = tmp_path / "hall.dict"
        write_dictionary_file(str(path), pack, scheme, bern_01, bern_half, d)
        assert run(["encode", "--dict", str(path), "--length", "1200",
                    "--coded-out", str(tmp_path / "y.coded"),
                    "--seed", "0"]) == 1
        assert "UnmatchedBoyError: hall-mode dictionary lookup: boy block" \
            in capsys.readouterr().err

    def test_hall_corrupted_info_window_unrecovered(self, full2, bern_half):
        # a flip that turns a table girl into a girl outside the table
        # leaves its block unrecovered; a nearest-girl match used to mark
        # it recovered, at times with another boy's block
        mu = MarkovMeasure.bernoulli([0.98, 0.02])
        pack = practical_pack(mu.entropy(), LOG2, 0.2, N=32, M=2, delta=0.02)
        scheme = find_marker(full2, bern_half, M=2, alpha=0.5, seed=1)
        b, g = boys(mu, pack), girls(full2, pack, scheme)
        table = {b.unrank(i).to_string(): g.unrank(i).to_string()
                 for i in range(b.count)}
        d = dictionary(b, g, "hall",
                       relation={bs: [gs] for bs, gs in table.items()}, K=1,
                       pack=pack)
        N, M = pack.N, pack.M
        pair = encode(mu.sample_path(2000, seed=(0, 3)), d, scheme, pack,
                      full2, seed=0)
        n = pair.marker_positions[0] - (N - 9 * M)
        lo, hi = pack.info_region
        flips = 0
        for pos in range(n + lo, n + hi):
            y = pair.y.symbols.copy()
            y[pos] ^= 1
            window = Word(y[n + lo:n + hi])
            if not g.member(window) or window.to_string() in d.inverse:
                continue
            flips += 1
            _, mask = decode(Word(y, pair.y.lo), d, scheme, pack)
            assert not mask[n:n + N].any()
            mask[n:n + N] = pair.mask[n:n + N]
            assert np.array_equal(mask, pair.mask)
        assert flips > 0

    def test_golden_mean_target(self, golden_mean):
        # non-full-shift target exercises real connector search everywhere;
        # the sparse source keeps the boy set inside the 82 surviving girls
        mu = MarkovMeasure.bernoulli([0.98, 0.02])
        nu = MarkovMeasure.uniform(golden_mean)
        pack = practical_pack(mu.entropy(), nu.entropy(), 0.3, N=64, M=2,
                              delta=0.02, alpha=0.9)
        scheme = find_marker(golden_mean, nu, M=2, alpha=0.9, seed=5)
        b = boys(mu, pack)
        g = girls(golden_mean, pack, scheme)
        d = dictionary(b, g, "enumerative", pack=pack)
        x = mu.sample_path(30_000, seed=8)
        pair = encode(x, d, scheme, pack, golden_mean, seed=9)
        assert golden_mean.is_admissible(pair.y)
        x_hat, mask = decode(pair.y, d, scheme, pack)
        assert np.array_equal(mask, pair.mask)
        assert np.array_equal(x.symbols[mask], x_hat.symbols[mask])

    def test_marker_occurrences_exactly_planted(self, roundtrip_setup,
                                                bern_01, full2):
        pack, scheme, b, g, d = roundtrip_setup
        x = bern_01.sample_path(50_000, seed=21)
        pair = encode(x, d, scheme, pack, full2, seed=22)
        needle = scheme.word.symbols.tobytes()
        found = reference_occurrences(pair.y.symbols, scheme.word.symbols)
        assert found == sorted(pair.marker_positions)
        # per qualifying block, the marker occurs only at the planted spot
        N, M = pack.N, pack.M
        for n in pair.marker_positions:
            block_lo = n - (N - 9 * M)
            window = pair.y.symbols[block_lo:block_lo + N]
            occ = [j for j in range(N - 8 * M + 1)
                   if bytes(window[j:j + 8 * M]) == needle]
            assert occ == [N - 9 * M]

    def test_spurious_marker_rewritten_with_next_variant(self, golden_mean):
        # a marker copy inside a filler gap is replaced by the gap's next
        # connector in lex order, read with the same contexts
        from itertools import islice

        from shiftcode.codec import _scrub_spurious_markers
        from conftest import plan_from_words, reference_connectors
        nu = MarkovMeasure.uniform(golden_mean)
        scheme = find_marker(golden_mean, nu, M=2, alpha=0.9, seed=5)
        marker = scheme.word.symbols
        seg = Word.from_string("0101", 40)
        y = np.zeros(60, dtype=np.uint8)
        y[10:10 + len(marker)] = marker
        y[40:44] = seg.symbols
        plan = plan_from_words(0, 60, [seg], min_gap=2)
        assert _scrub_spurious_markers(golden_mean, y, 0, plan, scheme,
                                       np.zeros(0, dtype=np.int64)) == 1
        want = next(islice(reference_connectors(golden_mean, y[:0], seg, 40),
                           1, None))
        assert np.array_equal(y[:40], want.symbols)
        assert bytes(marker) not in y.tobytes()

    def test_phase_recovery(self, roundtrip_setup, bern_01, full2):
        pack, scheme, b, g, d = roundtrip_setup
        x = bern_01.sample_path(800_000, seed=31)
        pair = encode(x, d, scheme, pack, full2, seed=32)
        blocks = [n - (pack.N - 9 * pack.M) for n in pair.marker_positions]
        assert len(blocks) >= 1000
        for n in blocks[:1000]:
            w = Word(pair.y.symbols[n:n + pack.N])
            assert locate_offset(w, scheme, pack.N) == 0

    def test_coverage_lower_bound(self, roundtrip_setup, bern_01, full2):
        pack, scheme, b, g, d = roundtrip_setup
        x = bern_01.sample_path(1_000_000, seed=41)
        pair = encode(x, d, scheme, pack, full2, seed=42)
        bound = 1 - (17 * pack.delta + pack.eps / 2) - 0.01
        assert pair.coverage >= bound
        bad = audit_badset(pair, pack)
        # mask only misses bad-component coordinates
        assert pair.coverage >= 1 - (bad.bs1 + bad.bs2 + bad.bs3)


    @given(size=st.integers(1, 200_000), density=st.floats(0.0, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60)
    def test_coverage_is_the_mask_mean(self, size, density, seed):
        # a float64 sum of 0/1 values is exact, so the count over the size
        # is the same double as the mean
        mask = np.random.default_rng(seed).random(size) < density
        pair = codec.CodedPair(None, None, None, mask, None, None)
        assert pair.coverage == float(np.mean(mask))
        assert type(pair.coverage) is float


def fresh_practical():
    """(target, source measure, pack, scheme, dictionary) of the
    roundtrip_setup instance, on Sft and Dfa objects of its own."""
    target, mu = build_sft(2, []), MarkovMeasure.bernoulli([0.9, 0.1])
    pack = practical_pack(H_01, LOG2, 0.2, N=64, M=2, delta=0.02)
    scheme = find_marker(target, MarkovMeasure.bernoulli([0.5, 0.5]), M=2,
                         alpha=0.5, seed=1)
    d = dictionary(boys(mu, pack), girls(target, pack, scheme),
                   "enumerative", pack=pack)
    return target, mu, pack, scheme, d


def roundtrip_outputs(instance, seed, length=20_000):
    """Coded symbols, markers, decoded symbols and mask of one round."""
    target, mu, pack, scheme, d = instance
    x = mu.sample_path(length, seed=(seed, 1))
    pair = encode(x, d, scheme, pack, target, seed=seed)
    x_hat, mask = decode(pair.y, d, scheme, pack)
    return (pair.y.symbols.tobytes(), pair.marker_positions,
            x_hat.symbols.tobytes(), mask.tobytes())


def test_roundtrip_writes_only_the_documented_caches():
    # a Dfa writes only its suffix table after it is made, an Sft only
    # its gap and connector caches
    instance = fresh_practical()
    target, mu, _, _, d = instance
    sfts = [mu.sft, target]
    dfas = [d.boys.dfa, d.girls.dfa] + [sft.factor_dfa() for sft in sfts]

    def state(obj):
        return {name: pickle.dumps(value) for name, value in vars(obj).items()}

    before = [state(obj) for obj in sfts + dfas]
    roundtrip_outputs(instance, seed=3)
    changed = [{name for name in old.keys() | new.keys()
                if old.get(name) != new.get(name)}
               for old, new in zip(before, map(state, sfts + dfas))]
    for names in changed[:2]:
        assert names <= {"_gap", "_connectors"}
    for names in changed[2:]:
        assert names <= {"_suffix"}
    assert "_connectors" in changed[1]
    assert changed[3] == {"_suffix"}     # the girls' rank table was built


def test_threads_share_a_fresh_dictionary():
    # two threads on one unwarmed instance, switching often, give a
    # sequential run's outputs
    shared, seeds = fresh_practical(), [11, 12]
    start = threading.Barrier(len(seeds), timeout=60)

    def run(seed):
        start.wait()
        return roundtrip_outputs(shared, seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(seeds)) as pool:
            got = list(pool.map(run, seeds, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    alone = fresh_practical()
    assert got == [roundtrip_outputs(alone, seed) for seed in seeds]


def test_encode_and_decode_sweep_each_word_set_once(roundtrip_setup, bern_01,
                                                    full2, monkeypatch):
    # Dfa._plan runs once per sweep: encode ranks the N-blocks in one boys
    # sweep and unranks every girl in one girls sweep; decode ranks the
    # info windows in one girls sweep and unranks the boys in one
    pack, scheme, b, g, d = roundtrip_setup
    x = bern_01.sample_path(20_000, seed=(5, 1))
    names, plans, plan = {id(b.dfa): "boys", id(g.dfa): "girls"}, [], Dfa._plan

    def counted(self, *args):
        plans.append(names.get(id(self), "other"))
        return plan(self, *args)

    encode(x, d, scheme, pack, full2, seed=5)     # fills the connector memo
    monkeypatch.setattr(Dfa, "_plan", counted)
    pair = encode(x, d, scheme, pack, full2, seed=5)
    assert plans == ["boys", "girls"] and pair.rewrites == 0
    assert pair.marker_positions and len(pair.boy_blocks) > len(pair.marker_positions)
    del plans[:]
    x_hat, mask = decode(pair.y, d, scheme, pack)
    assert plans == ["girls", "boys"] and mask.any()


@pytest.mark.parametrize("eps", [0.2, 0.9])
@pytest.mark.parametrize("seed", range(5))
def test_draw_flags_match_loop(bern_01, eps, seed):
    parse = rokhlin_parse(bern_01.sample_path(5000, seed=seed), 64, 0.02, seed)
    got = codec._draw_flags(parse, eps, 10 ** 20, seed)
    want = reference_draw_flags(parse, eps, 10 ** 20, seed)
    assert got.dtype == want.dtype == object
    assert got.tolist() == want.tolist()
    assert [type(f) for f in got] == [type(f) for f in want]


def test_every_short_length_roundtrips(roundtrip_setup, bern_01, full2):
    # lengths 1 to N + 2 of the practical pack: below N the parse has no
    # N-block, and a window view of a word shorter than its window raises
    pack, scheme, b, g, d = roundtrip_setup
    for n in range(1, pack.N + 3):
        x = bern_01.sample_path(n, seed=(n, 9))
        pair = encode(x, d, scheme, pack, full2, seed=n)
        assert len(pair.y) == n and full2.is_admissible(pair.y)
        assert pair.mask.any() == (n >= pack.N and bool(pair.marker_positions))
        x_hat, mask = decode(pair.y, d, scheme, pack)
        want, want_mask = reference_decode(pair.y, d, scheme, pack)
        assert x_hat == want and np.array_equal(mask, want_mask)
        assert np.array_equal(mask, pair.mask), n
        assert np.array_equal(x_hat.symbols[mask], x.symbols[mask]), n


class TestCorruption:
    def test_overwritten_marker_drops_block(self, roundtrip_setup, bern_01,
                                            full2):
        pack, scheme, b, g, d = roundtrip_setup
        x = bern_01.sample_path(20_000, seed=51)
        pair = encode(x, d, scheme, pack, full2, seed=52)
        assert len(pair.marker_positions) >= 3
        target = pair.marker_positions[1]
        sym = pair.y.symbols.copy()
        sym[target:target + 16] = 1 - sym[target:target + 16]
        x_hat, mask = decode(Word(sym), d, scheme, pack)
        n = target - (pack.N - 9 * pack.M)
        assert not mask[n:n + pack.N].any()
        others = pair.mask.copy()
        others[n:n + pack.N] = False
        assert np.array_equal(mask & others, others & mask)
        assert np.array_equal(x.symbols[mask], x_hat.symbols[mask])

    def test_all_filler_empty_mask(self, roundtrip_setup, full2):
        pack, scheme, b, g, d = roundtrip_setup
        y = Word(np.zeros(5000, dtype=np.uint8))
        x_hat, mask = decode(y, d, scheme, pack)
        assert not mask.any()

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_decode_matches_reference(self, roundtrip_setup, bern_01, full2,
                                      data):
        # flipped symbols, a repeated stretch (two decodable blocks less
        # than N apart), ends cut inside a marker, words shorter than N
        pack, scheme, b, g, d = roundtrip_setup
        N, seed = pack.N, data.draw(st.integers(0, 2 ** 16), label="seed")
        n = data.draw(st.integers(4 * N, 2000) | st.integers(1, 4 * N), label="n")
        x = bern_01.sample_path(n, seed=(seed, 4))
        pair = encode(x, d, scheme, pack, full2, seed=seed)
        sym = pair.y.symbols.copy()
        for pos in data.draw(st.lists(st.integers(0, len(sym) - 1), max_size=3)):
            sym[pos] ^= 1
        starts = [q - pack.marker_offset for q in pair.marker_positions]
        if starts and data.draw(st.booleans(), label="repeat"):
            at = data.draw(st.sampled_from(starts))
            s = data.draw(st.integers(1, 2 * pack.M) | st.integers(1, N - 1))
            sym = np.concatenate([sym[:at + N - s], sym[at:]])
        cuts = [q + j for q in pair.marker_positions for j in range(1, 8 * pack.M)]

        def inside(lo):     # a cut inside a marker, at lo or later
            later = [c for c in cuts if lo <= c <= len(sym)]
            return st.sampled_from(later) if later else st.nothing()

        lo = data.draw(st.integers(0, min(2 * N, len(sym))) | inside(0))
        hi = data.draw(st.integers(max(lo, len(sym) - 2 * N), len(sym))
                       | st.integers(lo, min(lo + N - 1, len(sym))) | inside(lo))
        y = Word(sym[lo:hi], lo - 5)
        x_hat, mask = decode(y, d, scheme, pack)
        want, want_mask = reference_decode(y, d, scheme, pack)
        assert x_hat == want
        assert np.array_equal(mask, want_mask)

    @pytest.mark.parametrize("s", [1, 2])
    def test_blocks_less_than_N_apart_decode_like_reference(
            self, roundtrip_setup, bern_01, full2, s):
        # a block repeated s <= M symbols before its copy ends keeps both
        # markers: where the two decoded blocks overlap, the later is written
        # (the block's first s symbols, here not its last s)
        pack, scheme, b, g, d = roundtrip_setup
        N = pack.N
        pair = encode(bern_01.sample_path(3000, seed=61), d, scheme, pack,
                      full2, seed=61)
        x = pair.x.symbols
        n = next(n for n in (q - pack.marker_offset for q in pair.marker_positions)
                 if not np.array_equal(x[n:n + s], x[n + N - s:n + N]))
        sym = pair.y.symbols
        y = Word(np.concatenate([sym[:n + N - s], sym[n:]]))
        x_hat, mask = decode(y, d, scheme, pack)
        want, want_mask = reference_decode(y, d, scheme, pack)
        assert x_hat == want and np.array_equal(mask, want_mask)
        assert mask[n:n + 2 * N - s].all()
        assert np.array_equal(x_hat.symbols[n + N - s:n + 2 * N - s], x[n:n + N])


class TestBadset:
    def test_delta_zero_only_bs4(self, bern_half, full2):
        # uniform boys, delta = 0, vanishing girl-flag rate: only the
        # out-of-info phase component remains, exactly 11M/N per block
        pack = practical_pack(LOG2, math.log(3), 1e-6, N=256, M=2, delta=0.0)
        nu3 = MarkovMeasure.uniform(build_sft(3, []))
        scheme = find_marker(build_sft(3, []), nu3, M=2, alpha=0.5, seed=1)
        b = boys(bern_half, pack)
        g = girls(build_sft(3, []), pack, scheme)
        d = dictionary(b, g, "enumerative", pack=pack)
        x = bern_half.sample_path(256 * 100, seed=3)
        pair = encode(x, d, scheme, pack, build_sft(3, []), seed=4)
        rep = audit_badset(pair, pack)
        assert rep.bs1 == 0.0 and rep.bs2 == 0.0 and rep.bs3 == 0.0
        assert rep.bs4 == pytest.approx(11 * 2 / 256)

    def test_flag_frequency(self, roundtrip_setup, bern_01, full2):
        pack, scheme, b, g, d = roundtrip_setup
        x = bern_01.sample_path(1_000_000, seed=61)
        pair = encode(x, d, scheme, pack, full2, seed=62)
        rep = audit_badset(pair, pack)
        expect = (1 - pack.delta) * pack.eps / 2
        assert abs(rep.bs3 - expect) < 0.01


@pytest.fixture(scope="module")
def consistent_run(bern_half, full2):
    """delta-consistent parameters: M = floor(delta N / 11), uniform boys,
    delta below the quadratic bound, so every paper-side inequality is
    genuinely in force."""
    pack = practical_pack(LOG2, math.log(4), 0.2, N=736, M=1, delta=0.015)
    target = build_sft(4, [])
    nu4 = MarkovMeasure.uniform(target)
    scheme = find_marker(target, nu4, M=1, alpha=0.5, seed=7)
    b = boys(bern_half, pack)
    g = girls(target, pack, scheme)
    d = dictionary(b, g, "enumerative", pack=pack)
    x = bern_half.sample_path(1_000_000, seed=71)
    pair = encode(x, d, scheme, pack, target, seed=72)
    return pack, b, g, pair


class TestConsistentParameters:
    def test_badset_predicate_holds(self, consistent_run):
        pack, b, g, pair = consistent_run
        assert pack.M == int(pack.delta * pack.N / 11)
        rep = audit_badset(pair, pack)
        assert rep.ok, (rep.total, rep.bound)
        assert rep.bs4 <= pack.delta + 1e-9
        assert rep.bs1 == pytest.approx(pack.delta, abs=0.01)

    def test_entropy_gain_predicate(self, consistent_run):
        pack, b, g, pair = consistent_run
        rep = audit_entropy(pair.y, pack, pack.h_source,
                            (math.log(b.count), math.log(g.count)), pair)
        assert rep.eg_ok
        # the target is the paper-side lower bound (1/N)(1-d)(1-15d)(eps/2);
        # with full boy mass the observed frequency sits above it
        assert rep.eg_target * 0.9 <= rep.eg_frequency <= 2.5 * rep.eg_target

    def test_coverage_and_badset_bound(self, consistent_run):
        pack, b, g, pair = consistent_run
        rep = audit_badset(pair, pack)
        assert rep.total <= 17 * pack.delta + pack.eps / 2 + 0.01
        assert pair.coverage >= 1 - rep.total


def reference_weakstar(pair, reference_pairs, kmax):
    """Oracle: audit_weakstar with its per-window tuple counter."""
    def family(pairs):
        fams = []
        for k in range(1, kmax + 1):
            counts: dict = {}
            total = 0
            for (xw, yw) in pairs:
                seq = list(zip(xw.symbols.tolist(), yw.symbols.tolist()))
                for i in range(len(seq) - k + 1):
                    counts[tuple(seq[i:i + k])] = counts.get(tuple(seq[i:i + k]), 0) + 1
                    total += 1
            fams.append(BlockDistribution(k, {b: c / total for b, c in counts.items()}))
        return fams

    fam_coded = family([(pair.x, Word(pair.y.symbols, pair.x.lo))])
    return weakstar_surrogate(fam_coded, family(reference_pairs), kmax)


class TestAudits:
    @pytest.mark.parametrize("kmax", [1, 2, 3])
    def test_weakstar_matches_reference(self, roundtrip_setup, bern_01,
                                        bern_half, full2, kmax):
        pack, scheme, b, g, d = roundtrip_setup
        x = bern_01.sample_path(5000, seed=87)
        pair = encode(x, d, scheme, pack, full2, seed=88)
        refs = [(bern_01.sample_path(n, seed=(89, n)),
                 bern_half.sample_path(n, seed=(90, n))) for n in (3000, 2, 1)]
        assert (audit_weakstar(pair, refs, kmax=kmax)
                == reference_weakstar(pair, refs, kmax))

    # random encodes in both dictionary modes, with sources whose N-blocks
    # are no boys (all 1s) and packs that flag no block for the dictionary
    @pytest.mark.parametrize("mode", ["enumerative", "hall"])
    @given(seed=st.integers(0, 2 ** 16), length=st.integers(1, 4000),
           ones=st.booleans(), no_dict_flags=st.booleans())
    @settings(max_examples=25)
    def test_block_kinds_match_reference(self, roundtrip_setup, hall_setup,
                                         bern_01, full2, mode, seed, length,
                                         ones, no_dict_flags):
        if mode == "hall":
            mu, pack, scheme, _, _, d = hall_setup
        else:
            (pack, scheme, _, _, d), mu = roundtrip_setup, bern_01
        if no_dict_flags:
            pack = replace(pack, eps=2.0)
        x = (Word(np.ones(length, dtype=np.uint8)) if ones
             else mu.sample_path(length, seed=seed))
        pair = encode(x, d, scheme, pack, full2, seed=seed)
        want = reference_block_kinds(pair)
        for got, ref in zip(codec.block_kinds(pair), want):
            assert got.dtype == bool and np.array_equal(got, ref)
        long_, boy, flagged = want
        assert np.array_equal(pair.boy, boy[long_])
        assert np.array_equal(pair.flagged, flagged[long_])
        rep = audit_badset(pair, pack)
        assert rep.bs2 == pack.N * int((long_ & ~boy).sum()) / length
        assert rep.bs3 == pack.N * int((long_ & ~flagged).sum()) / length
        eg = audit_entropy(pair.y, pack, pack.h_source, (0.0, 0.0), pair)
        assert eg.eg_frequency == int((boy & ~flagged).sum()) / length

    def test_weakstar_self_zero(self, roundtrip_setup, bern_01, full2):
        pack, scheme, b, g, d = roundtrip_setup
        x = bern_01.sample_path(5000, seed=81)
        pair = encode(x, d, scheme, pack, full2, seed=82)
        assert audit_weakstar(pair, [(pair.x, Word(pair.y.symbols, pair.x.lo))],
                              kmax=2) == 0.0

    def test_weakstar_kmax1_is_tv(self, roundtrip_setup, bern_01, bern_half,
                                  full2):
        from shiftcode.estimators import BlockDistribution, total_variation
        pack, scheme, b, g, d = roundtrip_setup
        x = bern_01.sample_path(5000, seed=83)
        pair = encode(x, d, scheme, pack, full2, seed=84)
        ref = [(bern_01.sample_path(5000, seed=85),
                bern_half.sample_path(5000, seed=86))]
        got = audit_weakstar(pair, ref, kmax=1)
        pairs_coded = [(int(a), int(bb)) for a, bb in
                       zip(pair.x.symbols, pair.y.symbols)]
        pairs_ref = [(int(a), int(bb)) for a, bb in
                     zip(ref[0][0].symbols, ref[0][1].symbols)]
        tv = total_variation(
            BlockDistribution(1, reference_block_distribution([np.array(pairs_coded)], 1)),
            BlockDistribution(1, reference_block_distribution([np.array(pairs_ref)], 1)))
        assert got == pytest.approx(0.5 * tv)

    @given(size=st.integers(1, 3), data=st.data())
    @settings(max_examples=300)
    def test_lz78_phrases_match_reference(self, size, data):
        symbols = data.draw(st.lists(st.integers(0, size - 1), max_size=300),
                            label="symbols")
        y = Word(np.array(symbols, dtype=np.uint8))
        assert lz78_phrases(y) == reference_lz78_phrases(y)

    # Long phrases next to sudden short ones: each galloping branch, and
    # the caps at the longest phrase and at the end of the word.
    @given(filler=st.lists(st.integers(0, 1), max_size=48),
           n=st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_lz78_phrases_on_a_tiled_marker(self, filler, n):
        period = [int(c) for c in "0010010010010011"] + filler
        y = Word(np.resize(np.array(period, dtype=np.uint8), n))
        assert lz78_phrases(y) == reference_lz78_phrases(y)

    @given(pieces=st.lists(st.one_of(
        st.tuples(st.integers(0, 2), st.integers(1, 10_000)),
        st.lists(st.integers(0, 2), min_size=1, max_size=300)), max_size=4))
    @settings(max_examples=80)
    def test_lz78_phrases_on_constant_runs_and_random_pieces(self, pieces):
        parts = [np.full(p[1], p[0]) if isinstance(p, tuple) else np.array(p)
                 for p in pieces]
        y = Word(np.concatenate([np.zeros(0), *parts]).astype(np.uint8))
        assert lz78_phrases(y) == reference_lz78_phrases(y)

    @given(size=st.integers(1, 3), data=st.data())
    @settings(max_examples=60)
    def test_lz78_phrases_with_the_longest_phrase_last(self, size, data):
        """A word cut after a whole phrase, then the longest phrase again:
        the trailing partial phrase is as long as every earlier one and
        ends at the end of the word."""
        symbols = data.draw(st.lists(st.integers(0, size - 1), min_size=1,
                                     max_size=2_000), label="symbols")
        phrases, node = [], b""
        seen = {b""}
        for a in bytes(symbols):
            node += bytes([a])
            if node not in seen:
                seen.add(node)
                phrases.append(node)
                node = b""
        longest = max(phrases, key=len)
        head = b"".join(phrases)
        y = Word(np.frombuffer(head + longest, dtype=np.uint8))
        assert lz78_phrases(y) == reference_lz78_phrases(y) == len(phrases) + 1

    def test_lz78_phrases_match_reference_on_samples(self, bern_half, bern_01):
        for y in (Word(np.zeros(0, dtype=np.uint8)),
                  bern_half.sample_path(50_000, seed=93),
                  bern_01.sample_path(50_000, seed=94)):
            assert lz78_phrases(y) == reference_lz78_phrases(y)

    def test_lz_calibration(self, bern_half):
        y = bern_half.sample_path(1_000_000, seed=91)
        assert abs(lz78_entropy(y) - LOG2) < 0.05

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("n", [10 ** 4, 10 ** 5, 10 ** 6])
    def test_uniform_phrases_match_samples(self, m, n):
        counts = [lz78_phrases(Word(np.random.default_rng((seed, m, n))
                                    .integers(0, m, n).astype(np.uint8)))
                  for seed in range(5)]
        # the five seeds spread by a sample deviation of 1.9-8.8 phrases;
        # the tolerance is three standard errors of their mean, plus one
        # phrase for the first-order model's own error
        tol = 3 * np.std(counts, ddof=1) / math.sqrt(5) + 1
        assert abs(np.mean(counts) - uniform_lz78_phrases(m, n)) <= tol

    @pytest.mark.parametrize("m", [2, 3, 10])
    @pytest.mark.parametrize("n", [1, 2])
    def test_uniform_phrases_at_most_n(self, m, n):
        assert 0 <= uniform_lz78_phrases(m, n) <= n

    def test_lz_rate_parses_the_word_once(self, monkeypatch):
        calls = []
        parse = codec.lz78_phrases
        monkeypatch.setattr(codec, "lz78_phrases",
                            lambda word: calls.append(len(word)) or parse(word))
        y = Word(np.random.default_rng(95).integers(0, 3, 12_345).astype(np.uint8))
        rates = [lz78_entropy(y), lz78_entropy(y)]
        assert calls == [12_345, 12_345]
        assert rates[0] == rates[1]

    def test_lz_low_entropy_direction(self):
        m = MarkovMeasure.bernoulli([0.95, 0.05])
        y = m.sample_path(200_000, seed=92)
        assert lz78_entropy(y) < 0.5 * LOG2

    def test_ratio_predicate_reported(self, roundtrip_setup, bern_01, full2):
        pack, scheme, b, g, d = roundtrip_setup
        pair = encode(bern_01.sample_path(1500, seed=93), d, scheme, pack,
                      full2, seed=93)
        rep = audit_entropy(Word(np.zeros(10, dtype=np.uint8)), pack, H_01,
                            (math.log(b.count), math.log(g.count)), pair)
        # practical small-N pack: reported honestly as failing
        assert rep.ratio_ok is False
        assert rep.ratio_lhs == pytest.approx(
            math.log(g.count) - math.log(b.count))


class TestCodedFile:
    def test_roundtrip(self, roundtrip_setup, bern_01, full2):
        pack, scheme, b, g, d = roundtrip_setup
        x = bern_01.sample_path(3000, seed=95)
        pair = encode(x, d, scheme, pack, full2, seed=96)
        text = write_coded(pair.y, pack, d, scheme)
        y2, header = read_coded(text)
        assert y2 == pair.y
        assert header["pack"] == pack_hash(pack)
        assert header["dict"] == dictionary_hash(d)

    def test_decode_from_file(self, roundtrip_setup, bern_01, full2):
        pack, scheme, b, g, d = roundtrip_setup
        x = bern_01.sample_path(3000, seed=97)
        pair = encode(x, d, scheme, pack, full2, seed=98)
        y2, _ = read_coded(write_coded(pair.y, pack, d, scheme))
        x_hat, mask = decode(y2, d, scheme, pack)
        assert np.array_equal(mask, pair.mask)
