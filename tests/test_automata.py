import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftcode import automata
from shiftcode.automata import avoider_dfa, product_dfa
from shiftcode.dictionary import _type_class_boys
from shiftcode.measures import MarkovMeasure
from shiftcode.shiftspace import build_sft

from conftest import (column_ends, column_rank_rows, column_unrank_rows,
                      markov_on_support, one_count_dfa, reference_binomial_rank,
                      reference_binomial_unrank, reference_rank,
                      reference_suffix_counts, reference_unrank, reference_walk)


def recursive_enumerate(dfa, length):
    """Oracle: depth-first generator of accepted words (tuples) in lex order."""
    word = [0] * length

    def rec(node, pos):
        if pos == length:
            yield tuple(word)
            return
        for a in range(dfa.alphabet_size):
            nxt = dfa.step[node][a]
            if nxt >= 0:
                word[pos] = a
                yield from rec(nxt, pos + 1)

    yield from rec(0, 0)


def block_rows(dfa, length):
    rows = []
    for block in dfa.enumerate(length):
        assert block.dtype == np.uint8
        assert block.shape[1] == length
        assert 1 <= len(block) <= max(automata.ENUM_BLOCK_ROWS,
                                      dfa.alphabet_size)
        rows.extend(tuple(int(a) for a in row) for row in block)
    return rows


@pytest.fixture(scope="module")
def zoo_dfas(sft_zoo):
    factors = [sft.factor_dfa() for sft in sft_zoo]
    return factors + [
        # the girl automaton of the M=2 full-shift marker 0010010010010011
        product_dfa(factors[0], avoider_dfa(2, [[0, 0, 1, 0], [0, 0, 1, 1]])),
        product_dfa(factors[5], avoider_dfa(3, [[2, 1], [0, 0]])),
        # dead ends: no word longer than 3 survives, and words starting
        # with 0 stop after one symbol
        product_dfa(factors[1], avoider_dfa(2, [[0, 1, 0], [0, 0]])),
        product_dfa(factors[0], avoider_dfa(2, [[0, 0], [0, 1]])),
    ]


@pytest.mark.parametrize("block_limit", [None, 4])
def test_blocks_match_recursive_reference(zoo_dfas, monkeypatch, block_limit):
    if block_limit is not None:
        # tiny blocks force the depth-first split at almost every depth
        monkeypatch.setattr(automata, "ENUM_BLOCK_ROWS", block_limit)
    for dfa in zoo_dfas:
        for length in range(11):
            assert block_rows(dfa, length) == list(
                recursive_enumerate(dfa, length)), (dfa, length)


def test_negative_length_rejected(zoo_dfas):
    with pytest.raises(ValueError):
        next(zoo_dfas[0].enumerate(-1))


# ---------------------------------------------------------------------------
# batch membership, rank and unrank against the per-word loops


def check_batch_methods(dfa, length, data):
    """Every batch method on drawn rows and ranks equals the per-word
    reference, including ranks 0 and count - 1, rows with symbols off the
    alphabet, and the empty batch."""
    m = dfa.alphabet_size
    total = reference_suffix_counts(dfa, length)[length][0]
    assert dfa.count(length) == total
    assert dfa.suffix_counts(length)[length, 0] == total

    ranks = [0, total - 1] if total else []
    if total:
        ranks += data.draw(st.lists(st.integers(0, total - 1), max_size=4),
                           label="ranks")
    words = dfa.unrank_rows(length, ranks)
    assert words.dtype == np.uint8 and words.shape == (len(ranks), length)
    assert [tuple(w) for w in words.tolist()] == [
        reference_unrank(dfa, length, r) for r in ranks]
    assert dfa.rank_rows(words).tolist() == ranks
    for r in (-1, total):
        with pytest.raises(ValueError, match="rank out of range"):
            dfa.unrank_rows(length, [r])

    assert (words == column_unrank_rows(dfa, length, ranks)).all()

    drawn = data.draw(st.lists(
        st.lists(st.integers(0, m) | st.just(255), min_size=length,
                 max_size=length), max_size=6), label="rows")
    rows = np.array(drawn, dtype=np.uint8).reshape(len(drawn), length)
    want = [reference_walk(dfa, row) for row in drawn]
    accepted = [w >= 0 for w in want]
    assert dfa.member_rows(rows).tolist() == accepted
    assert (column_ends(dfa, rows) < dfa.n_nodes).tolist() == accepted
    assert [dfa.walk(row) for row in drawn] == want
    good = rows[accepted]
    assert dfa.rank_rows(good).tolist() == [reference_rank(dfa, row)
                                            for row in good.tolist()]
    assert dfa.rank_rows(good).tolist() == column_rank_rows(dfa, good).tolist()
    if not all(accepted):
        with pytest.raises(ValueError):
            dfa.rank_rows(rows)

    empty = np.zeros((0, length), dtype=np.uint8)
    assert dfa.member_rows(empty).shape == (0,)
    assert dfa.rank_rows(empty).shape == (0,)
    assert dfa.unrank_rows(length, []).shape == (0, length)


@pytest.mark.parametrize("index", range(6))
@given(data=st.data())
@settings(max_examples=25)
def test_factor_batches_match_reference(sft_zoo, index, data):
    dfa = sft_zoo[index].factor_dfa()
    check_batch_methods(dfa, data.draw(st.integers(0, 12), label="length"),
                        data)


@given(data=st.data())
@settings(max_examples=60)
def test_product_batches_match_reference(sft_zoo, data):
    sft = sft_zoo[data.draw(st.integers(0, len(sft_zoo) - 1), label="sft")]
    m = sft.alphabet_size
    patterns = data.draw(st.lists(st.lists(st.integers(0, m - 1), min_size=1,
                                           max_size=4),
                                  min_size=1, max_size=3), label="patterns")
    dfa = product_dfa(sft.factor_dfa(), avoider_dfa(m, patterns))
    check_batch_methods(dfa, data.draw(st.integers(0, 12), label="length"),
                        data)


@given(data=st.data())
@settings(max_examples=60)
def test_one_count_batches_match_reference(data):
    N = data.draw(st.integers(0, 40), label="N")
    k_hi = data.draw(st.integers(0, N), label="k_hi")
    dfa = one_count_dfa(k_hi)
    total = sum(math.comb(N, k) for k in range(k_hi + 1))
    assert dfa.count(N) == total
    ranks = sorted({0, total - 1, *data.draw(
        st.lists(st.integers(0, total - 1), max_size=5), label="ranks")})
    words = dfa.unrank_rows(N, ranks)
    assert [tuple(w) for w in words.tolist()] == [
        reference_binomial_unrank(N, k_hi, r) for r in ranks]
    assert dfa.rank_rows(words).tolist() == [
        reference_binomial_rank(N, k_hi, w) for w in words.tolist()]
    assert dfa.rank_rows(words).tolist() == ranks
    check_batch_methods(dfa, N, data)


# ---------------------------------------------------------------------------
# wide chunks: batches big enough to read several symbols per gather


def batch_sizes(dfa, top=2100):
    """1, either side of each width threshold (n_nodes + 1) m^w up to top,
    and top: the batch sizes where a sweep's chunk width changes."""
    sizes, size = {1, top}, dfa.n_nodes + 1
    while size * dfa.alphabet_size <= top:
        size *= dfa.alphabet_size
        sizes |= {size - 1, size}
    return sorted(sizes)


def check_wide_batch(dfa, length, n_rows, rng):
    """All four batch methods on n_rows rows of one length equal the
    column-loop oracles; the first rows also equal the per-row references.
    The ranks include 0 and count - 1; the rows for membership have
    symbols m and 255 planted in some of them."""
    total = dfa.count(length)
    if not total:
        return
    ranks = ([0, total - 1] + [rng.randrange(total) for _ in range(n_rows)])[:n_rows]
    words = dfa.unrank_rows(length, ranks)
    assert words.dtype == np.uint8 and words.shape == (n_rows, length)
    assert (words == column_unrank_rows(dfa, length, ranks)).all()
    got = dfa.rank_rows(words)
    assert got.tolist() == ranks == column_rank_rows(dfa, words).tolist()
    assert all(type(r) is int for r in got)
    for w, r in list(zip(words.tolist(), ranks))[:3]:
        assert tuple(w) == reference_unrank(dfa, length, r)
        assert reference_rank(dfa, w) == r

    rows = words.copy()
    if length:
        # random symbols, on and off the alphabet, in every other row
        for i in range(0, n_rows, 2):
            rows[i, rng.randrange(length)] = rng.choice(
                [*range(dfa.alphabet_size), dfa.alphabet_size, 255])
    ends = column_ends(dfa, rows)
    assert (dfa._ends(rows) == ends).all()
    assert (dfa.member_rows(rows) == (ends < dfa.n_nodes)).all()
    for row, end in list(zip(rows.tolist(), ends.tolist()))[:3]:
        assert dfa.walk(row) == reference_walk(dfa, row) == (
            -1 if end == dfa.n_nodes else end)
    if not (ends < dfa.n_nodes).all():
        with pytest.raises(ValueError, match="not accepted"):
            dfa.rank_rows(rows)


@pytest.fixture(scope="module")
def kernel_dfas(zoo_dfas):
    """Factor, product, type-class and one-count automata, with a length
    for each that no chunk width above 1 divides."""
    bern = MarkovMeasure.bernoulli([0.9, 0.1])
    gm = build_sft(2, ["11"])
    markov = markov_on_support(gm, np.array([[0.7, 0.3], [1.0, 1.0]]))
    return [(dfa, 13) for dfa in zoo_dfas] + [
        (_type_class_boys(bern, 64, -64 * (bern.entropy() + 0.03)).dfa, 61),
        (_type_class_boys(markov, 24, -24 * (markov.entropy() + 0.1)).dfa, 23),
        (one_count_dfa(9), 29),
    ]


@pytest.mark.parametrize("index", range(13))
def test_wide_chunks_match_column_oracle(kernel_dfas, index):
    dfa, length = kernel_dfas[index]
    rng = random.Random(index)
    sizes = batch_sizes(dfa)
    widths = [dfa._plan(n, length)[:2] for n in sizes]
    assert widths[0] == ([1] * length, True)        # one row: per-row tables
    assert max(w for ws, _ in widths for w in ws) >= 2
    for n_rows in sizes:
        for L in (length, 2 * length // 3, 1, 0):
            check_wide_batch(dfa, L, n_rows, rng)
    # an empty batch at every width rule
    for L in (length, 0):
        empty = np.zeros((0, L), dtype=np.uint8)
        assert dfa.member_rows(empty).shape == dfa.rank_rows(empty).shape == (0,)
        assert dfa.unrank_rows(L, []).shape == (0, L)


def test_width_rule():
    # (n_nodes + 1) m^w <= rows: 5 table rows (the sink's too) on the full
    # 3-shift; the first chunk takes the length mod w
    dfa = build_sft(3, []).factor_dfa()
    assert dfa.n_nodes + 1 == 5
    assert dfa._plan(14, 7)[:2] == ([1] * 7, True)
    assert dfa._plan(15, 7)[:2] == ([1] * 7, False)
    assert dfa._plan(44, 7)[:2] == ([1] * 7, False)
    assert dfa._plan(45, 7)[:2] == ([1, 2, 2, 2], False)
    assert dfa._plan(5 * 3 ** 5, 7)[:2] == ([2, 5], False)
    assert dfa._plan(10 ** 6, 7)[:2] == ([7], False)      # never past the length
    assert dfa._plan(10 ** 6, 0)[0] == []


@pytest.mark.parametrize("length", [61, 62])
def test_full_shift_offsets_past_int64(length):
    # every suffix count fits int64 (the table is int64) but the per-node
    # offsets of a big batch sum past 2^62 (past 2^63 at L = 62), where the
    # unrank's offsets turn to Python ints
    dfa = build_sft(2, []).factor_dfa()
    table = dfa._sweep_table(length)
    assert table.dtype == np.int64
    assert sum(table[length].tolist()) >= 2 ** 62
    rng = random.Random(length)
    for n_rows in (dfa.n_nodes + 1) * 2 ** 7, 2000:
        assert dfa._plan(n_rows, length)[0][-1] >= 7
        check_wide_batch(dfa, length, n_rows, rng)
    check_sweep_boundary(dfa, length, n_rows=2000)


@pytest.mark.parametrize("N", range(60, 64))
def test_one_count_offsets_past_int64(N):
    dfa = one_count_dfa(N)
    assert sum(dfa._sweep_table(min(N, 62))[min(N, 62)].tolist()) >= 2 ** 63
    rng = random.Random(N)
    for n_rows in (N + 1) * 2 - 1, (N + 1) * 2, (N + 1) * 16, 2000:
        check_wide_batch(dfa, N, n_rows, rng)
    check_sweep_boundary(dfa, N, n_rows=2000)


def test_big_counts_match_reference(zoo_dfas):
    # counts far past 2^64 exercise the object-dtype table
    rng = random.Random(6)
    for dfa in zoo_dfas[:6] + zoo_dfas[6:8]:
        length = 150
        total = dfa.count(length)
        assert total == reference_suffix_counts(dfa, length)[length][0]
        ranks = [0, total - 1] + [rng.randrange(total) for _ in range(5)]
        words = dfa.unrank_rows(length, ranks)
        assert [tuple(w) for w in words.tolist()] == [
            reference_unrank(dfa, length, r) for r in ranks]
        assert dfa.rank_rows(words).tolist() == ranks
        assert all(type(r) is int for r in dfa.rank_rows(words))


@given(data=st.data())
@settings(max_examples=80)
def test_rank_sweep_matches_member_and_rank(zoo_dfas, data):
    # one sweep gives what member_rows and rank_rows give in two: words
    # of random ranks with random symbols planted, on and off the
    # alphabet; one-row and small batches take the per-row tables, and
    # at length 150 the table holds Python ints
    dfa = zoo_dfas[data.draw(st.integers(0, len(zoo_dfas) - 1), label="dfa")]
    length = data.draw(st.sampled_from([0, 1, 5, 13, 150]), label="length")
    n_rows = data.draw(st.sampled_from([0, 1, 2, 7, 300]), label="rows")
    rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
    m, total = dfa.alphabet_size, dfa.count(length)
    rows = (dfa.unrank_rows(length, [rng.randrange(total) for _ in range(n_rows)])
            if total else np.zeros((n_rows, length), dtype=np.uint8))
    for _ in range(rng.randrange(n_rows + 1) if length else 0):
        rows[rng.randrange(n_rows), rng.randrange(length)] = rng.choice(
            [*range(m), m, 255])
    ranks, accepted = dfa.rank_sweep(rows)
    assert ranks.dtype == dfa._sweep_table(length).dtype
    assert ranks.shape == accepted.shape == (n_rows,)
    assert accepted.tolist() == dfa.member_rows(rows).tolist()
    assert ranks[accepted].tolist() == dfa.rank_rows(rows[accepted]).tolist()


def test_unrank_checks_integer_arrays(zoo_dfas):
    # int64 and uint64 ranks are range-checked in int64 (a uint64 past
    # 2^63 wraps negative), and the caller's array is left as it was
    for dfa in zoo_dfas[:8]:
        total = dfa.count(9)
        assert dfa._sweep_table(9).dtype == np.int64
        for bad in (np.array([-1]), np.array([0, total]), np.array([2 ** 62]),
                    np.array([total], dtype=np.uint64),
                    np.array([0, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64)):
            with pytest.raises(ValueError, match="rank out of range"):
                dfa.unrank_rows(9, bad)
        ranks = np.array([total - 1, 0, total // 2])
        words = dfa.unrank_rows(9, ranks)
        assert ranks.tolist() == [total - 1, 0, total // 2]
        assert (words == dfa.unrank_rows(9, ranks.tolist())).all()
        assert (words == dfa.unrank_rows(9, ranks.astype(np.uint64))).all()


def check_sweep_boundary(dfa, length, n_rows=0):
    """rank_rows/unrank_rows at ranks 0, count - 1 and either side of 2^63
    equal the reference and return Python ints, also in a batch with n_rows
    random ranks more (checked against the column-loop oracles); ranks 2^63
    and 2^70 are refused unless the count reaches them."""
    total = dfa.count(length)
    ranks = [0, total - 1] + [r for r in (2**63 - 1, 2**63, 2**63 + 1)
                              if r < total]
    edge = len(ranks)
    rng = random.Random(length)
    ranks += [rng.randrange(total) for _ in range(n_rows)]
    words = dfa.unrank_rows(length, ranks)
    assert [tuple(w) for w in words[:edge].tolist()] == [
        reference_unrank(dfa, length, r) for r in ranks[:edge]]
    got = dfa.rank_rows(words)
    assert got.tolist() == ranks
    assert all(type(r) is int for r in got)
    assert got[:edge].tolist() == [reference_rank(dfa, w)
                                   for w in words[:edge].tolist()]
    if n_rows:
        assert (words == column_unrank_rows(dfa, length, ranks)).all()
        assert column_rank_rows(dfa, words).tolist() == ranks
    for r in (2**63, 2**70):
        if r >= total:
            with pytest.raises(ValueError, match="rank out of range"):
                dfa.unrank_rows(length, [r])


@pytest.mark.parametrize("N", range(60, 71))
def test_one_count_sweep_across_int64_cutoff(N):
    # counts of the full range reach 2^63 at row 63; the capped range's
    # grow slower, so its cutoff falls further down the table
    for k_hi in [N, 3 * N // 4]:
        dfa = one_count_dfa(k_hi)
        dfa.suffix_counts(70)
        check_sweep_boundary(dfa, N)


@pytest.mark.parametrize("length", range(61, 67))
def test_full_shift_sweep_across_int64_cutoff(length):
    dfa = build_sft(2, []).factor_dfa()
    dfa.suffix_counts(66)
    assert dfa._sweep_table(length).dtype == (np.int64 if length < 63 else object)
    check_sweep_boundary(dfa, length)


def test_int64_copy_replaced_with_longer_table():
    dfa = one_count_dfa(70)
    check_sweep_boundary(dfa, 10)
    short = dfa._suffix
    before = short.copy()
    assert len(short) == 11
    table = dfa.suffix_counts(70)
    assert dfa._suffix is table and table is not short
    assert short.tolist() == before.tolist() == table[:11].tolist()
    assert max(table[63]) == 2**63
    fits = dfa._sweep_table(62)
    assert fits.dtype == np.int64 and fits.tolist() == table[:63].tolist()
    assert dfa._sweep_table(63).dtype == object
    for length in (62, 63, 66):
        check_sweep_boundary(dfa, length)


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("k_hi", [0, 2, 3])
def test_product_matches_brute_force(k_hi, swap):
    pair = [one_count_dfa(k_hi), avoider_dfa(2, [[1, 1]])]
    dfa = product_dfa(*pair[::-1] if swap else pair)
    for length in range(9):
        want = [w for w in itertools.product((0, 1), repeat=length)
                if sum(w) <= k_hi and (1, 1) not in zip(w, w[1:])]
        assert dfa.count(length) == len(want)
        assert block_rows(dfa, length) == want
        if want:
            assert dfa.rank_rows(np.array(want)).tolist() == list(range(len(want)))


@st.composite
def avoider_cases(draw):
    """(alphabet size, patterns): up to 4 patterns of length 0-4."""
    m = draw(st.integers(1, 3), label="m")
    pattern = st.lists(st.integers(0, m - 1), max_size=4)
    return m, draw(st.lists(pattern, max_size=4), label="patterns")


@given(case=avoider_cases(), length=st.integers(0, 6))
@example(case=(2, [[], [0, 1], [0, 1], [1, 0, 1]]), length=6)
@example(case=(3, [[2, 2, 2], [2, 2], [1, 2, 1, 2]]), length=6)
@settings(max_examples=200)
def test_avoider_matches_substring_search(case, length):
    # an empty pattern forbids nothing
    m, patterns = case
    patterns = [tuple(p) for p in patterns if p]
    words = list(itertools.product(range(m), repeat=length))
    keep = [not any(w[i:i + len(p)] == p for p in patterns
                    for i in range(length - len(p) + 1)) for w in words]
    want = [w for w, k in zip(words, keep) if k]
    dfa = avoider_dfa(m, case[1])
    assert dfa.count(length) == len(want)
    assert block_rows(dfa, length) == want
    rows = np.array(words, dtype=np.uint8).reshape(len(words), length)
    assert dfa.member_rows(rows).tolist() == keep
