import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftcode import automata
from shiftcode.automata import Dfa, avoider_dfa, product_dfa
from shiftcode.shiftspace import build_sft

from conftest import (one_count_dfa, reference_binomial_rank,
                      reference_binomial_unrank, reference_rank,
                      reference_suffix_counts, reference_unrank, reference_walk)


def recursive_enumerate(dfa, length):
    """Oracle: depth-first generator of accepted words (tuples) in lex order."""
    word = [0] * length

    def rec(node, pos):
        if pos == length:
            if dfa.accepting[node]:
                yield tuple(word)
            return
        for a in range(dfa.alphabet_size):
            nxt = dfa.step[node][a]
            if nxt >= 0:
                word[pos] = a
                yield from rec(nxt, pos + 1)

    yield from rec(dfa.start, 0)


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
    total = reference_suffix_counts(dfa, length)[length][dfa.start]
    assert dfa.count(length) == total
    assert dfa.suffix_counts(length)[length, dfa.start] == total

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

    drawn = data.draw(st.lists(
        st.lists(st.integers(0, m) | st.just(255), min_size=length,
                 max_size=length), max_size=6), label="rows")
    rows = np.array(drawn, dtype=np.uint8).reshape(len(drawn), length)
    want = [reference_walk(dfa, row) for row in drawn]
    accepted = [w >= 0 and bool(dfa.accepting[w]) for w in want]
    assert dfa.member_rows(rows).tolist() == accepted
    assert [dfa.walk(row) for row in drawn] == want
    good = rows[accepted]
    assert dfa.rank_rows(good).tolist() == [reference_rank(dfa, row)
                                            for row in good.tolist()]
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
    k_lo = data.draw(st.integers(0, k_hi), label="k_lo")
    dfa = one_count_dfa(k_lo, k_hi)
    total = sum(math.comb(N, k) for k in range(k_lo, k_hi + 1))
    assert dfa.count(N) == total
    ranks = sorted({0, total - 1, *data.draw(
        st.lists(st.integers(0, total - 1), max_size=5), label="ranks")})
    words = dfa.unrank_rows(N, ranks)
    assert [tuple(w) for w in words.tolist()] == [
        reference_binomial_unrank(N, k_lo, k_hi, r) for r in ranks]
    assert dfa.rank_rows(words).tolist() == [
        reference_binomial_rank(N, k_lo, k_hi, w) for w in words.tolist()]
    assert dfa.rank_rows(words).tolist() == ranks
    check_batch_methods(dfa, N, data)


@given(data=st.data())
@settings(max_examples=60)
def test_accepting_vector_counts_and_enumerates(zoo_dfas, data):
    base = zoo_dfas[data.draw(st.integers(0, len(zoo_dfas) - 1), label="dfa")]
    accepting = data.draw(st.lists(st.booleans(), min_size=base.n_nodes,
                                   max_size=base.n_nodes), label="accepting")
    dfa = Dfa(base.alphabet_size, base.step, base.start, accepting)
    length = data.draw(st.integers(0, 8), label="length")
    want = list(recursive_enumerate(dfa, length))
    assert dfa.count(length) == len(want)
    assert block_rows(dfa, length) == want
    check_batch_methods(dfa, length, data)


def test_big_counts_match_reference(zoo_dfas):
    # counts far past 2^64 exercise the object-dtype table
    rng = random.Random(6)
    for dfa in zoo_dfas[:6] + zoo_dfas[6:8]:
        length = 150
        total = dfa.count(length)
        assert total == reference_suffix_counts(dfa, length)[length][dfa.start]
        ranks = [0, total - 1] + [rng.randrange(total) for _ in range(5)]
        words = dfa.unrank_rows(length, ranks)
        assert [tuple(w) for w in words.tolist()] == [
            reference_unrank(dfa, length, r) for r in ranks]
        assert dfa.rank_rows(words).tolist() == ranks
        assert all(type(r) is int for r in dfa.rank_rows(words))


def check_sweep_boundary(dfa, length):
    """rank_rows/unrank_rows at ranks 0, count - 1 and either side of 2^63
    equal the reference and return Python ints; ranks 2^63 and 2^70 are
    refused unless the count reaches them."""
    total = dfa.count(length)
    ranks = [0, total - 1] + [r for r in (2**63 - 1, 2**63, 2**63 + 1)
                              if r < total]
    words = dfa.unrank_rows(length, ranks)
    assert [tuple(w) for w in words.tolist()] == [
        reference_unrank(dfa, length, r) for r in ranks]
    got = dfa.rank_rows(words)
    assert got.tolist() == ranks
    assert all(type(r) is int for r in got)
    assert got.tolist() == [reference_rank(dfa, w) for w in words.tolist()]
    for r in (2**63, 2**70):
        if r >= total:
            with pytest.raises(ValueError, match="rank out of range"):
                dfa.unrank_rows(length, [r])


@pytest.mark.parametrize("N", range(60, 71))
def test_one_count_sweep_across_int64_cutoff(N):
    # counts of the full range reach 2^63 at row 63; the narrow range's
    # grow slower, so its cutoff falls further down the table
    for k_lo, k_hi in [(0, N), (N // 4, 3 * N // 4)]:
        dfa = one_count_dfa(k_lo, k_hi)
        dfa.suffix_counts(70)
        check_sweep_boundary(dfa, N)


@pytest.mark.parametrize("length", range(61, 67))
def test_full_shift_sweep_across_int64_cutoff(length):
    dfa = build_sft(2, []).factor_dfa()
    dfa.suffix_counts(66)
    assert dfa._sweep_table(length).dtype == (np.int64 if length < 63 else object)
    check_sweep_boundary(dfa, length)


def test_int64_copy_replaced_with_longer_table():
    dfa = one_count_dfa(0, 70)
    check_sweep_boundary(dfa, 10)
    short = dfa._tables["suffix64"]
    before = short.copy()
    assert len(short) == 11
    table = dfa.suffix_counts(70)
    fits = dfa._tables["suffix64"]
    assert fits is not short and np.array_equal(short, before)
    assert fits.dtype == np.int64 and len(fits) == 63
    assert fits.tolist() == table[:63].tolist()
    assert max(table[63]) == 2**63
    for length in (62, 63, 66):
        check_sweep_boundary(dfa, length)


def test_default_accepting_is_every_node(zoo_dfas):
    for dfa in zoo_dfas:
        assert dfa.accepting.tolist() == [True] * dfa.n_nodes


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("k_lo,k_hi", [(0, 2), (1, 3), (3, 3)])
def test_product_honours_accepting(k_lo, k_hi, swap):
    pair = [one_count_dfa(k_lo, k_hi), avoider_dfa(2, [[1, 1]])]
    dfa = product_dfa(*pair[::-1] if swap else pair)
    for length in range(9):
        want = [w for w in itertools.product((0, 1), repeat=length)
                if k_lo <= sum(w) <= k_hi and (1, 1) not in zip(w, w[1:])]
        assert dfa.count(length) == len(want)
        assert block_rows(dfa, length) == want
        if want:
            assert dfa.rank_rows(np.array(want)).tolist() == list(range(len(want)))
