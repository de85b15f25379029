import numpy as np
import pytest

from shiftcode import automata
from shiftcode.automata import avoider_dfa, product_dfa


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
