"""Deterministic finite automata over small symbol alphabets.

Counting, lex enumeration, membership and rank/unrank (Cover's enumerative
coding) run over one prefix-closed DFA abstraction: an SFT's factor
language, a pattern avoider, their product, or a source's type-class
automaton (its boys, built in ``dictionary``).  Batch methods sweep the
columns of a ``(B, L)`` array of words; counts are exact Python ints, in
one suffix table per automaton, read as int64 by a sweep where they fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

# Most rows per block yielded by Dfa.enumerate; bounds its working memory.
ENUM_BLOCK_ROWS = 1 << 16

# Bits of the exact suffix-count table behind rank/unrank (~512 MiB of int
# digits; at the strict pack the girls' table would need ~1.3e11 bits).
RANK_BIT_LIMIT = 2 ** 32


@dataclass
class Dfa:
    """A DFA with integer nodes; ``step[node][symbol] == -1`` means dead.

    Every node accepts: a word is accepted iff its walk never dies, so the
    language is prefix-closed.  Batch methods send dead steps and symbols
    off the alphabet to a sink node.
    """

    alphabet_size: int
    step: np.ndarray           # shape (n_nodes, alphabet_size), dtype int64
    start: int = 0
    # step plus a sink row and an off-alphabet column, all to the sink
    moves: np.ndarray = field(init=False, repr=False)
    _suffix: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        n, m = self.step.shape
        self.moves = np.full((n + 1, m + 1), n, dtype=np.intp)
        self.moves[:n, :m] = np.where(self.step >= 0, self.step, n)

    @property
    def n_nodes(self) -> int:
        return self.step.shape[0]

    def _codes(self, rows) -> np.ndarray:
        """Rows as a 2-D int array, symbols off the alphabet set to ``alphabet_size``."""
        codes = np.asarray(rows)
        if codes.ndim != 2:
            raise ValueError("rows must form a 2-D array")
        m = self.alphabet_size
        codes = np.where((codes >= 0) & (codes < m), codes, m)
        return codes if codes.dtype.kind in "iu" else codes.astype(np.intp)

    def _ends(self, rows) -> np.ndarray:
        """The node every row ends on; the sink where it dies."""
        nodes = np.full(len(rows), self.start, dtype=np.intp)
        for col in self._codes(rows).T:
            nodes = self.moves[nodes, col]
        return nodes

    def walk(self, symbols) -> int:
        """The node a word ends on from the start; -1 if it dies."""
        end = int(self._ends([symbols])[0])
        return -1 if end == self.n_nodes else end

    def member_rows(self, rows) -> np.ndarray:
        """Bool vector: which rows are accepted words (end before the sink)."""
        return self._ends(rows) < self.n_nodes

    def _first_row(self) -> np.ndarray:
        """Suffix counts at length 0: 1 on every node, 0 on the sink."""
        return np.append(np.ones(self.n_nodes, dtype=np.int64), 0).astype(object)

    def _next_row(self, row) -> np.ndarray:
        """Suffix counts one symbol longer: each node sums its moves' counts."""
        return np.sum(row[self.moves[:, :-1]], axis=1)

    def suffix_counts(self, length: int) -> np.ndarray:
        """Object array ``f[t, node]`` of accepted suffix counts, t <= length
        at least, the sink last.  Kept in ``_suffix`` and replaced, never
        written in place, when a longer one is needed.  ``ParameterError``
        before building a table estimated (row t holds counts of at most
        t log2(alphabet) bits) above RANK_BIT_LIMIT."""
        table = self._suffix
        if table is None or len(table) <= length:
            bits = self.n_nodes * length * length * np.log2(self.alphabet_size) / 2
            if bits > RANK_BIT_LIMIT:
                raise ParameterError(
                    f"rank/unrank: suffix-count table of ~{bits:.3g} bits "
                    f"(n_nodes={self.n_nodes}, length={length}, alphabet="
                    f"{self.alphabet_size}) exceeds the {RANK_BIT_LIMIT:.3g}-bit limit")
            rows = list(table) if table is not None else [self._first_row()]
            while len(rows) <= length:
                rows.append(self._next_row(rows[-1]))
            table = self._suffix = np.array(rows)
        return table

    def _sweep_table(self, length: int) -> np.ndarray:
        """Suffix rows 0..length for a rank sweep at this length: int64 when
        every entry is below 2^63, else the object rows.  A sweep reads only
        entries bounded by the total count, so its sums stay in range."""
        rows = self.suffix_counts(length)[:length + 1]
        try:
            return rows.astype(np.int64)
        except OverflowError:
            return rows

    def count(self, length: int) -> int:
        """Exact number of accepted words of the given length, by one
        streamed DP vector, so large lengths stay affordable in memory."""
        if length < 0:
            raise ValueError("length must be >= 0")
        vec = self._first_row()
        for _ in range(length):
            vec = self._next_row(vec)
        return vec[self.start]

    def enumerate(self, length: int):
        """Yield accepted words of the given length in lex order, in blocks.

        Each block is a ``uint8`` array of shape ``(rows, length)`` with
        ``1 <= rows <= ENUM_BLOCK_ROWS`` (as long as that constant is at
        least the alphabet size); concatenated, the blocks list every
        accepted word exactly once.  Prefixes grow a whole frontier at a
        time; a frontier whose children would overflow a block is split
        in half and the halves are finished one after the other, so
        memory is bounded by the block size times the word length,
        whatever the word count.
        """
        if length < 0:
            raise ValueError("length must be >= 0")
        step = self.step
        pending = [(np.zeros((1, 0), dtype=np.uint8),
                    np.array([self.start], dtype=np.int64))]
        while pending:
            words, nodes = pending.pop()
            while words.shape[1] < length and len(nodes):
                nxt = step[nodes]
                live = nxt >= 0
                if len(nodes) > 1 and np.count_nonzero(live) > ENUM_BLOCK_ROWS:
                    half = len(nodes) // 2
                    pending.append((words[half:], nodes[half:]))
                    words, nodes = words[:half], nodes[:half]
                    continue
                rows, syms = np.nonzero(live)
                words = np.concatenate(
                    [words[rows], syms.astype(np.uint8)[:, None]], axis=1)
                nodes = nxt[rows, syms]
            if len(words):
                yield words

    def rank_rows(self, rows) -> np.ndarray:
        """Lex rank of every row among accepted words of its length (object
        ints): per column, ``f[rem, moves[node, b]]`` for each b below the
        row's symbol.  ``ValueError`` if a row reaches the sink."""
        codes = self._codes(rows)
        n_rows, length = codes.shape
        table = self._sweep_table(length)
        moves, sink = self.moves, self.n_nodes
        nodes = np.full(n_rows, self.start, dtype=np.intp)
        ranks = np.zeros(n_rows, dtype=table.dtype)
        for pos, col in enumerate(codes.T):
            counts = table[length - pos - 1]
            for b in range(self.alphabet_size - 1):
                ranks += counts[np.where(col > b, moves[nodes, b], sink)]
            nodes = moves[nodes, col]
        if (nodes == sink).any():
            raise ValueError("word not accepted by automaton")
        return ranks.astype(object, copy=False)

    def unrank_rows(self, length: int, ranks) -> np.ndarray:
        """Inverse of :meth:`rank_rows`: a ``(len(ranks), length)`` uint8
        array; ``ValueError`` if a rank is outside ``[0, count(length))``."""
        table = self._sweep_table(length)
        total = int(table[length, self.start])
        ranks = rank_vector(ranks, total).astype(table.dtype)
        nodes = np.full(len(ranks), self.start, dtype=np.intp)
        out = np.empty((len(ranks), length), dtype=np.uint8)
        for pos in range(length):
            counts = table[length - pos - 1]
            syms = np.zeros(len(ranks), dtype=np.intp)
            # a row passes symbol a, paying its count, while its rank allows
            for a in range(self.alphabet_size - 1):
                c = counts[self.moves[nodes, a]]
                past = (syms == a) & (ranks >= c)
                ranks = np.where(past, ranks - c, ranks)
                syms += past
            out[:, pos] = syms
            nodes = self.moves[nodes, syms]
        return out

    def rank(self, symbols) -> int:
        """Lexicographic rank of an accepted word among words of its length."""
        return self.rank_rows([symbols])[0]

    def unrank(self, length: int, r: int) -> tuple:
        """Inverse of :meth:`rank` for the given word length."""
        return tuple(self.unrank_rows(length, [r])[0].tolist())


def rank_vector(ranks, count: int) -> np.ndarray:
    """Ranks as an object vector; ``ValueError`` if one is not in [0, count)."""
    ranks = np.array(ranks, dtype=object).reshape(-1)
    if not ((ranks >= 0) & (ranks < count)).all():
        raise ValueError("rank out of range")
    return ranks


def product_dfa(a: Dfa, b: Dfa) -> Dfa:
    """Product automaton accepting the intersection language.

    Only reachable live pairs are materialized, in breadth-first order.
    """
    if a.alphabet_size != b.alphabet_size:
        raise ValueError("alphabet mismatch")
    index = {(a.start, b.start): 0}
    order = [(a.start, b.start)]
    rows = []
    for na, nb in order:            # order grows while it is read
        row = []
        for key in zip(a.step[na].tolist(), b.step[nb].tolist()):
            if min(key) >= 0 and key not in index:
                index[key] = len(order)
                order.append(key)
            row.append(index[key] if min(key) >= 0 else -1)
        rows.append(row)
    return Dfa(a.alphabet_size, np.array(rows, dtype=np.int64), start=0)


def avoider_dfa(alphabet_size: int, patterns) -> Dfa:
    """Aho-Corasick automaton for words containing none of the nonempty
    patterns: one breadth-first pass over their trie fills the step table.
    A missing child copies its failure node's step; a present child takes
    that step as its failure link and inherits its terminal mark.  Steps
    into terminal nodes die."""
    goto, terminal = [{}], [False]
    for pat in filter(len, patterns):
        node = 0
        for sym in pat:
            node = goto[node].setdefault(sym, len(goto))
            if node == len(goto):
                goto.append({})
                terminal.append(False)
        terminal[node] = True
    step = np.zeros((len(goto), alphabet_size), dtype=np.int64)
    fail, order = [0] * len(goto), [0]
    for node in order:              # order grows while it is read
        for sym in range(alphabet_size):
            nxt = step[fail[node], sym]     # 0 under the root: its row is unset
            child = goto[node].get(sym)
            if child is not None:
                fail[child], nxt = nxt, child
                terminal[child] |= terminal[fail[child]]
                order.append(child)
            step[node, sym] = nxt
    step[np.array(terminal)[step]] = -1
    return Dfa(alphabet_size, step)
