"""Deterministic finite automata over small symbol alphabets.

Counting, lex enumeration, membership and rank/unrank (Cover's enumerative
coding) run over one prefix-closed DFA abstraction: an SFT's factor
language, a pattern avoider, their product, or a source's type-class
automaton (its boys, built in ``dictionary``).  Counts are exact Python
ints, in one suffix table per automaton (``Dfa._suffix``, the only cache),
read as int64 by a sweep where they fit.

Batch methods sweep a ``(B, L)`` array of words w symbols at a time.  Per
sweep, uncached, the suffix rows give a jump table (node, chunk code) ->
node and a lex-offset table (node, code) -> accepted words whose chunk is
lex-smaller: a chunk is one gather for a walk, one more and an add for a
rank, one ``searchsorted`` for an unrank.  w is the largest width with
(n_nodes + 1) m^w <= B, so no table outgrows the batch; where even w = 1
would (one-row calls, big automata), the tables are taken per row, w = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

# Most rows per block yielded by Dfa.enumerate; bounds its working memory.
# At 2^13 the exhaustive find_marker peaks near 1.5 MB (tracemalloc) at
# 8M = 16 and 2.9 MB at 8M = 24; 2^12 halves that but runs ~6% slower there.
ENUM_BLOCK_ROWS = 1 << 13

# Bits of the exact suffix-count table behind rank/unrank (~512 MiB of int
# digits; at the strict pack the girls' table would need ~1.3e11 bits).
RANK_BIT_LIMIT = 2 ** 32


@dataclass
class Dfa:
    """A DFA with integer nodes; ``step[node][symbol] == -1`` means dead.

    Node 0 is the start.  Every node accepts: a word is accepted iff its
    walk never dies, so the language is prefix-closed.  Batch methods send
    dead steps and symbols off the alphabet to a sink node.
    """

    alphabet_size: int
    step: np.ndarray           # shape (n_nodes, alphabet_size), dtype int64
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

    def _symbols(self, rows):
        """(symbols, off): rows as a 2-D integer array with symbols off the
        alphabet set to 0, and a bool vector of the rows that had one (None
        where no row had)."""
        sym = np.asarray(rows)
        if sym.ndim != 2:
            raise ValueError("rows must form a 2-D array")
        if sym.dtype.kind not in "iu":
            sym = sym.astype(np.intp)
        m = self.alphabet_size
        on = sym < m if sym.dtype.kind == "u" else (sym >= 0) & (sym < m)
        if on.all():
            return sym, None
        return np.where(on, sym, 0), ~on.all(axis=1)

    def _plan(self, n_rows: int, length: int):
        """(widths, by_row, jumps) of a sweep: its chunk widths, the first
        taking the length mod w symbols and the rest w (at most the length)
        each; whether its tables are indexed by row (see the module
        docstring); and ``jumps[c][node, code]``, the node (or the sink)
        that the c-symbol chunk with base-m code ``code`` leads to."""
        m, size, w = self.alphabet_size, self.n_nodes + 1, 0
        while w < length and size * m <= n_rows:
            size, w = size * m, w + 1
        by_row, w = w == 0, max(w, 1)
        jumps = [None, self.moves[:, :m]]
        while len(jumps) <= w:
            jumps.append(jumps[1].take(jumps[-1], axis=0)
                         .reshape(len(self.moves), -1))
        return [length % w] * (length % w > 0) + [w] * (length // w), by_row, jumps

    def _chunk_codes(self, sym: np.ndarray, widths: list):
        """Base-m code of each chunk of every row (first symbol most
        significant), one vector per chunk, in the narrowest unsigned
        dtype."""
        if max(widths, default=1) == 1:
            return sym.T
        m, (n_rows, length), w = self.alphabet_size, sym.shape, widths[-1]
        head, dtype = length % w, np.min_scalar_type(m ** w - 1)
        sym = sym.astype(np.min_scalar_type(m - 1), copy=False)
        groups = [sym[:, :head].reshape(n_rows, 1, head)] if head else []
        groups.append(sym[:, head:].reshape(n_rows, length // w, w))
        chunks = []
        for blocks in groups:
            codes = np.zeros(blocks.shape[1::-1], dtype=dtype)
            for j in range(blocks.shape[2]):
                codes *= m
                codes += blocks[:, :, j].T
            chunks.extend(codes)
        return chunks

    def _ends(self, rows) -> np.ndarray:
        """The node every row ends on; the sink where it dies."""
        sym, off = self._symbols(rows)
        widths, _, jumps = self._plan(*sym.shape)
        nodes = np.zeros(len(sym), dtype=np.intp)
        for c, codes in zip(widths, self._chunk_codes(sym, widths)):
            nodes = jumps[c][nodes, codes]
        return nodes if off is None else np.where(off, self.n_nodes, nodes)

    def walk(self, symbols) -> int:
        """The node a word ends on from the start; -1 if it dies or reads a
        symbol off the alphabet.  One step a symbol, for short words."""
        node, m = 0, self.alphabet_size
        for a in np.asarray(symbols).tolist():
            node = int(self.moves[node, a]) if 0 <= a < m else self.n_nodes
            if node == self.n_nodes:
                return -1
        return node

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
        return vec[0]

    def enumerate(self, length: int):
        """Yield accepted words of the given length in lex order, in blocks.

        Each block is a ``uint8`` array of shape ``(rows, length)`` with
        ``1 <= rows <= ENUM_BLOCK_ROWS`` (as long as that constant is at
        least the alphabet size); concatenated, the blocks list every
        accepted word exactly once.  Prefixes grow a whole frontier at a
        time; a frontier whose children would overflow a block is split
        in half, the second half copied aside (a view would pin the whole
        frontier), and the halves are finished one after the other, so
        memory is bounded by the block size times the word length per
        split, whatever the word count.
        """
        if length < 0:
            raise ValueError("length must be >= 0")
        step = self.step
        pending = [(np.zeros((1, 0), dtype=np.uint8),
                    np.zeros(1, dtype=np.int64))]
        while pending:
            words, nodes = pending.pop()
            while words.shape[1] < length and len(nodes):
                nxt = step[nodes]
                live = nxt >= 0
                if len(nodes) > 1 and np.count_nonzero(live) > ENUM_BLOCK_ROWS:
                    half = len(nodes) // 2
                    pending.append((words[half:].copy(), nodes[half:].copy()))
                    words, nodes = words[:half], nodes[:half]
                    continue
                rows, syms = np.nonzero(live)
                grown = np.empty((len(rows), words.shape[1] + 1), dtype=np.uint8)
                grown[:, :-1], grown[:, -1] = words.take(rows, axis=0), syms
                words, nodes = grown, nxt[rows, syms]
            if len(words):
                yield words

    def rank_sweep(self, rows):
        """(ranks, accepted): lex ranks among accepted words of the rows'
        length, in the sweep table's dtype and meaningless for a rejected
        row; per chunk, the lex offset of its code from the row's node."""
        sym, off = self._symbols(rows)
        n_rows, length = sym.shape
        table = self._sweep_table(length)
        widths, by_row, jumps = self._plan(n_rows, length)
        m = self.alphabet_size
        rows = np.arange(n_rows) * m
        nodes = np.zeros(n_rows, dtype=np.intp)
        ranks = np.zeros(n_rows, dtype=table.dtype)
        left = length
        for c, codes in zip(widths, self._chunk_codes(sym, widths)):
            left -= c
            jump = jumps[1].take(nodes, axis=0) if by_row else jumps[c]
            at = (rows if by_row else nodes * m ** c) + codes
            ranks += _below(table[left], jump).ravel()[at]
            nodes = jump.ravel()[at]
        accepted = nodes < self.n_nodes
        return ranks, accepted if off is None else accepted & ~off

    def rank_rows(self, rows) -> np.ndarray:
        """The ranks as Python ints; ``ValueError`` on a rejected row."""
        ranks, accepted = self.rank_sweep(rows)
        if not accepted.all():
            raise ValueError("word not accepted by automaton")
        return ranks.astype(object, copy=False)

    def unrank_rows(self, length: int, ranks) -> np.ndarray:
        """Inverse of :meth:`rank_rows`: a ``(len(ranks), length)`` uint8
        array; ``ValueError`` if a rank, checked in its own dtype, is outside
        ``[0, count(length))``.  Per chunk, each row takes the last code whose
        lex offset its rank reaches: by one ``searchsorted`` over the offsets
        of every node, each node's row shifted by the counts of the nodes
        before it so that the flat table is sorted, or by comparing in the row."""
        table = self._sweep_table(length)
        total = int(table[length, 0])
        ranks = rank_vector(ranks, total, table.dtype)
        n_rows, m = len(ranks), self.alphabet_size
        widths, by_row, jumps = self._plan(n_rows, length)
        digits = {c: _digits(m, c) for c in set(widths) - {1}}
        rows = np.arange(n_rows) * m
        nodes = np.zeros(n_rows, dtype=np.intp)
        out = np.empty((n_rows, length), dtype=np.uint8)
        left = length
        for c in widths:
            left -= c
            jump = jumps[1].take(nodes, axis=0) if by_row else jumps[c]
            below = _below(table[left], jump)
            if by_row:
                codes = (below[:, 1:] <= ranks[:, None]).sum(axis=1)
                at = rows + codes
            else:
                shift = _shifts(table[left + c])
                flat = (below + shift[:, None]).ravel()
                keys = ranks + shift[nodes]
                # sorted needles walk flat once, but sorting Python ints
                # costs more: the paper pack's 160-row girl unrank (CLI
                # verify; no bench workload has object keys) took 44.6 ms
                # as they come and 66.5 ms sorted
                if keys.dtype == object:
                    at = np.searchsorted(flat, keys, "right") - 1
                else:
                    order = keys.argsort()
                    at = np.empty(n_rows, dtype=np.intp)
                    at[order] = np.searchsorted(flat, keys[order], "right") - 1
                codes = at - nodes * m ** c
            ranks -= below.ravel()[at]
            nodes = jump.ravel()[at]
            out[:, length - left - c:length - left] = (
                codes[:, None] if c == 1
                else digits[c].take(codes).view(np.uint8).reshape(-1, c))
        return out

    def rank(self, symbols) -> int:
        """Lexicographic rank of an accepted word among words of its length."""
        return self.rank_rows([symbols])[0]

    def unrank(self, length: int, r: int) -> tuple:
        """Inverse of :meth:`rank` for the given word length."""
        return tuple(self.unrank_rows(length, [r])[0].tolist())


def _below(counts: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Lex offsets of one chunk: ``below[key, code]`` sums the suffix counts
    ``counts`` of the nodes ``targets[key, :code]`` that the chunks coded
    below ``code`` reach."""
    reach = counts[targets]
    below = np.zeros(reach.shape, dtype=reach.dtype)
    np.add.accumulate(reach[:, :-1], axis=1, out=below[:, 1:])
    return below


def _shifts(totals: np.ndarray) -> np.ndarray:
    """Exclusive running sums of the per-node counts ``totals`` (the sink's,
    0, last), int64 when their sum fits, else Python ints.  A float sum of
    nonnegative entries is off by far less than the margin to 2^63."""
    if totals.dtype == object or totals.sum(dtype=np.float64) >= 2.0 ** 62:
        totals = totals.astype(object)
    return np.cumsum(totals) - totals


def _digits(m: int, c: int) -> np.ndarray:
    """``_digits(m, c)[code]``: the c uint8 symbols of a base-m chunk code,
    as one c-byte item."""
    digits = np.stack(np.unravel_index(np.arange(m ** c), (m,) * c), axis=1)
    return digits.astype(np.uint8).view(f"V{c}").ravel()


def rank_vector(ranks, count: int, dtype=object) -> np.ndarray:
    """Ranks as a new ``dtype`` vector, checked in their own dtype (Python ints
    for an object ``dtype``); ``ValueError`` if one is not in [0, count)."""
    ranks = np.array(ranks, dtype=object if dtype == object else None).reshape(-1)
    if not ((ranks >= 0) & (ranks < count)).all():
        raise ValueError("rank out of range")
    return ranks.astype(dtype, copy=False)


def product_dfa(a: Dfa, b: Dfa) -> Dfa:
    """Product automaton accepting the intersection language.

    Only reachable live pairs are materialized, in breadth-first order.
    """
    if a.alphabet_size != b.alphabet_size:
        raise ValueError("alphabet mismatch")
    index = {(0, 0): 0}
    order = [(0, 0)]
    rows = []
    for na, nb in order:            # order grows while it is read
        row = []
        for key in zip(a.step[na].tolist(), b.step[nb].tolist()):
            if min(key) >= 0 and key not in index:
                index[key] = len(order)
                order.append(key)
            row.append(index[key] if min(key) >= 0 else -1)
        rows.append(row)
    return Dfa(a.alphabet_size, np.array(rows, dtype=np.int64))


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
