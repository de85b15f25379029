"""Deterministic finite automata over small symbol alphabets.

Counting, lexicographic enumeration, and rank/unrank all run over the same
DFA abstraction: the factor language of an SFT, an Aho-Corasick pattern
avoider, or a product of the two.  Counts are exact Python integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Most rows per block yielded by Dfa.enumerate; bounds its working memory.
ENUM_BLOCK_ROWS = 1 << 16


@dataclass
class Dfa:
    """A DFA with integer nodes; ``step[node][symbol] == -1`` means dead.

    Every live node is accepting; the language is prefix-closed, which is
    all the package needs (factor languages and avoidance languages).
    """

    alphabet_size: int
    step: np.ndarray           # shape (n_nodes, alphabet_size), dtype int64
    start: int = 0
    _tables: dict = field(default_factory=dict, repr=False)

    @property
    def n_nodes(self) -> int:
        return self.step.shape[0]

    def walk(self, symbols, node: int | None = None) -> int:
        """Consume ``symbols`` from ``node`` (default start); -1 if dead."""
        cur = self.start if node is None else node
        step = self.step
        for a in symbols:
            cur = step[cur][a]
            if cur < 0:
                return -1
        return int(cur)

    def suffix_counts(self, length: int) -> list[list[int]]:
        """Table ``f[t][node]`` = number of accepted suffixes of length t.

        Cached per automaton; extended on demand.  Entries are exact big
        integers, so memory grows with ``length * n_nodes * count_bits``.
        """
        table = self._tables.setdefault("suffix", [[1] * self.n_nodes])
        step = self.step
        while len(table) <= length:
            prev = table[-1]
            row = []
            for node in range(self.n_nodes):
                total = 0
                for nxt in step[node]:
                    if nxt >= 0:
                        total += prev[nxt]
                row.append(total)
            table.append(row)
        return table

    def count(self, length: int) -> int:
        """Exact number of accepted words of the given length.

        Streams a single DP vector instead of keeping the full table, so
        large lengths stay affordable in memory.
        """
        if length < 0:
            raise ValueError("length must be >= 0")
        cached = self._tables.get("suffix")
        if cached is not None and len(cached) > length:
            return cached[length][self.start]
        # backward vector: vec[node] = number of suffixes of length t
        vec = [1] * self.n_nodes
        step = self.step
        succ = [[int(s) for s in row if s >= 0] for row in step]
        for _ in range(length):
            vec = [sum(vec[s] for s in succ[node]) for node in range(self.n_nodes)]
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
            if len(nodes):
                yield words

    def rank(self, symbols) -> int:
        """Lexicographic rank of an accepted word among words of its length."""
        n = len(symbols)
        table = self.suffix_counts(n)
        node = self.start
        r = 0
        for pos, a in enumerate(symbols):
            rem = n - pos - 1
            for b in range(a):
                nxt = self.step[node][b]
                if nxt >= 0:
                    r += table[rem][nxt]
            node = self.step[node][a]
            if node < 0:
                raise ValueError("word not accepted by automaton")
        return r

    def unrank(self, length: int, r: int) -> tuple:
        """Inverse of :meth:`rank` for the given word length."""
        if r < 0:
            raise ValueError("rank must be >= 0")
        table = self.suffix_counts(length)
        if r >= table[length][self.start]:
            raise ValueError("rank exceeds word count")
        node = self.start
        out = []
        for pos in range(length):
            rem = length - pos - 1
            for a in range(self.alphabet_size):
                nxt = self.step[node][a]
                if nxt < 0:
                    continue
                c = table[rem][nxt]
                if r < c:
                    out.append(a)
                    node = nxt
                    break
                r -= c
            else:
                raise AssertionError("unrank walked off the automaton")
        return tuple(out)


def product_dfa(a: Dfa, b: Dfa) -> Dfa:
    """Product automaton accepting the intersection language.

    Only reachable live pairs are materialized.
    """
    if a.alphabet_size != b.alphabet_size:
        raise ValueError("alphabet mismatch")
    m = a.alphabet_size
    index = {(a.start, b.start): 0}
    order = [(a.start, b.start)]
    rows = []
    i = 0
    while i < len(order):
        na, nb = order[i]
        row = []
        for sym in range(m):
            ta = a.step[na][sym]
            tb = b.step[nb][sym]
            if ta < 0 or tb < 0:
                row.append(-1)
                continue
            key = (int(ta), int(tb))
            if key not in index:
                index[key] = len(order)
                order.append(key)
            row.append(index[key])
        rows.append(row)
        i += 1
    return Dfa(m, np.array(rows, dtype=np.int64), start=0)


def avoider_dfa(alphabet_size: int, patterns) -> Dfa:
    """Aho-Corasick automaton for words containing none of the patterns."""
    patterns = [tuple(p) for p in patterns if len(p) > 0]
    goto = [{}]
    fail = [0]
    terminal = [False]
    for pat in patterns:
        node = 0
        for sym in pat:
            node = goto[node].setdefault(sym, len(goto))
            if node == len(fail):
                goto.append({})
                fail.append(0)
                terminal.append(False)
        terminal[node] = True
    # BFS failure links; depth-1 nodes keep fail 0
    from collections import deque
    queue = deque(goto[0].values())
    while queue:
        node = queue.popleft()
        for sym, child in goto[node].items():
            f = fail[node]
            while f and sym not in goto[f]:
                f = fail[f]
            fail[child] = goto[f].get(sym, 0)
            terminal[child] = terminal[child] or terminal[fail[child]]
            queue.append(child)
    n = len(goto)
    step = np.full((n, alphabet_size), -1, dtype=np.int64)
    for node in range(n):
        for sym in range(alphabet_size):
            cur = node
            while cur and sym not in goto[cur]:
                cur = fail[cur]
            nxt = goto[cur].get(sym, 0)
            step[node][sym] = -1 if terminal[nxt] else nxt
    return Dfa(alphabet_size, step, start=0)
