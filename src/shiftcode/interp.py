"""Constructive specification for mixing SFTs: splice planned orbit
segments, separated by sufficient gaps, into one admissible word.

A plan holds its segments as arrays: start and length per segment, and
the symbols of its range, each segment's at its own coordinates.  A
connector is a path through the SFT's factor automaton from the node the
left context's last k symbols reach to a node that can read the right
context's first k; bool reach rows, exact per remaining length, say
which symbols can still finish.  :func:`iter_connectors` is the one
search, depth-first in lex order.  Its first descent, the least
connector, takes the least such symbol at every step and never
backtracks: past the rows' fixed point that choice is a fixed map
node -> (symbol, next node), whose walk turns periodic within n_nodes
steps and is tiled.  Interpolation copies the plan's symbols, checks every
segment in one window pass and fills the gaps in dependency waves, with
one memo lookup per distinct gap key and one gather per wave.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConnectorError
from .shiftspace import CHUNK, Sft, Word, specification_gap


def spans(starts, lengths) -> np.ndarray:
    """The index ranges [starts[i], starts[i] + lengths[i]), end to end,
    summed from their steps in place (one int64 array)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)[lengths > 0]
    lengths = lengths[lengths > 0]
    idx = np.ones(int(lengths.sum()), dtype=np.int64)
    if len(idx):
        idx[0] = starts[0]
        idx[np.cumsum(lengths[:-1])] = starts[1:] - starts[:-1] - lengths[:-1] + 1
        np.cumsum(idx, out=idx)
    return idx


@dataclass
class SegmentPlan:
    """Orbit segments to realize verbatim inside one admissible word.

    Segment i covers [starts[i], starts[i] + lengths[i]) in absolute
    coordinates inside [lo, hi).  ``symbols`` holds the hi - lo symbols
    of [lo, hi), each segment's at its own coordinates; entries outside
    the segments are ignored.  Gaps between segments are >= ``min_gap``.
    """

    lo: int
    hi: int
    starts: np.ndarray
    lengths: np.ndarray
    symbols: np.ndarray
    min_gap: int = 1

    def __post_init__(self):
        self.starts = np.asarray(self.starts, dtype=np.int64).reshape(-1)
        self.lengths = np.asarray(self.lengths, dtype=np.int64).reshape(-1)
        self.symbols = np.asarray(self.symbols, dtype=np.uint8).reshape(-1)
        if len(self.lengths) != len(self.starts) or (self.lengths < 0).any():
            raise ValueError("a plan needs one length >= 0 per start")
        size = max(self.hi - self.lo, 0)        # an inverted range has none
        if len(self.symbols) != size:
            raise ValueError(f"a plan over [{self.lo}, {self.hi}) needs {size} "
                             f"symbols, got {len(self.symbols)}")

    def validate(self) -> None:
        """Sort the segments by start (stable) and check the plan; the
        error names the first failing segment in that order, and its
        first failing check in the order of ``checks``."""
        if self.hi <= self.lo:
            raise ValueError("empty or inverted range")
        order = np.argsort(self.starts, kind="stable")
        lo, n = self.starts[order], self.lengths[order]
        gap = lo - np.roll(lo + n, 1)       # from the previous segment's end
        later = np.arange(len(lo)) > 0
        checks = (
            ("segments must be non-empty", n == 0),
            ("segment [{lo}, {hi}) outside range",
             (lo < self.lo) | (lo + n > self.hi)),
            ("segments overlap", later & (gap < 0)),
            ("gap {gap} below min_gap {min_gap}", later & (gap < self.min_gap)),
        )
        failing = np.array([fails for _, fails in checks])
        if failing.any():
            i = int(np.argmax(failing.any(axis=0)))
            raise ValueError(checks[int(np.argmax(failing[:, i]))][0].format(
                lo=int(lo[i]), hi=int(lo[i] + n[i]), gap=int(gap[i]),
                min_gap=self.min_gap))
        self.starts, self.lengths = lo, n

    def gaps(self, k: int):
        """``(a, b, right, head)``: the non-empty gaps [a, b) around the
        sorted segments, as offsets from lo, with the index of the segment
        to each gap's right (the segment count for the gap ending at hi)
        and how many of that segment's first symbols, at most k, are a
        connector's right context (none after hi).  Only a gap at the
        range boundary can be empty."""
        a = np.append(0, self.starts + self.lengths - self.lo)
        b = np.append(self.starts - self.lo, self.hi - self.lo)
        right = np.flatnonzero(b > a)
        head = np.minimum(np.append(self.lengths, 0), k)[right]
        return a[right], b[right], right, head


def _context(sft: Sft, word, last: bool) -> np.ndarray:
    """The last (or first) k symbols of a context word as uint8, every
    symbol off the alphabet replaced by the alphabet size; empty for None."""
    if word is None:
        return np.zeros(0, dtype=np.uint8)
    sym = np.asarray(word.symbols if isinstance(word, Word) else word)
    sym = sym[-sft.k:] if last else sym[:sft.k]
    m = sft.alphabet_size
    if sym.dtype != np.uint8:   # no symbol may wrap round into the alphabet
        sym = np.where((sym >= 0) & (sym < m), sym, m).astype(np.uint8)
    return np.minimum(sym, m, dtype=np.uint8)


def _reach_rows(sft: Sft, head: np.ndarray, length: int) -> list:
    """Bool rows ``reach[t][node]`` (sink last): a node that can read
    ``head`` is exactly t steps away.  Grown up to ``length`` or the fixed
    point, so row t is ``reach[min(t, len - 1)]``."""
    moves = sft.factor_dfa().moves
    ends = np.arange(len(moves))
    for a in head:
        ends = moves[ends, a]
    rows = [ends < len(moves) - 1]
    while len(rows) <= length:
        row = rows[-1][moves[:, :-1]].any(axis=1)
        if np.array_equal(row, rows[-1]):
            break
        rows.append(row)
    return rows


def iter_connectors(sft: Sft, left, right, gap: int):
    """Yield every admissible connector of the exact length in lex order.

    Only the last k symbols of ``left`` and the first k of ``right``
    matter; ``ValueError`` if ``left`` has at least k symbols and its last
    k are not a state.  The reach rows are exact, so the first descent
    never meets a dead end.  Its first ``gap - last`` steps all read the
    fixed-point row ``reach[last]`` and follow its least-symbol map, tiled
    once a node repeats.  The depth-first loop takes the descent on from
    there, row by row, and later connectors backtrack from its leaf.
    """
    if gap < 0:
        raise ValueError("gap must be >= 0")
    dfa, m = sft.factor_dfa(), sft.alphabet_size
    moves, tail = dfa.moves, _context(sft, left, last=True)
    node = dfa.walk(tail)
    if node < 0:        # a dead tail reaches nothing
        if len(tail) == sft.k:
            raise ValueError("left word has an inadmissible window")
        return
    reach = _reach_rows(sft, _context(sft, right, last=False), gap)
    last = len(reach) - 1
    if not reach[min(gap, last)][node]:
        return
    periodic = max(gap - last, 0)
    word = np.empty(gap, dtype=np.uint8)
    path, a = [node], 0     # path[d]: the node word[:d] reaches
    if periodic:
        sym = np.argmax(reach[last][moves], axis=1)
        nxt = moves[np.arange(len(moves)), sym].tolist()
        seen = {}
        while node not in seen and len(seen) <= periodic:
            seen[node] = len(seen)
            node = nxt[node]
        c = seen.get(node, 0)       # the cycle's first index (0: no repeat)
        at = np.arange(periodic + 1)
        at[c:] = c + (at[c:] - c) % (len(seen) - c)
        nodes = np.array(list(seen))[at]
        word[:periodic] = sym[nodes[:-1]]
        path = nodes.tolist()
    while path:             # a: the next symbol to try at this depth
        depth = len(path) - 1
        if depth < gap:
            row, nxt = reach[min(gap - depth - 1, last)], moves[path[-1]]
            while a < m and not row[nxt[a]]:
                a += 1
            if a < m:
                word[depth] = a
                path.append(nxt[a])
                a = 0
                continue
        else:
            yield Word(word.copy())
        path.pop()
        a = int(word[depth - 1]) + 1 if depth else m


def connect_words(sft: Sft, left, right, gap: int) -> Word:
    """Lexicographically least word w of length ``gap`` with left w right
    admissible; guaranteed to exist when gap >= specification_gap(sft).
    Memoised per (last k symbols of ``left``, first k of ``right``, gap)."""
    tail, head = _context(sft, left, last=True), _context(sft, right, last=False)
    key = (tail.tobytes(), head.tobytes(), gap)
    w = sft._connectors.get(key)
    if w is None:
        w = next(iter_connectors(sft, tail, head, gap), None)
        if w is None:
            raise NoConnectorError(
                f"no admissible connector of length {gap} between the given words")
        sft._connectors[key] = w
    return w


def interpolate(sft: Sft, plan: SegmentPlan) -> Word:
    """An admissible word over [lo, hi) agreeing with every planned segment.

    One :meth:`Sft.admissible_pieces` pass over the plan's symbols, cut
    into gap, segment, ..., segment, gap, checks every segment (the odd
    pieces); the gaps of :meth:`SegmentPlan.gaps` in a copy of the
    symbols are then filled with lexicographically least connectors.  A
    gap's left context is the last k symbols written before it, so
    segments shorter than the SFT memory are still spliced exactly: a
    gap whose left context runs into the filler before it (the segment
    between them is shorter than k and does not start at lo) waits for a
    later wave.  Each wave fills its gaps with :func:`_fill`.
    """
    plan.validate()
    if plan.min_gap < specification_gap(sft):
        raise ValueError("plan min_gap below the specification gap")
    k = sft.k
    starts, lengths = plan.starts - plan.lo, plan.lengths
    out = plan.symbols.copy()
    pieces = np.diff(np.column_stack([starts, starts + lengths]).ravel(),
                     prepend=0, append=len(out))
    ok = sft.admissible_pieces(out, pieces)[1::2]
    if not ok.all():
        raise ValueError(f"planned segment at {plan.starts[int(np.argmin(ok))]} "
                         "is not admissible")
    a, b, right, head = plan.gaps(k)
    short = np.append((lengths < k) & (starts > 0), False)
    waits = short[right - 1]        # the gap starting at lo reads the False
    at = np.arange(len(a))
    wave = at - np.maximum.accumulate(np.where(waits, 0, at))
    for w in range(int(wave.max(initial=-1)) + 1):
        sel = wave == w
        _fill(sft, out, a[sel], b[sel], head[sel])
    return Word(out, plan.lo)


def _fill(sft: Sft, out: np.ndarray, a, b, head) -> None:
    """Write the least connector into every gap [a, b) of ``out``, whose
    left contexts and first ``head`` symbols after it are written.

    A gap's memo key (last k symbols before it, the ``head`` symbols
    after it, its length) is one int64 row: the symbols as digits 1..m,
    0 for a missing one, then the length.  One ``lexsort`` of the columns
    finds the distinct rows, each is looked up once, and only a miss goes
    to :func:`connect_words`.  One gather writes the fillers of each run
    of gaps that ends within ``CHUNK`` coordinates of the run's first gap
    (a longer gap alone).
    """
    k = sft.k
    size = b - a
    cols = np.arange(k)
    tail = a[:, None] - k + cols
    after = b[:, None] + cols
    key = np.concatenate([
        np.where(tail >= 0, out[np.maximum(tail, 0)].astype(np.int64) + 1, 0),
        np.where(cols < head[:, None],
                 out[np.minimum(after, len(out) - 1)].astype(np.int64) + 1, 0),
        size[:, None]], axis=1)
    order = np.lexsort(key.T)
    new = np.append(True, np.diff(key[order], axis=0).any(axis=1))
    first, inverse = order[new], np.empty_like(order)
    inverse[order] = np.cumsum(new) - 1
    fillers = []
    for i in first.tolist():
        lo, hi = int(a[i]), int(b[i])
        left, right = out[max(lo - k, 0):lo], out[hi:hi + int(head[i])]
        w = sft._connectors.get((left.tobytes(), right.tobytes(), hi - lo))
        if w is None:
            w = connect_words(sft, left, right, hi - lo)
        fillers.append(w.symbols)
    pool = np.concatenate(fillers)
    offsets = (np.cumsum(size[first]) - size[first])[inverse]
    i = 0
    while i < len(a):
        j = max(int(b.searchsorted(a[i] + CHUNK, "right")), i + 1)
        out[spans(a[i:j], size[i:j])] = pool[spans(offsets[i:j], size[i:j])]
        i = j
