"""Constructive specification for mixing SFTs: splice planned orbit
segments, separated by sufficient gaps, into one admissible word.

A plan holds its segments as arrays: start and length per segment and
their symbols end to end.  A connector is a path through the SFT's
factor automaton from the node the left context's last k symbols reach
to a node that can read the right context's first k; bool reach rows,
exact per remaining length, say which symbols can still finish.  The
least connector takes the least such symbol at every step and never
backtracks: past the rows' fixed point that choice is a fixed map
node -> (symbol, next node), whose walk turns periodic within n_nodes
steps and is tiled.  :func:`iter_connectors` walks depth-first in lex
order for the later connectors.  Interpolation checks all planned
segments in one window pass, scatters them into one output array and
fills the gaps in dependency waves, with one memo lookup per distinct
gap key and one gather per wave.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConnectorError
from .shiftspace import Sft, Word, specification_gap, window_codes

KEY_BITS = 63   # gap keys pack into one int64 while they fit


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
    coordinates inside [lo, hi), and its symbols are the next lengths[i]
    entries of ``symbols``.  Gaps between consecutive segments (and to
    the range boundaries when ``constrain_boundaries`` is set) must be at
    least ``min_gap``, and no segment may exceed ``max_segment``.
    """

    lo: int
    hi: int
    starts: np.ndarray = ()
    lengths: np.ndarray = ()
    symbols: np.ndarray = ()
    min_gap: int = 1
    max_segment: int | None = None
    constrain_boundaries: bool = False

    def __post_init__(self):
        self.starts = np.asarray(self.starts, dtype=np.int64).reshape(-1)
        self.lengths = np.asarray(self.lengths, dtype=np.int64).reshape(-1)
        self.symbols = np.asarray(self.symbols, dtype=np.uint8).reshape(-1)
        if (len(self.lengths) != len(self.starts) or (self.lengths < 0).any()
                or self.lengths.sum() != len(self.symbols)):
            raise ValueError("a plan needs one length >= 0 per start, "
                             "summing to the number of symbols")

    @classmethod
    def from_words(cls, lo: int, hi: int, words=(), **options) -> "SegmentPlan":
        """The plan of Words placed at their own coordinates."""
        words = list(words)
        return cls(lo, hi, [w.lo for w in words], [len(w) for w in words],
                   np.concatenate([w.symbols for w in words]) if words else (),
                   **options)

    def validate(self) -> None:
        """Sort the segments by start (stable) and check the plan; the
        error names the first failing segment in that order, and its
        first failing check in the order of ``checks``."""
        if self.hi <= self.lo:
            raise ValueError("empty or inverted range")
        lo, n, sym = self.starts, self.lengths, self.symbols
        if (np.diff(lo) < 0).any():
            order = np.argsort(lo, kind="stable")
            sym = sym[spans((np.cumsum(n) - n)[order], n[order])]
            lo, n = lo[order], n[order]
        gap = lo - np.roll(lo + n, 1)       # from the previous segment's end
        later = np.arange(len(lo)) > 0
        checks = (
            ("segments must be non-empty", n == 0),
            ("segment [{lo}, {hi}) outside range",
             (lo < self.lo) | (lo + n > self.hi)),
            ("segment of length {n} exceeds {max_segment}",
             n > (np.inf if self.max_segment is None else self.max_segment)),
            ("segments overlap", later & (gap < 0)),
            ("gap {gap} below min_gap {min_gap}", later & (gap < self.min_gap)),
        )
        failing = np.array([fails for _, fails in checks])
        if failing.any():
            i = int(np.argmax(failing.any(axis=0)))
            raise ValueError(checks[int(np.argmax(failing[:, i]))][0].format(
                lo=int(lo[i]), hi=int(lo[i] + n[i]), n=int(n[i]),
                max_segment=self.max_segment, gap=int(gap[i]),
                min_gap=self.min_gap))
        if self.constrain_boundaries and len(lo):
            if lo[0] - self.lo < self.min_gap or self.hi - lo[-1] - n[-1] < self.min_gap:
                raise ValueError("boundary gap below min_gap")
        self.starts, self.lengths, self.symbols = lo, n, sym

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
    ``head`` is exactly t steps away.  Cached per head and grown up to
    ``length`` or the fixed point, so row t is ``reach[min(t, len - 1)]``."""
    moves = sft.factor_dfa()._moves()
    sink = len(moves) - 1
    rows = sft._reach.get(head.tobytes())
    if rows is None:
        ends = np.arange(sink + 1)
        for a in head:
            ends = moves[ends, a]
        rows = sft._reach[head.tobytes()] = [ends < sink]
    while len(rows) <= length:
        row = rows[-1][moves[:, :-1]].any(axis=1)
        if np.array_equal(row, rows[-1]):
            break
        rows.append(row)
    return rows


def _search_start(sft: Sft, tail: np.ndarray, head: np.ndarray, gap: int):
    """(the node a connector starts from, -1 if none exists; reach rows)."""
    if gap < 0:
        raise ValueError("gap must be >= 0")
    node = sft.factor_dfa().walk(tail)
    if node < 0 and len(tail) == sft.k:
        raise ValueError("left word has an inadmissible window")
    reach = _reach_rows(sft, head, gap)
    if node >= 0 and not reach[min(gap, len(reach) - 1)][node]:
        node = -1
    return node, reach


def iter_connectors(sft: Sft, left, right, gap: int):
    """Yield every admissible connector of the exact length in lex order.

    Only the last k symbols of ``left`` and the first k of ``right``
    matter; ``ValueError`` if ``left`` has at least k symbols and its last
    k are not a state.
    """
    node, reach = _search_start(sft, _context(sft, left, last=True),
                                _context(sft, right, last=False), gap)
    if node < 0:
        return
    last = len(reach) - 1
    moves, m = sft.factor_dfa()._moves(), sft.alphabet_size
    word = np.zeros(gap, dtype=np.uint8)
    path, a = [node], 0     # path[d]: the node word[:d] reaches; a: next symbol
    while path:
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


def _least_connector(sft: Sft, tail: np.ndarray, head: np.ndarray,
                     gap: int) -> np.ndarray:
    """The first connector :func:`iter_connectors` yields, by one walk.

    The reach rows are exact, so the least symbol that keeps the head
    reachable never leads to a dead end.  The first ``gap - last`` steps
    all read the fixed-point row ``reach[last]``: their choices form a map
    node -> (symbol, next node), cached per head, and its walk is tiled
    once a node repeats; the last steps go row by row.
    """
    node, reach = _search_start(sft, tail, head, gap)
    if node < 0:
        raise NoConnectorError(
            f"no admissible connector of length {gap} between the given words")
    moves = sft.factor_dfa()._moves()[:, :-1]
    last = len(reach) - 1
    periodic = max(gap - last, 0)
    word = np.empty(gap, dtype=np.uint8)
    if periodic:
        least = sft._least.get(head.tobytes())
        if least is None:
            sym = np.argmax(reach[last][moves], axis=1)
            least = sft._least[head.tobytes()] = (
                sym.astype(np.uint8), moves[np.arange(len(moves)), sym].tolist())
        sym, nxt = least
        path, seen = [], {}
        while node not in seen and len(path) < periodic:
            seen[node] = len(path)
            path.append(node)
            node = nxt[node]
        word[:len(path)] = sym[path]
        if len(path) < periodic:            # node repeats: tile its cycle
            c = seen[node]
            word[len(path):periodic] = np.resize(sym[path[c:]], periodic - len(path))
            node = path[c + (periodic - c) % (len(path) - c)]
    for d in range(periodic, gap):
        nxt = moves[node]
        a = int(np.argmax(reach[gap - d - 1][nxt]))
        word[d], node = a, nxt[a]
    return word


def connect_words(sft: Sft, left, right, gap: int) -> Word:
    """Lexicographically least word w of length ``gap`` with left w right
    admissible; guaranteed to exist when gap >= specification_gap(sft).
    Memoised per (last k symbols of ``left``, first k of ``right``, gap)."""
    tail, head = _context(sft, left, last=True), _context(sft, right, last=False)
    key = (tail.tobytes(), head.tobytes(), gap)
    w = sft._connectors.get(key)
    if w is None:
        w = sft._connectors[key] = Word(_least_connector(sft, tail, head, gap))
    return w


def interpolate(sft: Sft, plan: SegmentPlan) -> Word:
    """An admissible word over [lo, hi) agreeing with every planned segment.

    One :meth:`Sft.admissible_pieces` pass checks every segment, one
    index write puts them into the output array, and the gaps of
    :meth:`SegmentPlan.gaps` are filled with lexicographically least
    connectors.  A gap's left context is the last k symbols written
    before it, so segments shorter than the SFT memory are still spliced
    exactly: a gap whose left context runs into the filler before it
    (the segment between them is shorter than k and does not start at
    lo) waits for a later wave.  Each wave fills its gaps with
    :func:`_fill`.
    """
    plan.validate()
    if plan.min_gap < specification_gap(sft):
        raise ValueError("plan min_gap below the specification gap")
    k = sft.k
    starts, lengths = plan.starts - plan.lo, plan.lengths
    if len(starts):
        ok = sft.admissible_pieces(plan.symbols, lengths)
        if not ok.all():
            raise ValueError(f"planned segment at {plan.starts[int(np.argmin(ok))]} "
                             "is not admissible")
    out = np.empty(plan.hi - plan.lo, dtype=np.uint8)
    out[spans(starts, lengths)] = plan.symbols
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
    after it, its length) is coded with :func:`window_codes` as base-(m+1)
    digits, 0 for a missing symbol, and packed with the length into one
    int64 (keys past ``KEY_BITS`` are compared as rows); each distinct key
    is looked up once, and only a miss goes to :func:`connect_words`.  One
    gather writes every filler.
    """
    k, m = sft.k, sft.alphabet_size
    size = b - a
    cols = np.arange(k)
    tail = a[:, None] - k + cols
    after = b[:, None] + cols
    digits = np.concatenate([
        np.where(tail >= 0, out[np.maximum(tail, 0)].astype(np.int64) + 1, 0),
        np.where(cols < head[:, None],
                 out[np.minimum(after, len(out) - 1)].astype(np.int64) + 1, 0)],
        axis=1)
    radix = int(size.max()) + 1
    if (m + 1) ** (2 * k) * radix <= 2 ** KEY_BITS:
        key = window_codes(digits.T, 2 * k, m + 1)[0].astype(np.int64) * radix + size
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    else:
        _, first, inverse = np.unique(np.column_stack([digits, size]), axis=0,
                                      return_index=True, return_inverse=True)
    fillers = []
    for i in first.tolist():
        lo, hi = int(a[i]), int(b[i])
        left, right = out[max(lo - k, 0):lo], out[hi:hi + int(head[i])]
        w = sft._connectors.get((left.tobytes(), right.tobytes(), hi - lo))
        if w is None:
            w = connect_words(sft, left, right, hi - lo)
        fillers.append(w.symbols)
    offsets = (np.cumsum(size[first]) - size[first])[inverse.reshape(-1)]
    out[spans(a, size)] = np.concatenate(fillers)[spans(offsets, size)]
