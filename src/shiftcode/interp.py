"""Constructive specification for mixing SFTs: splice planned orbit
segments, separated by sufficient gaps, into one admissible word.

A connector is a path through the SFT's factor automaton from the node
the left context's last k symbols reach to a node that can read the right
context's first k; bool reach rows prune a depth-first walk that yields
connectors in lex order.  Interpolation takes the least, memoised per Sft:
it checks all planned segments in one window pass, writes them into one
output array and fills the gaps between them left to right in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NoConnectorError
from .shiftspace import Sft, Word, specification_gap


@dataclass
class SegmentPlan:
    """Orbit segments to realize verbatim inside one admissible word.

    Segments are Words with absolute coordinates inside [lo, hi); gaps
    between consecutive segments (and to the range boundaries when
    ``constrain_boundaries`` is set) must be at least ``min_gap``, and no
    segment may exceed ``max_segment``.
    """

    lo: int
    hi: int
    segments: list = field(default_factory=list)
    min_gap: int = 1
    max_segment: int | None = None
    constrain_boundaries: bool = False

    def validate(self) -> None:
        """Sort the segments by start (stable) and check the plan; the
        error names the first failing segment in that order, and its
        first failing check in the order of ``checks``."""
        if self.hi <= self.lo:
            raise ValueError("empty or inverted range")
        segs = sorted(self.segments, key=lambda w: w.lo)
        lo = np.array([w.lo for w in segs], dtype=np.int64)
        n = np.array([len(w) for w in segs], dtype=np.int64)
        gap = lo - np.roll(lo + n, 1)       # from the previous segment's end
        later = np.arange(len(segs)) > 0
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
            w = segs[i]
            raise ValueError(checks[int(np.argmax(failing[:, i]))][0].format(
                lo=w.lo, hi=w.hi, n=len(w), max_segment=self.max_segment,
                gap=int(gap[i]), min_gap=self.min_gap))
        if self.constrain_boundaries and segs:
            if segs[0].lo - self.lo < self.min_gap or self.hi - segs[-1].hi < self.min_gap:
                raise ValueError("boundary gap below min_gap")
        self.segments = segs


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


def iter_connectors(sft: Sft, left, right, gap: int):
    """Yield every admissible connector of the exact length in lex order.

    Only the last k symbols of ``left`` and the first k of ``right``
    matter; ``ValueError`` if ``left`` has at least k symbols and its last
    k are not a state.
    """
    if gap < 0:
        raise ValueError("gap must be >= 0")
    dfa = sft.factor_dfa()
    tail = _context(sft, left, last=True)
    node = dfa.walk(tail)
    if node < 0 and len(tail) == sft.k:
        raise ValueError("left word has an inadmissible window")
    reach = _reach_rows(sft, _context(sft, right, last=False), gap)
    last = len(reach) - 1
    if node < 0 or not reach[min(gap, last)][node]:
        return
    moves, m = dfa._moves(), sft.alphabet_size
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


def connect_words(sft: Sft, left, right, gap: int) -> Word:
    """Lexicographically least word w of length ``gap`` with left w right
    admissible; guaranteed to exist when gap >= specification_gap(sft).
    Memoised per (last k symbols of ``left``, first k of ``right``, gap)."""
    key = (_context(sft, left, last=True).tobytes(),
           _context(sft, right, last=False).tobytes(), gap)
    w = sft._connectors.get(key)
    if w is None:
        w = next(iter_connectors(sft, left, right, gap), None)
        if w is None:
            raise NoConnectorError(
                f"no admissible connector of length {gap} between the given words")
        sft._connectors[key] = w
    return w


def interpolate(sft: Sft, plan: SegmentPlan) -> Word:
    """An admissible word over [lo, hi) agreeing with every planned segment.

    One :meth:`Sft.admissible_pieces` pass checks every segment; the
    segments are written into one output array, and the gaps are filled
    left to right with lexicographically least connectors.  A gap's left
    context is the last k symbols written before it, so segments shorter
    than the SFT memory are still spliced exactly; its memo key is read
    off the array, and only a miss goes to :func:`connect_words`.
    """
    plan.validate()
    if plan.min_gap < specification_gap(sft):
        raise ValueError("plan min_gap below the specification gap")
    k, segs = sft.k, plan.segments
    if segs:
        ok = sft.admissible_pieces(np.concatenate([w.symbols for w in segs]),
                                   [len(w) for w in segs])
        if not ok.all():
            raise ValueError(f"planned segment at {segs[int(np.argmin(ok))].lo} "
                             "is not admissible")
    out = np.empty(plan.hi - plan.lo, dtype=np.uint8)
    for w in segs:
        out[w.lo - plan.lo:w.hi - plan.lo] = w.symbols
    for a, b, w in filler_gaps(segs, plan.lo, plan.hi):
        tail = out[max(a - k, 0):a]
        head = out[:0] if w is None else w.symbols[:k]
        filler = sft._connectors.get((tail.tobytes(), head.tobytes(), b - a))
        if filler is None:
            filler = connect_words(sft, tail, head, b - a)
        out[a:b] = filler.symbols
    return Word(out, plan.lo)


def filler_gaps(segments, lo: int, hi: int):
    """Yield ``(a, b, right)`` for each non-empty gap [a, b) around sorted
    segments in [lo, hi), as offsets from lo, with the segment to its
    right (None for the last gap).  Only a gap at the range boundary can
    be empty; its zero-length connector always exists."""
    a = 0
    for w in list(segments) + [None]:
        b, c = (hi - lo,) * 2 if w is None else (w.lo - lo, w.hi - lo)
        if b > a:
            yield a, b, w
        a = c


def periodic_closure(sft: Sft, word: Word, gap: int | None = None) -> Word:
    """Connector w making word w word w ... a legal bi-infinite point.

    Finite words stand in for bi-infinite ones elsewhere; when a true
    point is needed (sampling utilities), repeat word + w periodically.
    """
    if len(word) == 0:
        raise ValueError("cannot close the empty word")
    g = specification_gap(sft) if gap is None else gap
    w = connect_words(sft, word, word, g)
    period = np.concatenate([word.symbols, w.symbols])
    assert sft.is_admissible(Word(np.tile(period, 3)))
    return w


def serialize_plan(plan: SegmentPlan) -> str:
    return "\n".join(f"seg {w.lo} {w.to_string()}" for w in plan.segments) + "\n"


def parse_plan(text: str, lo: int, hi: int, **kwargs) -> SegmentPlan:
    """Read ``seg <start> <word>`` lines into a plan (test fixtures)."""
    segments = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] != "seg" or len(parts) != 3:
            raise ValueError(f"cannot parse plan line {line!r}")
        segments.append(Word.from_string(parts[2], base=int(parts[1])))
    return SegmentPlan(lo=lo, hi=hi, segments=segments, **kwargs)
