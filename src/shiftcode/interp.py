"""Constructive specification for mixing SFTs: splice planned orbit
segments, separated by sufficient gaps, into one admissible word.

A connector is a path through the SFT's factor automaton from the node
the left context's last k symbols reach to a node that can read the right
context's first k; bool reach rows prune a depth-first walk that yields
connectors in lex order.  Interpolation takes the least, memoised per Sft.
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
        if self.hi <= self.lo:
            raise ValueError("empty or inverted range")
        segs = sorted(self.segments, key=lambda w: w.lo)
        prev_hi = None
        for w in segs:
            if len(w) == 0:
                raise ValueError("segments must be non-empty")
            if w.lo < self.lo or w.hi > self.hi:
                raise ValueError(f"segment [{w.lo}, {w.hi}) outside range")
            if self.max_segment is not None and len(w) > self.max_segment:
                raise ValueError(f"segment of length {len(w)} exceeds {self.max_segment}")
            if prev_hi is not None:
                gap = w.lo - prev_hi
                if gap < 0:
                    raise ValueError("segments overlap")
                if gap < self.min_gap:
                    raise ValueError(f"gap {gap} below min_gap {self.min_gap}")
            prev_hi = w.hi
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

    Gaps are filled left to right with lexicographically least connectors;
    the suffix of everything built so far is the left context, so segments
    shorter than the SFT memory are still spliced exactly.
    """
    plan.validate()
    if plan.min_gap < specification_gap(sft):
        raise ValueError("plan min_gap below the specification gap")
    k = sft.k
    pieces = []
    tail = np.zeros(0, dtype=np.uint8)  # the last k symbols emitted so far
    pos = plan.lo
    for seg in plan.segments:
        if not sft.is_admissible(seg):
            raise ValueError(f"planned segment at {seg.lo} is not admissible")
        filler = connect_words(sft, tail, seg, seg.lo - pos).symbols
        pieces += [filler, seg.symbols]
        tail = np.concatenate([tail, filler[-k:], seg.symbols[-k:]])[-k:]
        pos = seg.hi
    pieces.append(connect_words(sft, tail, None, plan.hi - pos).symbols)
    return Word(np.concatenate(pieces), plan.lo)


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
