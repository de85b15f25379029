"""Constructive specification for mixing SFTs: splice planned orbit
segments, separated by sufficient gaps, into one admissible word.

Connector search runs a per-gap DP over reachable state sets and always
returns the lexicographically least filler, so interpolation is
deterministic.
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


def _end_states(sft: Sft, left) -> set:
    """Possible state indices at the last coordinate of ``left``."""
    if left is None or len(left) == 0:
        return set(range(sft.n_states))
    sym = left.symbols if isinstance(left, Word) else np.asarray(left)
    ends = np.flatnonzero(sft.states_ending_in(sym[-sft.k:]))
    if len(sym) >= sft.k and len(ends) == 0:
        raise ValueError("left word has an inadmissible window")
    return set(ends.tolist())


def _entry_states(sft: Sft, right) -> set:
    """States from which ``right`` can be emitted symbol by symbol."""
    if right is None or len(right) == 0:
        return set(range(sft.n_states))
    sym = tuple(int(a) for a in (right.symbols if isinstance(right, Word) else right))
    head = sym[:min(len(sym), sft.k)]
    if any(not 0 <= a < sft.alphabet_size for a in head):
        return set()
    good = set()
    for i in range(sft.n_states):
        cur = i
        for a in head:
            cur = sft.step(cur, a)
            if cur < 0:
                break
        else:
            good.add(i)
    return good


def iter_connectors(sft: Sft, left, right, gap: int):
    """Yield every admissible connector of the exact length in lex order."""
    if gap < 0:
        raise ValueError("gap must be >= 0")
    # Every word is a connector in a full shift, so count in base m; the
    # general search below builds reach sets and recurses per symbol, and
    # made encode on the practical roundtrip about 2.6 times slower.
    if sft.is_full_shift():
        m = sft.alphabet_size
        for i in range(m ** gap):
            digits = np.zeros(gap, dtype=np.uint8)
            v = i
            for pos in range(gap - 1, -1, -1):
                digits[pos] = v % m
                v //= m
            yield Word(digits)
        return
    start = _end_states(sft, left)
    targets = _entry_states(sft, right)
    if not targets:
        return
    # reach[t] = states that can still reach `targets` in exactly t steps
    reach = [targets]
    for _ in range(gap):
        prev = reach[-1]
        reach.append({i for i in range(sft.n_states)
                      if any(sft.step(i, a) in prev for a in range(sft.alphabet_size))})
    if gap == 0:
        if start & targets:
            yield Word(np.zeros(0, dtype=np.uint8))
        return
    word = np.zeros(gap, dtype=np.uint8)

    def rec(cur: set, pos: int):
        rem = gap - pos - 1
        for a in range(sft.alphabet_size):
            nxt = {t for t in (sft.step(s, a) for s in cur) if t >= 0}
            nxt &= reach[rem]
            if nxt:
                word[pos] = a
                if pos + 1 == gap:
                    yield Word(word.copy())
                else:
                    yield from rec(nxt, pos + 1)

    yield from rec(start & reach[gap], 0)


def connect_words(sft: Sft, left, right, gap: int) -> Word:
    """Lexicographically least word w of length ``gap`` with left w right
    admissible; guaranteed to exist when gap >= specification_gap(sft)."""
    for w in iter_connectors(sft, left, right, gap):
        return w
    raise NoConnectorError(
        f"no admissible connector of length {gap} between the given words")


def interpolate(sft: Sft, plan: SegmentPlan) -> Word:
    """An admissible word over [lo, hi) agreeing with every planned segment.

    Gaps are filled left to right with lexicographically least connectors;
    the suffix of everything built so far is the left context, so segments
    shorter than the SFT memory are still spliced exactly.
    """
    plan.validate()
    if plan.min_gap < specification_gap(sft):
        raise ValueError("plan min_gap below the specification gap")
    pieces = []
    built_suffix = None  # Word holding the last k symbols emitted so far
    pos = plan.lo
    k = sft.k

    def emit(arr: np.ndarray):
        nonlocal built_suffix, pos
        if len(arr) == 0:
            return
        pieces.append(arr)
        pos += len(arr)
        tail = arr if built_suffix is None else np.concatenate([built_suffix.symbols, arr])
        built_suffix = Word(tail[-k:].copy())

    for seg in plan.segments:
        gap = seg.lo - pos
        if not sft.is_admissible(seg):
            raise ValueError(f"planned segment at {seg.lo} is not admissible")
        filler = connect_words(sft, built_suffix, seg, gap)
        emit(filler.symbols)
        emit(seg.symbols)
    tail_gap = plan.hi - pos
    filler = connect_words(sft, built_suffix, None, tail_gap)
    emit(filler.symbols)
    out = np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.uint8)
    return Word(out, plan.lo)


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
