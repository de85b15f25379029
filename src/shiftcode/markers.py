"""Marker words and offset recovery: the synchronization layer.

A marker is a word of length 8M whose length-2M windows at offsets
0..6M-1 all differ from its window at offset 6M, and whose first and
last-quarter windows are rare under the target measure.  In the exact
regime, window comparisons are plain symbol equality.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .errors import (CoverageError, MarkerSearchError, NoMarkerExistsError,
                     ParameterError, ShiftcodeError)
from .measures import MarkovMeasure
from .shiftspace import (Sft, Word, ascii_text, occurrences, specification_gap,
                         window_codes)

EXHAUSTIVE_BITS = 24


@dataclass(frozen=True)
class MarkerScheme:
    """A found marker with its detection windows and achieved bounds."""

    word: Word
    M: int
    alpha: float
    nu_h1: float
    nu_h2: float

    @property
    def h1_window(self) -> Word:
        return Word(self.word.symbols[:2 * self.M])

    @property
    def h2_window(self) -> Word:
        return Word(self.word.symbols[6 * self.M:8 * self.M])

    def serialize(self) -> str:
        return f"M={self.M} alpha={self.alpha!r} word={self.word.to_string()}"

    @classmethod
    def parse(cls, line: str, nu: MarkovMeasure) -> "MarkerScheme":
        """The scheme of a :meth:`serialize` line, checked as a marker of
        ``nu.sft``; a ``ValueError`` names a missing, unknown, repeated or
        malformed field, a word not 8M long, or the check the word fails."""
        kinds = {"word": Word.from_string, "M": int, "alpha": float}
        fields: dict = {}
        for part in line.split():
            key, eq, text = part.partition("=")
            if eq and key not in kinds:
                raise ValueError(f"field {part} is unknown")
            if key in fields:
                raise ValueError(f"repeats the key {key}")
            try:
                value = kinds[key](ascii_text(text)) if eq else None
                if value is None or key != "word" and not value > 0:
                    raise ValueError
            except ValueError:
                raise ValueError(f"field {part} is malformed") from None
            fields[key] = value
        missing = [key for key in kinds if key not in fields]
        if missing:
            raise ValueError(f"has no {missing[0]} field")
        word, M, alpha = (fields[key] for key in kinds)
        if len(word) != 8 * M:     # first: check_scheme needs 8M symbols
            raise ValueError(f"word has {len(word)} symbols, not 8M = {8 * M}")
        viol, nu1, nu2, ok = check_scheme(nu.sft, nu, word, M, alpha)
        if not ok:
            why = (f"{viol} of its windows at offsets 0 to 6M-1 equal the one at 6M"
                   if viol else f"nu(H1) = {nu1:.6g} is not below alpha/M"
                   if nu1 >= alpha / M else f"nu(H2) = {nu2:.6g} is not below alpha/M"
                   if nu2 >= alpha / M else "it is not admissible in the target SFT")
            raise ValueError(f"word {word.to_string()} is not a marker: {why}")
        return cls(word, M, alpha, nu1, nu2)


def check_scheme(sft: Sft, nu: MarkovMeasure, word: Word, M: int, alpha: float):
    """(violations, nu_h1, nu_h2, ok) for a candidate marker word.

    violations counts the offsets i in [0, 6M) whose 2M-window equals the
    window at offset 6M.
    """
    sym = word.symbols
    windows = np.lib.stride_tricks.sliding_window_view(sym, 2 * M)[:6 * M]
    viol = int(np.sum(np.all(windows == sym[6 * M:8 * M], axis=1)))
    nu_h1 = nu.cylinder_probability(Word(sym[:2 * M]))
    nu_h2 = nu.cylinder_probability(Word(sym[6 * M:8 * M]))
    ok = (viol == 0 and nu_h1 < alpha / M and nu_h2 < alpha / M
          and sft.is_admissible(word))
    return viol, nu_h1, nu_h2, ok


def find_marker(sft: Sft, nu: MarkovMeasure, M: int, alpha: float,
                budget: int = 20000, seed: int = 0) -> MarkerScheme:
    """Search for a valid marker word of length 8M.

    Exhaustive when the candidate space is at most 2^24 words: every
    admissible word is checked, one lex-ordered block of candidates at a
    time (see :meth:`Dfa.enumerate`), and the valid word with the shortest
    longest constant run wins, ties going to the first in lex order, so
    fillers are unlikely to reproduce the marker by accident.  Working
    memory is a few blocks, a 2.9 MB tracemalloc peak at 8M = 24,
    whatever the number of candidates.  Otherwise seeded random restarts
    with single-symbol hill climbing on the count of violated offsets, at
    most ``budget`` (>= 1) candidates checked: each restart unranks one
    uniform draw from the admissible words, and hill climbing draws
    nothing.
    """
    if M < 1:
        raise ParameterError("M must be >= 1")
    if alpha <= 0:
        raise ParameterError("alpha must be positive")
    if budget < 1:
        raise ParameterError(f"budget must be >= 1, got {budget}")
    specification_gap(sft)  # raises NotMixingError when not primitive
    n = 8 * M
    dfa = sft.factor_dfa()
    bits = n * np.log2(max(sft.alphabet_size, 2))

    if bits <= EXHAUSTIVE_BITS:
        return _exhaustive_marker(sft, nu, M, alpha)

    total = dfa.count(n)
    if total == 0:
        raise NoMarkerExistsError("no admissible word of marker length")
    rng = random.Random(seed)
    evals = 0
    best = None  # (violations, word, nu1, nu2)
    while evals < budget:
        word = Word(dfa.unrank_rows(n, [rng.randrange(total)])[0])
        viol, nu1, nu2, ok = check_scheme(sft, nu, word, M, alpha)
        evals += 1
        if best is None or viol < best[0]:
            best = (viol, word, nu1, nu2)
        if ok:
            return MarkerScheme(word, M, alpha, nu1, nu2)
        # hill climb: flips in (position, symbol) order, an inadmissible
        # one skipped uncounted; the first that lowers the violations is
        # taken and the pass starts over, a pass without one ends it
        m, i = sft.alphabet_size, 0
        while i < n * m and evals < budget:
            pos, a = divmod(i, m)
            i += 1
            if word.symbols[pos] == a:
                continue
            sym = word.symbols.copy()
            sym[pos] = a
            cand = Word(sym)
            if not sft.is_admissible(cand):
                continue
            v2, n1, n2, ok2 = check_scheme(sft, nu, cand, M, alpha)
            evals += 1
            if ok2:
                return MarkerScheme(cand, M, alpha, n1, n2)
            if v2 < viol:
                word, viol, i = cand, v2, 0
                if viol < best[0]:
                    best = (viol, word, n1, n2)
    raise MarkerSearchError(
        f"budget {budget} exhausted; best candidate has {best[0]} violated "
        f"offsets (word {best[1].to_string()})", best=best)


def _exhaustive_marker(sft: Sft, nu: MarkovMeasure, M: int,
                       alpha: float) -> MarkerScheme:
    """The exhaustive branch of :func:`find_marker`, in bulk per block.

    A block's candidates are its columns after transposing, and
    :func:`window_codes` codes their 6M + 1 windows of length 2M as
    base-m integers (uint8 here, since m^(2M) <= 2^(EXHAUSTIVE_BITS / 4)
    = 64), so violations are equal codes.  A window's mass is the same
    wherever it sits: one table, ``nu.cylinder_probability`` per code in
    lex order, serves both windows, bit-identical to :func:`check_scheme`.
    """
    m = sft.alphabet_size
    width = 2 * M
    limit = alpha / M
    mass = np.array([nu.cylinder_probability(Word(np.array(w, dtype=np.uint8)))
                     for w in itertools.product(range(m), repeat=width)])
    any_distinguishing = False
    best = None  # (longest run, word, nu_h1, nu_h2)
    for block in sft.factor_dfa().enumerate(8 * M):
        cols = np.ascontiguousarray(block.T)
        codes = window_codes(cols, width, m)
        distinct = ~(codes[:6 * M] == codes[6 * M]).any(axis=0)
        if not distinct.any():
            continue
        any_distinguishing = True
        nu1, nu2 = mass.take(codes[0]), mass.take(codes[6 * M])
        ok = np.flatnonzero(distinct & (nu1 < limit) & (nu2 < limit))
        if len(ok) == 0:
            continue
        cand = cols[:, ok]
        run = longest = np.ones(len(ok), dtype=np.uint8)
        for j in range(1, 8 * M):
            run = np.where(cand[j] == cand[j - 1], run + 1, 1)
            longest = np.maximum(longest, run)
        i = int(np.argmin(longest))
        if best is None or longest[i] < best[0]:
            best = (longest[i], block[ok[i]].copy(), float(nu1[ok[i]]),
                    float(nu2[ok[i]]))
    if best is not None:
        return MarkerScheme(Word(best[1]), M, alpha, best[2], best[3])
    if not any_distinguishing:
        raise NoMarkerExistsError(
            "every length-2M window coincides with the 6M-offset window: "
            "no marker exists")
    raise MarkerSearchError(
        f"no marker meets nu(H) < alpha/M = {alpha / M:.3g}; "
        "alpha too small for this M", best=None)


def locate_offset(w: Word, scheme: MarkerScheme, L: int) -> int:
    """Recover the block offset j from the unique marker occurrence.

    j = (L - 9M) - min{i >= 0 : window of w at [i, i+8M) equals the
    marker}; exact in the zero-radius regime.
    """
    M = scheme.M
    if not w.covers(0, L):
        raise CoverageError(f"w covers [{w.lo}, {w.hi}), needs [0, {L})")
    if not L - 18 * M > M:
        raise ParameterError(f"need M < L - 18M, got M={M}, L={L}")
    hits = occurrences(w.window(0, L).symbols, scheme.word.symbols)
    if not len(hits):
        raise ShiftcodeError("marker not found in [0, L)")
    return (L - 9 * M) - int(hits[0])


def avoidance_filter(words, scheme: MarkerScheme, N: int):
    """Pass exactly the words with no H1/H2 window at offsets [0, N).

    Offsets where the 2M-window would overrun the word are not scanned,
    so girl words (length below N + 2M) are filtered over their full
    extent by taking N = len(word).
    """
    h1 = scheme.h1_window.symbols.tobytes()
    h2 = scheme.h2_window.symbols.tobytes()
    width = 2 * scheme.M
    for w in words:
        hay = w.symbols.tobytes()
        limit = min(N, len(hay) - width + 1)
        if limit <= 0:
            yield w
            continue
        end = limit + width - 1
        if hay.find(h1, 0, end) < 0 and hay.find(h2, 0, end) < 0:
            yield w
