"""Marker words and offset recovery: the synchronization layer.

A marker is a word of length 8M whose length-2M windows at offsets
0..6M-1 all differ from its window at offset 6M, and whose first and
last-quarter windows are rare under the target measure.  In the exact
regime, window comparisons are plain symbol equality.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import (CoverageError, MarkerSearchError, NoMarkerExistsError,
                     ParameterError, ShiftcodeError)
from .measures import MarkovMeasure
from .shiftspace import Sft, Word, specification_gap, window_codes

EXHAUSTIVE_BITS = 24
RESTART_BATCH = 64      # most random restarts unranked at once


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
        return f"M={self.M} alpha={self.alpha:.12g} word={self.word.to_string()}"

    @classmethod
    def parse(cls, line: str, nu: MarkovMeasure | None = None) -> "MarkerScheme":
        fields = dict(part.split("=", 1) for part in line.split())
        word = Word.from_string(fields["word"])
        m = int(fields["M"])
        nu_h1 = nu.cylinder_probability(Word(word.symbols[:2 * m])) if nu else float("nan")
        nu_h2 = nu.cylinder_probability(Word(word.symbols[6 * m:8 * m])) if nu else float("nan")
        return cls(word, m, float(fields["alpha"]), nu_h1, nu_h2)


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
    memory is a few blocks, about 30 MB at 8M = 24, whatever the number
    of candidates.  Otherwise seeded random restarts with single-symbol
    hill climbing on the count of violated offsets.
    """
    if M < 1:
        raise ParameterError("M must be >= 1")
    if alpha <= 0:
        raise ParameterError("alpha must be positive")
    specification_gap(sft)  # raises NotMixingError when not primitive
    n = 8 * M
    dfa = sft.factor_dfa()
    bits = n * np.log2(max(sft.alphabet_size, 2))

    if bits <= EXHAUSTIVE_BITS:
        return _exhaustive_marker(sft, nu, M, alpha)

    def evaluate(word):
        return check_scheme(sft, nu, word, M, alpha)

    total = dfa.count(n)
    if total == 0:
        raise NoMarkerExistsError("no admissible word of marker length")
    rng = random.Random(seed)
    evals = 0
    best = None  # (violations, word, nu1, nu2)

    def restarts():
        # hill climbing draws nothing, so restart i unranks the i-th draw;
        # one unrank_rows per batch, the batches doubling from one word, as
        # a search that accepts mostly does so on its first restart
        size = 1
        while True:
            yield from dfa.unrank_rows(n, [rng.randrange(total)
                                           for _ in range(size)])
            size = min(2 * size, RESTART_BATCH)

    starts = restarts()
    while evals < budget:
        word = Word(next(starts))
        viol, nu1, nu2, ok = evaluate(word)
        evals += 1
        if best is None or viol < best[0]:
            best = (viol, word, nu1, nu2)
        if ok:
            return MarkerScheme(word, M, alpha, nu1, nu2)
        # hill climb: flip single symbols while violations decrease
        improved = True
        while improved and evals < budget:
            improved = False
            sym = word.symbols.copy()
            for pos in range(n):
                orig = sym[pos]
                for a in range(sft.alphabet_size):
                    if a == orig:
                        continue
                    sym[pos] = a
                    cand = Word(sym.copy())
                    if not sft.is_admissible(cand):
                        continue
                    v2, n1, n2, ok2 = evaluate(cand)
                    evals += 1
                    if ok2:
                        return MarkerScheme(cand, M, alpha, n1, n2)
                    if v2 < viol:
                        word, viol = cand, v2
                        if viol < best[0]:
                            best = (viol, word, n1, n2)
                        improved = True
                        break
                    if evals >= budget:
                        break
                else:
                    sym[pos] = orig
                    continue
                break
    raise MarkerSearchError(
        f"budget {budget} exhausted; best candidate has {best[0]} violated "
        f"offsets (word {best[1].to_string()})", best=best)


def _exhaustive_marker(sft: Sft, nu: MarkovMeasure, M: int,
                       alpha: float) -> MarkerScheme:
    """The exhaustive branch of :func:`find_marker`, in bulk per block.

    A block's candidates are its columns after transposing, and
    :func:`window_codes` codes their 6M + 1 windows of length 2M as
    base-m integers (uint8 here, since m^(2M) <= 2^(EXHAUSTIVE_BITS / 4)
    = 64), so violations are equal codes.  Cylinder masses are computed
    by ``nu.cylinder_probability`` once per distinct window code and
    gathered, which keeps them bit-identical to :func:`check_scheme`.
    """
    m = sft.alphabet_size
    width = 2 * M
    limit = alpha / M
    mass_h1 = np.full(m ** width, np.nan)
    mass_h2 = np.full(m ** width, np.nan)
    any_distinguishing = False
    best = None  # (longest run, word, nu_h1, nu_h2)
    for block in sft.factor_dfa().enumerate(8 * M):
        cols = np.ascontiguousarray(block.T)
        codes = window_codes(cols, width, m)
        distinct = ~(codes[:6 * M] == codes[6 * M]).any(axis=0)
        if not distinct.any():
            continue
        any_distinguishing = True
        h1, h2 = codes[0], codes[6 * M]
        for mass, code, lo in ((mass_h1, h1, 0), (mass_h2, h2, 6 * M)):
            need = distinct & np.isnan(mass[code])
            if need.any():
                new, first = np.unique(code[need], return_index=True)
                for c, row in zip(new, np.flatnonzero(need)[first]):
                    mass[c] = nu.cylinder_probability(
                        Word(block[row, lo:lo + width]))
        nu1, nu2 = mass_h1[h1], mass_h2[h2]
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
        word = Word(best[1])
        if not sft.is_admissible(word):
            raise MarkerSearchError(
                f"enumerated marker {word.to_string()} is not admissible",
                best=None)
        return MarkerScheme(word, M, alpha, best[2], best[3])
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
    hay = w.window(0, L).symbols.tobytes()
    i = hay.find(scheme.word.symbols.tobytes())
    if i < 0:
        raise ShiftcodeError("marker not found in [0, L)")
    return (L - 9 * M) - i


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
