"""Computable entropy functionals: window-measure and return-time
estimators, the normalized-Hamming d-bar upper bound, and a weighted
total-variation surrogate for the weak* distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CoverageError, NoReturnError
from .measures import MarkovMeasure
from .shiftspace import Word, window_codes

DW_DEFAULT_BOUND = 10 ** 7


def binary_entropy(eta: float) -> float:
    """H(eta) = -eta log eta - (1-eta) log(1-eta), endpoints 0, in nats."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    if eta in (0.0, 1.0):
        return 0.0
    return -eta * math.log(eta) - (1.0 - eta) * math.log(1.0 - eta)


def dbar_entropy_bound(eta: float, alphabet_size: int) -> float:
    """Entropy-difference bound H(eta) + eta log |alphabet| valid whenever
    two processes are within d-bar distance eta."""
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    if alphabet_size < 2:
        raise ValueError("alphabet_size must be >= 2")
    return binary_entropy(eta) + eta * math.log(alphabet_size)


def dbar_sample_upper(u: Word, v: Word) -> float:
    """Normalized Hamming distance: the identity-time coupling upper bound
    for d-bar between the empirical processes of two equal-length words."""
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    if len(u) == 0:
        raise ValueError("words must be non-empty")
    return float(np.mean(u.symbols != v.symbols))


def bk_estimate(measure: MarkovMeasure, x: Word, n: int, radius: int = 0) -> float:
    """Finite-n window-measure entropy estimate.

    Returns -(1/n) log mu(cylinder of x on [-radius, n+radius)), the exact
    measure of the Bowen window around the sample.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lo, hi = -radius, n + radius
    if not x.covers(lo, hi):
        raise CoverageError(f"x covers [{x.lo}, {x.hi}), needs [{lo}, {hi})")
    lp = measure.log_cylinder_probability(x.window(lo, hi))
    return -lp / n


def dw_estimate(z: Word, n: int, radius: int = 0, search_bound: int | None = None) -> float:
    """Return-time entropy estimate: (1/n) log of the first shift i > 0
    whose window [-radius, n+radius) agrees with the unshifted one.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lo, hi = -radius, n + radius
    if not z.covers(lo, hi):
        raise CoverageError(f"z covers [{z.lo}, {z.hi}), needs [{lo}, {hi})")
    avail = z.hi - hi
    bound = min(search_bound if search_bound is not None else DW_DEFAULT_BOUND,
                avail, DW_DEFAULT_BOUND)
    if bound < 1:
        raise NoReturnError(bound)
    hay = z.symbols.tobytes()
    start = lo - z.lo
    pattern = hay[start:hi - z.lo]
    pos = hay.find(pattern, start + 1, start + bound + len(pattern))
    if pos < 0:
        raise NoReturnError(bound)
    return math.log(pos - start) / n


@dataclass
class BlockDistribution:
    """Empirical distribution of length-k blocks of a sample."""

    k: int
    freqs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("block length must be >= 1")
        if self.freqs:
            total = math.fsum(self.freqs.values())
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"frequencies sum to {total}, not 1")

    @classmethod
    def from_words(cls, words, k: int) -> "BlockDistribution":
        """Pooled k-block distribution of one sample or a list of samples.

        A sample is a Word, a symbol array, or an (n, d) array whose rows
        are d paired symbols.  Keys are k-tuples of symbols, or of d-tuples
        for paired samples; a block never spans two samples.
        """
        if isinstance(words, (Word, np.ndarray)):
            words = [words]
        samples = [np.asarray(w.symbols if isinstance(w, Word) else w)
                   for w in words]
        shape = samples[0].shape[1:]
        d = int(np.prod(shape))
        m = 1 + max(int(s.max(initial=0)) for s in samples)
        # a block of k rows of d paired symbols is k * d consecutive flat ones
        codes = [window_codes(s.reshape(-1), k * d, m)[::d] for s in samples]
        keys, counts = np.unique(np.concatenate(codes), return_counts=True)
        n = int(counts.sum())
        if n < 1:
            raise ValueError("word shorter than block length")
        powers = m ** np.arange(k * d - 1, -1, -1, dtype=keys.dtype)
        blocks = (keys[:, None] // powers % m).reshape((len(keys), k) + shape).tolist()
        return cls(k, {(tuple(map(tuple, b)) if shape else tuple(b)): c / n
                       for b, c in zip(blocks, counts.tolist())})

    @classmethod
    def exact(cls, measure: MarkovMeasure, k: int) -> "BlockDistribution":
        """The true k-block distribution of a Markov measure."""
        from .shiftspace import enumerate_words
        freqs = {}
        for w in enumerate_words(measure.sft, k):
            p = measure.cylinder_probability(w)
            if p > 0:
                freqs[tuple(int(a) for a in w.symbols)] = p
        return cls(k, freqs)


def total_variation(a: BlockDistribution, b: BlockDistribution) -> float:
    if a.k != b.k:
        raise ValueError("block lengths differ")
    keys = set(a.freqs) | set(b.freqs)
    return 0.5 * math.fsum(abs(a.freqs.get(x, 0.0) - b.freqs.get(x, 0.0)) for x in keys)


def weakstar_surrogate(a, b, kmax: int) -> float:
    """sum_{k=1}^{kmax} 2^-k TV(a_k, b_k) between two block-distribution
    families; a computable stand-in for the Lipschitz weak* distance."""
    a_by_k = {d.k: d for d in a}
    b_by_k = {d.k: d for d in b}
    needed = set(range(1, kmax + 1))
    if not needed <= set(a_by_k) or not needed <= set(b_by_k):
        raise ValueError(f"both families must cover k = 1..{kmax}")
    return math.fsum(2.0 ** (-k) * total_variation(a_by_k[k], b_by_k[k])
                     for k in needed)


def empirical_family(words, kmax: int):
    """Pooled block distributions of one sample or a list of samples for
    k = 1..kmax (see :meth:`BlockDistribution.from_words`)."""
    return [BlockDistribution.from_words(words, k) for k in range(1, kmax + 1)]
