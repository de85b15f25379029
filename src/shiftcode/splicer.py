"""Sample-level measure perturbations driven by three-symbol skeletons.

A skeleton over {0, 1, 2} schedules which source a coordinate copies:
1 keeps the first sample, 2 plants the second sample (or a fixed target
block), 0 leaves room for the interpolator.  Entropy-boost skeletons use
long 1-runs with a k2-run of 2s; full-support skeletons plant a single 2
every N-ish coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .interp import SegmentPlan, interpolate, spans
from .shiftspace import Sft, Word, specification_gap


def skeleton_params(eps: float, gamma: float, N: int):
    """Block-run lengths (k0, k1, k2) for the entropy-boost skeleton.

    k0 = floor(gamma/2 N), k1 = floor((1-eps-gamma/2) N),
    k2 = floor((eps-gamma/2) N); both time-ratio inequalities
    k1/total > 1-eps-gamma and k2/total > eps-gamma are verified and
    returned as a report.
    """
    if not 0 < gamma < eps < 1:
        raise ParameterError(f"need 0 < gamma < eps < 1, got gamma={gamma}, eps={eps}")
    k0 = int(math.floor(gamma / 2 * N))
    k1 = int(math.floor((1 - eps - gamma / 2) * N))
    k2 = int(math.floor((eps - gamma / 2) * N))
    if k0 < 1:
        raise ParameterError(f"k0 = floor(gamma/2 N) = {k0} < 1: N too small")
    total = 2 * k0 + k1 + k2
    report = {
        "time_ratio_1": (k1 / total, 1 - eps - gamma, k1 / total > 1 - eps - gamma),
        "time_ratio_2": (k2 / total, eps - gamma, k2 / total > eps - gamma),
    }
    for name, (lhs, rhs, ok) in report.items():
        if not ok:
            raise ParameterError(f"{name} fails at N={N}: {lhs:.6g} <= {rhs:.6g}")
    return (k0, k1, k2), report


@dataclass
class Skeleton:
    """A concatenation of the two legal blocks of one skeleton family."""

    symbols: np.ndarray
    kind: str                 # "boost" | "support"
    params: tuple             # (k0, k1, k2) or (N, M)
    seed: int
    block_lengths: tuple

    @staticmethod
    def _blocks_boost(k0: int, k1: int, k2: int):
        short = np.concatenate([np.ones(k1, np.uint8), np.zeros(k0, np.uint8),
                                np.full(k2, 2, np.uint8), np.zeros(k0, np.uint8)])
        long_ = np.concatenate([np.ones(k1 + 1, np.uint8), short[k1:]])
        return short, long_

    @staticmethod
    def _blocks_support(N: int, M: int):
        if N - 2 * M < 1:
            raise ParameterError("need N - 2M >= 1 for the full-support blocks")
        short = np.concatenate([np.ones(N - 2 * M, np.uint8), np.zeros(M, np.uint8),
                                np.full(1, 2, np.uint8), np.zeros(M, np.uint8)])
        long_ = np.concatenate([np.ones(N + 1 - 2 * M, np.uint8), short[N - 2 * M:]])
        return short, long_

    @classmethod
    def _blocks(cls, kind: str, params: tuple):
        """The (short, long) blocks of the kind's family."""
        if kind == "boost":
            return cls._blocks_boost(*params)
        if kind == "support":
            return cls._blocks_support(*params)
        raise ValueError(f"unknown skeleton kind {kind!r}")

    @classmethod
    def sample(cls, kind: str, params: tuple, seed: int, min_length: int) -> "Skeleton":
        """Whole blocks, fair coin long/short per block, until min_length."""
        short, long_ = cls._blocks(kind, params)
        rng = np.random.default_rng(seed)
        pieces, lengths, total = [], [], 0
        while total < min_length:
            blk = long_ if rng.integers(0, 2) else short
            pieces.append(blk)
            lengths.append(len(blk))
            total += len(blk)
        return cls(np.concatenate(pieces), kind, tuple(params), seed, tuple(lengths))

    def __len__(self) -> int:
        return len(self.symbols)


def _runs(symbols: np.ndarray, value: int):
    """(starts, lengths) of the maximal runs of the given value."""
    edges = np.flatnonzero(np.diff(np.concatenate(
        [[False], symbols == value, [False]]).astype(np.int8)))
    return edges[0::2], edges[1::2] - edges[0::2]


def splice_entropy_boost(sft: Sft, y1: Word, y2: Word, skeleton: Skeleton) -> Word:
    """Admissible word copying y1 on skeleton-1 runs and y2 on 2-runs."""
    if skeleton.kind != "boost":
        raise ValueError("skeleton kind must be 'boost'")
    k0, k1, k2 = skeleton.params
    if k2 < 1 or k1 < 1:
        raise ParameterError("entropy-boost skeleton needs k1 >= 1 and k2 >= 1")
    gap = specification_gap(sft)
    if k0 < gap:
        raise ParameterError(f"k0 = {k0} below specification gap {gap}")
    n = len(skeleton)
    for name, y in (("y1", y1), ("y2", y2)):
        if not y.covers(0, n):
            raise ValueError(f"{name} must cover [0, {n})")
        if not sft.is_admissible(y):
            raise ValueError(f"{name} is not admissible")
    (s1, n1), (s2, n2) = _runs(skeleton.symbols, 1), _runs(skeleton.symbols, 2)
    plan = SegmentPlan(0, n, np.concatenate([s1, s2]), np.concatenate([n1, n2]),
                       np.concatenate([y1.symbols[spans(s1 - y1.lo, n1)],
                                       y2.symbols[spans(s2 - y2.lo, n2)]]),
                       min_gap=k0, max_segment=k1 + 1)
    return interpolate(sft, plan)


def splice_full_support(sft: Sft, y1: Word, target: Word, N: int, M: int,
                        seed: int, length: int | None = None) -> Word:
    """Admissible word copying y1 on 1-runs and planting the target block
    around every skeleton-2 coordinate, so the target window recurs with
    frequency at least 1/(N+2) by construction."""
    gap = specification_gap(sft)
    if M < gap:
        raise ParameterError(f"M = {M} below specification gap {gap}")
    if len(target) % 2 != 1:
        raise ValueError("target length must be odd (a centered window)")
    radius = (len(target) - 1) // 2
    if M - radius < gap:
        raise ParameterError(
            f"target radius {radius} leaves gap {M - radius} < {gap}")
    if not sft.is_admissible(target):
        raise ParameterError("target word is not admissible")
    n = length if length is not None else len(y1)
    skeleton = Skeleton.sample("support", (N, M), seed, n)
    n = len(skeleton)
    if not y1.covers(0, n):
        raise ValueError(f"y1 must cover [0, {n}) (skeleton rounds up to blocks)")
    if not sft.is_admissible(y1):
        raise ValueError("y1 is not admissible")
    (s1, n1), (s2, n2) = _runs(skeleton.symbols, 1), _runs(skeleton.symbols, 2)
    assert (n2 == 1).all()
    plan = SegmentPlan(0, n, np.concatenate([s1, s2 - radius]),
                       np.concatenate([n1, np.full(len(s2), len(target))]),
                       np.concatenate([y1.symbols[spans(s1 - y1.lo, n1)],
                                       np.tile(target.symbols, len(s2))]),
                       min_gap=M - radius)
    return interpolate(sft, plan)
