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
from .interp import SegmentPlan, interpolate
from .shiftspace import Sft, Word, specification_gap


def skeleton_params(eps: float, gamma: float, N: int):
    """Block-run lengths (k0, k1, k2) for the entropy-boost skeleton.

    k0 = floor(gamma/2 N), k1 = floor((1-eps-gamma/2) N),
    k2 = floor((eps-gamma/2) N), each at least 1; both time-ratio
    inequalities k1/total > 1-eps-gamma and k2/total > eps-gamma are
    verified and returned as a report.
    """
    if not 0 < gamma < eps < 1:
        raise ParameterError(f"need 0 < gamma < eps < 1, got gamma={gamma}, eps={eps}")
    k0 = int(math.floor(gamma / 2 * N))
    k1 = int(math.floor((1 - eps - gamma / 2) * N))
    k2 = int(math.floor((eps - gamma / 2) * N))
    if k0 < 1:
        raise ParameterError(f"k0 = floor(gamma/2 N) = {k0} < 1: N too small")
    if k1 < 1 or k2 < 1:
        raise ParameterError(
            f"k1 = floor((1 - eps - gamma/2) N) = {k1} and k2 = floor((eps - "
            f"gamma/2) N) = {k2} must both be >= 1; got eps={eps}, "
            f"gamma={gamma}, N={N}")
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

    @staticmethod
    def _run_lengths(kind: str, params: tuple) -> np.ndarray:
        """[a, b, c, b]: the runs of the kind's short block 1^a 0^b 2^c 0^b
        (the long block starts 1^(a+1)), with (a, b, c) = (k1, k0, k2) for
        boost and (N - 2M, M, 1) for support."""
        if kind == "boost":
            b, a, c = params
        elif kind == "support":
            N, M = params
            a, b, c = N - 2 * M, M, 1
            if a < 1:
                raise ParameterError("need N - 2M >= 1 for the full-support blocks")
        else:
            raise ValueError(f"unknown skeleton kind {kind!r}")
        return np.array([a, b, c, b])

    @classmethod
    def sample(cls, kind: str, params: tuple, seed: int, min_length: int) -> "Skeleton":
        """Whole blocks, fair coin long/short per block, until min_length.
        The coins come from one draw of as many as all-short blocks would
        take, the same stream as one draw per block; the blocks stop at the
        first whose end reaches min_length, and one repeat writes them."""
        if min_length < 1:
            raise ValueError(f"min_length must be >= 1, got {min_length}")
        runs = cls._run_lengths(kind, params)
        coins = np.random.default_rng(seed).integers(0, 2, -(-min_length // runs.sum()))
        coins = coins[:np.searchsorted(np.cumsum(coins + runs.sum()), min_length) + 1]
        runs = runs + np.outer(coins, [1, 0, 0, 0])     # a long block's extra 1
        return cls(np.repeat(np.tile(np.array([1, 0, 2, 0], np.uint8), len(coins)),
                             runs.reshape(-1)), kind, tuple(params))

    def __len__(self) -> int:
        return len(self.symbols)


def _plan(skeleton: Skeleton, y1: Word, planted: Word, min_gap: int) -> SegmentPlan:
    """The plan copying y1 on the skeleton's 1-runs and ``planted`` on its
    2-runs (y2, or the target centred on every 2), in start order: its
    symbols are y1 with the planted symbols written over it."""
    sym, n = skeleton.symbols, len(skeleton)
    starts = np.append(0, np.flatnonzero(sym[1:] != sym[:-1]) + 1)   # the runs
    kept = sym[starts] > 0
    starts, lengths = starts[kept], np.diff(starts, append=n)[kept]
    two = sym[starts] == 2
    canvas = y1.symbols[-y1.lo:n - y1.lo].copy()
    if skeleton.kind == "boost":
        np.copyto(canvas, planted.symbols[-planted.lo:n - planted.lo], where=sym == 2)
    else:
        starts[two] -= len(planted) // 2
        lengths[two] = len(planted)
        canvas[starts[two, None] + np.arange(len(planted))] = planted.symbols
    return SegmentPlan(0, n, starts, lengths, canvas, min_gap)


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
    return interpolate(sft, _plan(skeleton, y1, y2, k0))


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
    return interpolate(sft, _plan(skeleton, y1, target, M - radius))
