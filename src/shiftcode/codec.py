"""End-to-end block coding: renewal parse of the source, segment planning,
interpolation into the target SFT, marker-synchronized decoding, and the
quantitative audits.

Block layout, for an N-block starting at n with the dictionary flag:

    [n, n+M)               filler (gap)
    [n+M, n+N-10M)         info region: the girl word
    [n+N-10M, n+N-9M)      filler (gap)
    [n+N-9M, n+N-M)        marker (8M symbols, dictionary-flagged only)
    [n+N-M, n+N)           filler (gap)

Girl-flagged blocks carry a random girl in the info region and no marker;
non-boy and unit error blocks are pure filler and are unrecoverable by
design.  The encoder builds its segment plan as arrays (``block_plan``:
the girl rows of one batched unrank, the marker tiled once per
dictionary-flagged block) and interpolates it in one call.  After
interpolation it rewrites any filler that happens to reproduce the
marker, so every marker occurrence in the output is a planted one and
offset recovery is exact.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .dictionary import Dictionary, ParameterPack
from .errors import EncodingCollisionError, ParameterError
from .interp import SegmentPlan, interpolate, iter_connectors, spans
from .markers import MarkerScheme
from .shiftspace import Sft, Word, specification_gap

MAX_FILLER_REWRITES = 500

D_FLAG = -1


@dataclass
class BlockParse:
    """Renewal parse: block start coordinates and per-block metadata."""

    starts: np.ndarray          # int64, block start coordinates
    lengths: np.ndarray         # int64, each either N or 1
    N: int
    delta: float
    seed: int
    flags: np.ndarray | None = None   # object, per block: D_FLAG, girl rank or None

    def __len__(self) -> int:
        return len(self.starts)

    def iter_blocks(self):
        for i in range(len(self.starts)):
            yield int(self.starts[i]), int(self.lengths[i]), (
                self.flags[i] if self.flags is not None else None)


def rokhlin_parse(x: Word, N: int, delta: float, seed: int) -> BlockParse:
    """Seeded renewal parse of the coordinate range of x.

    At each boundary a unit error block is emitted with the probability
    that makes the long-run error-position density delta, else an N-block;
    the random stream never reads the symbols of x, which realizes the
    independence of the tower base from the coordinate process.  A range
    tail too short for an N-block is parsed as unit blocks.
    """
    if not 0 <= delta < 1:
        raise ParameterError("delta must lie in [0, 1)")
    if N < 2:
        raise ParameterError("N must be >= 2")
    q = delta * N / (1.0 + delta * (N - 1))
    rng = np.random.default_rng((seed, 0x726F6B))
    starts, lengths = [], []
    pos, hi = x.lo, x.hi
    mean_step = q + (1.0 - q) * N
    # one uniform per boundary with room for an N-block, drawn in batches
    # (the same stream as one call each); a batch covers the expected
    # number of such boundaries left, and the rest of a batch is unused
    while pos + N <= hi:
        size = int((hi - N + 1 - pos) / mean_step * 1.05) + 16
        steps = np.where(rng.random(size) >= q, N, 1)
        begins = pos + np.cumsum(steps) - steps
        used = int(np.searchsorted(begins, hi - N, side="right"))
        starts.append(begins[:used])
        lengths.append(steps[:used])
        pos = int(begins[used - 1] + steps[used - 1])
    starts.append(np.arange(pos, hi))
    lengths.append(np.ones(hi - pos, dtype=np.int64))
    return BlockParse(np.concatenate(starts).astype(np.int64),
                      np.concatenate(lengths).astype(np.int64), N, delta, seed)


@dataclass
class CodedPair:
    """A source word, its encoded target word, and the recovery metadata."""

    x: Word
    y: Word
    parse: BlockParse
    mask: np.ndarray            # bool over [x.lo, x.hi): recoverable coords
    marker_positions: tuple = ()
    boy_blocks: tuple = ()      # starts of blocks whose x-content is a boy
    rewrites: int = 0

    @property
    def coverage(self) -> float:
        return float(np.mean(self.mask))


def _draw_flags(parse: BlockParse, eps: float, n_girls: int, seed: int) -> None:
    """Dictionary flag with probability 1 - eps/2, else a uniform girl."""
    rng = random.Random(f"flags-{seed}")
    parse.flags = np.full(len(parse), None, dtype=object)
    for i in np.flatnonzero(parse.lengths > 1).tolist():
        parse.flags[i] = (D_FLAG if rng.random() < 1.0 - eps / 2.0
                          else rng.randrange(n_girls))


def _find_all(hay: bytes, needle: bytes):
    out = []
    i = hay.find(needle)
    while i >= 0:
        out.append(i)
        i = hay.find(needle, i + 1)
    return out


def encode(x: Word, dict_: Dictionary, scheme: MarkerScheme,
           pack: ParameterPack, target: Sft, seed: int) -> CodedPair:
    """Encode a source word into an admissible word of the target SFT."""
    N, M = pack.N, pack.M
    gap = specification_gap(target)
    if M < gap:
        raise ParameterError(
            f"M = {M} below the specification gap {gap}: plan gaps too small")
    parse = rokhlin_parse(x, N, pack.delta, seed)
    _draw_flags(parse, pack.eps, dict_.girls.count, seed)

    # batched over all N-blocks: boy test, ranks of the dictionary-flagged
    # boys, then one girl unrank that also serves the random-girl flags
    longs = np.flatnonzero(parse.lengths > 1)
    blocks = x.symbols[(parse.starts[longs] - x.lo)[:, None] + np.arange(N)]
    is_boy = dict_.boys.member_rows(blocks)
    boys_at = parse.starts[longs[is_boy]]
    ranks = parse.flags[longs[is_boy]]
    flagged = ranks == D_FLAG
    ranks[flagged] = dict_.girl_ranks(blocks[is_boy][flagged])
    girl_rows = dict_.girls.unrank_rows(ranks)

    plan, mask = block_plan(x.lo, x.hi, boys_at, girl_rows, flagged, pack, scheme)
    y_sym = interpolate(target, plan).symbols.copy()
    marker_positions = tuple((boys_at[flagged] + N - 9 * M).tolist())
    rewrites = _scrub_spurious_markers(target, y_sym, x.lo, plan, scheme,
                                       set(marker_positions))
    return CodedPair(x, Word(y_sym, x.lo), parse, mask, marker_positions,
                     tuple(boys_at.tolist()), rewrites)


def block_plan(lo: int, hi: int, boys_at: np.ndarray, girl_rows: np.ndarray,
               flagged: np.ndarray, pack: ParameterPack, scheme: MarkerScheme):
    """The encoder's segment plan over [lo, hi) and its recoverable mask.

    The boy block at ``boys_at[i]`` = n carries girl row i at n + M; when
    ``flagged[i]`` it also carries the marker at n + N - 9M and is
    recoverable on [n, n + N).  The plan's arrays come out sorted: each
    block's girl row, then its marker if flagged.
    """
    N, M = pack.N, pack.M
    marker = scheme.word.symbols
    width = girl_rows.shape[1]
    rows = np.empty((len(boys_at), width + len(marker)), dtype=np.uint8)
    rows[:, :width], rows[:, width:] = girl_rows, marker
    keep = np.ones(rows.shape, dtype=bool)
    keep[~flagged, width:] = False
    starts = boys_at[:, None] + [pack.info_region[0], N - 9 * M]
    has = np.column_stack([np.ones(len(boys_at), dtype=bool), flagged])
    lengths = np.broadcast_to([width, len(marker)], starts.shape)
    plan = SegmentPlan(lo, hi, starts[has], lengths[has], rows[keep], min_gap=M)
    mask = np.zeros(hi - lo, dtype=bool)
    mask[spans(boys_at[flagged] - lo, np.full(int(flagged.sum()), N))] = True
    return plan, mask


def _scrub_spurious_markers(target, y_sym, y_lo, plan, scheme, planted):
    """Rewrite filler gaps until the marker occurs only where planted."""
    marker = scheme.word.symbols.tobytes()
    width = len(marker)
    k = target.k
    gaps = None
    variants: dict = {}
    rewrites = 0
    while True:
        hay = y_sym.tobytes()
        spurious = [q for q in _find_all(hay, marker) if q + y_lo not in planted]
        if not spurious:
            return rewrites
        if rewrites >= MAX_FILLER_REWRITES:
            raise EncodingCollisionError(
                f"{len(spurious)} spurious marker occurrences persist after "
                f"{rewrites} filler rewrites")
        q = spurious[0]
        if gaps is None:
            gaps = plan.gaps(k)
        overlap = np.minimum(gaps[1], q + width) - np.maximum(gaps[0], q)
        if not (overlap > 0).any():
            raise EncodingCollisionError(
                f"spurious marker at {q + y_lo} does not touch any filler")
        gi = int(np.flatnonzero(overlap == overlap.max())[-1])    # ties: the last
        glo, ghi = int(gaps[0][gi]), int(gaps[1][gi])
        variants[gi] = variants.get(gi, 0) + 1
        connectors = iter_connectors(target, y_sym[max(0, glo - k):glo],
                                     y_sym[ghi:ghi + int(gaps[3][gi])], ghi - glo)
        filler = next(itertools.islice(connectors, variants[gi], None), None)
        if filler is None:
            raise EncodingCollisionError(
                f"connector variants exhausted for gap [{glo}, {ghi})")
        y_sym[glo:ghi] = filler.symbols
        rewrites += 1


def decode(y: Word, dict_: Dictionary, scheme: MarkerScheme,
           pack: ParameterPack, boy_set=None):
    """Recover source blocks from marker-synchronized info windows.

    Returns (x_hat, mask): x_hat carries the decoded symbols over the
    range of y with 255 at unrecovered coordinates, and mask flags the
    recovered ones.  Corrupted info windows mark their block undecodable
    without failing the whole decode.
    """
    N, M = pack.N, pack.M
    info_lo, info_hi = pack.info_region
    boys_ = boy_set if boy_set is not None else dict_.boys
    x_hat = np.full(len(y), 255, dtype=np.uint8)
    mask = np.zeros(len(y), dtype=bool)
    hits = np.array(_find_all(y.symbols.tobytes(), scheme.word.symbols.tobytes()),
                    dtype=np.int64) - (N - 9 * M)   # marker sits at n + N - 9M
    hits = hits[(hits >= 0) & (hits + N <= len(y))]
    windows = y.symbols[(hits + info_lo)[:, None] + np.arange(info_hi - info_lo)]
    blocks, found = dict_.invert_rows(windows)
    if dict_.mode == "hall":
        for i in np.flatnonzero(~found & dict_.girls.member_rows(windows)):
            block = dict_.invert_nearest(Word(windows[i]))
            if block is not None:
                blocks[i], found[i] = block.symbols, True
    found[found] = boys_.member_rows(blocks[found])
    for n, block in zip(hits[found].tolist(), blocks[found]):
        x_hat[n:n + N] = block
        mask[n:n + N] = True
    return Word(x_hat, y.lo), mask


# ---------------------------------------------------------------------------
# audits


@dataclass
class BadsetReport:
    bs1: float      # coordinates in unit error blocks
    bs2: float      # coordinates in non-boy N-blocks
    bs3: float      # coordinates in N-blocks with a non-dictionary flag
    bs4: float      # N-block coordinates at phases outside the info region
    bound: float    # 17 delta + eps/2
    slack: float
    details: dict = field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.bs1 + self.bs2 + self.bs3 + self.bs4

    @property
    def ok(self) -> bool:
        return self.total <= self.bound + self.slack


def block_kinds(pair: CodedPair):
    """Bool vectors over the parse's blocks: N-block, boy (its source
    block is one; only N-blocks can be) and dictionary-flagged."""
    parse = pair.parse
    boy = np.zeros(len(parse), dtype=bool)
    boy[np.searchsorted(parse.starts, pair.boy_blocks)] = True  # a subset of starts
    return parse.lengths > 1, boy, parse.flags == D_FLAG


def audit_badset(pair: CodedPair, pack: ParameterPack,
                 slack: float = 0.01) -> BadsetReport:
    """Empirical frequencies of the four bad-set components."""
    total = len(pair.x)
    long_, boy, flagged = block_kinds(pair)
    n_blocks, N = int(long_.sum()), pair.parse.N
    bs1 = len(long_) - n_blocks
    bs2 = N * int((long_ & ~boy).sum())
    bs3 = N * int((long_ & ~flagged).sum())
    bs4 = n_blocks * (N - (pack.info_region[1] - pack.info_region[0]))
    bound = 17 * pack.delta + pack.eps / 2
    return BadsetReport(bs1 / total, bs2 / total, bs3 / total, bs4 / total,
                        bound, slack,
                        details={"n_blocks": n_blocks, "n_errors": bs1,
                                 "coords": total})


def audit_weakstar(pair: CodedPair, reference_pairs, kmax: int = 3) -> float:
    """Surrogate weak* distance between the coded pair's empirical joint
    block statistics and those of reference sample pairs."""
    from .estimators import empirical_family, weakstar_surrogate
    fam_coded = empirical_family(
        np.stack([pair.x.symbols, pair.y.symbols], axis=1), kmax)
    fam_ref = empirical_family([np.stack([x.symbols, y.symbols], axis=1)
                                for x, y in reference_pairs], kmax)
    return weakstar_surrogate(fam_coded, fam_ref, kmax)


def lz78_phrases(word: Word) -> int:
    """Number of phrases in the incremental LZ78 parse.

    The phrases and the empty word form a prefix-closed set, so whether
    ``y[i:i+L]`` is a phrase is monotone in L, and the longest match at i
    is found by bisection.  A non-empty match that runs to the end is the
    trailing partial phrase, counted once.
    """
    y = word.symbols.tobytes()
    n = len(y)
    seen = {b""}
    longest = phrases = i = 0
    while i < n:
        lo, hi = 0, min(longest, n - i)
        while lo < hi:
            mid = (lo + hi + 1) >> 1
            if y[i:i + mid] in seen:
                lo = mid
            else:
                hi = mid - 1
        phrases += 1
        i += lo + 1
        if i > n:
            break
        seen.add(y[i - lo - 1:i])
        if lo >= longest:
            longest = lo + 1
    return phrases


_LZ_FACTOR_CACHE: dict = {}


def lz78_entropy(word: Word) -> float:
    """LZ78 phrase-rate entropy estimate, c log(c) / n nats.

    The raw rate is biased upward at finite length (about +12% on a
    uniform binary source at 10^6 symbols), so it is divided by the rate
    measured on a uniform reference sample of the same length over the
    alphabet up to the word's largest symbol.  The calibration is exact
    for uniform sources and partial for skewed ones, where a residual
    upward bias remains.
    """
    n = len(word)
    if n == 0:
        return 0.0
    c = lz78_phrases(word)
    raw = c * math.log(max(c, 2)) / n
    alphabet_size = int(word.symbols.max()) + 1
    if alphabet_size < 2:
        return raw
    key = (alphabet_size, n)
    factor = _LZ_FACTOR_CACHE.get(key)
    if factor is None:
        rng = np.random.default_rng((0xCA11B, alphabet_size, n))
        ref = Word(rng.integers(0, alphabet_size, size=n).astype(np.uint8))
        cr = lz78_phrases(ref)
        factor = (cr * math.log(max(cr, 2)) / n) / math.log(alphabet_size)
        _LZ_FACTOR_CACHE[key] = factor
    return raw / factor


@dataclass
class EntropyReport:
    lz_rate: float
    ratio_lhs: float
    ratio_rhs: float
    ratio_ok: bool
    eg_frequency: float
    eg_target: float
    eg_ok: bool


def audit_entropy(y: Word, pack: ParameterPack, h_source: float,
                  counts: tuple, pair: CodedPair | None = None) -> EntropyReport:
    """The three entropy-side checks: the LZ78 rate of the output, the
    count-ratio inequality, and the entropy-gain block frequency.

    ``counts`` is (log_boys, log_girls).  The gain frequency needs the
    parse, so it is evaluated only when the coded pair is supplied.
    """
    log_boys, log_girls = counts
    n, D = pack.N, pack.Delta
    ratio_lhs = log_girls - log_boys
    ratio_rhs = n * (pack.h_target - h_source - 2 * D)
    eg_freq = float("nan")
    eg_ok = False
    if pair is not None:
        _, boy, flagged = block_kinds(pair)
        eg_freq = int((boy & ~flagged).sum()) / len(pair.x)
        eg_ok = 8 * n * D * eg_freq > 3 * pack.eps * D
    eg_target = (1.0 / n) * (1 - pack.delta) * (1 - 15 * pack.delta) * (pack.eps / 2)
    return EntropyReport(
        lz_rate=lz78_entropy(y),
        ratio_lhs=ratio_lhs, ratio_rhs=ratio_rhs,
        ratio_ok=ratio_lhs >= ratio_rhs,
        eg_frequency=eg_freq, eg_target=eg_target, eg_ok=eg_ok)


# ---------------------------------------------------------------------------
# coded-stream file format


def pack_hash(pack: ParameterPack) -> str:
    text = ",".join(f"{k}={v}" for k, v in sorted(pack.scalars().items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def dictionary_hash(dict_: Dictionary) -> str:
    parts = [dict_.mode, str(dict_.boys.count), str(dict_.girls.count)]
    if dict_.table is not None:
        parts.extend(f"{b}->{g}" for b, g in sorted(dict_.table.items()))
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def write_coded(pair_y: Word, pack: ParameterPack, dict_: Dictionary,
                scheme: MarkerScheme) -> str:
    lines = [
        f"pack {pack_hash(pack)}",
        f"dict {dictionary_hash(dict_)}",
        f"marker {scheme.serialize()}",
        f"base {pair_y.lo}",
    ]
    digits = pair_y.to_string()
    for i in range(0, max(len(digits), 1), 4096):
        lines.append(digits[i:i + 4096])
    return "\n".join(lines) + "\n"


def read_coded(text: str):
    """(y, header dict); the caller checks the hashes against its pack."""
    header = {}
    digits = []
    for line in text.splitlines():
        if not line:
            continue
        key = line.split()[0]
        if key in ("pack", "dict", "marker", "base"):
            header[key] = line.split(None, 1)[1]
        else:
            digits.append(line.strip())
    base = int(header.get("base", "0"))
    return Word.from_string("".join(digits), base), header
