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
the girl rows of one batched unrank and the marker, once per
dictionary-flagged block, written at their coordinates) and interpolates
it in one call.  After interpolation it rewrites any filler that happens
to reproduce the marker, so every marker occurrence in the output is a
planted one and offset recovery is exact.  That scrub and the decoder
find the marker's occurrences with one ``shiftspace.occurrences`` call a
pass.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dictionary import Dictionary, ParameterPack
from .errors import EncodingCollisionError, ParameterError, ShiftcodeError
from .interp import SegmentPlan, interpolate, iter_connectors
from .markers import MarkerScheme
from .shiftspace import Sft, Word, ascii_text, occurrences, specification_gap

MAX_FILLER_REWRITES = 500

D_FLAG = -1

BADSET_SLACK = 0.01     # how far the bad-set total may pass 17 delta + eps/2


@dataclass
class BlockParse:
    """Renewal parse: block start coordinates and per-block metadata."""

    starts: np.ndarray          # int64, block start coordinates
    lengths: np.ndarray         # int64, each either N or 1
    N: int
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
                      np.concatenate(lengths).astype(np.int64), N)


@dataclass
class CodedPair:
    """A source word, its encoded target word, and the recovery metadata."""

    x: Word
    y: Word
    parse: BlockParse
    mask: np.ndarray            # bool over [x.lo, x.hi): recoverable coords
    boy: np.ndarray             # bool per N-block: its source block is a boy
    flagged: np.ndarray         # bool per N-block: its flag is D_FLAG
    marker_positions: tuple = ()
    boy_blocks: tuple = ()      # starts of blocks whose x-content is a boy
    rewrites: int = 0

    @property
    def coverage(self) -> float:
        return int(np.count_nonzero(self.mask)) / self.mask.size


def _draw_flags(parse: BlockParse, eps: float, n_girls: int, seed: int) -> np.ndarray:
    """Per N-block the dictionary flag with probability 1 - eps/2, else a
    uniform girl rank; None per unit block."""
    rng, longs, p = random.Random(f"flags-{seed}"), parse.lengths > 1, 1.0 - eps / 2.0
    flags = np.full(len(parse), None, dtype=object)
    flags[longs] = [D_FLAG if rng.random() < p else rng.randrange(n_girls)
                    for _ in range(longs.sum())]
    return flags


def encode(x: Word, dict_: Dictionary, scheme: MarkerScheme,
           pack: ParameterPack, target: Sft, seed: int) -> CodedPair:
    """Encode a source word into an admissible word of the target SFT."""
    N, M = pack.N, pack.M
    gap = specification_gap(target)
    if M < gap:
        raise ParameterError(
            f"M = {M} below the specification gap {gap}: plan gaps too small")
    parse = rokhlin_parse(x, N, pack.delta, seed)
    parse = replace(parse, flags=_draw_flags(parse, pack.eps,
                                             dict_.girls.count, seed))

    # one lookup of all N-blocks: the boy test, and per boy the dictionary's
    # girl (D_FLAG is negative) or the drawn one
    longs = np.flatnonzero(parse.lengths > 1)
    blocks = (sliding_window_view(x.symbols, N)[parse.starts[longs] - x.lo]
              if len(longs) else np.zeros((0, N), dtype=np.uint8))  # x may be short
    is_boy, girl_rows = dict_.lookup_rows(blocks, parse.flags[longs])
    boys_at = parse.starts[longs[is_boy]]
    long_flagged = parse.flags[longs] == D_FLAG
    flagged = long_flagged[is_boy]

    plan, mask = block_plan(x.lo, x.hi, boys_at, girl_rows, flagged, pack, scheme)
    y_sym = interpolate(target, plan).symbols.copy()
    planted = boys_at[flagged] + pack.marker_offset
    rewrites = _scrub_spurious_markers(target, y_sym, x.lo, plan, scheme, planted)
    return CodedPair(x, Word(y_sym, x.lo), parse, mask, is_boy, long_flagged,
                     tuple(planted.tolist()), tuple(boys_at.tolist()), rewrites)


def block_plan(lo: int, hi: int, boys_at: np.ndarray, girl_rows: np.ndarray,
               flagged: np.ndarray, pack: ParameterPack, scheme: MarkerScheme):
    """The encoder's segment plan over [lo, hi) and its recoverable mask.

    The boy block at ``boys_at[i]`` = n carries girl row i at n + M; when
    ``flagged[i]`` it also carries the marker at n + N - 9M and is
    recoverable on [n, n + N).  Girl rows, markers and mask rows fill
    writeable windows of zeroed arrays; the segments come out sorted.
    """
    N, M = pack.N, pack.M
    marker = scheme.word.symbols
    width = girl_rows.shape[1]
    starts = boys_at[:, None] + [pack.info_region[0], pack.marker_offset]
    symbols, mask = np.zeros(hi - lo, dtype=np.uint8), np.zeros(hi - lo, dtype=bool)
    for out, at, rows in ((symbols, starts[:, 0], girl_rows),
                          (symbols, starts[flagged, 1], marker),
                          (mask, boys_at[flagged], np.ones(N, dtype=bool))):
        if len(at):     # row i fills the window at at[i]; the windows are disjoint
            sliding_window_view(out, rows.shape[-1], writeable=True)[at - lo] = rows
    has = np.column_stack([np.ones(len(boys_at), dtype=bool), flagged])
    lengths = np.broadcast_to([width, len(marker)], starts.shape)
    plan = SegmentPlan(lo, hi, starts[has], lengths[has], symbols, min_gap=M)
    return plan, mask


def _scrub_spurious_markers(target, y_sym, y_lo, plan, scheme, planted):
    """Rewrite filler gaps until the marker occurs only at the sorted
    ``planted`` coordinates."""
    marker = scheme.word.symbols
    width = len(marker)
    k = target.k
    gaps = None
    variants: dict = {}
    rewrites = 0
    while True:
        hits = occurrences(y_sym, marker)
        at = hits + y_lo    # a planted hit's two insertion points differ
        spurious = hits[np.searchsorted(planted, at)
                        == np.searchsorted(planted, at, side="right")]
        if not len(spurious):
            return rewrites
        if rewrites >= MAX_FILLER_REWRITES:
            raise EncodingCollisionError(
                f"{len(spurious)} spurious marker occurrences persist after "
                f"{rewrites} filler rewrites")
        q = int(spurious[0])
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
           pack: ParameterPack):
    """Recover source blocks from marker-synchronized info windows.

    Returns (x_hat, mask): x_hat carries the decoded symbols over the
    range of y with 255 at unrecovered coordinates, and mask flags the
    recovered ones.  Corrupted info windows mark their block undecodable
    without failing the whole decode.
    """
    N = pack.N
    info_lo, info_hi = pack.info_region
    x_hat = np.full(len(y), 255, dtype=np.uint8)
    mask = np.zeros(len(y), dtype=bool)
    hits = occurrences(y.symbols, scheme.word.symbols) - pack.marker_offset
    hits = hits[(hits >= 0) & (hits + N <= len(y))]
    if len(hits):       # else y may be shorter than a window
        windows = sliding_window_view(y.symbols, info_hi - info_lo)[hits + info_lo]
        blocks, found = dict_.invert_rows(windows)
        sliding_window_view(x_hat, N, writeable=True)[hits[found]] = blocks[found]
        sliding_window_view(mask, N, writeable=True)[hits[found]] = True
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

    @property
    def total(self) -> float:
        return self.bs1 + self.bs2 + self.bs3 + self.bs4

    @property
    def ok(self) -> bool:
        return self.total <= self.bound + BADSET_SLACK


def block_kinds(pair: CodedPair):
    """Bool vectors over the parse's blocks: N-block, boy (its source
    block is one; only N-blocks can be) and dictionary-flagged, spread
    from the pair's per-N-block vectors."""
    long_ = pair.parse.lengths > 1
    boy, flagged = np.zeros((2, len(long_)), dtype=bool)
    boy[long_], flagged[long_] = pair.boy, pair.flagged
    return long_, boy, flagged


def audit_badset(pair: CodedPair, pack: ParameterPack) -> BadsetReport:
    """Empirical frequencies of the four bad-set components."""
    total, N, n_blocks = len(pair.x), pair.parse.N, len(pair.boy)
    bs1 = len(pair.parse) - n_blocks
    bs2 = N * (n_blocks - int(np.count_nonzero(pair.boy)))
    bs3 = N * (n_blocks - int(np.count_nonzero(pair.flagged)))
    bs4 = n_blocks * (N - (pack.info_region[1] - pack.info_region[0]))
    bound = 17 * pack.delta + pack.eps / 2
    return BadsetReport(bs1 / total, bs2 / total, bs3 / total, bs4 / total,
                        bound)


def audit_weakstar(pair: CodedPair, reference_pairs, kmax: int = 3) -> float:
    """Surrogate weak* distance between the coded pair's empirical joint
    block statistics and those of reference sample pairs."""
    from .estimators import empirical_family, weakstar_surrogate
    fam_coded = empirical_family((pair.x, pair.y), kmax)
    fam_ref = empirical_family([tuple(p) for p in reference_pairs], kmax)
    return weakstar_surrogate(fam_coded, fam_ref, kmax)


def lz78_phrases(word: Word) -> int:
    """Number of phrases in the incremental LZ78 parse.

    The phrases and the empty word form a prefix-closed set, so whether
    ``y[i:i+L]`` is a phrase is monotone in L, and the longest match at i
    is found by galloping.  The first probe is the shorter of the last
    two match lengths (one long phrase in a run of short ones does not
    move it).  A hit doubles the step upwards; a miss probes one shorter
    first, then doubles the step downwards.  Either way the last bracket
    is bisected, and no probe passes the longest phrase or the end of
    the word.  A non-empty match that runs to the end is the trailing
    partial phrase, counted once.
    """
    y = word.symbols.tobytes()
    n = len(y)
    seen = {b""}
    longest = phrases = i = lo = last = 0
    while i < n:
        # plain comparisons: a call to min() per probe costs more than
        # the probes that galloping saves
        hi = n - i
        if hi > longest:
            hi = longest
        lo, last = (lo if lo < last else last), lo
        if lo > hi:
            lo = hi
        if y[i:i + lo] in seen:
            step = 1
            while lo < hi:
                t = lo + step
                if t > hi:
                    t = hi
                if y[i:i + t] not in seen:
                    hi = t - 1
                    break
                lo = t
                step <<= 1
        else:
            hi, lo, step = lo - 1, 0, 0
            while lo < hi - step:
                t = hi - step
                if y[i:i + t] in seen:
                    lo = t
                    break
                hi = t - 1
                step = 2 * step + 1
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


def uniform_lz78_phrases(m: int, n: int) -> float:
    """ĉ of ``lz78_entropy``: (ĉ + 1)(log_m(ĉ + 1) + a_m) = n, bisected."""
    log_m = math.log(m)
    a = (np.euler_gamma - 1) / log_m + 0.5 - sum(1 / (m**k - 1) for k in range(1, 64))
    lo, hi = 1.0, n + 1.0     # the left side is convex and below n at ĉ = 0
    while lo < (x := (lo + hi) / 2) < hi:
        lo, hi = (x, hi) if x * (math.log(x) / log_m + a) < n else (lo, x)
    return lo - 1           # at most n: the root, or n where it lies past n


def lz78_entropy(word: Word) -> float:
    """LZ78 phrase-rate entropy estimate, c log(c) / n nats, divided by
    ĉ log(ĉ) / (n log m) to undo its finite-length upward bias (+12% on
    uniform bits at 10^6 symbols).  m is the alphabet up to the largest
    symbol; ĉ is the expected phrase count of a uniform source, whose c
    phrases and the empty word are a digital search tree of c + 1 keys and
    path length n (P. Jacquet and W. Szpankowski, Theoret. Comput. Sci.
    144, 1995; Knuth, TAOCP vol. 3, §6.3).  The model is asymptotic and
    assumes independent keys (ĉ is about a phrase above sampled means at
    n <= 20); skewed sources keep a residual upward bias."""
    n = len(word)
    if n == 0:
        return 0.0
    c, m = lz78_phrases(word), int(word.symbols.max()) + 1
    raw = c * math.log(max(c, 2)) / n
    if m < 2:
        return raw
    cr = uniform_lz78_phrases(m, n)
    return raw / ((cr * math.log(max(cr, 2)) / n) / math.log(m))


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
                  counts: tuple, pair: CodedPair) -> EntropyReport:
    """The three entropy-side checks: the LZ78 rate of the output, the
    count-ratio inequality, and the entropy-gain block frequency of the
    coded pair's parse.  ``counts`` is (log_boys, log_girls).

    ``eg_ok`` is the paper's frequency > 3 eps / (8N) of boy N-blocks with
    a drawn girl, read from the pair's per-N-block vectors; ``eg_target``
    = (1/N)(1 - delta)(1 - 15 delta)(eps/2) lies below that threshold at
    the practical pack (0.00107 < 0.00117), so ``eg_ok`` is false there.
    """
    log_boys, log_girls = counts
    n, D = pack.N, pack.Delta
    ratio_lhs = log_girls - log_boys
    ratio_rhs = n * (pack.h_target - h_source - 2 * D)
    eg_freq = int(np.count_nonzero(pair.boy & ~pair.flagged)) / len(pair.x)
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
    """(y, header dict); the caller checks the hashes against its pack.
    ``ShiftcodeError`` names a line that is neither a header nor digits,
    and a base that is not an integer."""
    header, digits = {}, []
    for n, line in enumerate(text.splitlines(), 1):
        key, *value = line.split(None, 1) or [""]
        if key in ("pack", "dict", "marker", "base"):
            header[key] = "".join(value)
        elif value or (key and not (key.isascii() and key.isdigit())):
            raise ShiftcodeError(
                f"line {n} is neither a header line nor a line of digits")
        else:
            digits.append(key)
    try:
        base = int(ascii_text(header.get("base", "0")))
    except ValueError:
        raise ShiftcodeError(f"base {header['base']!r} is not an integer") from None
    return Word.from_string("".join(digits), base), header
