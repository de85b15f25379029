import itertools
import math
import os
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from shiftcode.errors import EmptySftError
from shiftcode.measures import MarkovMeasure
from shiftcode.shiftspace import Word, build_sft, window_codes

# Derandomized so a run draws the same examples on every host, without a
# deadline because shared hosts stall, and without an example database so
# a run stores no failing examples for the next one.
settings.register_profile("tier1", deadline=None, derandomize=True, database=None)
settings.load_profile("tier1")

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="session", autouse=True)
def src_on_subprocess_path():
    """CLI subprocesses import shiftcode from this checkout, as pytest does."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture(scope="session")
def full2():
    return build_sft(2, [])


@pytest.fixture(scope="session")
def full3():
    return build_sft(3, [])


@pytest.fixture(scope="session")
def golden_mean():
    return build_sft(2, ["11"])


@pytest.fixture(scope="session")
def bern_half():
    return MarkovMeasure.bernoulli([0.5, 0.5])


@pytest.fixture(scope="session")
def bern_01():
    return MarkovMeasure.bernoulli([0.9, 0.1])


@pytest.fixture(scope="session")
def sft_zoo():
    """Small mixing SFTs: alphabet <= 3, memory <= 2."""
    return [
        build_sft(2, []),
        build_sft(2, ["11"]),
        build_sft(2, ["111"]),
        build_sft(3, []),
        build_sft(3, ["22"]),
        build_sft(3, ["012"]),
    ]


@pytest.fixture(scope="session")
def supports(sft_zoo):
    """sft_zoo plus two SFTs whose pruning removes a symbol (k = 1)."""
    return sft_zoo + [build_sft(3, ["0"]), build_sft(3, ["0", "11"])]


LOG2 = math.log(2)
GOLDEN_ENTROPY = math.log((1 + math.sqrt(5)) / 2)


def markov_on_support(sft, weights):
    """Markov measure with the given positive weights on the SFT's edges."""
    p = sft.adjacency * np.asarray(weights, dtype=np.float64)
    return MarkovMeasure(sft, p / p.sum(axis=1, keepdims=True))


def reference_sample_path(measure, length, seed):
    """Reference for MarkovMeasure.sample_path on a chain with memory or
    dependence: the per-symbol loop, one searchsorted per symbol on the
    same uniforms.  Returns the symbols as a uint8 array."""
    rng = np.random.default_rng(seed)
    states = measure.sft.states
    out = np.empty(length, dtype=np.uint8)
    if length == 0:
        return out
    s = rng.choice(len(states), p=measure.stationary)
    emit = min(measure.sft.k, length)
    out[:emit] = states[s][:emit]
    cum = np.cumsum(measure.transition, axis=1)
    for i, u in enumerate(rng.random(length - emit)):
        s = min(int(np.searchsorted(cum[s], u, side="right")), len(states) - 1)
        out[emit + i] = states[s][-1]
    return out


def reference_rokhlin_parse(x, N, delta, seed):
    """Reference for codec.rokhlin_parse: (starts, lengths) from one scalar
    draw per boundary that has room for an N-block."""
    q = delta * N / (1.0 + delta * (N - 1))
    rng = np.random.default_rng((seed, 0x726F6B))
    starts, lengths = [], []
    pos, hi = x.lo, x.hi
    while pos < hi:
        if pos + N <= hi and rng.random() >= q:
            starts.append(pos)
            lengths.append(N)
            pos += N
        else:
            starts.append(pos)
            lengths.append(1)
            pos += 1
    return (np.array(starts, dtype=np.int64),
            np.array(lengths, dtype=np.int64))


def reference_lz78_phrases(word):
    """Reference for codec.lz78_phrases: the per-symbol trie walk."""
    children = {}
    node = 0
    next_id = 1
    phrases = 0
    for a in word.symbols.tolist():
        key = (node << 8) | a
        nxt = children.get(key)
        if nxt is None:
            children[key] = next_id
            next_id += 1
            phrases += 1
            node = 0
        else:
            node = nxt
    if node != 0:
        phrases += 1
    return phrases


def reference_block_distribution(words, k):
    """Reference for BlockDistribution.from_words: the frequencies of a
    Counter of the k-blocks of each sample, as tuples of symbols (of d-tuples
    for paired samples), keys in lex order."""
    if isinstance(words, (Word, np.ndarray)):
        words = [words]
    counts = Counter()
    for w in words:
        rows = [tuple(r) if isinstance(r, list) else r
                for r in np.asarray(w.symbols if isinstance(w, Word) else w).tolist()]
        counts.update(tuple(rows[i:i + k]) for i in range(len(rows) - k + 1))
    n = sum(counts.values())
    if n < 1:
        raise ValueError("word shorter than block length")
    return {key: c / n for key, c in sorted(counts.items())}


def reference_walk(dfa, symbols):
    """Reference for Dfa.walk: the per-symbol loop; -1 once a step is dead
    or a symbol lies outside the alphabet."""
    cur = dfa.start
    for a in symbols:
        if not 0 <= a < dfa.alphabet_size:
            return -1
        cur = dfa.step[cur][a]
        if cur < 0:
            return -1
    return int(cur)


def reference_suffix_counts(dfa, length):
    """Reference for Dfa.suffix_counts: list rows of per-node sums, row 0
    from the accepting vector."""
    table = [[int(a) for a in dfa.accepting]]
    while len(table) <= length:
        prev = table[-1]
        table.append([sum(prev[nxt] for nxt in dfa.step[node] if nxt >= 0)
                      for node in range(dfa.n_nodes)])
    return table


def reference_rank(dfa, symbols):
    """Reference for Dfa.rank: per symbol, add the suffix counts of every
    smaller live symbol."""
    n = len(symbols)
    table = reference_suffix_counts(dfa, n)
    node = dfa.start
    r = 0
    for pos, a in enumerate(symbols):
        for b in range(a):
            nxt = dfa.step[node][b]
            if nxt >= 0:
                r += table[n - pos - 1][nxt]
        node = dfa.step[node][a]
        if node < 0:
            raise ValueError("word not accepted by automaton")
    if not dfa.accepting[node]:
        raise ValueError("word not accepted by automaton")
    return r


def reference_unrank(dfa, length, r):
    """Reference for Dfa.unrank: per position, the first symbol whose
    suffix count exceeds the remaining rank."""
    table = reference_suffix_counts(dfa, length)
    if not 0 <= r < table[length][dfa.start]:
        raise ValueError("rank out of range")
    node = dfa.start
    out = []
    for pos in range(length):
        for a in range(dfa.alphabet_size):
            nxt = dfa.step[node][a]
            if nxt < 0:
                continue
            c = table[length - pos - 1][nxt]
            if r < c:
                out.append(a)
                node = nxt
                break
            r -= c
    return tuple(out)


def one_count_dfa(k_lo, k_hi):
    """Binary words with k_lo to k_hi ones: node = ones so far, accepting
    from k_lo (a DFA with a rejecting node for the automaton tests)."""
    from shiftcode.automata import Dfa
    ones = np.arange(k_hi + 1)
    step = np.stack([ones, np.where(ones < k_hi, ones + 1, -1)], axis=1)
    return Dfa(2, step, accepting=ones >= k_lo)


def reference_boys(mu, N, log_threshold):
    """Reference for dictionary.boys on a source that is not all boys: every
    admissible N-block weighed by log_cylinder_probability, the boys listed
    in lex order as tuples, and their total mass."""
    from shiftcode.shiftspace import enumerate_words
    listed, logs = [], []
    for w in enumerate_words(mu.sft, N):
        lp = mu.log_cylinder_probability(w)
        if lp >= log_threshold:
            listed.append(tuple(w.symbols.tolist()))
            logs.append(lp)
    return listed, math.fsum(math.exp(lp) for lp in logs)


def _one_count_completions(m, ones, k_lo, k_hi):
    """Length-m suffixes keeping the total one-count in [k_lo, k_hi]."""
    return sum(math.comb(m, j) for j in range(max(0, k_lo - ones),
                                               min(m, k_hi - ones) + 1))


def reference_binomial_rank(N, k_lo, k_hi, symbols):
    """Reference for the one-count boys' rank: the per-symbol loop over
    binomial completions."""
    r = ones = 0
    for i, b in enumerate(symbols):
        if b == 1:
            r += _one_count_completions(N - i - 1, ones, k_lo, k_hi)
            ones += 1
    return r


def reference_binomial_unrank(N, k_lo, k_hi, r):
    """Reference for the one-count boys' unrank."""
    out = []
    ones = 0
    for i in range(N):
        c0 = _one_count_completions(N - i - 1, ones, k_lo, k_hi)
        if r < c0:
            out.append(0)
        else:
            r -= c0
            out.append(1)
            ones += 1
    return tuple(out)


def reference_sft_tables(alphabet_size, forbidden):
    """Reference for Sft's tables by the per-state construction: scan every
    k-word and every (k+1)-word for forbidden factors, then prune states
    without an in- or out-edge.  Raises EmptySftError like Sft.

    ``forbidden`` holds symbol tuples; returns the dict of states,
    state_codes, last_symbol, adjacency and step.
    """
    forbidden = sorted(set(forbidden))
    memory = max((len(f) for f in forbidden), default=1) - 1 if forbidden else 0
    k = max(memory, 1)

    def clean(word):
        for f in forbidden:
            L = len(f)
            for i in range(len(word) - L + 1):
                if word[i:i + L] == f:
                    return False
        return True

    states = [s for s in itertools.product(range(alphabet_size), repeat=k) if clean(s)]
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    adj = np.zeros((n, n), dtype=np.uint8)
    for i, u in enumerate(states):
        for a in range(alphabet_size):
            j = index.get(u[1:] + (a,))
            if j is not None and clean(u + (a,)):
                adj[i, j] = 1
    keep = np.ones(n, dtype=bool)
    while True:
        out_deg = (adj[keep][:, keep]).sum(axis=1) if keep.any() else np.array([])
        in_deg = (adj[keep][:, keep]).sum(axis=0) if keep.any() else np.array([])
        bad = (out_deg == 0) | (in_deg == 0)
        if not bad.any():
            break
        live = np.flatnonzero(keep)
        keep[live[bad]] = False
    if not keep.any():
        raise EmptySftError("no admissible word survives pruning: empty SFT")
    live = np.flatnonzero(keep)
    states = tuple(states[i] for i in live)
    index = {s: i for i, s in enumerate(states)}
    adjacency = np.ascontiguousarray(adj[np.ix_(live, live)])
    step = np.full((len(states), alphabet_size), -1, dtype=np.int64)
    for i, u in enumerate(states):
        for a in range(alphabet_size):
            j = index.get(u[1:] + (a,))
            if j is not None and adjacency[i, j]:
                step[i, a] = j
    state_array = np.array(states, dtype=np.uint8)
    return {
        "states": states,
        "state_codes": window_codes(state_array.T, k, alphabet_size)[0],
        "last_symbol": state_array[:, -1].copy(),
        "adjacency": adjacency,
        "step": step,
    }


def halmos_oracle(n: int, m: int) -> bool:
    """Reference for toral.halmos_membership by an independent path.

    n = 1 is constants-only by telescoping; n | m exhibits the explicit
    cosine witness; otherwise the circulant is nonsingular and the
    generators C^{-1} e_i of the solution group expose any non-constant
    solution.
    """
    import sympy
    from sympy import ZZ, Poly
    from sympy.polys.specialpolys import cyclotomic_poly

    from shiftcode.toral import _X, _circulant_for, poly_coeffs

    if n == 1:
        return False
    coeffs = poly_coeffs(Poly(cyclotomic_poly(n, _X), _X, domain=ZZ))
    if m % n == 0:
        # witness g(x) = cos(2 pi (x - alpha)/n) / 3: values stay in
        # (-1/3, 1/3), so mod-1 equality is real equality and the witness
        # is genuinely non-constant
        alpha = 0.5 ** 0.5
        g = [math.cos(2 * math.pi * (x - alpha) / n) / 3 for x in range(m + len(coeffs))]
        vals = [math.fsum(ak * g[x + k] for k, ak in enumerate(coeffs))
                for x in range(m)]
        assert all(abs(v) < 1e-9 for v in vals), "cosine witness failed"
        assert any(abs(g[x] - g[0]) > 1e-9 for x in range(m)), "witness constant"
        return True
    c = _circulant_for(n, m)
    inv = c.inv()
    for j in range(m):
        col = [Fraction(int(sympy.fraction(inv[i, j])[0]),
                        int(sympy.fraction(inv[i, j])[1])) % 1 for i in range(m)]
        if any(v != col[0] for v in col):
            return True
    return False


def reference_connectors(sft, left, right, gap):
    """Reference for interp.iter_connectors: reach sets of states, a full
    shift's words counted out in base m, and a recursive search; reads
    ``sft._step``.  Unlike iter_connectors it ignores the contexts on a
    full shift."""
    from shiftcode.shiftspace import Word

    def step(state, symbol):
        return int(sft._step[state, symbol])

    def end_states():
        if left is None or len(left) == 0:
            return set(range(sft.n_states))
        sym = left.symbols if isinstance(left, Word) else np.asarray(left)
        ends = np.flatnonzero(sft.states_ending_in(sym[-sft.k:]))
        if len(sym) >= sft.k and len(ends) == 0:
            raise ValueError("left word has an inadmissible window")
        return set(ends.tolist())

    def entry_states():
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
                cur = step(cur, a)
                if cur < 0:
                    break
            else:
                good.add(i)
        return good

    if gap < 0:
        raise ValueError("gap must be >= 0")
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
    start = end_states()
    targets = entry_states()
    if not targets:
        return
    # reach[t] = states that can still reach `targets` in exactly t steps
    reach = [targets]
    for _ in range(gap):
        prev = reach[-1]
        reach.append({i for i in range(sft.n_states)
                      if any(step(i, a) in prev for a in range(sft.alphabet_size))})
    if gap == 0:
        if start & targets:
            yield Word(np.zeros(0, dtype=np.uint8))
        return
    word = np.zeros(gap, dtype=np.uint8)

    def rec(cur, pos):
        rem = gap - pos - 1
        for a in range(sft.alphabet_size):
            nxt = {t for t in (step(s, a) for s in cur) if t >= 0}
            nxt &= reach[rem]
            if nxt:
                word[pos] = a
                if pos + 1 == gap:
                    yield Word(word.copy())
                else:
                    yield from rec(nxt, pos + 1)

    yield from rec(start & reach[gap], 0)


def plan_from_words(lo, hi, words=(), **options):
    """The SegmentPlan of Words placed at their own coordinates."""
    from shiftcode.interp import SegmentPlan
    words = list(words)
    return SegmentPlan(lo, hi, [w.lo for w in words], [len(w) for w in words],
                       np.concatenate([w.symbols for w in words]) if words else (),
                       **options)


def plan_words(plan):
    """The plan's segments as Words at their coordinates, in plan order."""
    from shiftcode.shiftspace import Word
    ends = np.cumsum(plan.lengths)
    return [Word(plan.symbols[end - n:end], start) for start, n, end in
            zip(plan.starts.tolist(), plan.lengths.tolist(), ends.tolist())]


def parse_plan(text, lo, hi, **options):
    """Read ``seg <start> <word>`` lines into a plan (test fixtures)."""
    from shiftcode.shiftspace import Word
    segments = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] != "seg" or len(parts) != 3:
            raise ValueError(f"cannot parse plan line {line!r}")
        segments.append(Word.from_string(parts[2], base=int(parts[1])))
    return plan_from_words(lo, hi, segments, **options)


def serialize_plan(plan):
    return "\n".join(f"seg {w.lo} {w.to_string()}" for w in plan_words(plan)) + "\n"


def periodic_closure(sft, word, gap=None):
    """Connector w making word w word w ... a legal bi-infinite point."""
    from shiftcode.interp import connect_words
    from shiftcode.shiftspace import Word, specification_gap
    if len(word) == 0:
        raise ValueError("cannot close the empty word")
    g = specification_gap(sft) if gap is None else gap
    w = connect_words(sft, word, word, g)
    period = np.concatenate([word.symbols, w.symbols])
    assert sft.is_admissible(Word(np.tile(period, 3)))
    return w


def greedy_parse(skeleton):
    """Oracle for Skeleton.sample: parse back into legal blocks; raises if
    the sequence is not a concatenation of exactly the two blocks."""
    short, long_ = skeleton._blocks(skeleton.kind, skeleton.params)
    symbols = skeleton.symbols
    out = []
    pos = 0
    n = len(symbols)
    while pos < n:
        if pos + len(long_) <= n and np.array_equal(symbols[pos:pos + len(long_)], long_):
            out.append("long")
            pos += len(long_)
        elif pos + len(short) <= n and np.array_equal(symbols[pos:pos + len(short)], short):
            out.append("short")
            pos += len(short)
        else:
            raise ValueError(f"skeleton does not parse at position {pos}")
    return out


def reference_block_plan(lo, hi, boys_at, girl_rows, flagged, pack, scheme):
    """Reference for codec.block_plan: the encoder's per-block Word loop."""
    from shiftcode.shiftspace import Word
    N, M = pack.N, pack.M
    segments = []
    mask = np.zeros(hi - lo, dtype=bool)
    for n, girl, d in zip(list(boys_at), girl_rows, list(flagged)):
        segments.append(Word(girl, n + pack.info_region[0]))
        if d:
            segments.append(Word(scheme.word.symbols, n + N - 9 * M))
            mask[n - lo:n + N - lo] = True
    return plan_from_words(lo, hi, segments, min_gap=M), mask


def reference_validate(plan):
    """Reference for SegmentPlan.validate: the per-segment loop, with the
    same messages; returns the segments sorted by start."""
    if plan.hi <= plan.lo:
        raise ValueError("empty or inverted range")
    segs = sorted(plan_words(plan), key=lambda w: w.lo)
    prev_hi = None
    for w in segs:
        if len(w) == 0:
            raise ValueError("segments must be non-empty")
        if w.lo < plan.lo or w.hi > plan.hi:
            raise ValueError(f"segment [{w.lo}, {w.hi}) outside range")
        if plan.max_segment is not None and len(w) > plan.max_segment:
            raise ValueError(f"segment of length {len(w)} exceeds {plan.max_segment}")
        if prev_hi is not None:
            gap = w.lo - prev_hi
            if gap < 0:
                raise ValueError("segments overlap")
            if gap < plan.min_gap:
                raise ValueError(f"gap {gap} below min_gap {plan.min_gap}")
        prev_hi = w.hi
    return segs


def reference_interpolate(sft, plan):
    """Reference for interp.interpolate: the per-segment loop, checking
    each segment by ``reference_walk`` and gluing the pieces one
    ``connect_words`` call at a time."""
    from shiftcode.interp import connect_words
    from shiftcode.shiftspace import Word, specification_gap

    segments = reference_validate(plan)
    if plan.min_gap < specification_gap(sft):
        raise ValueError("plan min_gap below the specification gap")
    k = sft.k
    pieces = []
    tail = np.zeros(0, dtype=np.uint8)  # the last k symbols emitted so far
    pos = plan.lo
    for seg in segments:
        if reference_walk(sft.factor_dfa(), seg.symbols) < 0:
            raise ValueError(f"planned segment at {seg.lo} is not admissible")
        filler = connect_words(sft, tail, seg, seg.lo - pos).symbols
        pieces += [filler, seg.symbols]
        tail = np.concatenate([tail, filler[-k:], seg.symbols[-k:]])[-k:]
        pos = seg.hi
    pieces.append(connect_words(sft, tail, None, plan.hi - pos).symbols)
    return Word(np.concatenate(pieces), plan.lo)
