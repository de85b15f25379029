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


@pytest.fixture(scope="session")
def wide_codes():
    """SFTs whose (k+1)-window codes need uint16: 3^6 and 2^9 codes."""
    return [build_sft(3, ["001122"]), build_sft(2, ["101010101"])]


@pytest.fixture(scope="session")
def many_forbidden():
    """SFTs forbidding more (k+1)-windows than shiftspace.FEW_FORBIDDEN:
    the cat-map edge shift (12, uint8 codes) and 22 with uint16 codes."""
    return [build_sft(5, "03 04 13 14 33 34 20 21 22 40 41 42".split()),
            build_sft(3, ["2222", "001122"])]


LOG2 = math.log(2)
GOLDEN_ENTROPY = math.log((1 + math.sqrt(5)) / 2)


def reference_adjacency(sft):
    """The SFT's 0/1 state matrix by the per-state construction of
    reference_sft_tables, independent of the library's step table."""
    return reference_sft_tables(sft.alphabet_size, sft.forbidden)["adjacency"]


def markov_on_support(sft, weights):
    """Markov measure with the given positive weights on the SFT's edges."""
    p = reference_adjacency(sft) * np.asarray(weights, dtype=np.float64)
    return MarkovMeasure(sft, p / p.sum(axis=1, keepdims=True))


def reference_stationary_vector(transition):
    """Reference for measures.stationary_vector on an irreducible chain:
    the least-squares solve of pi (P - I) = 0 bordered by sum(pi) = 1, its
    negative entries clamped to 0 and the result normalised."""
    p = np.asarray(transition, dtype=np.float64)
    n = len(p)
    a = np.vstack([p.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[n] = 1.0
    pi = np.maximum(np.linalg.lstsq(a, b, rcond=None)[0], 0.0)
    return pi / pi.sum()


def reference_full_width_fold(transition):
    """Reference for measures.stationary_vector's GTH fold, which starts
    each row update at row k's first nonzero column: the same state
    reduction folding each state into the full width ``a[rows, :k]`` of
    the rows with an entry in its column."""
    a = np.array(transition, dtype=np.float64)
    n = len(a)
    for k in range(n - 1, 0, -1):
        rows = np.flatnonzero(a[:k, k])
        a[rows, k] /= a[k, :k].sum()
        a[rows, :k] += a[rows, k, None] * a[k, :k]
    pi = np.ones(n)
    for k in range(1, n):
        pi[k] = (pi[:k] * a[:k, k]).sum()
    return pi / pi.sum()


def reference_sample_path(measure, length, seed):
    """Reference for MarkovMeasure.sample_path on a chain with memory or
    dependence: the per-symbol loop, one searchsorted per symbol on the
    same uniforms, clamped to the last state of positive probability in
    the row.  Returns the symbols as a uint8 array."""
    rng = np.random.default_rng(seed)
    states = measure.sft.states
    out = np.empty(length, dtype=np.uint8)
    if length == 0:
        return out
    s = rng.choice(len(states), p=measure.stationary)
    emit = min(measure.sft.k, length)
    out[:emit] = states[s][:emit]
    cum = np.cumsum(measure.transition, axis=1)
    last = [int(np.flatnonzero(row > 0)[-1]) for row in measure.transition]
    for i, u in enumerate(rng.random(length - emit)):
        s = min(int(np.searchsorted(cum[s], u, side="right")), last[s])
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
    """Reference for the k-block distributions of estimators.empirical_family:
    the frequencies of a Counter of the k-blocks of each sample, as tuples of
    symbols (of d-tuples for paired samples), keys in lex order.  A paired
    sample is a tuple of d columns or an (n, d) array."""
    if not isinstance(words, list):
        words = [words]
    counts = Counter()
    for w in words:
        if isinstance(w, tuple):
            w = np.stack([np.asarray(c.symbols if isinstance(c, Word) else c)
                          for c in w], axis=1)
        rows = [tuple(r) if isinstance(r, list) else r
                for r in np.asarray(w.symbols if isinstance(w, Word) else w).tolist()]
        counts.update(tuple(rows[i:i + k]) for i in range(len(rows) - k + 1))
    n = sum(counts.values())
    if n < 1:
        raise ValueError("word shorter than block length")
    return {key: c / n for key, c in sorted(counts.items())}


def reference_from_words(words, k):
    """Reference for estimators.empirical_family at one k, and for its
    refusals: the former per-k count (``BlockDistribution.from_words``),
    which codes the k * d flat symbols of each window, strided by d, and
    sorts them.  A paired sample is an (n, d) array."""
    if isinstance(words, (Word, np.ndarray)):
        words = [words]
    samples = [np.asarray(w.symbols if isinstance(w, Word) else w)
               for w in words]
    shape = samples[0].shape[1:]
    d = int(np.prod(shape))
    m = 1 + max(int(s.max(initial=0)) for s in samples)
    codes = np.concatenate([window_codes(s.reshape(-1), k * d, m)[::d]
                            for s in samples])
    n = len(codes)
    if n < 1:
        raise ValueError("word shorter than block length")
    keys, counts = np.unique(codes, return_counts=True)
    powers = m ** np.arange(k * d - 1, -1, -1, dtype=np.uint64)
    blocks = (keys[:, None] // powers % m).reshape((len(keys), k) + shape).tolist()
    return {(tuple(map(tuple, b)) if shape else tuple(b)): c / n
            for b, c in zip(blocks, counts.tolist())}


def reference_walk(dfa, symbols):
    """Reference for Dfa.walk: the per-symbol loop; -1 once a step is dead
    or a symbol lies outside the alphabet."""
    cur = 0
    for a in symbols:
        if not 0 <= a < dfa.alphabet_size:
            return -1
        cur = dfa.step[cur][a]
        if cur < 0:
            return -1
    return int(cur)


def reference_admissible_pieces(sft, symbols, lengths):
    """Reference for Sft.admissible_pieces: every (k+1)-window code looked
    up in the edge table in one take; a piece of length n <= k matched
    against the states' last n symbols."""
    sym = np.asarray(symbols)
    lengths = np.asarray(lengths, dtype=np.int64)
    k, m = sft.k, sft.alphabet_size
    ends = np.cumsum(lengths)
    ok = np.ones(len(lengths), dtype=bool)
    off = (sym < 0) | (sym >= m)
    if off.any():
        ok[np.searchsorted(ends, np.flatnonzero(off), side="right")] = False
        sym = np.where(off, 0, sym)
    bad = np.flatnonzero(~sft.edges.take(window_codes(sym, k + 1, m)))
    piece = np.searchsorted(ends, bad, side="right")
    ok[piece[bad + k < ends[piece]]] = False
    starts = ends - lengths
    for n in set(lengths[lengths <= k].tolist()):
        at = np.flatnonzero(lengths == n)
        code = window_codes(sym[starts[at, None] + np.arange(n)].T, n, m)[0]
        ok[at] &= np.isin(code, sft.state_suffix_codes(n))
    return ok


def reference_suffix_counts(dfa, length):
    """Reference for Dfa.suffix_counts: list rows of per-node sums, row 0
    all ones (every node accepts)."""
    table = [[1] * dfa.n_nodes]
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
    node = 0
    r = 0
    for pos, a in enumerate(symbols):
        for b in range(a):
            nxt = dfa.step[node][b]
            if nxt >= 0:
                r += table[n - pos - 1][nxt]
        node = dfa.step[node][a]
        if node < 0:
            raise ValueError("word not accepted by automaton")
    return r


def reference_unrank(dfa, length, r):
    """Reference for Dfa.unrank: per position, the first symbol whose
    suffix count exceeds the remaining rank."""
    table = reference_suffix_counts(dfa, length)
    if not 0 <= r < table[length][0]:
        raise ValueError("rank out of range")
    node = 0
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


def _column_codes(dfa, rows):
    """Rows as a 2-D int array, symbols off the alphabet set to m."""
    codes = np.asarray(rows)
    m = dfa.alphabet_size
    codes = np.where((codes >= 0) & (codes < m), codes, m)
    return codes if codes.dtype.kind in "iu" else codes.astype(np.intp)


def column_ends(dfa, rows):
    """Oracle for the chunked walk behind Dfa.member_rows: one ``moves``
    gather per column; the sink where a row dies or leaves the alphabet."""
    nodes = np.zeros(len(rows), dtype=np.intp)
    for col in _column_codes(dfa, rows).T:
        nodes = dfa.moves[nodes, col]
    return nodes


def column_rank_rows(dfa, rows):
    """Oracle for Dfa.rank_rows: per column, ``f[rem, moves[node, b]]``
    for each b below the row's symbol, on the same int64 or object rows."""
    codes = _column_codes(dfa, rows)
    n_rows, length = codes.shape
    table = dfa._sweep_table(length)
    moves, sink = dfa.moves, dfa.n_nodes
    nodes = np.zeros(n_rows, dtype=np.intp)
    ranks = np.zeros(n_rows, dtype=table.dtype)
    for pos, col in enumerate(codes.T):
        counts = table[length - pos - 1]
        for b in range(dfa.alphabet_size - 1):
            ranks += counts[np.where(col > b, moves[nodes, b], sink)]
        nodes = moves[nodes, col]
    if (nodes == sink).any():
        raise ValueError("word not accepted by automaton")
    return ranks.astype(object, copy=False)


def column_unrank_rows(dfa, length, ranks):
    """Oracle for Dfa.unrank_rows: per column, a row passes symbol a,
    paying its count, while its rank allows."""
    from shiftcode.automata import rank_vector
    table = dfa._sweep_table(length)
    ranks = rank_vector(ranks, int(table[length, 0])).astype(table.dtype)
    nodes = np.zeros(len(ranks), dtype=np.intp)
    out = np.empty((len(ranks), length), dtype=np.uint8)
    for pos in range(length):
        counts = table[length - pos - 1]
        syms = np.zeros(len(ranks), dtype=np.intp)
        for a in range(dfa.alphabet_size - 1):
            c = counts[dfa.moves[nodes, a]]
            past = (syms == a) & (ranks >= c)
            ranks = np.where(past, ranks - c, ranks)
            syms += past
        out[:, pos] = syms
        nodes = dfa.moves[nodes, syms]
    return out


def reference_factor_dfa(sft):
    """Reference for Sft.factor_dfa by the per-prefix loop: the prefixes of
    states numbered in tuple-sort order, then the states in their order."""
    from shiftcode.automata import Dfa
    k = sft.k
    state_index = {s: i for i, s in enumerate(sft.states)}
    prefixes = sorted({s[:j] for s in sft.states for j in range(k)})
    pref_index = {p: i for i, p in enumerate(prefixes)}
    n_pref = len(prefixes)
    rows = []
    for p in prefixes:
        row = []
        for a in range(sft.alphabet_size):
            q = p + (a,)
            if len(q) < k:
                row.append(pref_index.get(q, -1))
            else:
                j = state_index.get(q)
                row.append(-1 if j is None else n_pref + j)
        rows.append(row)
    for i in range(sft.n_states):
        rows.append([int(n_pref + t) if t >= 0 else -1 for t in sft._step[i]])
    assert pref_index[()] == 0      # the empty prefix sorts first: the start
    return Dfa(sft.alphabet_size, np.array(rows, dtype=np.int64))


def one_count_dfa(k_hi):
    """Binary words with at most k_hi ones: node = ones so far, every node
    accepting (counts are sums of binomials, far past 2^63 at length 70)."""
    from shiftcode.automata import Dfa
    ones = np.arange(k_hi + 1)
    step = np.stack([ones, np.where(ones < k_hi, ones + 1, -1)], axis=1)
    return Dfa(2, step)


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


def reference_log_cylinder_extreme(measure, length, pick):
    """Reference for MarkovMeasure.log_cylinder_extreme: the dense max-plus
    or min-plus DP, length - k steps of an n_states x n_states sum from
    log pi; a word shorter than k weighs the stationary mass of the states
    that end in it."""
    sft = measure.sft
    if length < sft.k:
        mass = np.bincount(sft.state_suffix_codes(length),
                           weights=measure.stationary)
        return float(np.log(pick(mass[mass > 0])))
    v = measure._log_pi
    step = np.where(measure.transition > 0, measure._log_p,
                    -math.inf if pick is np.max else math.inf)
    for _ in range(length - sft.k):
        v = pick(v[:, None] + step, axis=0)
    return float(pick(v))


def reference_edge_excess(mu):
    """Reference for the excesses of dictionary._type_class_boys: log pi
    and log P less their largest, scattered into an n_nodes x n_nodes
    matrix by (source, target) node, 0 between prefixes, and gathered back
    by the factor automaton's steps.  Returns (live, excess): live is false
    on a dead edge or one of probability 0, where excess is 0.0."""
    sft, factor = mu.sft, mu.sft.factor_dfa()
    n = factor.n_nodes
    tops = [mu._log_pi.max(), mu._log_p[mu.transition > 0].max()]
    by_pair = np.zeros((n, n))
    by_pair[:n - sft.n_states, n - sft.n_states:] = mu._log_pi - tops[0]
    by_pair[n - sft.n_states:, n - sft.n_states:] = mu._log_p - tops[1]
    excess = by_pair[np.arange(n)[:, None], factor.step]
    live = (factor.step >= 0) & np.isfinite(excess)
    return live, np.where(live, excess, 0.0)


def _one_count_completions(m, ones, k_hi):
    """Length-m suffixes keeping the total one-count at most k_hi."""
    return sum(math.comb(m, j) for j in range(min(m, k_hi - ones) + 1))


def reference_binomial_rank(N, k_hi, symbols):
    """Reference for the one-count boys' rank: the per-symbol loop over
    binomial completions."""
    r = ones = 0
    for i, b in enumerate(symbols):
        if b == 1:
            r += _one_count_completions(N - i - 1, ones, k_hi)
            ones += 1
    return r


def reference_binomial_unrank(N, k_hi, r):
    """Reference for the one-count boys' unrank."""
    out = []
    ones = 0
    for i in range(N):
        c0 = _one_count_completions(N - i - 1, ones, k_hi)
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
    forbidden = set(forbidden)
    memory = max((len(f) for f in forbidden), default=1) - 1 if forbidden else 0
    k = max(memory, 1)
    lengths = {len(f) for f in forbidden}

    def clean(word):
        return not any(word[i:i + L] in forbidden for L in lengths
                       for i in range(len(word) - L + 1))

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


def reference_specification_gap(sft):
    """Reference for shiftspace.specification_gap: one boolean product per
    power, up to Wielandt's (n-1)^2 + 1, the first all-positive power
    wins; raises NotMixingError past it."""
    from shiftcode.errors import NotMixingError
    a = reference_adjacency(sft).astype(bool)
    n = a.shape[0]
    p = a.copy()
    for power in range(1, (n - 1) ** 2 + 2):
        if p.all():
            return power
        p = (p.astype(np.uint16) @ a.astype(np.uint16)) > 0
    raise NotMixingError("adjacency matrix is not primitive: not mixing")


def reference_topological_entropy(sft):
    """Reference for shiftspace.topological_entropy: power iteration on the
    dense A + I with the Collatz-Wielandt bracket, then a dense eigensolve
    once 100 products fail to halve the bracket (as on a reducible shift,
    where a component's ratios can stay below the top one).  Division
    warnings are silenced: on a reducible shift a transient state's mass
    can underflow to 0."""
    a = reference_adjacency(sft).astype(np.float64)
    n = a.shape[0]
    if n == 1:
        return math.log(float(a[0, 0])) if a[0, 0] > 1 else 0.0
    b = a + np.eye(n)
    x, width = np.full(n, 1.0 / n), math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in itertools.count():
            y = b @ x
            ratios = y / x
            lo, hi = ratios.min(), ratios.max()
            x = y / y.sum()
            if hi - lo <= 1e-13 * hi:
                return math.log(0.5 * (lo + hi) - 1.0)
            if i % 100 == 0:
                if not hi - lo < 0.5 * width:   # true for a NaN bracket
                    break
                width = hi - lo
    rho = max(ev.real for ev in np.linalg.eigvals(a))
    return math.log(rho) if rho > 1.0 else 0.0


def reference_closure(a):
    """The boolean closure of I + a, squared to a fixed point."""
    reach = (np.asarray(a) > 0) | np.eye(len(a), dtype=bool)
    while True:
        closed = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
        if np.array_equal(closed, reach):
            return reach
        reach = closed


def reference_reach_pair(p):
    """The first row-major pair (i, j) with no path from i to j in the
    chain with transition matrix p, from the boolean closure of I + (p > 0),
    or None when it is irreducible."""
    zeros = np.argwhere(~reference_closure(p))
    return tuple(int(v) for v in zeros[0]) if len(zeros) else None


def reference_strong_components(succ):
    """Reference for shiftspace.strong_components: each state labelled by
    the least state it reaches and is reached from, in the boolean closure
    of I + A, A read from the padded successor table (-1 for no successor)."""
    succ = np.asarray(succ)
    a = np.zeros((len(succ), len(succ)), dtype=bool)
    rows, cols = np.nonzero(succ >= 0)
    a[rows, succ[rows, cols]] = True
    reach = reference_closure(a)
    return np.argmax(reach & reach.T, axis=1)


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


def brute_max_matching(edges):
    """Reference for dictionary.hall_match: the size of a largest matching
    by exhaustive search over every partial injection of the boys into
    their girls, memoised on (boys left, girls taken); for a few boys."""
    from functools import cache

    boys = sorted(edges)

    @cache
    def best(i, taken):
        if i == len(boys):
            return 0
        return max([best(i + 1, taken)] + [1 + best(i + 1, taken | {g})
                                           for g in edges[boys[i]] if g not in taken])

    return best(0, frozenset())


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
    """The SegmentPlan of Words placed at their own coordinates: each
    word's symbols inside [lo, hi) are written at them (a word outside
    the range is clipped), and every other coordinate holds 0."""
    from shiftcode.interp import SegmentPlan
    words = list(words)
    symbols = np.zeros(max(hi - lo, 0), dtype=np.uint8)
    for w in words:
        a, b = max(w.lo, lo), min(w.hi, hi)
        if a < b:
            symbols[a - lo:b - lo] = w.symbols[a - w.lo:b - w.lo]
    return SegmentPlan(lo, hi, [w.lo for w in words], [len(w) for w in words],
                       symbols, **options)


def plan_words(plan):
    """The plan's segments as Words at their coordinates, in plan order."""
    from shiftcode.shiftspace import Word
    return [Word(plan.symbols[start - plan.lo:start - plan.lo + n], start)
            for start, n in zip(plan.starts.tolist(), plan.lengths.tolist())]


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


def reference_skeleton_blocks(kind, params):
    """Oracle for Skeleton._blocks: the (short, long) blocks of each
    family, built per kind."""
    if kind == "boost":
        k0, k1, k2 = params
        short = np.concatenate([np.ones(k1, np.uint8), np.zeros(k0, np.uint8),
                                np.full(k2, 2, np.uint8), np.zeros(k0, np.uint8)])
        return short, np.concatenate([np.ones(k1 + 1, np.uint8), short[k1:]])
    N, M = params
    short = np.concatenate([np.ones(N - 2 * M, np.uint8), np.zeros(M, np.uint8),
                            np.full(1, 2, np.uint8), np.zeros(M, np.uint8)])
    return short, np.concatenate([np.ones(N + 1 - 2 * M, np.uint8),
                                  short[N - 2 * M:]])


def reference_skeleton_symbols(kind, params, seed, min_length):
    """Oracle for Skeleton.sample: one fair-coin draw per block, whole
    blocks until min_length."""
    short, long_ = reference_skeleton_blocks(kind, params)
    rng = np.random.default_rng(seed)
    pieces, total = [], 0
    while total < min_length:
        blk = long_ if rng.integers(0, 2) else short
        pieces.append(blk)
        total += len(blk)
    return np.concatenate(pieces)


def reference_splice_plan(skeleton, y1, planted, min_gap):
    """Reference for splicer._plan: the 1-runs and the 2-runs each found by
    their own scan, and their segments listed out of start order
    (``SegmentPlan.validate`` sorts them)."""
    from shiftcode.shiftspace import Word

    def runs(value):
        edges = np.flatnonzero(np.diff(np.concatenate(
            [[False], skeleton.symbols == value, [False]]).astype(np.int8)))
        return edges[0::2], edges[1::2] - edges[0::2]

    (s1, n1), (s2, n2) = runs(1), runs(2)
    words = [y1.window(a, a + n) for a, n in zip(s1.tolist(), n1.tolist())]
    if skeleton.kind == "boost":
        words += [planted.window(a, a + n) for a, n in zip(s2.tolist(), n2.tolist())]
    else:
        assert (n2 == 1).all()
        words += [Word(planted.symbols, a - len(planted) // 2) for a in s2.tolist()]
    return plan_from_words(0, len(skeleton), words, min_gap=min_gap)


def greedy_parse(skeleton):
    """Oracle for Skeleton.sample: parse back into legal blocks; raises if
    the sequence is not a concatenation of exactly the two blocks."""
    short, long_ = reference_skeleton_blocks(skeleton.kind, skeleton.params)
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


def reference_draw_flags(parse, eps, n_girls, seed):
    """Reference for codec._draw_flags: one flag per N-block in a loop."""
    import random
    from shiftcode.codec import D_FLAG
    rng = random.Random(f"flags-{seed}")
    flags = np.full(len(parse), None, dtype=object)
    for i in np.flatnonzero(parse.lengths > 1).tolist():
        flags[i] = (D_FLAG if rng.random() < 1.0 - eps / 2.0
                    else rng.randrange(n_girls))
    return flags


def reference_block_kinds(pair):
    """Reference for codec.block_kinds: bool vectors over the parse's
    blocks (N-block, boy, dictionary-flagged) from the boys' start
    coordinates and a compare of every flag with D_FLAG."""
    from shiftcode.codec import D_FLAG
    parse = pair.parse
    boy = np.zeros(len(parse), dtype=bool)
    boy[np.searchsorted(parse.starts, pair.boy_blocks)] = True  # a subset of starts
    return parse.lengths > 1, boy, parse.flags == D_FLAG


def reference_block_csv(pair):
    """Reference for CLI verify --csv: the file text, one row a block, by a
    loop over BlockParse.iter_blocks."""
    _, boy, flagged = reference_block_kinds(pair)
    rows = ["start,length,boy,flag"]
    for (n, length, flag), b, d in zip(pair.parse.iter_blocks(), boy, flagged):
        kind = "-" if flag is None else ("D" if d else str(flag))
        rows.append(f"{n},{length},{int(b)},{kind}")
    return "\n".join(rows) + "\n"


def reference_lookup_rows(dict_, blocks, draws):
    """Reference for the enumerative Dictionary.lookup_rows: a boys
    membership sweep, a boys rank and a girls unrank sweep for the boys
    with a negative draw, and a girls unrank sweep for the drawn ranks."""
    is_boy = dict_.boys.member_rows(blocks)
    draws = np.asarray(draws, dtype=object)[is_boy]
    own = draws < 0
    rows = np.empty((len(draws), dict_.girls.length), dtype=np.uint8)
    rows[own] = dict_.girls.unrank_rows(dict_.boys.rank_rows(blocks[is_boy][own]))
    rows[~own] = dict_.girls.unrank_rows(draws[~own])
    return is_boy, rows


def reference_invert_rows(dict_, girl_rows):
    """Reference for the enumerative Dictionary.invert_rows: a girls
    membership sweep, a girls rank sweep and a boys unrank sweep."""
    girl_rows = np.asarray(girl_rows)
    out = np.zeros((len(girl_rows), dict_.boys.N), dtype=np.uint8)
    found = dict_.girls.member_rows(girl_rows)
    ranks = dict_.girls.rank_rows(girl_rows[found])
    mapped = ranks < dict_.boys.count
    found[found] = mapped
    out[found] = dict_.boys.unrank_rows(ranks[mapped])
    return out, found


def reference_occurrences(symbols, word):
    """Reference for shiftspace.occurrences: one ``bytes.find`` per hit,
    each from one past the last; a list of ints."""
    hay = np.asarray(symbols, dtype=np.uint8).tobytes()
    needle = np.asarray(word, dtype=np.uint8).tobytes()
    out = []
    i = hay.find(needle)
    while i >= 0:
        out.append(i)
        i = hay.find(needle, i + 1)
    return out


def reference_decode(y, dict_, scheme, pack):
    """Reference for codec.decode: the info windows gathered by an index
    matrix and the decoded blocks scattered by ``spans``."""
    from shiftcode.interp import spans
    N = pack.N
    info_lo, info_hi = pack.info_region
    x_hat = np.full(len(y), 255, dtype=np.uint8)
    mask = np.zeros(len(y), dtype=bool)
    hits = np.array(reference_occurrences(y.symbols, scheme.word.symbols),
                    dtype=np.int64) - pack.marker_offset
    hits = hits[(hits >= 0) & (hits + N <= len(y))]
    windows = y.symbols[(hits + info_lo)[:, None] + np.arange(info_hi - info_lo)]
    blocks, found = dict_.invert_rows(windows)
    idx = spans(hits[found], np.full(int(found.sum()), N))
    x_hat[idx] = blocks[found].reshape(-1)
    mask[idx] = True
    return Word(x_hat, y.lo), mask


def reference_validate(plan):
    """Reference for SegmentPlan.validate: the per-segment loop, with the
    same messages; returns the segments sorted by start."""
    if plan.hi <= plan.lo:
        raise ValueError("empty or inverted range")
    segs = sorted(zip(plan.starts.tolist(), plan.lengths.tolist()),
                  key=lambda seg: seg[0])
    prev_hi = None
    for lo, n in segs:
        if n == 0:
            raise ValueError("segments must be non-empty")
        if lo < plan.lo or lo + n > plan.hi:
            raise ValueError(f"segment [{lo}, {lo + n}) outside range")
        if prev_hi is not None:
            gap = lo - prev_hi
            if gap < 0:
                raise ValueError("segments overlap")
            if gap < plan.min_gap:
                raise ValueError(f"gap {gap} below min_gap {plan.min_gap}")
        prev_hi = lo + n
    return [Word(plan.symbols[lo - plan.lo:lo - plan.lo + n], lo)
            for lo, n in segs]


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


# keys each CLI report may hold, by subcommand; params reports are dynamic
# (the pack scalars plus one check_ key per checklist item)
SCHEMA = {
    "entropy": ["subcommand", "h_top"],
    "gap": ["subcommand", "gap"],
    "marker": ["subcommand", "marker", "M", "alpha", "nu_h1", "nu_h2"],
    "params": None,
    "dict": ["subcommand", "mode", "N", "M", "log_boys", "log_girls",
             "boy_mass", "girls_exceed", "boys_below", "mass_exceeds",
             "ratio_holds", "bounds_all_hold", "marker"],
    "encode": ["subcommand", "length", "coverage", "markers", "rewrites",
               "boy_blocks"],
    "decode": ["subcommand", "decoded_blocks", "mask_fraction"],
    "verify": ["subcommand", "length", "coverage", "coverage_bound",
               "coverage_ok", "errors_on_mask", "phase_ok", "badset_total",
               "badset_bound", "badset_ok", "ratio_ok", "eg_ok", "weakstar",
               "lz_rate", "rewrites"],
    "splice": ["subcommand", "kind", "length", "admissible", "k0", "k1",
               "k2", "N", "M", "target_frequency", "guarantee"],
    "toral": ["subcommand", "operation", "quasi_hyperbolic", "entropy",
              "classification", "dim_q", "dim_o", "index"],
    "halmos": ["subcommand", "n", "m", "member"],
}


def first_schema_offence(text: str) -> str | None:
    """The first line violating the key=value report schema, if any."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines:
        return None
    head = lines[0].split("=", 1)
    if head[0] != "subcommand" or len(head) != 2 or head[1] not in SCHEMA:
        return lines[0]
    allowed = SCHEMA[head[1]]
    for ln in lines[1:]:
        key, eq, _ = ln.partition("=")
        if (not (eq and key) or " " in key
                or allowed is not None and key not in allowed):
            return ln
    return None
