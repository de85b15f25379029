"""Stationary Markov and Bernoulli measures supported on SFTs.

Cylinder probabilities are available in log space because the dictionary
thresholds compare them against exp(-N(h + Delta)) at N in the thousands.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ReducibleChainError
from .shiftspace import Sft, Word, adjacency_matrix, ascii_text, reach_levels

_ROW_TOL = 1e-12
SAMPLE_CHUNK = 1 << 15     # uniforms drawn per rng.random call
_WALK_TOP = 64             # columns of the scan's top level, threaded in Python
_THREAD_STATES = 24        # above this many states a Python step per block beats _walk


def stationary_vector(transition: np.ndarray) -> np.ndarray:
    """The unique stationary probability vector of an irreducible chain.

    Parameters
    ----------
    transition : array_like
        Row-stochastic matrix.

    Returns
    -------
    pi : ndarray with pi P = pi, by GTH state reduction (Grassmann, Taksar
        and Heyman 1985); a residual max |pi P - pi| above 1e-10 is refused.
    """
    p = np.asarray(transition, dtype=np.float64)
    n = p.shape[0]
    if p.shape != (n, n):
        raise ValueError("transition matrix must be square")
    finite = np.isfinite(p).all(axis=1)
    if not finite.all():
        raise ValueError(f"row {np.argmin(finite)} has an entry that is not finite")
    if np.any(np.abs(p.sum(axis=1) - 1.0) > _ROW_TOL) or np.any(p < 0):
        raise ValueError("rows must be non-negative and sum to 1")
    pair = reach_levels(np.where(p > 0, np.arange(n), -1))[1]
    if pair is not None:
        raise ReducibleChainError(
            f"reducible: state {pair[0]} does not communicate with state {pair[1]}")
    # fold states n - 1 down to 1 into the states before them, then unfold,
    # with no subtraction; folding k changes only the rows with an entry in
    # column k, from the first column where row k has one (the other
    # entries would add 0.0; an irreducible chain's row k has one)
    a = p.copy()
    for k in range(n - 1, 0, -1):
        rows, lo = np.flatnonzero(a[:k, k]), np.flatnonzero(a[k, :k])[0]
        a[rows, k] /= a[k, :k].sum()
        a[rows, lo:k] += a[rows, k, None] * a[k, lo:k]
    pi = np.ones(n)
    for k in range(1, n):
        pi[k] = (pi[:k] * a[:k, k]).sum()
    pi /= pi.sum()
    i, j = np.nonzero(p)
    resid = float(np.max(np.abs(np.bincount(j, pi[i] * p[i, j], n) - pi)))
    if resid > 1e-10:
        raise ArithmeticError(f"stationary solve residual {resid:.3e}")
    return pi


class MarkovMeasure:
    """A stationary Markov measure on the recoded states of an SFT."""

    def __init__(self, sft: Sft, transition):
        p = np.asarray(transition, dtype=np.float64)
        if p.shape != (sft.n_states, sft.n_states):
            raise ValueError("transition matrix must match the SFT state count")
        support_ok = (p > 0) <= adjacency_matrix(sft._step)
        if not support_ok.all():
            i, j = np.argwhere(~support_ok)[0]
            raise ValueError(f"transition {i}->{j} positive but not allowed by the SFT")
        self.sft = sft
        self.transition = p
        self.stationary = stationary_vector(p)
        with np.errstate(divide="ignore"):
            self._log_p = np.where(p > 0, np.log(np.where(p > 0, p, 1.0)), -np.inf)
            self._log_pi = np.log(self.stationary)
        # interval codes: a draw u moves state s to the count of its cuts
        # cum[s, j], j < n - 1, at or below u, a cut with no positive entry
        # after it being +inf; the distinct finite cuts split [0, 1) into K
        # intervals, and after[s, c] is the state after s on a draw in c
        later = np.logical_or.accumulate(p[:, :0:-1] > 0, axis=1)[:, ::-1]
        cuts = np.cumsum(p, axis=1)[:, :-1][later]
        edges = np.sort(cuts)
        self._edges = edges = edges[np.diff(edges, prepend=-np.inf) > 0]
        n, K = len(p), len(edges) + 1
        at = np.nonzero(later)[0] * K + np.searchsorted(edges, cuts) + 1
        self._after = after = np.bincount(at, minlength=n * K).reshape(n, K).cumsum(
            axis=1, dtype=np.min_scalar_type(n - 1))
        self._iid = sft.k == 1 and bool((p == p[0]).all())
        if self._iid:   # k = 1 and equal rows: every draw steps by row 0
            return
        # end[s, code] and the w symbols emit[s, code] (one w-byte item) on a
        # base-K code of w draws, w the widest that fits SAMPLE_CHUNK bytes
        w = 1
        while K > 1 and n * K ** (w + 1) * (after.itemsize + w + 1) <= SAMPLE_CHUNK:
            w += 1
        end, emit = after, np.empty((n, K ** w, w), np.uint8)
        for i in range(w):      # symbol i: the last of the state after draws 0..i
            if i:
                end = after.take(end, axis=0).reshape(n, -1)
            emit.reshape(n, K ** (i + 1), -1, w)[..., i] = sft.last_symbol.take(
                end)[..., None]
        self._end, self._emit = end, emit.view(np.dtype((np.void, w))).ravel()

    @classmethod
    def bernoulli(cls, probs) -> "MarkovMeasure":
        """IID measure on the full shift over len(probs) symbols."""
        probs = np.asarray(probs, dtype=np.float64)
        sft = Sft.full_shift(len(probs))
        return cls(sft, np.tile(probs, (len(probs), 1)))

    @classmethod
    def uniform(cls, sft: Sft) -> "MarkovMeasure":
        """Equal weight on the allowed transitions out of every state."""
        adj = adjacency_matrix(sft._step)
        return cls(sft, adj / adj.sum(axis=1, keepdims=True))

    def log_cylinder_probability(self, word: Word) -> float:
        """log mu([word]); -inf when the word is inadmissible.

        The symbol at time t is the last symbol of the chain's state at t.
        A word of length n >= k fixes the state path (its k-windows), so
        log mu = log pi(path[0]) + sum of log P along the path.  A shorter
        word fixes only the last n symbols of one state, and its mass is
        the stationary mass of the states that end in it.
        """
        sym = word.symbols
        n = len(sym)
        if n == 0:
            return 0.0
        sft = self.sft
        if sym.max() >= sft.alphabet_size:
            return -math.inf
        if n < sft.k:
            mass = self.stationary[sft.states_ending_in(sym)].sum()
            return math.log(mass) if mass > 0 else -math.inf
        path = sft.state_path(word)
        if np.any(path < 0):
            return -math.inf
        steps = self._log_p[path[:-1], path[1:]]
        return float(self._log_pi[path[0]] + steps.sum())

    def cylinder_probability(self, word: Word) -> float:
        lp = self.log_cylinder_probability(word)
        return math.exp(lp) if lp > -math.inf else 0.0

    def edge_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """(weight, kind) of each edge of ``sft.factor_dfa()``, shaped like its
        step table, in O(n_nodes m): kind 1 enters state t and weighs log pi(t),
        kind 2 leaves state s and weighs log P(s, t) into t, kind 0 is any other
        and weighs 0.0; a dead edge, or one of P = 0, weighs -inf."""
        step = self.sft.factor_dfa().step
        first = len(step) - self.sft.n_states       # the node of state 0
        kind = np.where(np.arange(len(step))[:, None] < first, step >= first, 2)
        weight = np.where(step >= 0, 0.0, -math.inf)
        weight[kind == 1] = self._log_pi[step[kind == 1] - first]
        s, a = np.nonzero(step[first:] >= first)
        weight[first + s, a] = self._log_p[s, step[first + s, a] - first]
        return weight, kind

    def log_cylinder_extreme(self, length: int, pick) -> float:
        """``pick`` (np.max or np.min) of log mu([w]) over the words of the
        given length with positive mass.  A word shorter than k weighs the
        stationary mass of the states that end in it (k >= 1: the empty word
        weighs sum(pi)); a longer one is a walk of live ``edge_weights`` from
        the start, each node keeping the pick of its in-edges' sums."""
        sft = self.sft
        if length < sft.k:
            mass = np.bincount(sft.state_suffix_codes(length), weights=self.stationary)
            return float(np.log(pick(mass[mass > 0])))
        weight = self.edge_weights()[0]
        live = weight > -math.inf
        src, dst, weight = live.nonzero()[0], sft.factor_dfa().step[live], weight[live]
        at, far = (np.maximum.at, -math.inf) if pick is np.max else (np.minimum.at, math.inf)
        v = np.where(np.arange(len(live)) == 0, 0.0, far)   # far: not reached
        for _ in range(length):
            v, before = np.full(len(v), far), v
            at(v, dst, before[src] + weight)
        return float(pick(v))

    def entropy(self) -> float:
        """-sum_i pi_i sum_j P_ij log P_ij with 0 log 0 = 0, in nats."""
        p = self.transition
        terms = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
        return float(-(self.stationary * terms.sum(axis=1)).sum())

    def sample_path(self, length: int, seed) -> Word:
        """A length-n sample of the stationary chain, deterministic per seed.

        ``seed`` is anything ``np.random.default_rng`` accepts: an int, a
        tuple of ints or a ``SeedSequence``.  The sampling rule is the
        contract that keeps every seeded output byte-identical.  A chain
        with memory or dependence draws its start state by ``rng.choice``
        from the stationary vector and emits that state's first k symbols;
        then one ``rng.random(n - k)`` call supplies a uniform u per later
        symbol, which moves state s to ``searchsorted(cumsum(P[s]), u,
        "right")`` clamped to the last state of positive probability in
        row s, and the new state emits its last symbol.  An iid chain
        (k = 1, equal rows) draws every state by the same rule from row 0
        and one ``rng.random(n)``.  Both take the uniforms in chunks of about
        ``SAMPLE_CHUNK`` from one stream.  A draw's interval code costs K - 1
        comparisons, one per distinct finite cut, at most n_states x
        (n_states - 1).  With memory, w codes make one base-K block code; a
        block's entry state comes from :func:`_walk` over n_states x chunk /
        w block maps (a Python step above ``_THREAD_STATES`` states), its w
        symbols from one gather.
        """
        if length < 0:
            raise ValueError("length must be >= 0")
        rng = np.random.default_rng(seed)
        sft = self.sft
        out = np.empty(length, dtype=np.uint8)
        if self._iid:
            row = sft.last_symbol.take(self._after[0])
            for i in range(0, length, SAMPLE_CHUNK):
                out[i:i + SAMPLE_CHUNK] = row.take(
                    self._codes(rng.random(min(SAMPLE_CHUNK, length - i))))
            return Word(out)
        state = int(rng.choice(sft.n_states, p=self.stationary))
        out[:sft.k] = sft.states[state][:length]
        end, emit = self._end, self._emit
        K, w, kw = len(self._edges) + 1, emit.itemsize, end.shape[1]
        step = max(SAMPLE_CHUNK // w, 1) * w
        flat = memoryview(end.ravel()) if len(end) > _THREAD_STATES else None
        for i in range(sft.k, length, step):
            m = min(step, length - i)
            u = np.zeros(-(-m // w) * w)   # a last partial block is padded
            rng.random(out=u[:m])
            digits = self._codes(u).reshape(-1, w)
            codes = digits[:, 0].astype(np.intp)
            for j in range(1, w):
                codes = codes * K + digits[:, j]
            if flat is None:
                entry, state = _walk(end.take(codes, axis=1), state)
            else:
                entry = []
                for c in codes.tolist():
                    entry.append(state)
                    state = flat[state * kw + c]
            codes += np.multiply(entry, kw, dtype=np.intp)
            out[i:i + m] = emit.take(codes).view(np.uint8)[:m]
        return Word(out)

    def _codes(self, u: np.ndarray) -> np.ndarray:
        """The interval code of each draw: its count of distinct cuts."""
        edges = self._edges
        codes = np.zeros(len(u), dtype=np.min_scalar_type(len(edges)))
        for cut in edges.tolist():
            codes += u >= cut
        return codes


def _walk(maps: np.ndarray, state) -> tuple[np.ndarray, int]:
    """The entry state of each column of ``maps`` from ``state``, and the
    state after the last, where ``maps[s, i]`` is the state after s on
    column i, without a Python loop per column: a recursive block
    composition (Blelloch 1990, "Prefix sums and their applications").
    Going up, neighbouring columns are composed in pairs, all pairs at
    once, until at most ``_WALK_TOP`` columns are left; the state is
    threaded through those in Python.  Going down, each level's block
    entry states give the entry states of its halves: the left half enters
    where its parent does, the right half where the left half's map sends
    that state.  That is n_states * L work in one gather per level each way.
    """
    levels = [maps]
    while levels[-1].shape[1] > _WALK_TOP:
        f = levels[-1]
        width, half = f.shape[1], f.shape[1] // 2
        # column j above is column 2j + 1 after column 2j, as flat indices
        at = f[:, 0:2 * half:2] * np.intp(width)
        at += np.arange(1, 2 * half, 2)
        up = np.empty((len(f), width - half), dtype=f.dtype)
        f.take(at, out=up[:, :half])
        up[:, half:] = f[:, 2 * half:]      # an odd last column goes up alone
        levels.append(up)
    entry = []
    for column in levels[-1].T.tolist():
        entry.append(state)
        state = column[state]
    entry = np.array(entry, dtype=maps.dtype)
    for f in reversed(levels[:-1]):
        width, half = f.shape[1], f.shape[1] // 2
        down = np.empty(width, dtype=f.dtype)
        down[0::2] = entry
        at = entry[:half] * np.intp(width)
        at += np.arange(0, 2 * half, 2)
        down[1:2 * half:2] = f.take(at)
        entry = down
    return entry, state


def parse_measure(text: str, sft: Sft) -> MarkovMeasure:
    """Parse the measure text format: ``states <n>`` then ``row <p...>`` lines."""
    n = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "states" and len(parts) == 2:
                n = int(ascii_text(parts[1]))
            elif parts[0] == "row":
                rows.append([float(ascii_text(v)) for v in parts[1:]])
            else:
                raise ValueError
        except ValueError:
            raise ValueError(f"line {lineno}: cannot parse {line!r}") from None
    if n is None or len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("measure file must declare 'states n' and n rows of n entries")
    return MarkovMeasure(sft, np.array(rows))


def serialize_measure(measure: MarkovMeasure) -> str:
    n = measure.transition.shape[0]
    lines = [f"states {n}"]
    for row in measure.transition:
        lines.append("row " + " ".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"
