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
        # the sampler's cut points, and whether its iid rule applies; a cut
        # with no positive entry after it is +inf, so a draw at or above a
        # row's float total stays on the row's last positive state
        later = np.logical_or.accumulate(p[:, :0:-1] > 0, axis=1)[:, ::-1]
        self._cuts = np.where(later, np.cumsum(p, axis=1)[:, :-1], np.inf)
        self._iid = sft.k == 1 and bool((p == p[0]).all())
        with np.errstate(divide="ignore"):
            self._log_p = np.where(p > 0, np.log(np.where(p > 0, p, 1.0)), -np.inf)
            self._log_pi = np.where(self.stationary > 0,
                                    np.log(np.where(self.stationary > 0,
                                                    self.stationary, 1.0)), -np.inf)

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

    def entropy(self) -> float:
        """-sum_i pi_i sum_j P_ij log P_ij with 0 log 0 = 0, in nats."""
        p = self.transition
        terms = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
        return float(-(self.stationary * terms.sum(axis=1)).sum())

    def _next_states(self, u: np.ndarray, row=None) -> np.ndarray:
        """The rule's states on the uniforms ``u``: after every state,
        ``(n_states, len(u))``, or after ``row``.

        The state after s, ``searchsorted(cum[s], u, "right")`` clamped
        to the last state j with P[s, j] > 0, is the number of cuts at or
        below u: ``cum[s, :n - 1]``, each +inf past j (a row's cumsum never
        decreases).  So it is counted by comparisons, with no binary search
        per draw, and needs no clamp.
        """
        cuts = self._cuts if row is None else self._cuts[row]
        return np.add.reduce(cuts[..., None] <= u, axis=-2,
                             dtype=np.min_scalar_type(len(self._cuts) - 1))

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
        and one ``rng.random(n)``.  The
        uniforms are taken in calls of ``SAMPLE_CHUNK``: they continue one
        stream, so the chunks are the same uniforms.  A chunk's states are
        counted by :meth:`_next_states`; with memory, that is every state's
        next state on each draw, an n_states x chunk array of the narrowest
        unsigned dtype (counted from n_states x (n_states - 1) x chunk
        comparisons), which :func:`_walk` threads the carried state through.
        """
        if length < 0:
            raise ValueError("length must be >= 0")
        if length == 0:
            return Word(np.zeros(0, dtype=np.uint8))
        rng = np.random.default_rng(seed)
        sft = self.sft
        out = np.empty(length, dtype=np.uint8)
        done = 0
        if not self._iid:
            state = rng.choice(sft.n_states, p=self.stationary)
            head = sft.states[state][:length]
            done = len(head)
            out[:done] = head
        for i in range(done, length, SAMPLE_CHUNK):
            u = rng.random(min(SAMPLE_CHUNK, length - i))
            if self._iid:
                states = self._next_states(u, 0)
            else:
                states = _walk(self._next_states(u), state)
                state = states[-1]
            out[i:i + len(u)] = sft.last_symbol.take(states)
        return Word(out)


def _walk(maps: np.ndarray, state) -> np.ndarray:
    """The states after each column of ``maps`` from ``state``, where
    ``maps[s, i]`` is the state after s on draw i, without a Python loop
    per symbol: a recursive block composition (Blelloch 1990, "Prefix
    sums and their applications").  Going up, neighbouring columns are
    composed in pairs, all pairs at once, until at most ``_WALK_TOP``
    columns are left; the state is threaded through those in Python.
    Going down, each level's block entry states give the entry states of
    its halves: the left half enters where its parent does, the right half
    where the left half's map sends that state.  That is n_states * L work
    in one gather per level each way, and the entry states of the single
    draws are the path.
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
    return np.append(entry[1:], maps.dtype.type(state))


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
