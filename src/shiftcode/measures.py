"""Stationary Markov and Bernoulli measures supported on SFTs.

Cylinder probabilities are available in log space because the dictionary
thresholds compare them against exp(-N(h + Delta)) at N in the thousands.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ReducibleChainError
from .shiftspace import Sft, Word

_ROW_TOL = 1e-12
SAMPLE_CHUNK = 1 << 15     # iid uniforms drawn per rng.random call


def stationary_vector(transition: np.ndarray) -> np.ndarray:
    """The unique stationary probability vector of an irreducible chain.

    Parameters
    ----------
    transition : array_like
        Row-stochastic matrix.

    Returns
    -------
    pi : ndarray with pi @ transition = pi, residual below 1e-12.
    """
    p = np.asarray(transition, dtype=np.float64)
    n = p.shape[0]
    if p.shape != (n, n):
        raise ValueError("transition matrix must be square")
    if np.any(np.abs(p.sum(axis=1) - 1.0) > _ROW_TOL) or np.any(p < 0):
        raise ValueError("rows must be non-negative and sum to 1")
    _check_irreducible(p)
    # solve pi (P - I) = 0 with sum(pi) = 1 via a bordered dense system
    a = np.vstack([(p.T - np.eye(n)), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[n] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    pi = np.maximum(pi, 0.0)
    pi /= pi.sum()
    resid = float(np.max(np.abs(pi @ p - pi)))
    if resid > 1e-10:
        raise ArithmeticError(f"stationary solve residual {resid:.3e}")
    return pi


def _check_irreducible(p: np.ndarray) -> None:
    n = p.shape[0]
    reach = (p > 0) | np.eye(n, dtype=bool)
    for _ in range(max(1, int(math.ceil(math.log2(n + 1))))):
        reach = reach @ reach
    if not reach.all():
        i, j = np.argwhere(~reach)[0]
        raise ReducibleChainError(
            f"reducible: state {i} does not communicate with state {j}")


class MarkovMeasure:
    """A stationary Markov measure on the recoded states of an SFT."""

    def __init__(self, sft: Sft, transition):
        p = np.asarray(transition, dtype=np.float64)
        if p.shape != (sft.n_states, sft.n_states):
            raise ValueError("transition matrix must match the SFT state count")
        support_ok = (p > 0) <= (sft.adjacency > 0)
        if not support_ok.all():
            i, j = np.argwhere(~support_ok)[0]
            raise ValueError(f"transition {i}->{j} positive but not allowed by the SFT")
        self.sft = sft
        self.transition = p
        self.stationary = stationary_vector(p)
        # the sampler's per-row cumulative sums, and whether its iid rule applies
        self._cum = np.cumsum(p, axis=1)
        self._iid = sft.k == 1 and np.allclose(p, p[0])
        with np.errstate(divide="ignore"):
            self._log_p = np.where(p > 0, np.log(np.where(p > 0, p, 1.0)), -np.inf)
            self._log_pi = np.where(self.stationary > 0,
                                    np.log(np.where(self.stationary > 0,
                                                    self.stationary, 1.0)), -np.inf)

    @classmethod
    def bernoulli(cls, probs) -> "MarkovMeasure":
        """IID measure on the full shift over len(probs) symbols."""
        probs = np.asarray(probs, dtype=np.float64)
        if abs(probs.sum() - 1.0) > _ROW_TOL or np.any(probs < 0):
            raise ValueError("probabilities must be non-negative and sum to 1")
        sft = Sft.full_shift(len(probs))
        return cls(sft, np.tile(probs, (len(probs), 1)))

    @classmethod
    def uniform(cls, sft: Sft) -> "MarkovMeasure":
        """Equal weight on the allowed transitions out of every state."""
        adj = sft.adjacency.astype(np.float64)
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
        return float(-(self.stationary @ terms.sum(axis=1)))

    def sample_path(self, length: int, seed) -> Word:
        """A length-n sample of the stationary chain, deterministic per seed.

        ``seed`` is anything ``np.random.default_rng`` accepts: an int, a
        tuple of ints or a ``SeedSequence``.  The sampling rule is the
        contract that keeps every seeded output byte-identical.  A chain
        with memory or dependence draws its start state by ``rng.choice``
        from the stationary vector and emits that state's first k symbols;
        then one ``rng.random(n - k)`` call supplies a uniform u per later
        symbol, which moves state s to ``searchsorted(cumsum(P[s]), u,
        "right")`` clamped to the last state, and the new state emits its
        last symbol.  An iid chain (k = 1, equal rows) draws every state
        by the same rule from one ``rng.random(n)``, taken in calls of
        ``SAMPLE_CHUNK`` uniforms: they continue one stream, so the chunks
        are the same uniforms, without n-long float and index temporaries.

        The chain with memory holds an n_states x n next-state table of
        the narrowest unsigned dtype (n_states * n bytes below 256 states).
        """
        if length < 0:
            raise ValueError("length must be >= 0")
        if length == 0:
            return Word(np.zeros(0, dtype=np.uint8))
        rng = np.random.default_rng(seed)
        sft = self.sft
        if self._iid:
            out = np.empty(length, dtype=sft.last_symbol.dtype)
            for i in range(0, length, SAMPLE_CHUNK):
                u = rng.random(min(SAMPLE_CHUNK, length - i))
                draws = np.searchsorted(self._cum[0], u, side="right")
                out[i:i + len(u)] = sft.last_symbol[np.minimum(draws, sft.n_states - 1)]
            return Word(out)
        start = rng.choice(sft.n_states, p=self.stationary)
        head = np.array(sft.states[start][:length], dtype=np.uint8)
        if len(head) == length:
            return Word(head)
        path = _state_path(self._cum, rng.random(length - len(head)), start)
        return Word(np.concatenate([head, sft.last_symbol[path]]))


def _state_path(cum: np.ndarray, draws: np.ndarray, start: int) -> np.ndarray:
    """The states after ``start`` on the uniforms ``draws``, without a
    Python loop per symbol.

    First a next-state table: ``table[s, i]`` is the state after s on
    ``draws[i]``, by ``searchsorted(cum[s], draws[i], "right")`` clamped to
    the last state.  Then a blocked composition scan over its columns
    (Blelloch 1990, "Prefix sums and their applications"): the columns
    are cut into about sqrt(L) blocks of sqrt(L); each block's composed
    map is found for every state, all blocks at once; the start state is
    threaded through the composed maps block by block; and every block
    expands its own states, all blocks at once.  That is n_states * L work
    in about 3 sqrt(L) numpy calls.
    """
    n, length = cum.shape[0], len(draws)
    width = math.isqrt(length - 1) + 1
    n_blocks = -(-length // width)
    # padding columns past the draws map every state to itself
    table = np.empty((n, n_blocks * width), dtype=np.min_scalar_type(n - 1))
    for s in range(n):
        np.minimum(np.searchsorted(cum[s], draws, side="right"), n - 1,
                   out=table[s, :length], casting="unsafe")
    table[:, length:] = np.arange(n, dtype=table.dtype)[:, None]
    blocks = table.reshape(n, n_blocks, width)
    cols = np.arange(n_blocks)
    composed = blocks[:, :, 0]
    for j in range(1, width):
        composed = blocks[composed, cols, j]
    entry = np.empty(n_blocks, dtype=table.dtype)
    state = start
    for b in range(n_blocks):
        entry[b] = state
        state = composed[state, b]
    path = np.empty((n_blocks, width), dtype=table.dtype)
    cur = entry
    for j in range(width):
        cur = blocks[cur, cols, j]
        path[:, j] = cur
    return path.reshape(-1)[:length]


def parse_measure(text: str, sft: Sft) -> MarkovMeasure:
    """Parse the measure text format: ``states <n>`` then ``row <p...>`` lines."""
    n = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "states" and len(parts) == 2:
            n = int(parts[1])
        elif parts[0] == "row":
            rows.append([float(v) for v in parts[1:]])
        else:
            raise ValueError(f"line {lineno}: cannot parse {line!r}")
    if n is None or len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("measure file must declare 'states n' and n rows of n entries")
    return MarkovMeasure(sft, np.array(rows))


def serialize_measure(measure: MarkovMeasure) -> str:
    n = measure.transition.shape[0]
    lines = [f"states {n}"]
    for row in measure.transition:
        lines.append("row " + " ".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"
