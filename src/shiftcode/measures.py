"""Stationary Markov and Bernoulli measures supported on SFTs.

Cylinder probabilities are available in log space because the dictionary
thresholds compare them against exp(-N(h + Delta)) at N in the thousands.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ReducibleChainError
from .shiftspace import Sft, Word, window_codes

_ROW_TOL = 1e-12


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
            m = sft.alphabet_size
            ends = sft.state_codes % m ** n == window_codes(sym, n, m)[0]
            mass = self.stationary[ends].sum()
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

    def sample_path(self, length: int, seed: int) -> Word:
        """A length-n sample of the stationary chain, deterministic per seed."""
        if length < 0:
            raise ValueError("length must be >= 0")
        if length == 0:
            return Word(np.zeros(0, dtype=np.uint8))
        rng = np.random.default_rng(seed)
        k = self.sft.k
        states = self.sft.states
        iid = k == 1 and np.allclose(self.transition, self.transition[0])
        if iid:
            cum = np.cumsum(self.transition[0])
            draws = np.searchsorted(cum, rng.random(length), side="right")
            return Word(self.sft.last_symbol[np.minimum(draws, len(states) - 1)])
        out = np.empty(length, dtype=np.uint8)
        s = rng.choice(len(states), p=self.stationary)
        emit = min(k, length)
        out[:emit] = states[s][:emit]
        pos = emit
        if pos < length:
            # presample uniform draws in blocks for speed
            cum = np.cumsum(self.transition, axis=1)
            draws = rng.random(length - pos)
            for i, u in enumerate(draws):
                s = int(np.searchsorted(cum[s], u, side="right"))
                s = min(s, len(states) - 1)
                out[pos + i] = states[s][-1]
        return Word(out)


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
