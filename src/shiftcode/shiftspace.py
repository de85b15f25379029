"""Shifts of finite type: words, adjacency structure, entropy, mixing gap.

Every SFT is recoded internally to a memory-1 vertex shift whose vertices
are the admissible k-words (k = max(memory, 1)); all matrix computations
run on that form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .automata import Dfa
from .errors import CoverageError, EmptySftError, NotMixingError

MAX_TEXT_ALPHABET = 10  # text format writes symbols as single digits


def window_codes(symbols, k: int, m: int) -> np.ndarray:
    """Base-m code of every length-k window along the first axis.

    Row i of the result codes symbols[i:i + k], first symbol most
    significant, so codes sort like the windows in lex order; a 2-D input
    is coded column by column.  The dtype is the narrowest unsigned type
    that holds all m^k codes.
    """
    dtype = np.min_scalar_type(m ** k - 1)
    if dtype.kind != "u":
        raise ValueError(f"codes of {k}-windows over {m} symbols exceed 64 bits")
    sym = np.asarray(symbols).astype(dtype, copy=False)
    n = max(len(sym) - k + 1, 0)
    if k == 0:
        return np.zeros((n,) + sym.shape[1:], dtype=dtype)
    codes = sym[:n].copy()
    for j in range(1, k):
        codes *= m
        codes += sym[j:j + n]
    return codes


@dataclass(frozen=True)
class Word:
    """A finite block of symbols anchored at an absolute start coordinate."""

    symbols: np.ndarray
    base: int = 0

    def __post_init__(self):
        arr = np.asarray(self.symbols, dtype=np.uint8)
        arr.flags.writeable = False
        object.__setattr__(self, "symbols", arr)

    @classmethod
    def from_string(cls, text: str, base: int = 0) -> "Word":
        return cls(np.array([int(c) for c in text], dtype=np.uint8), base)

    def __len__(self) -> int:
        return len(self.symbols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self.base == other.base and np.array_equal(self.symbols, other.symbols)

    def __hash__(self) -> int:
        return hash((self.base, self.symbols.tobytes()))

    @property
    def lo(self) -> int:
        return self.base

    @property
    def hi(self) -> int:
        return self.base + len(self.symbols)

    def covers(self, lo: int, hi: int) -> bool:
        return self.lo <= lo and hi <= self.hi

    def at(self, coord: int) -> int:
        if not self.lo <= coord < self.hi:
            raise CoverageError(f"coordinate {coord} outside [{self.lo}, {self.hi})")
        return int(self.symbols[coord - self.base])

    def window(self, lo: int, hi: int) -> "Word":
        """The sub-block on [lo, hi), keeping absolute coordinates."""
        if not self.covers(lo, hi):
            raise CoverageError(
                f"word covers [{self.lo}, {self.hi}), needs [{lo}, {hi})")
        return Word(self.symbols[lo - self.base:hi - self.base], lo)

    def rebase(self, base: int = 0) -> "Word":
        return Word(self.symbols, base)

    def to_string(self) -> str:
        return "".join(str(int(a)) for a in self.symbols)

    def __repr__(self) -> str:
        s = self.to_string()
        if len(s) > 40:
            s = s[:37] + "..."
        return f"Word('{s}', base={self.base})"


@dataclass(frozen=True)
class WindowMetricParams:
    """Coordinate window [lo, hi) widened by a symbol radius.

    The radius is the symbolic translation of a metric threshold: with the
    metric d(x, y) = 2^(-min{|k|: x_k != y_k}), a threshold in
    (2^-(t+1), 2^-t] compares coordinates within distance t of the window.
    """

    lo: int
    hi: int
    radius: int = 0

    def __post_init__(self):
        if self.hi <= self.lo:
            raise ValueError("hi must exceed lo")
        if self.radius < 0:
            raise ValueError("radius must be >= 0")


class Sft:
    """A subshift of finite type, pruned to its essential part.

    Attributes
    ----------
    alphabet_size : symbol count of the original alphabet
    memory : max forbidden-word length minus one (0 for a full shift)
    edges : bool array over the base-m codes of all (k+1)-words (see
        window_codes), true for the words of the pruned shift; every other
        table below is derived from it
    states : tuple of admissible k-words, k = max(memory, 1), in lex order
    state_codes : base-m codes of the states, ascending
    state_index : dict from state tuple to its index
    last_symbol : uint8 array, the last symbol of each state
    adjacency : 0/1 matrix over states
    """

    def __init__(self, alphabet_size: int, forbidden=()):
        if alphabet_size < 1:
            raise ValueError("alphabet_size must be >= 1")
        canon = set()
        for w in forbidden:
            sym = tuple(int(a) for a in (w.symbols if isinstance(w, Word) else
                                         (int(c) for c in w) if isinstance(w, str) else w))
            if len(sym) == 0:
                raise ValueError("forbidden words must have length >= 1")
            if any(a < 0 or a >= alphabet_size for a in sym):
                raise ValueError(f"forbidden word {sym} uses symbols >= {alphabet_size}")
            canon.add(sym)
        self.alphabet_size = alphabet_size
        self.forbidden = tuple(sorted(canon))
        self.memory = max((len(f) for f in self.forbidden), default=1) - 1 if self.forbidden else 0
        k = max(self.memory, 1)
        self.k = k
        m = alphabet_size
        n_codes = m ** k
        # edges[c] for the (k+1)-word coded c (see window_codes): its
        # first k symbols are the source state, its last k the target
        grid = np.ones((m,) * (k + 1), dtype=bool)
        for f in self.forbidden:
            for i in range(k + 2 - len(f)):
                grid[(slice(None),) * i + f] = False
        edges = grid.reshape(-1)
        # prune to the essential part: drop edges into states without an
        # out-edge or out of states without an in-edge, until none change
        while True:
            alive = (edges.reshape(n_codes, m).any(axis=1)
                     & edges.reshape(m, n_codes).any(axis=0))
            pruned = edges & np.repeat(alive, m) & np.tile(alive, m)
            if np.array_equal(pruned, edges):
                break
            edges = pruned
        if not alive.any():
            raise EmptySftError("no admissible word survives pruning: empty SFT")
        self.edges = edges
        codes = np.flatnonzero(alive)
        digits = codes[:, None] // m ** np.arange(k - 1, -1, -1) % m
        self.state_codes = window_codes(digits.T, k, m)[0]
        self.states = tuple(map(tuple, digits.tolist()))
        self.state_index = {s: i for i, s in enumerate(self.states)}
        self.last_symbol = digits[:, -1].astype(np.uint8)
        # step[state][symbol] -> next state index or -1
        out = codes[:, None] * m + np.arange(m)
        self._step = np.where(edges[out], np.searchsorted(codes, out % n_codes), -1)
        self.adjacency = np.zeros((len(codes), len(codes)), dtype=np.uint8)
        rows, syms = np.nonzero(self._step >= 0)
        self.adjacency[rows, self._step[rows, syms]] = 1
        self._dfa = None
        self._gap = None
        self._reach = {}        # right-context head -> interp reach rows
        self._least = {}        # right-context head -> interp least-symbol map
        self._connectors = {}   # (left tail, right head, gap) -> least connector

    @classmethod
    def full_shift(cls, alphabet_size: int) -> "Sft":
        return cls(alphabet_size, ())

    @property
    def n_states(self) -> int:
        return len(self.states)

    def is_full_shift(self) -> bool:
        return not self.forbidden

    def factor_dfa(self) -> Dfa:
        """DFA of the factor language: prefixes of states, then states.

        In an essential SFT every factor of an admissible word is a prefix
        of some state, so prefix nodes capture short words exactly.
        """
        if self._dfa is not None:
            return self._dfa
        k = self.k
        prefixes = sorted({s[:j] for s in self.states for j in range(k)})
        pref_index = {p: i for i, p in enumerate(prefixes)}
        n_pref = len(prefixes)
        rows = []
        for p in prefixes:
            row = []
            for a in range(self.alphabet_size):
                q = p + (a,)
                if len(q) < k:
                    row.append(pref_index.get(q, -1))
                else:
                    j = self.state_index.get(q)
                    row.append(-1 if j is None else n_pref + j)
            rows.append(row)
        for i in range(self.n_states):
            rows.append([int(n_pref + t) if t >= 0 else -1 for t in self._step[i]])
        self._dfa = Dfa(self.alphabet_size, np.array(rows, dtype=np.int64),
                        start=pref_index[()])
        return self._dfa

    def is_admissible(self, word) -> bool:
        """True iff the word occurs in the shift; false for a symbol
        outside the alphabet."""
        sym = np.asarray(word.symbols if isinstance(word, Word) else word)
        return bool(self.admissible_pieces(sym, [len(sym)])[0])

    def admissible_pieces(self, symbols, lengths) -> np.ndarray:
        """Bool array: which pieces of a concatenation occur in the shift.

        ``symbols`` holds the pieces end to end, ``lengths`` their lengths.
        One window pass checks them all: a piece longer than k occurs iff
        each of its (k+1)-windows is an edge (windows across a boundary
        between pieces are ignored), a shorter one of length n iff it is
        the last n symbols of some state.  A symbol outside the alphabet
        makes its piece inadmissible.
        """
        sym = np.asarray(symbols)
        lengths = np.asarray(lengths, dtype=np.int64)
        k, m = self.k, self.alphabet_size
        ends = np.cumsum(lengths)
        ok = np.ones(len(lengths), dtype=bool)
        off = (sym < 0) | (sym >= m)
        if off.any():
            ok[np.searchsorted(ends, np.flatnonzero(off), side="right")] = False
            sym = np.where(off, 0, sym)
        # window i covers symbols i..i+k: it counts iff its piece ends later
        bad = np.flatnonzero(~self.edges[window_codes(sym, k + 1, m)])
        piece = np.searchsorted(ends, bad, side="right")
        ok[piece[bad + k < ends[piece]]] = False
        starts = ends - lengths
        for n in set(lengths[lengths <= k].tolist()):
            at = np.flatnonzero(lengths == n)
            code = window_codes(sym[starts[at, None] + np.arange(n)].T, n, m)[0]
            suffix = np.zeros(m ** n, dtype=bool)
            # widened first: m ** k need not fit the codes' own dtype
            suffix[self.state_codes.astype(np.int64) % m ** n] = True
            ok[at] &= suffix[code]
        return ok

    def states_ending_in(self, symbols) -> np.ndarray:
        """Bool mask of the states whose last n symbols are the given word
        of length n <= k; all false for a symbol outside the alphabet."""
        sym = np.asarray(symbols)
        n, m = len(sym), self.alphabet_size
        if n > self.k:
            raise ValueError(f"word of length {n} is longer than a state ({self.k})")
        if n and (sym.min() < 0 or sym.max() >= m):
            return np.zeros(self.n_states, dtype=bool)
        code = int(window_codes(sym, n, m)[0])
        # widened first: m ** k need not fit the codes' own dtype
        return self.state_codes.astype(np.int64) % m ** n == code

    def state_path(self, word: Word) -> np.ndarray:
        """State index of every full k-window of the word, -1 where the
        window is not a state (empty when the word is shorter than k).
        The symbols must lie in the alphabet."""
        codes = window_codes(word.symbols, self.k, self.alphabet_size)
        idx = np.searchsorted(self.state_codes, codes)
        idx[idx == self.n_states] = 0
        return np.where(self.state_codes[idx] == codes, idx, -1)


def build_sft(alphabet_size: int, forbidden_words=()) -> Sft:
    """Construct the pruned SFT of sequences avoiding the forbidden words."""
    return Sft(alphabet_size, forbidden_words)


def topological_entropy(sft: Sft) -> float:
    """log of the Perron eigenvalue of the adjacency matrix, in nats.

    Power iteration on A + I with the Collatz-Wielandt bracket, which
    certifies the eigenvalue for primitive matrices; a dense eigensolve
    backs up the rare non-primitive (still essential) cases.
    """
    a = sft.adjacency.astype(np.float64)
    n = a.shape[0]
    if n == 1:
        return math.log(float(a[0, 0])) if a[0, 0] > 1 else 0.0
    b = a + np.eye(n)
    x = np.full(n, 1.0 / n)
    for _ in range(100_000):
        y = b @ x
        ratios = y / x
        lo, hi = ratios.min(), ratios.max()
        x = y / y.sum()
        if hi - lo <= 1e-13 * hi:
            return math.log(0.5 * (lo + hi) - 1.0)
    rho = max(ev.real for ev in np.linalg.eigvals(a))
    return math.log(rho) if rho > 1.0 else 0.0


def specification_gap(sft: Sft) -> int:
    """Least p with all entries of adjacency^p positive (primitivity index).

    For any admissible u, v and any g >= L there is a connecting word w of
    length exactly g with u w v admissible; see interp.connect_words.
    """
    if sft._gap is not None:
        return sft._gap
    a = sft.adjacency.astype(bool)
    n = a.shape[0]
    p = a.copy()
    for power in range(1, (n - 1) ** 2 + 2):
        if p.all():
            sft._gap = power
            return power
        p = (p.astype(np.uint16) @ a.astype(np.uint16)) > 0
    raise NotMixingError("adjacency matrix is not primitive: not mixing")


def window_distance_below(u: Word, v: Word, params: WindowMetricParams) -> bool:
    """True iff u and v agree on every coordinate of the widened window.

    This is the symbolic form of d_m^n(u, v) < 2^-radius: the Bowen-window
    distance drops below the threshold exactly when the widened windows
    coincide symbol for symbol.
    """
    lo = params.lo - params.radius
    hi = params.hi + params.radius
    for w in (u, v):
        if not w.covers(lo, hi):
            raise CoverageError(
                f"word covers [{w.lo}, {w.hi}), window needs [{lo}, {hi})")
    return np.array_equal(u.window(lo, hi).symbols, v.window(lo, hi).symbols)


def count_words(sft: Sft, length: int) -> int:
    """Exact number of admissible words of the given length (big integer)."""
    return sft.factor_dfa().count(length)


def enumerate_words(sft: Sft, length: int, constraint=None):
    """Admissible words of the given length in lex order, optionally filtered."""
    out = []
    for block in sft.factor_dfa().enumerate(length):
        for sym in block:
            w = Word(sym.copy())  # a view would pin the whole block
            if constraint is None or constraint(w):
                out.append(w)
    return out


def parse_sft(text: str) -> Sft:
    """Parse the SFT text format: ``alphabet <size>`` then ``forbid <word>``."""
    alphabet = None
    forbidden = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "alphabet" and len(parts) == 2:
            alphabet = int(parts[1])
        elif parts[0] == "forbid" and len(parts) == 2:
            forbidden.append(parts[1])
        else:
            raise ValueError(f"line {lineno}: cannot parse {line!r}")
    if alphabet is None:
        raise ValueError("missing 'alphabet' line")
    return Sft(alphabet, forbidden)


def serialize_sft(sft: Sft) -> str:
    if sft.alphabet_size > MAX_TEXT_ALPHABET:
        raise ValueError("text format limited to single-digit symbols")
    lines = [f"alphabet {sft.alphabet_size}"]
    for f in sft.forbidden:
        lines.append("forbid " + "".join(str(a) for a in f))
    return "\n".join(lines) + "\n"
