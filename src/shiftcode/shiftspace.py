"""Shifts of finite type: words, step tables, entropy, mixing gap.

Every SFT is recoded internally to a memory-1 vertex shift whose vertices
are the admissible k-words (k = max(memory, 1)); every graph computation
reads its one (n_states, m) step table, or a matrix scattered from it.
Words are checked by their (k+1)-window codes.  Per 2^16 windows, flagging
the forbidden ones costs nothing when none is, 11 us plus 6.5 us a code
compared for at most ``FEW_FORBIDDEN``, else 76-84 us to gather ``edges``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .automata import Dfa
from .errors import CoverageError, EmptySftError, NotMixingError, ParameterError

MAX_TEXT_ALPHABET = 10  # text format writes symbols as single digits
# Most forbidden (k+1)-windows admissible_pieces compares codes with, not
# gathering from edges: on a 2-vCPU host the two cost alike at 10-12.
FEW_FORBIDDEN = 10
# Bytes an SFT's largest table may take before it is built, counted at 8
# bytes an entry: the (k+1)-word grid (whose m^k state index is intp) and the
# n_states^2 arrays of a Markov measure, which bound the gap's n_states^2 / 8
# reach rows and the entropy's one eigensolved block of a component that does
# not settle.  512 MiB admits the 8,192 states of ``forbid 0^14`` and refuses
# the 65,536 of ``forbid 0^17`` before numpy fails on a multi-GiB allocation.
MAX_TABLE_BYTES = 1 << 29
# Most windows looked up per edge-table take (Sft.admissible_pieces) and
# coordinates spanned by the gaps filled per gather (interp._fill): bounds
# their intp temporaries, while a 50,000-symbol splice still takes one chunk.
CHUNK = 1 << 16


def _check_table(what: str, entries: int) -> None:
    """Refuse a table of this many entries above ``MAX_TABLE_BYTES``."""
    if 8 * entries > MAX_TABLE_BYTES:
        raise ParameterError(f"{what} would take {8 * entries:,} bytes, above the "
                             f"{MAX_TABLE_BYTES:,}-byte table budget")


def window_codes(symbols, k: int, m: int) -> np.ndarray:
    """Base-m code of every length-k window along the first axis.

    Row i of the result codes symbols[i:i + k], first symbol most
    significant, so codes sort like the windows in lex order; a 2-D input
    is coded column by column.  The dtype is the narrowest unsigned type
    that holds all m^k codes; ``table.take(codes)`` gathers by them
    faster than ``table[codes]``, but through an intp copy of the codes:
    a bool gather peaks at 9.0 B a code under tracemalloc, against 1.34 B.
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


def occurrences(symbols, word) -> np.ndarray:
    """Sorted int64 starts of every occurrence of ``word`` in ``symbols``,
    overlapping ones included.

    The next w symbols at every coordinate, w the largest of 8, 4, 2, 1 at
    most the word's length, are read as one little-endian integer through
    a strided view of the symbols, with no copy.  One compare keeps the
    starts that agree with the word's first w symbols; each further
    w-symbol group of the word, the last one aligned to end with it,
    filters those.  ``ValueError`` for an empty word.
    """
    sym = np.ascontiguousarray(symbols, dtype=np.uint8)
    word = np.ascontiguousarray(word, dtype=np.uint8)
    n = len(word)
    if n == 0:
        raise ValueError("cannot search for the empty word")
    if n > len(sym):
        return np.zeros(0, dtype=np.int64)
    w = next(w for w in (8, 4, 2, 1) if w <= n)
    dtype = np.dtype(f"<u{w}")
    heads = sliding_window_view(sym, w).view(dtype)[:, 0]
    keys = sliding_window_view(word, w).view(dtype)[:, 0]
    at = np.flatnonzero(heads[:len(sym) - n + 1] == keys[0])
    for j in range(w, n, w):
        j = min(j, n - w)
        at = at[heads[at + j] == keys[j]]
    return at.astype(np.int64, copy=False)


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
        """ASCII digits to symbols; ``ValueError`` on any other character."""
        sym = np.frombuffer(text.encode(), dtype=np.uint8) - np.uint8(ord("0"))
        if (bad := sym > 9).any():  # wrapped below "0", or a non-ASCII byte (>= 0x80)
            i = int(bad.argmax())   # the bytes before it are digits, a character each
            raise ValueError(f"position {i} holds {text[i]!r}, not an ASCII digit")
        return cls(sym, base)

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

    def rebase(self) -> "Word":
        return Word(self.symbols, 0)

    def to_string(self) -> str:
        """The symbols as ASCII digits; ``ValueError`` on a symbol above 9."""
        if (self.symbols > 9).any():
            raise ValueError("a symbol above 9 has no digit")
        return (self.symbols + np.uint8(ord("0"))).tobytes().decode()

    def __repr__(self) -> str:
        sym = self.symbols[:37] if len(self) > 40 else self.symbols
        s = Word(sym).to_string() if (sym <= 9).all() else str(sym.tolist())
        return f"Word('{s}{'...' * (len(sym) < len(self))}', base={self.base})"


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
    last_symbol : uint8 array, the last symbol of each state
    """

    def __init__(self, alphabet_size: int, forbidden=()):
        if alphabet_size < 1:
            raise ValueError("alphabet_size must be >= 1")
        canon = set()
        for w in forbidden:
            w = Word.from_string(w) if isinstance(w, str) else w
            sym = tuple(int(a) for a in (w.symbols if isinstance(w, Word) else w))
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
        _check_table(f"a table of the {m}^{k + 1} words of length {k + 1}", m * n_codes)
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
        bad = np.flatnonzero(~edges).tolist()   # forbidden windows, when few
        self._forbidden_codes = bad if len(bad) <= FEW_FORBIDDEN else None
        codes = np.flatnonzero(alive)
        _check_table(f"an SFT with {len(codes):,} states: its "
                     f"{len(codes):,} x {len(codes):,} matrices", len(codes) ** 2)
        self._index = np.full(n_codes, -1, dtype=np.intp)   # k-word code -> state
        self._index[codes] = np.arange(len(codes))
        digits = codes[:, None] // m ** np.arange(k - 1, -1, -1) % m
        self.state_codes = codes.astype(np.min_scalar_type(n_codes - 1))
        self.states = tuple(map(tuple, digits.tolist()))
        self.last_symbol = digits[:, -1].astype(np.uint8)
        # step[state][symbol] -> next state index or -1
        out = codes[:, None] * m + np.arange(m)
        self._step = np.where(edges[out], self._index[out % n_codes], -1)
        # the factor automaton: the length-j prefixes of states are the run
        # starts of codes // m**(k - j), numbered level by level from the
        # empty prefix to the states (level k); a prefix steps to the next
        # level by one searchsorted, a state by its own step
        levels = [codes // m ** (k - j) for j in range(k + 1)]
        levels = [p[np.append(True, p[1:] != p[:-1])] for p in levels]
        first = np.cumsum([0] + [len(p) for p in levels])
        rows = []
        for j, (p, q) in enumerate(zip(levels, levels[1:])):
            nxt = p[:, None] * m + np.arange(m)
            at = np.minimum(np.searchsorted(q, nxt), len(q) - 1)
            rows.append(np.where(q[at] == nxt, first[j + 1] + at, -1))
        rows.append(np.where(self._step >= 0, first[k] + self._step, -1))
        self._factor = Dfa(m, np.concatenate(rows))
        self._gap = None
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
        """DFA of the factor language, built with the shift: the prefixes
        of states by length, then the states.

        In an essential SFT every factor of an admissible word is a prefix
        of some state, so prefix nodes capture short words exactly.
        """
        return self._factor

    def is_admissible(self, word) -> bool:
        """True iff the word occurs in the shift; false for a symbol
        outside the alphabet."""
        sym = np.asarray(word.symbols if isinstance(word, Word) else word)
        return bool(self.admissible_pieces(sym, [len(sym)])[0])

    def admissible_pieces(self, symbols, lengths) -> np.ndarray:
        """Bool array: which pieces of a concatenation occur in the shift.

        ``symbols`` holds the pieces end to end, ``lengths`` their lengths
        (``ValueError`` unless non-negative with sum ``len(symbols)``).  One
        window pass checks them all, ``CHUNK`` windows at a time: a piece
        longer than k occurs iff none of its (k+1)-windows is forbidden
        (windows across a boundary between pieces are ignored), a shorter
        one of length n iff it is the last n symbols of some state.  Window
        codes are compared with at most ``FEW_FORBIDDEN`` forbidden ones,
        else looked up in ``edges``, and not made if none is forbidden.  A
        symbol outside the alphabet makes its piece inadmissible.
        """
        sym = np.asarray(symbols)
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.sum() != len(sym) or (lengths < 0).any():
            raise ValueError(f"{len(sym)} symbols, but piece lengths total "
                             f"{lengths.sum()} (least {min(lengths.tolist(), default=0)})")
        k, m, few = self.k, self.alphabet_size, self._forbidden_codes
        ends = np.cumsum(lengths)
        ok = np.ones(len(lengths), dtype=bool)
        if sym.size and (sym.min() < 0 or sym.max() >= m):   # 7x cheaper than a mask
            off = (sym < 0) | (sym >= m)
            ok[np.searchsorted(ends, np.flatnonzero(off), side="right")] = False
            sym = np.where(off, 0, sym)
        # window i covers symbols i..i+k: it counts iff its piece ends later
        for lo in range(0, max(len(sym) - k, 1) if few != [] else 0, CHUNK):
            codes = window_codes(sym[lo:lo + CHUNK + k], k + 1, m)
            if few is None:
                bad = np.flatnonzero(~self.edges.take(codes))
            else:
                hit = codes == few[0]
                for c in few[1:]:
                    hit |= codes == c
                bad = np.flatnonzero(hit)
            bad += lo
            piece = np.searchsorted(ends, bad, side="right")
            ok[piece[bad + k < ends[piece]]] = False
        starts = ends - lengths
        for n in set(lengths[lengths <= k].tolist()):
            at = np.flatnonzero(lengths == n)
            code = window_codes(sym[starts[at, None] + np.arange(n)].T, n, m)[0]
            suffix = np.zeros(m ** n, dtype=bool)
            suffix[self.state_suffix_codes(n)] = True
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
        return self.state_suffix_codes(n) == int(window_codes(sym, n, m)[0])

    def state_suffix_codes(self, n: int) -> np.ndarray:
        """Base-m code (int64) of every state's last n symbols, n <= k."""
        # widened first: m ** k need not fit the codes' own dtype
        return self.state_codes.astype(np.int64) % self.alphabet_size ** n

    def state_path(self, word: Word) -> np.ndarray:
        """State index of every full k-window of the word, -1 where the
        window is not a state (empty when the word is shorter than k).
        The symbols must lie in the alphabet."""
        return self._index.take(window_codes(word.symbols, self.k, self.alphabet_size))


def build_sft(alphabet_size: int, forbidden_words=()) -> Sft:
    """Construct the pruned SFT of sequences avoiding the forbidden words."""
    return Sft(alphabet_size, forbidden_words)


def strong_components(succ: np.ndarray) -> np.ndarray:
    """Strongly connected component label of every state of a padded successor
    table (-1 for no successor): Tarjan's depth-first search, O(n * m), with no
    recursion; labels count components as they complete, so no edge raises one."""
    n, live = len(succ), succ >= 0
    targets, ends = succ[live].tolist(), np.cumsum(live.sum(axis=1)).tolist()
    nxt = [0] + ends[:-1]             # the next edge each state tries
    order, low, label, stack, seen, done = [-1] * n, [0] * n, [-1] * n, [], 0, 0
    for root in range(n):
        path = [root] if order[root] < 0 else []
        while path:
            v = path[-1]
            if order[v] < 0:
                order[v] = low[v] = seen = seen + 1
                stack.append(v)
            if nxt[v] < ends[v]:
                w = targets[nxt[v]]
                nxt[v] += 1
                if order[w] < 0:
                    path.append(w)
                elif label[w] < 0:    # still on the stack
                    low[v] = min(low[v], order[w])
                continue
            path.pop()
            if path:
                low[path[-1]] = min(low[path[-1]], low[v])
            if low[v] == order[v]:
                while label[v] < 0:
                    label[stack.pop()] = done
                done += 1
    return np.array(label, dtype=np.intp)


def reach_levels(succ: np.ndarray):
    """Levels breadth-first from state 0 over a padded successor table (-1 for
    no successor) and the first row-major zero (i, j) of its reach closure or None:
    (0, least state 0 does not reach), else (least state outside 0's component, 0)."""
    level = np.r_[0, np.full(len(succ) - 1, -1), 0]   # the last entry, for -1, is seen
    frontier, d = [0], 0
    while len(frontier):
        nxt = succ[frontier]
        level[nxt[level[nxt] < 0]] = d + 1
        frontier, d = np.flatnonzero(level == d + 1), d + 1
    if (level < 0).any():
        return level[:-1], (0, int(np.argmax(level < 0)))
    apart = (label := strong_components(succ)) != label[0]
    return level[:-1], ((int(np.argmax(apart)), 0) if apart.any() else None)


def adjacency_matrix(succ: np.ndarray) -> np.ndarray:
    """The bool n x n edge matrix of a padded successor table (-1 for none)."""
    a = np.zeros((len(succ), len(succ)), dtype=bool)
    a[np.nonzero(succ >= 0)[0], succ[succ >= 0]] = True
    return a


def topological_entropy(sft: Sft) -> float:
    """log of the Perron eigenvalue of A, in nats: the largest over the strongly
    connected components, 0 for one with no more internal edges than states (a
    cycle or a state on none); any other power-iterates its rows of A + I by gathers
    to a Collatz-Wielandt bracket, or after 100,000 rounds eigensolves its block."""
    step, label = sft._step, strong_components(sft._step)
    inner = (np.append(label, -1)[step] == label[:, None]).sum(axis=1)
    h = 0.0
    for c in np.flatnonzero(np.bincount(label, inner) > np.bincount(label)):
        rows = np.flatnonzero(label == c)
        local = np.full(len(step) + 1, -1)      # steps out of the component read -1
        local[rows] = np.arange(len(rows))
        sub = local[step[rows]]
        x = np.append(np.full(len(rows), 1.0 / len(rows)), 0.0)   # -1 reads 0
        for _ in range(100_000):
            y = x[:-1] + x[sub].sum(axis=1)
            ratios = y / x[:-1]
            lo, hi = ratios.min(), ratios.max()
            x[:-1] = y / y.sum()
            if hi - lo <= 1e-13 * hi:
                rho = 0.5 * (lo + hi) - 1.0
                break
        else:
            rho = max(ev.real for ev in np.linalg.eigvals(adjacency_matrix(sub)))
        h = max(h, math.log(rho))
    return h


def specification_gap(sft: Sft) -> int:
    """Least p with all entries of adjacency^p positive (primitivity index).

    For any admissible u, v and any g >= L there is a connecting word w of
    length exactly g with u w v admissible; see interp.connect_words.
    A is primitive iff irreducible with period 1, the gcd of level[u] + 1 -
    level[v] over its edges (u, v); then bit-packed rows of the states reachable
    in exactly p steps are walked from A, p = 1, 2, ..., until every row is full."""
    if sft._gap is None:
        step, n = sft._step, sft.n_states
        level, pair = reach_levels(step)
        period = np.gcd.reduce((level[:, None] + 1 - level[step])[step >= 0])
        if pair is not None or period != 1:
            raise NotMixingError("adjacency matrix is not primitive: not mixing")
        full = np.packbits(np.ones(n, dtype=bool))
        walk = np.zeros((n + 1, len(full)), dtype=np.uint8)   # row n: a -1 step
        walk[np.arange(n), np.arange(n) >> 3] = 128 >> (np.arange(n) & 7)   # I
        p = 0
        while p == 0 or not (walk[:n] == full).all():
            walk[:n] = np.bitwise_or.reduce(walk[step], axis=1)
            p += 1
        sft._gap = p
    return sft._gap


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


def enumerate_words(sft: Sft, length: int):
    """Admissible words of the given length in lex order."""
    out = []
    for block in sft.factor_dfa().enumerate(length):
        for sym in block:
            out.append(Word(sym.copy()))  # a view would pin the whole block
    return out


def ascii_text(text: str) -> str:
    """The text of a number field, refused (``ValueError``) unless ASCII:
    int() and float() also read the digits of other scripts."""
    if not text.isascii():
        raise ValueError(f"{text!r} is not ASCII")
    return text


def parse_sft(text: str) -> Sft:
    """Parse the SFT text format: ``alphabet <size>`` then ``forbid <word>``."""
    alphabet = None
    forbidden = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "alphabet" and len(parts) == 2:
                alphabet = int(ascii_text(parts[1]))
            elif parts[0] == "forbid" and len(parts) == 2:
                forbidden.append(Word.from_string(parts[1]))
            else:
                raise ValueError
        except ValueError:
            raise ValueError(f"line {lineno}: cannot parse {line!r}") from None
    if alphabet is None:
        raise ValueError("missing 'alphabet' line")
    return Sft(alphabet, forbidden)


def serialize_sft(sft: Sft) -> str:
    if sft.alphabet_size > MAX_TEXT_ALPHABET:
        raise ValueError("text format limited to single-digit symbols")
    lines = [f"alphabet {sft.alphabet_size}"]
    for f in sft.forbidden:
        lines.append("forbid " + Word(f).to_string())
    return "\n".join(lines) + "\n"
