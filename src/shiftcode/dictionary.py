"""Parameter selection and the boys/girls marriage dictionary.

Boys are high-probability source N-blocks, girls are admissible target
segments of length N - 11M that avoid the marker detection windows, and
the dictionary is an injection boys -> girls.  Two modes: enumerative
rank/unrank (scalable, injective by construction) and explicit Hall
matching over a sampled relation (tiny scale, faithful to the relation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .automata import (RANK_BIT_LIMIT, Dfa, avoider_dfa, product_dfa,
                       rank_vector)
from .errors import (CapacityError, DegreeError, NoGirlsError, ParameterError,
                     ShiftcodeError, UnmatchedBoyError)
from .markers import MarkerScheme
from .measures import MarkovMeasure
from .shiftspace import Sft, Word

WILSON_Z99 = 2.5758293035489004  # two-sided 0.99 normal quantile

# delta bound from 4(1-delta)(1-15delta) >= 3, the positive root of
# 60 d^2 - 64 d + 1 = 0
STUPID_DELTA_BOUND = (64.0 - math.sqrt(64.0 ** 2 - 240.0)) / 120.0

S5_KMAX = 3     # longest block in the s5 weak* condition


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z99):
    if trials <= 0:
        return 0.0, 1.0
    p = successes / trials
    d = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / d
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / d
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class CheckItem:
    passed: bool | None
    detail: str


@dataclass
class ParameterPack:
    """The full constant set with a reproducible per-inequality checklist."""

    eps: float
    Delta: float
    delta: float
    eta: float
    r: float
    eta_radius: int
    r_radius: int
    ell: int
    M: int
    N: int
    alpha: float
    mode: str
    h_source: float
    h_target: float
    h_joint_bound: float
    source_alphabet: int
    gap: int
    binding: str = ""
    checklist: dict = field(default_factory=dict)

    @property
    def girl_length(self) -> int:
        return self.N - 11 * self.M

    @property
    def info_region(self):
        """Relative info window [M, N-10M) within an N-block."""
        return self.M, self.N - 10 * self.M

    def scalars(self) -> dict:
        return {
            "mode": self.mode, "eps": self.eps, "Delta": self.Delta,
            "delta": self.delta, "eta": self.eta, "r": self.r,
            "eta_radius": self.eta_radius, "r_radius": self.r_radius,
            "ell": self.ell, "M": self.M, "N": self.N, "alpha": self.alpha,
            "h_source": self.h_source, "h_target": self.h_target,
            "h_joint_bound": self.h_joint_bound,
            "source_alphabet": self.source_alphabet, "gap": self.gap,
            "binding": self.binding,
        }


def _radius_for(threshold: float) -> int:
    """The integer t with threshold in (2^-(t+1), 2^-t]."""
    if not 0 < threshold <= 1:
        raise ValueError("threshold must lie in (0, 1]")
    t = int(math.floor(-math.log2(threshold)))
    if 2.0 ** (-t) < threshold:
        t -= 1
    return max(t, 0)


def log_cylinder_extreme(measure: MarkovMeasure, length: int, pick) -> float:
    """``pick`` (np.max or np.min) of log mu([w]) over the words of the
    given length with positive mass, by max-plus or min-plus DP: n - k
    steps from log pi.  A word shorter than k weighs the stationary mass of
    the states that end in it (k >= 1: the empty word weighs sum(pi))."""
    sft = measure.sft
    if length < sft.k:
        ends = sft.state_codes.astype(np.int64) % sft.alphabet_size ** length
        mass = np.bincount(ends, weights=measure.stationary)
        return float(np.log(pick(mass[mass > 0])))
    v = measure._log_pi         # an irreducible chain has pi > 0
    step = np.where(measure.transition > 0, measure._log_p,
                    -math.inf if pick is np.max else math.inf)
    for _ in range(length - sft.k):
        v = pick(v[:, None] + step, axis=0)
    return float(pick(v))


def choose_parameters(h_source: float, h_target: float, eps: float,
                      mode: str = "strict", overrides: dict | None = None, *,
                      source_alphabet: int = 2, gap: int = 1,
                      mu: MarkovMeasure | None = None,
                      nu: MarkovMeasure | None = None,
                      mc_samples: int = 400, seed: int = 0) -> ParameterPack:
    """Pick (Delta, delta, eta, r, ell, M, N) and evaluate the checklist.

    Strict mode derives every constant from the entropy gap: Delta is a
    tenth of the gap, delta the largest value below eps/80 admitted by the
    three delta inequalities, and N the smallest integer whose derived
    M = floor(delta N / 11) passes the decidable checklist items.
    Practical mode accepts user N, M, delta, alpha and only records the
    checklist outcomes.
    """
    if not h_target > h_source > 0:
        raise ParameterError(
            f"need h_target > h_source > 0, got {h_source} vs {h_target}")
    if not 0 < eps < 1:
        raise ParameterError("eps must lie in (0, 1)")
    if mode not in ("strict", "practical"):
        raise ParameterError(f"unknown mode {mode!r}")
    overrides = dict(overrides or {})

    Delta = (h_target - h_source) / 10.0
    h_joint_bound = h_source + h_target
    bounds = {
        "en-cap-delta": Delta / (1.0 + h_joint_bound),
        "part-cap-delta": eps * Delta / (16.0 * (1.0 + math.log(source_alphabet))),
        "stupid": STUPID_DELTA_BOUND,
        "eps-over-80": eps / 80.0,
    }
    binding = min(bounds, key=bounds.get)
    delta_star = bounds[binding]
    if binding != "stupid":
        delta_star *= 1.0 - 1e-12  # those three inequalities are strict
    delta = overrides.get("delta", delta_star)

    eta = eps / 13.0          # paper range eta < eps/12
    r = eta / 11.0            # paper range r < eta/10
    eta_radius = _radius_for(eta)
    r_radius = _radius_for(r)
    ell = int(math.floor(10.0 / eta)) + 1
    alpha = overrides.get("alpha", delta * delta / 22.0)

    def m_of(n):
        return int(math.floor(delta * n / 11.0))

    m_floor = max(gap + 1, int(math.floor(math.log2(1.0 / r))) + 1)
    if nu is not None:
        m = m_floor
        while log_cylinder_extreme(nu, 2 * m, np.max) >= math.log(alpha / m):
            m += 1
            if m > 10 ** 6:
                raise ParameterError("marker condition (e) unattainable")
        m_floor = m

    if mode == "strict":
        if delta <= 0:
            raise ParameterError("derived delta is non-positive")
        n = max(int(math.ceil(math.log(2.0) / Delta)) + 1,
                int(math.ceil(1.0 / delta)) + 1,
                int(math.ceil(11.0 * m_floor / delta)))
        while m_of(n) < m_floor and n <= 10 ** 9:
            n += 1
        if n > 10 ** 9:
            raise ParameterError(
                f"strict mode infeasible within N <= 1e9; binding constraint "
                f"is {binding} (delta = {delta:.3e})")
        N = n
        M = m_of(N)
    else:
        if "N" not in overrides:
            raise ParameterError("practical mode requires an N override")
        N = int(overrides["N"])
        M = int(overrides.get("M", max(1, m_of(N))))
    if N - 11 * M < 1:
        raise ParameterError(f"N - 11M = {N - 11 * M} < 1")

    pack = ParameterPack(eps=eps, Delta=Delta, delta=delta, eta=eta, r=r,
                         eta_radius=eta_radius, r_radius=r_radius, ell=ell,
                         M=M, N=N, alpha=alpha, mode=mode,
                         h_source=h_source, h_target=h_target,
                         h_joint_bound=h_joint_bound,
                         source_alphabet=source_alphabet, gap=gap,
                         binding=binding)
    _fill_checklist(pack, bounds, mu=mu, nu=nu, mc_samples=mc_samples,
                    seed=seed)
    if mode == "strict":
        failed = [k for k in ("a", "b", "c", "d", "e")
                  if pack.checklist[k].passed is False]
        if failed:
            raise ParameterError(f"strict checklist items failed: {failed}")
    return pack


def _fill_checklist(pack, bounds, *, mu, nu, mc_samples, seed):
    cl = pack.checklist
    d, D, e = pack.delta, pack.Delta, pack.eps

    cl["en-cap-delta"] = CheckItem(
        d * (1 + pack.h_joint_bound) < D,
        f"delta(1+h_joint) = {d * (1 + pack.h_joint_bound):.6g} < Delta = {D:.6g} "
        f"(bound {bounds['en-cap-delta']:.6g})")
    cl["part-cap-delta"] = CheckItem(
        16 * d * (1 + math.log(pack.source_alphabet)) < e * D,
        f"16 delta (1+log|P|) = {16 * d * (1 + math.log(pack.source_alphabet)):.6g} "
        f"< eps Delta = {e * D:.6g} (bound {bounds['part-cap-delta']:.6g})")
    cl["stupid"] = CheckItem(
        4 * (1 - d) * (1 - 15 * d) >= 3,
        f"4(1-delta)(1-15delta) = {4 * (1 - d) * (1 - 15 * d):.6g} >= 3")
    cl["choice-of-con"] = CheckItem(
        120 * pack.r < e and 80 * d < e and 12 * pack.eta < e,
        f"120r = {120 * pack.r:.6g}, 80delta = {80 * d:.6g}, "
        f"12eta = {12 * pack.eta:.6g} all < eps = {e:.6g}")
    cl["theM"] = CheckItem(
        pack.mode == "practical" or pack.M == int(math.floor(d * pack.N / 11)),
        f"M = {pack.M}, floor(delta N / 11) = {int(math.floor(d * pack.N / 11))}")

    cl["a"] = CheckItem(pack.N * D > math.log(2),
                        f"N Delta = {pack.N * D:.6g} > log 2")
    cl["b"] = CheckItem(2.0 ** (-pack.M) < pack.r,
                        f"2^-M = {2.0 ** (-pack.M):.3e} < r = {pack.r:.3e}")
    cl["c"] = CheckItem(1.0 / pack.N < d, f"1/N = {1.0 / pack.N:.3e} < delta = {d:.3e}")
    cl["d"] = CheckItem(pack.gap < pack.M,
                        f"gap L = {pack.gap} < M = {pack.M}")
    if nu is not None:
        worst = log_cylinder_extreme(nu, 2 * pack.M, np.max)
        ok = worst < math.log(pack.alpha / pack.M)
        cl["e"] = CheckItem(ok,
                            f"max 2M-cylinder log-prob {worst:.6g} "
                            f"{'<' if ok else '>='} log(alpha/M) = "
                            f"{math.log(pack.alpha / pack.M):.6g}")
    else:
        cl["e"] = CheckItem(None, "alpha/M bound not evaluated (no target measure)")

    if mu is not None and nu is not None:
        _estimate_condition_sets(pack, mu, nu, mc_samples, seed)
    else:
        for i in range(1, 6):
            cl[f"s{i}"] = CheckItem(None, "not estimated (measures not supplied)")
    cl["s6"] = CheckItem(True, "cylinder partitions have empty boundary in "
                               "subshift targets; the Cesaro average is 0")


def _window_conditions(pack, mu, nu, x: Word, y: Word, t: int, t2: int):
    """The window-measure inequalities s1-s4 for the N-blocks at x.lo + t
    and y.lo + t: whole-block windows widened by t on each side, info
    windows [M, N - 10M) by t2."""
    N, M, D = pack.N, pack.M, pack.Delta
    n, m = x.lo + t, y.lo + t
    lmx = mu.log_cylinder_probability(x.window(n - t, n + N + t))
    lny = nu.log_cylinder_probability(y.window(m - t, m + N + t))
    lmx2 = mu.log_cylinder_probability(x.window(n + M - t2, n + N - 10 * M + t2))
    lny2 = nu.log_cylinder_probability(y.window(m + M - t2, m + N - 10 * M + t2))
    return (lmx > -(pack.h_source + D) * N,
            lny2 < -(pack.h_target - D) * N,
            lmx2 + lny2 < -(pack.h_joint_bound - D) * N,
            lmx + lny > -(pack.h_joint_bound + D) * N)


def _estimate_condition_sets(pack, mu, nu, samples, seed):
    """Monte-Carlo masses of the five sampled condition sets, with 0.99
    Wilson intervals; an item passes when the interval lower bound clears
    1 - delta.  s5 compares blocks of 1..S5_KMAX symbols."""
    from .estimators import (BlockDistribution, empirical_family,
                             weakstar_surrogate)
    N, M = pack.N, pack.M
    t = pack.eta_radius
    t2 = max(pack.eta_radius - 1, 0)   # radius for threshold 2 eta
    d = pack.delta
    hits = {k: 0 for k in ("s1", "s2", "s3", "s4", "s5")}
    exact_joint = []
    for k in range(1, S5_KMAX + 1):
        freqs = {}
        nu_k = BlockDistribution.exact(nu, k).freqs.items()
        for wa, pa in BlockDistribution.exact(mu, k).freqs.items():
            for wb, pb in nu_k:
                freqs[tuple(zip(wa, wb))] = pa * pb
        exact_joint.append(BlockDistribution(k, freqs))
    for i in range(samples):
        x = mu.sample_path(N + 2 * t + 1, seed=(seed, 1, i))
        y = nu.sample_path(N + 2 * t + 1, seed=(seed, 2, i))
        x = Word(x.symbols, -t)
        y = Word(y.symbols, -t)
        for key, ok in zip(("s1", "s2", "s3", "s4"),
                           _window_conditions(pack, mu, nu, x, y, t, t2)):
            hits[key] += ok
        pair = np.stack([x.window(M, N - 10 * M).symbols,
                         y.window(M, N - 10 * M).symbols], axis=1)
        emp = empirical_family(pair, S5_KMAX)
        if weakstar_surrogate(emp, exact_joint, S5_KMAX) < pack.eps / 12:
            hits["s5"] += 1
    for key, h in hits.items():
        lo, hi = wilson_interval(h, samples)
        pack.checklist[key] = CheckItem(
            lo > 1 - d,
            f"estimate {h}/{samples} = {h / samples:.4f}, "
            f"0.99 CI [{lo:.4f}, {hi:.4f}] vs 1-delta = {1 - d:.4f}")


# ---------------------------------------------------------------------------
# boys and girls


class _WordSet:
    """Words of one width in lex order, ranked on the automaton ``dfa``.
    The rows methods take words as the rows of a uint8 array;
    ``member``/``rank``/``unrank`` are one-row calls, bound again in each
    subclass because the benchmark tracer (``perfbench/tracer.py``) looks
    them up in the class namespace."""

    _noun = "word"

    def member_rows(self, rows) -> np.ndarray:
        rows = np.asarray(rows)
        if rows.shape[1] != self._width:
            return np.zeros(len(rows), dtype=bool)
        return self.dfa.member_rows(rows)

    def rank_rows(self, rows) -> np.ndarray:
        """Lex ranks, an object vector; ``ValueError`` on a non-member."""
        rows = np.asarray(rows)
        if len(rows) and rows.shape[1] != self._width:
            raise ValueError(f"not a {self._noun}")
        try:
            # an empty batch of another width ranks as one of this width
            return self.dfa.rank_rows(rows.reshape(-1, self._width))
        except ValueError:
            raise ValueError(f"not a {self._noun}") from None

    def unrank_rows(self, ranks) -> np.ndarray:
        """Members of the given ranks; ``ValueError`` if one is out of range."""
        return self.dfa.unrank_rows(self._width, ranks)

    def member(self, word: Word) -> bool:
        return bool(self.member_rows(word.symbols[None])[0])

    def rank(self, word: Word) -> int:
        return self.rank_rows(word.symbols[None])[0]

    def unrank(self, r: int) -> Word:
        return Word(self.unrank_rows([r])[0])


class BoySet(_WordSet):
    """Source N-blocks whose cylinder probability clears the threshold:
    the words of length N that ``dfa`` accepts, ``count`` of them, of
    total probability ``mass``."""

    _noun = "boy"

    def __init__(self, dfa: Dfa, N: int, count: int, mass: float):
        self.dfa, self.N, self._width = dfa, N, N
        self.count, self.mass = count, mass


class _FullShiftBoys(BoySet):
    """Every block of a full shift (every Bernoulli(1/2) source) is a boy,
    and its rank is its base-m value, computed over rows: the factor
    automaton's suffix table would hold about N^2/2 bits (2.7e9 at the
    strict N = 73,495)."""

    rank, unrank = _WordSet.rank, _WordSet.unrank

    def rank_rows(self, rows) -> np.ndarray:
        if not self.member_rows(rows).all():
            raise ValueError("not a boy")
        ranks = np.zeros(len(rows), dtype=object)
        for col in np.asarray(rows).T:
            ranks = ranks * self.dfa.alphabet_size + col
        return ranks

    def unrank_rows(self, ranks) -> np.ndarray:
        ranks = rank_vector(ranks, self.count)
        digits = np.empty((len(ranks), self.N), dtype=np.uint8)
        for pos in range(self.N - 1, -1, -1):
            digits[:, pos] = ranks % self.dfa.alphabet_size
            ranks = ranks // self.dfa.alphabet_size
        return digits


def _type_class_boys(mu: MarkovMeasure, N: int, log_threshold: float) -> BoySet:
    """Boys on the type-class automaton (Csiszar, "The method of types",
    IEEE Trans. IT 44(6), 1998).  An edge's excess is its log pi (entering
    the first state) or log P (each later step) less the largest of its
    kind; log mu([w]) depends only on how often w uses each class (excesses
    equal to 13 decimals; class d is 0).  A node is (factor node, equal rows
    merged; counts of the d negative classes).  Excesses are <= 0: an edge
    is dead once the counts score below the threshold or pass the N - k + 1
    steps from the first state on, and every node left accepts.  Counts: a
    forward DP of N steps, or multinomials where one factor node is left."""
    sft, factor = mu.sft, mu.sft.factor_dfa()
    if N < sft.k:
        raise ParameterError(f"boys: N = {N} is shorter than the memory k = {sft.k}")
    n, m = factor.n_nodes, sft.alphabet_size
    tops = [mu._log_pi.max(), mu._log_p[mu.transition > 0].max()]
    # excess by (source, target) node: 0 between the prefixes of a state
    by_pair = np.zeros((n, n))
    by_pair[:n - sft.n_states, n - sft.n_states:] = mu._log_pi - tops[0]
    by_pair[n - sft.n_states:, n - sft.n_states:] = mu._log_p - tops[1]
    excess = by_pair[np.arange(n)[:, None], factor.step]
    step = np.where((factor.step >= 0) & np.isfinite(excess), factor.step, -1)
    # rows reversed, so a class is valued by a given log P, not a solved log pi
    excess = np.where(step >= 0, excess, 0.0)[::-1]
    _, firsts, classes = np.unique(excess.round(13), return_index=True,
                                   return_inverse=True)
    classes = classes.reshape(step.shape)[::-1]
    _, reps, ids = np.unique(np.column_stack([step, classes]), axis=0,
                             return_index=True, return_inverse=True)
    ids = ids.reshape(-1)           # nodes of one row share a future
    step, classes = np.where(step[reps] >= 0, ids[step[reps]], -1), classes[reps]
    d, values = len(firsts) - 1, excess.reshape(-1)[firsts[:-1]].tolist()
    base = [tops[0], (N - sft.k) * tops[1]]

    def score(counts):
        return math.fsum(base + [c * e for c, e in zip(counts, values)])

    # a node: d + m + 1 int64 table entries and a count of <= N log2(m) bits
    most = RANK_BIT_LIMIT / (64 * (d + m + 1) + N * math.log2(m))
    index = {(int(ids[factor.start]), (0,) * d): 0}
    nodes, rows, made = list(index), [], []     # made: (parent, class) past the start
    for node, counts in nodes:          # nodes grows while it is read
        rows.append([])
        for nxt, c in zip(step[node].tolist(), classes[node].tolist()):
            key = (nxt, counts if c == d else
                   counts[:c] + (counts[c] + 1,) + counts[c + 1:])
            if key not in index and nxt >= 0 and (c == d or (
                    sum(key[1]) <= N - sft.k + 1 and score(key[1]) >= log_threshold)):
                if len(nodes) >= most:
                    raise ParameterError(
                        f"boys: the type-class automaton of d = {d} classes at N = "
                        f"{N} passed {len(nodes)} nodes, over {RANK_BIT_LIMIT:.3g} bits")
                index[key] = len(nodes)
                nodes.append(key)
                made.append((len(rows) - 1, c))
            rows[-1].append(index.get(key, -1))
    table = np.array(rows, dtype=np.int64)
    if len(reps) == 1:      # multinomials, each from its parent's
        g = np.bincount(classes[0][step[0] >= 0], minlength=d + 1).tolist()
        counts = [g[d] ** N]
        for (p, i), (_, c) in zip(made, nodes[1:]):
            counts.append(counts[p] * (N - sum(c) + 1) * g[i] // (c[i] * g[d]))
    else:
        src, sym = np.nonzero(table >= 0)
        order = np.argsort(table[src, sym], kind="stable")
        heads, firsts = np.unique(table[src, sym][order], return_index=True)
        counts = np.array([1] + [0] * (len(nodes) - 1), dtype=object)
        for _ in range(N):
            grown = np.zeros(len(nodes), dtype=object)
            grown[heads] = np.add.reduceat(counts[src[order]], firsts)
            counts = grown
    # log space: counts pass 2^1024; a start under the threshold leaves nodes to drop
    logs = [math.log(k) + score(c) for (_, c), k in zip(nodes, list(counts))
            if k and score(c) >= log_threshold]
    if not logs:
        raise ParameterError("threshold excludes every block")
    mass = math.exp(top := max(logs)) * math.fsum(math.exp(t - top) for t in logs)
    return BoySet(Dfa(m, table), N, int(sum(counts)), mass)


def boys(mu: MarkovMeasure, pack: ParameterPack) -> BoySet:
    """The source N-blocks of log-probability at least -N(h_source + Delta):
    every N-block when all clear it, else the type-class automaton's.  Tie
    rule: a block's score is the ``math.fsum`` over its classes, not
    ``log_cylinder_probability``'s sum, so a block within ~1e-12 of the
    threshold (N 1e-13 where excesses agree to 13 decimals) may fall either way."""
    N = pack.N
    log_threshold = -N * (pack.h_source + pack.Delta)
    if log_cylinder_extreme(mu, N, np.min) >= log_threshold:
        dfa = mu.sft.factor_dfa()
        kind = _FullShiftBoys if mu.sft.is_full_shift() else BoySet
        return kind(dfa, N, dfa.count(N), 1.0)
    return _type_class_boys(mu, N, log_threshold)


class GirlSet(_WordSet):
    """Admissible target words of length N - 11M avoiding the marker
    windows, with exact counting and lex rank/unrank over the product of
    the SFT factor automaton and the window-avoidance automaton."""

    _noun = "girl"
    member, rank, unrank = _WordSet.member, _WordSet.rank, _WordSet.unrank

    def __init__(self, sft: Sft, pack: ParameterPack, scheme: MarkerScheme):
        if scheme.M != pack.M:
            raise ParameterError("marker scheme M differs from pack M")
        self.length = self._width = pack.girl_length
        if self.length < 1:
            raise ParameterError("N - 11M must be >= 1")
        patterns = [scheme.h1_window.symbols.tolist(),
                    scheme.h2_window.symbols.tolist()]
        self.dfa = product_dfa(sft.factor_dfa(),
                               avoider_dfa(sft.alphabet_size, patterns))
        self.count = self.dfa.count(self.length)
        if self.count == 0:
            raise NoGirlsError("no girls: every candidate word was filtered")


def girls(sft: Sft, pack: ParameterPack, scheme: MarkerScheme) -> GirlSet:
    return GirlSet(sft, pack, scheme)


# ---------------------------------------------------------------------------
# relation and matching


@dataclass
class Relation:
    """Sampled bipartite relation with a witness index per edge."""

    edges: dict                 # boy string -> sorted list of girl strings
    witnesses: dict             # (boy string, girl string) -> sample index

    def boy_degree(self, b: str) -> int:
        return len(self.edges.get(b, ()))

    def girl_degrees(self) -> dict:
        deg: dict = {}
        for gs in self.edges.values():
            for g in gs:
                deg[g] = deg.get(g, 0) + 1
        return deg


def build_relation(boy_set: BoySet, girl_set: GirlSet, paired_samples,
                   pack: ParameterPack) -> Relation:
    """(B, g) is an edge iff some sample pair has x-block B and girl
    window g."""
    N = pack.N
    lo, hi = pack.info_region
    edges: dict = {}
    witnesses: dict = {}
    for idx, (x, y) in enumerate(paired_samples):
        b = x.window(x.lo, x.lo + N).rebase()
        g = y.window(y.lo + lo, y.lo + hi).rebase()
        if not boy_set.member(b) or not girl_set.member(g):
            continue
        bs, gs = b.to_string(), g.to_string()
        bucket = edges.setdefault(bs, [])
        if gs not in bucket:
            bucket.append(gs)
            witnesses[(bs, gs)] = idx
    for bucket in edges.values():
        bucket.sort()
    return Relation(edges, witnesses)


def hall_match(relation: Relation, K: int) -> dict:
    """Injection boys -> girls inside the relation via Hopcroft-Karp.

    Preconditions from the marriage theorem: every boy degree >= K and
    every girl degree <= K; K > 0.
    """
    if K < 1:
        raise ParameterError("K must be a positive integer")
    for b in sorted(relation.edges):
        if relation.boy_degree(b) < K:
            raise DegreeError(
                f"boy {b} has degree {relation.boy_degree(b)} < K = {K}",
                vertex=b)
    for g, deg in sorted(relation.girl_degrees().items()):
        if deg > K:
            raise DegreeError(f"girl {g} has degree {deg} > K = {K}", vertex=g)
    matching = _hopcroft_karp(relation.edges)
    if len(matching) != len(relation.edges):
        raise ShiftcodeError(
            "internal inconsistency: matching smaller than the boy set "
            "despite valid degrees")
    return matching


def _hopcroft_karp(adj: dict) -> dict:
    """Maximum bipartite matching; deterministic under sorted iteration."""
    INF = float("inf")
    pair_b: dict = {}
    pair_g: dict = {}
    dist: dict = {}
    lefts = sorted(adj)

    def bfs() -> bool:
        from collections import deque
        queue = deque()
        for b in lefts:
            if b not in pair_b:
                dist[b] = 0
                queue.append(b)
            else:
                dist[b] = INF
        found = INF
        while queue:
            b = queue.popleft()
            if dist[b] < found:
                for g in adj[b]:
                    nxt = pair_g.get(g)
                    if nxt is None:
                        found = dist[b] + 1
                    elif dist[nxt] == INF:
                        dist[nxt] = dist[b] + 1
                        queue.append(nxt)
        return found != INF

    def dfs(b) -> bool:
        for g in adj[b]:
            nxt = pair_g.get(g)
            if nxt is None or (dist[nxt] == dist[b] + 1 and dfs(nxt)):
                pair_b[b] = g
                pair_g[g] = b
                return True
        dist[b] = INF
        return False

    while bfs():
        for b in lefts:
            if b not in pair_b:
                dfs(b)
    return pair_b


def marriage_bound(pack: ParameterPack, h_joint: float, h_source: float) -> float:
    """log K = log(1/2) + N (h_joint - h_source - 2 Delta)."""
    return math.log(0.5) + pack.N * (h_joint - h_source - 2 * pack.Delta)


# ---------------------------------------------------------------------------
# the dictionary itself


@dataclass
class Dictionary:
    """Injective map boys -> girls, enumerative or explicit.  A hall table
    is checked when the dictionary is built: its keys are boys, its values
    girls, no girl twice."""

    mode: str
    boys: BoySet
    girls: GirlSet
    table: dict | None = None       # hall mode: boy string -> girl string
    inverse: dict | None = field(default=None, init=False)

    def __post_init__(self):
        if self.table is None:
            return
        self.inverse = {g: b for b, g in self.table.items()}
        for b, g in sorted(self.table.items()):
            if not (self.boys.member(Word.from_string(b))
                    and self.girls.member(Word.from_string(g))):
                raise ParameterError(f"hall table: {b} -> {g} is not a boy to a girl")
        if len(self.inverse) < len(self.table):
            raise ParameterError("hall table: two boys map to one girl")

    def lookup_rows(self, boy_rows) -> np.ndarray:
        """The girl of every boy row, as a ``(B, girl length)`` array."""
        if self.mode == "hall":
            try:
                return _table_rows(self.table, boy_rows, self.girls.length)
            except KeyError as exc:
                raise UnmatchedBoyError(
                    f"hall-mode dictionary lookup: boy block {exc.args[0]} is "
                    f"not among the {len(self.table)} boys the table "
                    f"covers") from None
        return self.girls.unrank_rows(self.boys.rank_rows(boy_rows))

    def invert_rows(self, girl_rows):
        """(boy rows, found): each girl row's boy, zero where ``found`` is
        false because no boy maps to it."""
        girl_rows = np.asarray(girl_rows)
        out = np.zeros((len(girl_rows), self.boys.N), dtype=np.uint8)
        if self.mode == "hall":
            found = np.array([Word(row).to_string() in self.inverse
                              for row in girl_rows], dtype=bool)
            out[found] = _table_rows(self.inverse, girl_rows[found], self.boys.N)
            return out, found
        found = self.girls.member_rows(girl_rows)
        ranks = self.girls.rank_rows(girl_rows[found])
        mapped = ranks < self.boys.count
        found[found] = mapped
        out[found] = self.boys.unrank_rows(ranks[mapped])
        return out, found

    def lookup(self, boy_word: Word) -> Word:
        return Word(self.lookup_rows(boy_word.symbols[None])[0])

    def invert(self, girl_word: Word):
        """The boy mapped to this girl, or None when none is."""
        rows, found = self.invert_rows(girl_word.symbols[None])
        return Word(rows[0]) if found[0] else None


def _table_rows(table: dict, rows, width: int) -> np.ndarray:
    """Hall-mode lookups of uint8 rows in a string -> string table."""
    return np.array([list(map(int, table[Word(row).to_string()]))
                     for row in rows], dtype=np.uint8).reshape(-1, width)


def dictionary(boy_set: BoySet, girl_set: GirlSet, mode: str = "enumerative",
               relation: Relation | None = None, K: int | None = None,
               pack: ParameterPack | None = None) -> Dictionary:
    """Build the injection, checking capacity (enumerative) or the Hall
    degree conditions (explicit matching over a relation)."""
    if mode == "enumerative":
        nb, ng = boy_set.count, girl_set.count
        if nb > ng:
            diag = ""
            if pack is not None:
                need = pack.N * (pack.h_target - pack.h_source - 2 * pack.Delta)
                diag = (f"; ratio diagnostic: log(|G|/|B|) = "
                        f"{math.log(ng) - math.log(nb):.6g} "
                        f"vs required {need:.6g}")
            raise CapacityError(
                f"capacity failure: {nb} boys > {ng} girls{diag}",
                n_boys=nb, n_girls=ng)
        return Dictionary("enumerative", boy_set, girl_set)
    if mode == "hall":
        if relation is None or K is None:
            raise ParameterError("hall mode needs a relation and K")
        return Dictionary("hall", boy_set, girl_set, table=hall_match(relation, K))
    raise ParameterError(f"unknown dictionary mode {mode!r}")


@dataclass
class BoundsReport:
    """Exact truth values of the four counting predicates."""

    log_girls: float
    log_boys: float
    boy_mass: float
    girls_exceed: bool          # log|G| > log(1/2) + N(h_target - Delta)
    boys_below: bool            # log|B| <= N(h_source + Delta)
    mass_exceeds: bool          # mu(union of boys) > 1 - 15 delta
    ratio_holds: bool           # log(|G|/|B|) >= N(h_target - h_source - 2 Delta)
    details: dict = field(default_factory=dict)

    @property
    def all_hold(self) -> bool:
        return (self.girls_exceed and self.boys_below and self.mass_exceeds
                and self.ratio_holds)


def verify_dictionary_bounds(boy_set: BoySet, girl_set: GirlSet,
                             pack: ParameterPack, h_source: float,
                             h_target: float) -> BoundsReport:
    lg = math.log(girl_set.count)
    lb = math.log(boy_set.count)
    n, D = pack.N, pack.Delta
    girls_rhs = math.log(0.5) + n * (h_target - D)
    boys_rhs = n * (h_source + D)
    ratio_rhs = n * (h_target - h_source - 2 * D)
    return BoundsReport(
        log_girls=lg, log_boys=lb, boy_mass=boy_set.mass,
        girls_exceed=lg > girls_rhs,
        boys_below=lb <= boys_rhs,
        mass_exceeds=boy_set.mass > 1 - 15 * pack.delta,
        ratio_holds=lg - lb >= ratio_rhs,
        details={"girls_rhs": girls_rhs, "boys_rhs": boys_rhs,
                 "ratio_rhs": ratio_rhs, "ratio_lhs": lg - lb,
                 "mass_rhs": 1 - 15 * pack.delta})
