"""The benchmark's workloads, their correctness gates, and the worker loop.

``worker.py`` runs one fresh worker process: it builds one workload
instance, runs one untimed, ungated warm-up round (round 0), prints a
``ready`` JSON line, and then (mode ``measure`` or ``trace``) runs timed
rounds and prints a result JSON line.  Every seed the library sees is
derived from the workload seed.  The library is called through module
attributes at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import importlib
import math
import statistics
import time
from pathlib import Path

import numpy as np

from shiftcode import codec, markers, measures, shiftspace, splicer
from shiftcode.shiftspace import Word

import hostspeed

# The package exports the function ``dictionary``, which hides the module.
dictionary = importlib.import_module("shiftcode.dictionary")

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
GOLDEN = ROOT / "tests" / "golden" / "dict_practical.txt"


def _fmt(value: float) -> str:
    """The CLI's float format, so values compare with golden reports."""
    return f"{value:.12g}"


def _load(sft_file: str, measure_file: str):
    sft = shiftspace.parse_sft((DATA / sft_file).read_text())
    return sft, measures.parse_measure((DATA / measure_file).read_text(), sft)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(part.tobytes())
        elif isinstance(part, int):     # hex: big counts exceed str()'s limit
            h.update(hex(part).encode())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


@dataclasses.dataclass
class Round:
    """One round: stage wall times, gate failures, and an output digest."""

    stages: dict            # stage name -> seconds, in pipeline order
    core: tuple             # stages making up the library's core transform
    failures: list
    digest: str
    counts: dict = dataclasses.field(default_factory=dict)
    ref_s: float = hostspeed.NOMINAL_S  # reference kernel time around it

    @property
    def round_s(self) -> float:
        return sum(self.stages.values())

    @property
    def core_s(self) -> float:
        return sum(self.stages[s] for s in self.core)


class _Clock:
    """Wall time per named stage, in pipeline order."""

    def __init__(self):
        self.stages: dict = {}
        self._t = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.stages[stage] = now - self._t
        self._t = now


# ---------------------------------------------------------------------------
# gates


def roundtrip_failures(pair, x_hat, mask, coverage_bound: float,
                       instance: dict, golden: dict) -> list:
    """Gate failures of one encode/decode round (empty when it passes)."""
    out = []
    errors = int(np.sum(pair.x.symbols[pair.mask] != x_hat.symbols[pair.mask]))
    if errors:
        out.append(f"errors_on_mask={errors}")
    if not np.array_equal(mask, pair.mask):
        out.append("decode mask differs from encode mask")
    if not pair.coverage >= coverage_bound:
        out.append(f"coverage {pair.coverage:.4f} < {coverage_bound:.4f}")
    for key, value in instance.items():
        if value != golden.get(key):
            out.append(f"{key}={value} differs from golden {golden.get(key)}")
    return out


def target_frequency(out: Word, target: Word) -> float:
    """Overlapping occurrences of target per output symbol, as CLI splice."""
    hay, needle = out.symbols.tobytes(), target.symbols.tobytes()
    hits, i = 0, hay.find(needle)
    while i >= 0:
        hits += 1
        i = hay.find(needle, i + 1)
    return hits / len(out)


def splice_failures(sft, out: Word, target: Word, N: int) -> list:
    failures = []
    if not sft.is_admissible(out):
        failures.append("splice output is not admissible")
    frequency = target_frequency(out, target)
    if not frequency >= 1.0 / (N + 2):
        failures.append(f"target frequency {frequency:.5f} < 1/(N+2)")
    return failures


def strict_failures(report, girl_count: int, first_count: int) -> list:
    out = []
    if not report.all_hold:
        out.append("BoundsReport.all_hold is false")
    if girl_count != first_count:
        out.append("girls.count differs between rounds at one seed")
    return out


# ---------------------------------------------------------------------------
# workloads


class Roundtrip:
    """Practical pack, Bernoulli(0.9, 0.1) into the full 2-shift: the
    instance CLI ``dict`` builds, then rounds of CLI ``verify``."""

    # Coverage of a round fluctuates with its length: at 5e4 symbols its
    # standard deviation is 0.017 and one round in a few hundred fell below
    # the coverage gate; at 2e5 it is 0.0096, 6.5 deviations above the gate.
    LENGTH = 200_000            # source symbols per round
    REF_LENGTH = 20_000         # weak* reference samples, as CLI verify
    MIN_ROUNDS = TRACE_ROUNDS = 2
    REF_REPEATS = 3             # reference kernel calls between rounds

    def __init__(self, seed: int, length: int = LENGTH):
        self.seed, self.length = seed, length
        src_sft, self.mu = _load("full2.sft", "b01.msr")
        self.target, self.nu = _load("full2.sft", "b5.msr")
        self.pack = dictionary.choose_parameters(
            self.mu.entropy(), self.nu.entropy(), 0.2, mode="practical",
            overrides={"N": 64, "M": 2, "delta": 0.02, "alpha": 0.5},
            source_alphabet=src_sft.alphabet_size,
            gap=shiftspace.specification_gap(self.target), nu=self.nu)
        pack = self.pack
        self.scheme = markers.find_marker(self.target, self.nu, pack.M,
                                          pack.alpha, seed=seed)
        self.boys = dictionary.boys(self.mu, pack)
        self.girls = dictionary.girls(self.target, pack, self.scheme)
        self.dict = dictionary.dictionary(self.boys, self.girls,
                                          "enumerative", pack=pack)
        # As CLI ``dict`` does; the gates compare the instance with its
        # golden report.
        report = dictionary.verify_dictionary_bounds(
            self.boys, self.girls, pack, pack.h_source, pack.h_target)
        self.logs = (report.log_boys, report.log_girls)
        self.instance = {"marker": self.scheme.word.to_string(),
                         "log_boys": _fmt(report.log_boys),
                         "log_girls": _fmt(report.log_girls),
                         "bounds_all_hold": str(report.all_hold).lower()}
        self.golden = dict(line.split("=", 1)
                           for line in GOLDEN.read_text().splitlines() if line)
        self.coverage_bound = 1 - (17 * pack.delta + pack.eps / 2) - 0.01

    def round(self, r: int) -> Round:
        pack, clock = self.pack, _Clock()
        x = self.mu.sample_path(self.length, seed=(self.seed, r, 0x5A))
        clock.lap("sample")
        pair = codec.encode(x, self.dict, self.scheme, pack, self.target,
                            seed=self.seed * 10_000 + r)
        clock.lap("encode")
        x_hat, mask = codec.decode(pair.y, self.dict, self.scheme, pack)
        clock.lap("decode")
        failures = roundtrip_failures(pair, x_hat, mask, self.coverage_bound,
                                      self.instance, self.golden)
        clock.lap("check")
        bad = codec.audit_badset(pair, pack)
        ent = codec.audit_entropy(pair.y, pack, pack.h_source, self.logs, pair)
        n_ref = min(self.length, self.REF_LENGTH)
        refs = [(self.mu.sample_path(n_ref, seed=(self.seed, r, 7, i)),
                 self.nu.sample_path(n_ref, seed=(self.seed, r, 8, i)))
                for i in range(3)]
        ws = codec.audit_weakstar(pair, refs, kmax=2)
        clock.lap("audit")
        return Round(clock.stages, ("encode", "decode"), failures,
                     _digest(pair.y.symbols, x_hat.symbols, mask, bad.total,
                             ent.lz_rate, ws, pair.rewrites),
                     _codec_counts(pair, mask, pack.N))

    def warm_up(self) -> Round:
        return self.round(0)

    def derived(self, summary: dict) -> dict:
        """The round's figures in the units a CLI user quotes."""
        stages, k = summary["stages"], self.length / 1000.0
        return {"encode_ksym_s": (k / stages["encode"], "ksym/s"),
                "decode_ksym_s": (k / stages["decode"], "ksym/s"),
                "verify_ksym_s": (k / summary["round_s"], "ksym/s")}


def _codec_counts(pair, decoded_mask, N: int) -> dict:
    boys_at = set(pair.boy_blocks)
    counts = dict.fromkeys(("dict", "girl", "unit", "nonboy"), 0)
    for n, length, flag in pair.parse.iter_blocks():
        if length == 1:
            kind = "unit"
        elif n not in boys_at:
            kind = "nonboy"
        else:
            kind = "dict" if flag == codec.D_FLAG else "girl"
        counts[kind] += 1
    out = {f"codec.blocks.{k}": v for k, v in counts.items()}
    out["codec.markers_planted"] = len(pair.marker_positions)
    out["codec.rewrites"] = pair.rewrites
    out["codec.decoded_blocks"] = int(np.sum(decoded_mask)) // N
    out["codec.coverage"] = pair.coverage
    return out


class Splice:
    """Golden-mean shift, uniform Markov measure: CLI splice --kind support."""

    LENGTH = 50_000             # output symbols per round
    MIN_ROUNDS = TRACE_ROUNDS = 2
    REF_REPEATS = 3
    N, M, TARGET = 100, 2, "1"

    def __init__(self, seed: int, length: int = LENGTH):
        self.seed, self.length = seed, length
        self.sft, self.nu = _load("gm.sft", "gmu.msr")
        self.target = Word.from_string(self.TARGET)
        self.instance = {"h_top": _fmt(shiftspace.topological_entropy(self.sft))}

    def round(self, r: int) -> Round:
        clock = _Clock()
        y1 = self.nu.sample_path(self.length + self.N + 3,
                                 seed=(self.seed, r, 1))
        clock.lap("sample")
        out = splicer.splice_full_support(self.sft, y1, self.target, self.N,
                                          self.M, self.seed * 10_000 + r,
                                          length=self.length)
        clock.lap("splice")
        failures = splice_failures(self.sft, out, self.target, self.N)
        clock.lap("check")
        return Round(clock.stages, ("splice",), failures,
                     _digest(out.symbols, out.lo))

    def warm_up(self) -> Round:
        return self.round(0)

    def derived(self, summary: dict) -> dict:
        return {"splice_ksym_s": (self.length / 1000.0 / summary["round_s"],
                                  "ksym/s")}


class Strict:
    """Strict constants, Bernoulli(1/2) into the full 3-shift: CLI dict.

    Run by hand; not in BENCHMARK.json (one build is too long to time
    steadily on a shared host, see README).
    """

    WARMUP_N = 2_000            # block length of the reduced warm-up build
    # One build takes over 20 s: a measuring run makes two, whatever
    # --seconds says, and a traced run one untraced and one traced.
    MIN_ROUNDS, TRACE_ROUNDS = 2, 1
    REF_REPEATS = 25            # about 0.5 s on each side of a build

    def __init__(self, seed: int):
        self.seed = seed
        _, self.mu = _load("full2.sft", "b5.msr")
        self.target, self.nu = _load("full3.sft", "u3.msr")
        self.h = (math.log(2), math.log(3))
        self.instance = {"h_top": _fmt(shiftspace.topological_entropy(
            self.target))}
        self._girl_counts: dict = {}    # block length -> first girl count

    def round(self, r: int, N: int | None = None) -> Round:
        """One dictionary build; ``N`` shrinks the pack (warm-up, tests)."""
        clock = _Clock()
        pack = dictionary.choose_parameters(*self.h, 0.9, nu=self.nu)
        if N is not None:
            pack = dataclasses.replace(pack, N=N)
        scheme = markers.find_marker(self.target, self.nu, M=pack.M,
                                     alpha=pack.alpha, seed=self.seed)
        clock.lap("params")
        boy_set = dictionary.boys(self.mu, pack)
        girl_set = dictionary.girls(self.target, pack, scheme)
        clock.lap("count")
        report = dictionary.verify_dictionary_bounds(boy_set, girl_set, pack,
                                                     *self.h)
        clock.lap("bounds")
        failures = strict_failures(
            report, girl_set.count,
            self._girl_counts.setdefault(pack.N, girl_set.count))
        return Round(clock.stages, ("count",), failures,
                     _digest(scheme.word.symbols, boy_set.count,
                             girl_set.count, report.all_hold))

    def warm_up(self) -> Round:
        return self.round(0, N=self.WARMUP_N)

    def derived(self, summary: dict) -> dict:
        return {"dict_s": (summary["round_s"], "s")}


WORKLOADS = {"roundtrip": Roundtrip, "splice": Splice, "strict": Strict}


# ---------------------------------------------------------------------------
# worker process


def _rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_rounds(workload, stop, on_round=None) -> list:
    """Rounds 1, 2, ... until ``stop(count)``.

    The reference kernel is timed before the first round and after every
    round, and each round keeps the mean of the two around it.
    """
    rounds = []
    gc.collect()
    before = hostspeed.reference_s(workload.REF_REPEATS)
    while not stop(len(rounds)):
        if on_round is not None:
            on_round(len(rounds) + 1)
        r = workload.round(len(rounds) + 1)
        gc.collect()
        after = hostspeed.reference_s(workload.REF_REPEATS)
        r.ref_s = (before + after) / 2
        rounds.append(r)
        before = after
    return rounds


def _summary(rounds) -> dict:
    """Median round, core and stage times at nominal host speed (see
    hostspeed), the raw median round time, and every round's gate outcome."""
    def median(times):
        return statistics.median(hostspeed.corrected(t, r.ref_s)
                                 for t, r in zip(times, rounds))

    return {"rounds": len(rounds),
            "round_s": median([r.round_s for r in rounds]),
            "core_s": median([r.core_s for r in rounds]),
            "raw_round_s": statistics.median(r.round_s for r in rounds),
            "stages": {stage: median([r.stages[stage] for r in rounds])
                       for stage in rounds[0].stages},
            "failures": [f for r in rounds for f in r.failures],
            "failed": sum(1 for r in rounds if r.failures)}


def traced_rounds(workload, tracer):
    """Run the workload's trace rounds untraced, then again traced.

    Returns (untraced rounds, traced rounds, layer metrics).  A traced
    round whose output digest differs from its untraced twin fails.
    """
    n = workload.TRACE_ROUNDS
    plain = _run_rounds(workload, lambda k: k >= n)
    tracer.install()
    try:
        traced = _run_rounds(workload, lambda k: k >= n,
                             on_round=lambda r: setattr(tracer, "round", r))
    finally:
        tracer.uninstall()
    for a, b in zip(plain, traced):
        if a.digest != b.digest:
            b.failures.append("traced output differs from untraced output")
    layers = tracer.metrics()
    for key in codec_count_units():
        layers[key] = sum(r.counts.get(key, 0) for r in traced)
    layers["codec.coverage"] /= n
    layers["trace.spans"] = len(tracer.spans)
    layers["trace.round_overhead_s"] = (_summary(traced)["round_s"]
                                        - _summary(plain)["round_s"])
    return plain, traced, layers


def worker(name: str, seed: int, seconds: float, mode: str, emit,
           pre_ref_s: float) -> None:
    """Build, warm up, report ready, then measure or trace (see module doc).

    ``pre_ref_s`` is the reference kernel's time taken before this process
    imported numpy and shiftcode; with the time taken after the warm-up it
    corrects the set-up time.
    """
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        workload = WORKLOADS[name](seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    workload.warm_up()
    ready_at = time.monotonic()
    post_ref_s = hostspeed.reference_s(hostspeed.SETUP_REPEATS)
    emit({"ready_at": ready_at, "ref_s": (pre_ref_s + post_ref_s) / 2,
          "instance": workload.instance})
    if mode == "setup":
        return
    if mode == "measure":
        t0 = time.perf_counter()
        rounds = _run_rounds(workload, lambda n: n >= workload.MIN_ROUNDS
                             and time.perf_counter() - t0 >= seconds)
        summary = _summary(rounds)
        emit({**summary, "derived": workload.derived(summary),
              "peak_rss_mb": _rss_mb()})
        return
    plain, traced, layers = traced_rounds(workload, tracer)
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{name}-seed{seed}.json"
    tracer.dump(trace_file, {"workload": name, "seed": seed,
                             "traced_rounds": len(traced)})
    units = layer_units()
    emit({**_summary(traced), "plain": _summary(plain),
          "layers": {k: {"value": v, "unit": units[k]}
                     for k, v in layers.items()},
          "trace_file": str(trace_file.relative_to(ROOT))})


def codec_count_units() -> dict:
    units = {f"codec.blocks.{k}": "count"
             for k in ("dict", "girl", "unit", "nonboy")}
    units.update({"codec.markers_planted": "count", "codec.rewrites": "count",
                  "codec.decoded_blocks": "count", "codec.coverage": "ratio"})
    return units


def layer_units() -> dict:
    """Every per-layer metric of a traced run, with its unit."""
    from tracer import metric_units
    units = metric_units()
    units.update(codec_count_units())
    units.update({"trace.spans": "count", "trace.round_overhead_s": "s",
                  "trace.setup_overhead_s": "s"})
    return units
