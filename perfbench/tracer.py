"""Spans around calls into shiftcode's layers, recorded from outside the library.

The tracer replaces public functions and methods with timing wrappers at
the names their callers look them up by (``codec`` binds ``interpolate``
and ``iter_connectors`` by name, ``splicer`` binds ``interpolate``,
``dictionary`` binds ``product_dfa``, ``find_marker`` calls the
module-global ``check_scheme``), and restores the originals on
``uninstall``.  Only block-granularity entry points are wrapped; per-symbol
helpers such as ``Sft.step`` never are, so the wrappers cost a few
microseconds per block.

A span is ``[name, start, end, parent, round]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``round`` the round id current
when the span opened.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

from shiftcode import (automata, codec, estimators, interp, markers, measures,
                       shiftspace, splicer)

# The package exports the function ``dictionary``, which hides the module.
dictionary = importlib.import_module("shiftcode.dictionary")

# (owner, attribute, layer metric name); each call opens a timed span.
SPANS = [
    (measures.MarkovMeasure, "sample_path", "measures.sample_path"),
    (markers, "find_marker", "markers.find_marker"),
    (dictionary, "boys", "dictionary.boys"),
    (dictionary, "girls", "dictionary.girls"),
    (dictionary.Dictionary, "lookup", "dictionary.Dictionary.lookup"),
    (dictionary.Dictionary, "invert", "dictionary.Dictionary.invert"),
    (dictionary.GirlSet, "member", "dictionary.girls.member"),
    (dictionary.GirlSet, "rank", "dictionary.girls.rank"),
    (dictionary.GirlSet, "unrank", "dictionary.girls.unrank"),
    (dictionary, "verify_dictionary_bounds",
     "dictionary.verify_dictionary_bounds"),
    (automata.Dfa, "count", "automata.Dfa.count"),
    (automata.Dfa, "walk", "automata.Dfa.walk"),
    (automata.Dfa, "rank", "automata.Dfa.rank"),
    (automata.Dfa, "unrank", "automata.Dfa.unrank"),
    (dictionary, "product_dfa", "automata.product_dfa"),
    (codec, "interpolate", "interp.interpolate"),
    (splicer, "interpolate", "interp.interpolate"),
    (shiftspace.Sft, "is_admissible", "shiftspace.Sft.is_admissible"),
    (codec, "rokhlin_parse", "codec.rokhlin_parse"),
    (codec, "encode", "codec.encode"),
    (codec, "decode", "codec.decode"),
    (codec, "audit_badset", "codec.audit_badset"),
    (codec, "audit_entropy", "codec.audit_entropy"),
    (codec, "audit_weakstar", "codec.audit_weakstar"),
    (splicer.Skeleton, "sample", "splicer.Skeleton.sample"),
    (splicer, "splice_full_support", "splicer.splice_full_support"),
    (estimators, "weakstar_surrogate", "estimators.weakstar_surrogate"),
]
# Boy sets rank and unrank through whichever subclass ``boys`` picked.
SPANS += [(cls, attr, f"dictionary.boys.{attr}")
          for cls in dictionary.BoySet.__subclasses__()
          for attr in ("rank", "unrank") if attr in cls.__dict__]

# Called once per candidate or per gap, so only counted.  ``iter_connectors``
# is a generator function: a span would close before its work is done.
COUNTS = [
    (markers, "check_scheme", "markers.check_scheme"),
    (interp, "connect_words", "interp.connect_words"),
    (interp, "iter_connectors", "interp.iter_connectors"),
    (codec, "iter_connectors", "interp.iter_connectors"),
]

# Work counts read from arguments and results, keyed by layer metric name.
WORK_UNITS = {
    "measures.sample_path.ksym_s": "ksym/s",
    "automata.Dfa.walk.ksym_s": "ksym/s",
    "dictionary.Dictionary.invert.hit_ratio": "ratio",
    "automata.Dfa.count.bigint_adds": "count-computed",
    "automata.Dfa.count.result_bits": "bits",
    "automata.product_dfa.nodes": "count",
}


def _span_names():
    return list(dict.fromkeys(name for _, _, name in SPANS))


def metric_units() -> dict:
    """Every layer metric the tracer reports, with its unit."""
    units = {}
    for name in _span_names():
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for name in dict.fromkeys(name for _, _, name in COUNTS):
        units[f"{name}.calls"] = "count"
    units.update(WORK_UNITS)
    return units


class Tracer:
    """Records spans and work counts while installed."""

    def __init__(self):
        self.spans: list = []
        self.calls: Counter = Counter()
        self.work: defaultdict = defaultdict(int)
        self.round = "build"
        self._stack: list = []
        self._saved: list = []

    # -- wrappers -------------------------------------------------------

    def _timed(self, name, fn):
        spans, stack, after = self.spans, self._stack, _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.round]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(self.work, args, result)
            return result
        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for targets, make in ((SPANS, self._timed), (COUNTS, self._counted)):
            for owner, attr, name in targets:
                raw = (owner.__dict__[attr] if isinstance(owner, type)
                       else getattr(owner, attr))
                if isinstance(raw, classmethod):
                    new = classmethod(make(name, raw.__func__))
                else:
                    new = make(name, raw)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- results --------------------------------------------------------

    def metrics(self) -> dict:
        """Layer metric name -> value, totals over everything traced."""
        total = defaultdict(float)
        own = defaultdict(float)
        calls = Counter(self.calls)
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            total[name] += dur
            own[name] += dur
            calls[name] += 1
            if parent >= 0:
                own[self.spans[parent][0]] -= dur
        out = {}
        for name, unit in metric_units().items():
            base, _, field = name.rpartition(".")
            if field == "s":
                out[name] = total[base]
            elif field == "self_s":
                out[name] = own[base]
            elif field == "calls":
                out[name] = calls[base]
        work = self.work
        out["measures.sample_path.ksym_s"] = _rate(
            work["sample_path.symbols"], total["measures.sample_path"])
        out["automata.Dfa.walk.ksym_s"] = _rate(
            work["walk.symbols"], total["automata.Dfa.walk"])
        invert_calls = calls["dictionary.Dictionary.invert"]
        out["dictionary.Dictionary.invert.hit_ratio"] = (
            work["invert.hits"] / invert_calls if invert_calls else 0.0)
        out["automata.Dfa.count.bigint_adds"] = work["count.adds"]
        out["automata.Dfa.count.result_bits"] = work["count.bits"]
        out["automata.product_dfa.nodes"] = work["product.nodes"]
        return out

    def dump(self, path, meta: dict) -> None:
        """Write every span, times relative to the first, as one JSON file."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[name, round(start - t0, 7), round(end - t0, 7), parent, rnd]
                for name, start, end, parent, rnd in self.spans]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "fields": ["name", "start", "end",
                                                "parent", "round"],
                       "spans": rows}, fh, separators=(",", ":"))


def _rate(symbols, seconds):
    return symbols / seconds / 1000.0 if seconds > 0 else 0.0


def _after_sample(work, args, result):
    work["sample_path.symbols"] += len(result)


def _after_walk(work, args, result):
    work["walk.symbols"] += len(args[1])


def _after_invert(work, args, result):
    work["invert.hits"] += result is not None


def _after_count(work, args, result):
    # Computed, not observed: one big-integer add per live edge per step.
    dfa, length = args[0], args[1]
    work["count.adds"] += length * int((dfa.step >= 0).sum())
    work["count.bits"] = max(work["count.bits"], result.bit_length())


def _after_product(work, args, result):
    work["product.nodes"] = max(work["product.nodes"], result.n_nodes)


_AFTER = {
    "measures.sample_path": _after_sample,
    "automata.Dfa.walk": _after_walk,
    "dictionary.Dictionary.invert": _after_invert,
    "automata.Dfa.count": _after_count,
    "automata.product_dfa": _after_product,
}
