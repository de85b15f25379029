"""Deterministic batch pipelines over the library, with key=value reports.

Every run is a pure function of its arguments and input files; stochastic
subcommands require an explicit --seed and never consult the environment,
so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import codec, markers, measures, shiftspace, splicer
from .dictionary import (Dictionary, ParameterPack, boys, choose_parameters,
                         dictionary as build_dictionary, girls,
                         verify_dictionary_bounds)
from .errors import ParameterError, ShiftcodeError
from .shiftspace import Word

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def emit_report(name: str, pairs, out: str | None = None) -> str:
    lines = [f"subcommand={name}"]
    lines += [f"{k}={_fmt(v)}" for k, v in pairs]
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out:
        Path(out).write_text(text)
    return text


def _load_sft(path: str) -> shiftspace.Sft:
    try:
        return shiftspace.parse_sft(Path(path).read_text())
    except (ValueError, ParameterError) as exc:
        raise ShiftcodeError(f"SFT file {path}: {exc}") from None


def _load_measure(path: str, sft: shiftspace.Sft) -> measures.MarkovMeasure:
    try:
        return measures.parse_measure(Path(path).read_text(), sft)
    except ValueError as exc:
        raise ShiftcodeError(f"measure file {path}: {exc}") from None


# ---------------------------------------------------------------------------
# dictionary file format


def _check_marker_pack(path: str, scheme, pack) -> None:
    """Refuse a marker scheme whose M or alpha is not the pack's, naming the
    dictionary file; floats are written exactly, so they compare with ==."""
    for key in ("M", "alpha"):
        if getattr(scheme, key) != getattr(pack, key):
            raise ShiftcodeError(
                f"dictionary file {path}: [marker] {key} is "
                f"{getattr(scheme, key)!r}, [pack] {key} is {getattr(pack, key)!r}")


def write_dictionary_file(path: str, pack, scheme, mu, nu, dict_) -> None:
    _check_marker_pack(path, scheme, pack)      # before anything is written
    parts = ["[format]", "shiftcode-dictionary v1", f"mode {dict_.mode}",
             "[pack]"]
    # str of a float is its repr, so the pack reads back exactly
    parts += [f"{k} {v}" for k, v in sorted(pack.scalars().items())]
    parts += ["[counts]", f"boys {dict_.boys.count}", f"girls {dict_.girls.count}"]
    parts += ["[marker]", scheme.serialize()]
    parts += ["[source-sft]", shiftspace.serialize_sft(mu.sft).rstrip()]
    parts += ["[source-measure]", measures.serialize_measure(mu).rstrip()]
    parts += ["[target-sft]", shiftspace.serialize_sft(nu.sft).rstrip()]
    parts += ["[target-measure]", measures.serialize_measure(nu).rstrip()]
    if dict_.mode == "hall":
        parts.append("[table]")
        parts += [f"{b} -> {g}" for b, g in sorted(dict_.table.items())]
    Path(path).write_text("\n".join(parts) + "\n")


def read_dictionary_file(path: str):
    """Rebuild (pack, scheme, mu, nu, dictionary) from the stored seeds."""
    sections: dict = {}
    current = None
    for line in Path(path).read_text().splitlines():
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = []
        elif current is not None:
            sections[current].append(line)

    def section(name):
        if not any(sections.get(name, [])):
            raise ShiftcodeError(f"dictionary file {path} has no [{name}] section")
        return sections[name]

    def fields(name, parts, types, sep=None, text=str):
        """``key value`` lines (or ``key -> value`` lines) as a dict: key
        and value stripped and checked by ``text``, each value then parsed
        by its key's type; a key read twice is refused."""
        out = {}
        for part in filter(str.strip, parts):
            try:
                key, value = (text(t.strip()) for t in part.split(sep, 1))
                value = types.get(key, str)(value)
            except ValueError:
                raise ShiftcodeError(f"dictionary file {path}: [{name}] field "
                                     f"{part.strip()} is malformed") from None
            if key in out:
                raise ShiftcodeError(f"dictionary file {path}: [{name}] repeats "
                                     f"the key {key}")
            out[key] = value
        return out

    def digits(text):
        if not (text.isascii() and text.isdigit()):
            raise ValueError(f"{text!r} is not a word of digits")
        return text

    def parsed(name, parse, *args):
        try:
            return parse("\n".join(section(name)), *args)
        except (ValueError, ParameterError) as exc:
            raise ShiftcodeError(f"dictionary file {path}: [{name}] {exc}") from None

    mode = fields("format", section("format"), {}).get("mode")
    if mode not in ("enumerative", "hall"):
        raise ShiftcodeError(f"dictionary file {path}: [format] names no mode")
    types = {key: {"int": int, "float": float}.get(kind, str)
             for key, kind in ParameterPack.scalar_types().items()}
    raw = fields("pack", section("pack"), types, text=shiftspace.ascii_text)
    if set(raw) != set(types):
        raise ShiftcodeError(f"dictionary file {path}: [pack] keys missing or "
                             f"unknown: {sorted(set(raw) ^ set(types))}")
    source_sft = parsed("source-sft", shiftspace.parse_sft)
    target_sft = parsed("target-sft", shiftspace.parse_sft)
    mu = parsed("source-measure", measures.parse_measure, source_sft)
    nu = parsed("target-measure", measures.parse_measure, target_sft)
    pack = ParameterPack(**raw)
    scheme = parsed("marker", markers.MarkerScheme.parse, nu)
    _check_marker_pack(path, scheme, pack)
    boy_set = boys(mu, pack)
    girl_set = girls(target_sft, pack, scheme)
    stored = fields("counts", sections.get("counts", []),
                    {"boys": int, "girls": int}, text=shiftspace.ascii_text)
    for key, count in (("boys", boy_set.count), ("girls", girl_set.count)):
        if stored and stored.get(key) != count:
            raise ShiftcodeError(
                f"dictionary file {path}: [counts] {key} is "
                f"{stored.get(key, 'missing')}, the rebuilt set has {count}")
    if mode == "hall":
        table = fields("table", sections.get("table", []), {}, sep="->",
                       text=digits)
        d = Dictionary("hall", boy_set, girl_set, table=table)
    else:
        d = build_dictionary(boy_set, girl_set, "enumerative", pack=pack)
    return pack, scheme, mu, nu, d


# ---------------------------------------------------------------------------
# subcommands


def _cmd_entropy(args):
    sft = _load_sft(args.sft)
    emit_report("entropy", [("h_top", shiftspace.topological_entropy(sft))],
                args.out)
    return 0


def _cmd_gap(args):
    sft = _load_sft(args.sft)
    emit_report("gap", [("gap", shiftspace.specification_gap(sft))], args.out)
    return 0


def _cmd_marker(args):
    sft = _load_sft(args.sft)
    nu = _load_measure(args.measure, sft)
    scheme = markers.find_marker(sft, nu, args.M, args.alpha,
                                 budget=args.budget, seed=args.seed)
    emit_report("marker", [
        ("marker", scheme.word.to_string()), ("M", scheme.M),
        ("alpha", scheme.alpha), ("nu_h1", scheme.nu_h1),
        ("nu_h2", scheme.nu_h2)], args.out)
    return 0


def _length(args) -> int:
    """The ``--length`` of source symbols to sample, refused below 1."""
    if args.length < 1:
        raise ParameterError(f"--length must be at least 1, got {args.length}")
    return args.length


def _overrides(args) -> dict:
    """The pack constants set on the command line."""
    return {k: getattr(args, k) for k in ("N", "M", "delta", "alpha")
            if getattr(args, k) is not None}


def _cmd_params(args):
    mu = nu = None
    if args.source_sft and args.source_measure:
        mu = _load_measure(args.source_measure, _load_sft(args.source_sft))
    if args.sft and args.measure:
        nu = _load_measure(args.measure, _load_sft(args.sft))
    h_source = mu.entropy() if mu is not None else args.h_source
    h_target = nu.entropy() if nu is not None else args.h_target
    gap = shiftspace.specification_gap(nu.sft) if nu is not None else args.gap
    alphabet = mu.sft.alphabet_size if mu is not None else args.source_alphabet
    if h_source is None:
        raise ParameterError(
            "params needs --h-source, or --source-sft with --source-measure")
    if h_target is None:
        raise ParameterError("params needs --h-target, or --sft with --measure")
    pack = choose_parameters(
        h_source, h_target, args.eps, mode=args.mode, overrides=_overrides(args),
        source_alphabet=alphabet, gap=gap, mu=mu, nu=nu,
        mc_samples=args.mc_samples, seed=args.seed)
    pairs = sorted(pack.scalars().items())
    for key in sorted(pack.checklist):
        item = pack.checklist[key]
        status = "na" if item.passed is None else _fmt(item.passed)
        pairs.append((f"check_{key}", status))
    emit_report("params", pairs, args.out)
    return 0


def _build_instance(args):
    """(mu, nu, pack, scheme, boys, girls, dictionary) from the input files."""
    mu = _load_measure(args.source_measure, _load_sft(args.source_sft))
    nu = _load_measure(args.measure, _load_sft(args.sft))
    pack = choose_parameters(
        mu.entropy(), nu.entropy(), args.eps, mode=args.mode,
        overrides=_overrides(args), source_alphabet=mu.sft.alphabet_size,
        gap=shiftspace.specification_gap(nu.sft), nu=nu)
    scheme = markers.find_marker(nu.sft, nu, pack.M, pack.alpha, seed=args.seed)
    boy_set = boys(mu, pack)
    girl_set = girls(nu.sft, pack, scheme)
    d = build_dictionary(boy_set, girl_set, "enumerative", pack=pack)
    return mu, nu, pack, scheme, boy_set, girl_set, d


def _cmd_dict(args):
    mu, nu, pack, scheme, boy_set, girl_set, d = _build_instance(args)
    rep = verify_dictionary_bounds(boy_set, girl_set, pack,
                                       pack.h_source, pack.h_target)
    if args.dict_out:
        write_dictionary_file(args.dict_out, pack, scheme, mu, nu, d)
    emit_report("dict", [
        ("mode", d.mode), ("N", pack.N), ("M", pack.M),
        ("log_boys", rep.log_boys), ("log_girls", rep.log_girls),
        ("boy_mass", rep.boy_mass), ("girls_exceed", rep.girls_exceed),
        ("boys_below", rep.boys_below), ("mass_exceeds", rep.mass_exceeds),
        ("ratio_holds", rep.ratio_holds),
        ("bounds_all_hold", rep.all_hold),
        ("marker", scheme.word.to_string())], args.out)
    return 0


def _cmd_encode(args):
    pack, scheme, mu, nu, d = read_dictionary_file(args.dict)
    if args.x_file:
        text, m = Path(args.x_file).read_text().strip(), mu.sft.alphabet_size
        if not text:
            raise ShiftcodeError(f"x file {args.x_file} holds no source symbols")
        bad = re.search(f"[^{'0123456789'[:m]}]", text)
        if bad:
            raise ShiftcodeError(
                f"x file {args.x_file}: position {bad.start()} holds "
                f"{bad.group()!r}, not a source symbol 0 to {m - 1}")
        x = Word.from_string(text)
    else:
        x = mu.sample_path(_length(args), seed=(args.seed, 0x5A))
    pair = codec.encode(x, d, scheme, pack, nu.sft, seed=args.seed)
    Path(args.coded_out).write_text(
        codec.write_coded(pair.y, pack, d, scheme))
    emit_report("encode", [
        ("length", len(x)), ("coverage", pair.coverage),
        ("markers", len(pair.marker_positions)), ("rewrites", pair.rewrites),
        ("boy_blocks", len(pair.boy_blocks))], args.out)
    return 0


def _cmd_decode(args):
    pack, scheme, mu, nu, d = read_dictionary_file(args.dict)
    try:
        y, header = codec.read_coded(Path(args.coded).read_text())
    except ShiftcodeError as exc:
        raise ShiftcodeError(f"coded stream {args.coded}: {exc}") from None
    expected = {"pack": codec.pack_hash(pack), "dict": codec.dictionary_hash(d),
                "marker": scheme.serialize()}
    for key, value in expected.items():
        if header.get(key) != value:
            raise ShiftcodeError(
                f"coded stream {key} header does not match the dictionary file "
                f"(stream {args.coded}, dictionary {args.dict})")
    x_hat, mask = codec.decode(y, d, scheme, pack)
    if args.x_out:      # a digit per coordinate, "-" where no block was recovered
        text = np.where(mask, x_hat.symbols + ord("0"), ord("-"))    # uint8
        Path(args.x_out).write_text(text.tobytes().decode() + "\n")
    emit_report("decode", [
        ("decoded_blocks", int(np.sum(mask)) // pack.N),
        ("mask_fraction", float(np.mean(mask)))], args.out)
    return 0


# verify's weak* audit compares blocks of 1..WEAKSTAR_KMAX symbols, so
# its samples need at least that many
WEAKSTAR_KMAX = 2


def _cmd_verify(args):
    length = _length(args)
    if length < WEAKSTAR_KMAX:
        raise ParameterError(f"verify --length must be at least "
                             f"{WEAKSTAR_KMAX} for the weak* audit, got {length}")
    mu, nu, pack, scheme, boy_set, girl_set, d = _build_instance(args)
    x = mu.sample_path(length, seed=(args.seed, 0x5A))
    pair = codec.encode(x, d, scheme, pack, nu.sft, seed=args.seed)
    x_hat, mask = codec.decode(pair.y, d, scheme, pack)
    errors = int(np.sum(pair.x.symbols[pair.mask] != x_hat.symbols[pair.mask]))
    phase_ok = bool(np.array_equal(mask, pair.mask)) and errors == 0
    bad = codec.audit_badset(pair, pack)
    ent = codec.audit_entropy(
        pair.y, pack, pack.h_source,
        (math.log(boy_set.count), math.log(girl_set.count)), pair)
    refs = [(mu.sample_path(min(length, 20000), seed=(args.seed, 7, i)),
             nu.sample_path(min(length, 20000), seed=(args.seed, 8, i)))
            for i in range(3)]
    ws = codec.audit_weakstar(pair, refs, kmax=WEAKSTAR_KMAX)
    cov_bound = 1 - bad.bound - codec.BADSET_SLACK
    if args.csv:
        _write_block_csv(args.csv, pair, pack)
    emit_report("verify", [
        ("length", len(x)), ("coverage", pair.coverage),
        ("coverage_bound", cov_bound),
        ("coverage_ok", pair.coverage >= cov_bound),
        ("errors_on_mask", errors), ("phase_ok", phase_ok),
        ("badset_total", bad.total), ("badset_bound", bad.bound),
        ("badset_ok", bad.ok), ("ratio_ok", ent.ratio_ok),
        ("eg_ok", ent.eg_ok), ("weakstar", ws), ("lz_rate", ent.lz_rate),
        ("rewrites", pair.rewrites)], args.out)
    return 0


def _write_block_csv(path, pair, pack):
    parse, (long_, boy, flagged) = pair.parse, codec.block_kinds(pair)
    flag = np.where(flagged, "D", np.where(long_, parse.flags.astype(str), "-"))
    rows = map("{},{},{},{}".format, parse.starts.tolist(), parse.lengths.tolist(),
               boy.view(np.uint8).tolist(), flag.tolist())
    Path(path).write_text("\n".join(["start,length,boy,flag", *rows]) + "\n")


def _cmd_splice(args):
    sft = _load_sft(args.sft)
    nu = _load_measure(args.measure, sft)
    if args.kind == "boost":
        (k0, k1, k2), _ = splicer.skeleton_params(args.eps, args.gamma, args.N)
        skel = splicer.Skeleton.sample("boost", (k0, k1, k2), args.seed,
                                       args.length)
        y1 = nu.sample_path(len(skel), seed=(args.seed, 1))
        y2 = nu.sample_path(len(skel), seed=(args.seed, 2))
        out = splicer.splice_entropy_boost(sft, y1, y2, skel)
        emit_report("splice", [
            ("kind", "boost"), ("length", len(out)),
            ("admissible", sft.is_admissible(out)),
            ("k0", k0), ("k1", k1), ("k2", k2)], args.out)
    else:
        if not (args.target.isascii() and args.target.isdigit()):
            raise ShiftcodeError(f"--target {args.target!r} is not a word of digits")
        target = Word.from_string(args.target)
        y1 = nu.sample_path(args.length + args.N + 3, seed=(args.seed, 1))
        out = splicer.splice_full_support(sft, y1, target, args.N, args.M,
                                          args.seed, length=args.length)
        hits = len(shiftspace.occurrences(out.symbols, target.symbols))
        emit_report("splice", [
            ("kind", "support"), ("length", len(out)),
            ("admissible", sft.is_admissible(out)),
            ("N", args.N), ("M", args.M),
            ("target_frequency", hits / len(out)),
            ("guarantee", 1.0 / (args.N + 2))], args.out)
    return 0


def _read_matrix(args) -> list:
    """The rows of ``--matrix`` (rows split by ';') or ``--matrix-file``
    (one row a line); ``ShiftcodeError`` naming the flag unless they are a
    square of integers."""
    flag = f"--matrix-file {args.matrix_file}" if args.matrix_file else "--matrix"
    text = (Path(args.matrix_file).read_text() if args.matrix_file
            else args.matrix.replace(";", "\n"))
    rows = [line.split() for line in text.splitlines() if line.strip()]
    bad = [v for row in rows for v in row if not re.fullmatch("[+-]?[0-9]+", v)]
    if bad:
        raise ShiftcodeError(f"{flag}: entry {bad[0]!r} is not an integer")
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ShiftcodeError(f"{flag}: entries per row {[len(r) for r in rows]} "
                             f"do not form a square matrix")
    return [[int(v) for v in row] for row in rows]


def _cmd_toral(args):
    from . import toral  # sympy and mpmath load only for toral commands
    m = _read_matrix(args)
    if args.operation == "entropy":
        emit_report("toral", [("operation", "entropy"),
                              ("entropy", toral.toral_entropy(m))], args.out)
    elif args.operation == "classify":
        emit_report("toral", [
            ("operation", "classify"),
            ("quasi_hyperbolic", toral.is_quasi_hyperbolic(m)),
            ("classification", toral.classify(m)),
            ("entropy", toral.toral_entropy(m))], args.out)
    else:
        sp = toral.split_action(m)
        dq, do = sp.dimensions()
        emit_report("toral", [("operation", "split"), ("dim_q", dq),
                              ("dim_o", do), ("index", sp.index)], args.out)
    return 0


def _cmd_halmos(args):
    from . import toral
    emit_report("halmos", [("n", args.n), ("m", args.m),
                           ("member", toral.halmos_membership(args.n, args.m))],
                args.out)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="shiftcode")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        sp.add_argument("--out", help="also write the report to this path")
        return sp

    sp = add("entropy", _cmd_entropy)
    sp.add_argument("--sft", required=True)

    sp = add("gap", _cmd_gap)
    sp.add_argument("--sft", required=True)

    sp = add("marker", _cmd_marker)
    sp.add_argument("--sft", required=True)
    sp.add_argument("--measure", required=True)
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--budget", type=int, default=20000)
    sp.add_argument("--seed", type=int, required=True)

    sp = add("params", _cmd_params)
    sp.add_argument("--h-source", type=float, dest="h_source")
    sp.add_argument("--h-target", type=float, dest="h_target")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--mode", choices=["strict", "practical"], default="strict")
    sp.add_argument("--N", type=int)
    sp.add_argument("--M", type=int)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--source-alphabet", type=int, default=2)
    sp.add_argument("--gap", type=int, default=1)
    sp.add_argument("--sft")
    sp.add_argument("--measure")
    sp.add_argument("--source-sft")
    sp.add_argument("--source-measure")
    sp.add_argument("--mc-samples", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)

    for name, fn in (("dict", _cmd_dict), ("verify", _cmd_verify)):
        sp = add(name, fn)
        sp.add_argument("--source-sft", required=True)
        sp.add_argument("--source-measure", required=True)
        sp.add_argument("--sft", required=True)
        sp.add_argument("--measure", required=True)
        sp.add_argument("--eps", type=float, required=True)
        sp.add_argument("--mode", choices=["strict", "practical"],
                        default="practical")
        sp.add_argument("--N", type=int)
        sp.add_argument("--M", type=int)
        sp.add_argument("--delta", type=float)
        sp.add_argument("--alpha", type=float)
        sp.add_argument("--seed", type=int, required=True)
        if name == "dict":
            sp.add_argument("--dict-out")
        else:
            sp.add_argument("--length", type=int, required=True)
            sp.add_argument("--csv")

    sp = add("encode", _cmd_encode)
    sp.add_argument("--dict", required=True)
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--length", type=int)
    source.add_argument("--x-file")
    sp.add_argument("--coded-out", required=True)
    sp.add_argument("--seed", type=int, required=True)

    sp = add("decode", _cmd_decode)
    sp.add_argument("--dict", required=True)
    sp.add_argument("--coded", required=True)
    sp.add_argument("--x-out")

    sp = add("splice", _cmd_splice)
    sp.add_argument("--sft", required=True)
    sp.add_argument("--measure", required=True)
    sp.add_argument("--kind", choices=["boost", "support"], required=True)
    sp.add_argument("--eps", type=float, default=0.2)
    sp.add_argument("--gamma", type=float, default=0.1)
    sp.add_argument("--N", type=int, default=1000)
    sp.add_argument("--M", type=int, default=2)
    sp.add_argument("--target", default="1")
    sp.add_argument("--length", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)

    sp = add("toral", _cmd_toral)
    sp.add_argument("operation", choices=["classify", "entropy", "split"])
    matrix = sp.add_mutually_exclusive_group(required=True)
    matrix.add_argument("--matrix")
    matrix.add_argument("--matrix-file")

    sp = add("halmos", _cmd_halmos)
    sp.add_argument("n", type=int)
    sp.add_argument("m", type=int)

    return p


def run(argv) -> int:
    """Programmatic entry point; argv excludes the program name."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename}", file=sys.stderr)
        return 2
    except (ShiftcodeError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
