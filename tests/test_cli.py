import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from shiftcode import codec
from shiftcode.cli import (_build_instance, build_parser, read_dictionary_file,
                           run, write_dictionary_file)
from shiftcode.dictionary import boys, choose_parameters, dictionary, girls
from shiftcode.errors import ShiftcodeError
from shiftcode.markers import find_marker
from shiftcode.measures import MarkovMeasure
from shiftcode.shiftspace import build_sft

from conftest import first_schema_offence, reference_block_csv

DATA = Path(__file__).parent / "data"
ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
GOLDEN = Path(__file__).parent / "golden"


def cli(*args):
    proc = subprocess.run([sys.executable, "-m", "shiftcode", *args],
                          capture_output=True, text=True, cwd=str(DATA.parent.parent))
    return proc


GOLDEN_CASES = {
    "entropy_full2.txt": ["entropy", "--sft", str(DATA / "full2.sft")],
    "entropy_gm.txt": ["entropy", "--sft", str(DATA / "gm.sft")],
    "gap_gm.txt": ["gap", "--sft", str(DATA / "gm.sft")],
    "marker_full2.txt": ["marker", "--sft", str(DATA / "full2.sft"),
                         "--measure", str(DATA / "b5.msr"), "--M", "2",
                         "--alpha", "0.5", "--seed", "1"],
    "params_strict.txt": ["params", "--h-source", "0.3250829733914482",
                          "--h-target", "0.6931471805599453", "--eps", "0.5"],
    "params_practical_mc.txt": [
        "params", "--source-sft", str(DATA / "full2.sft"),
        "--source-measure", str(DATA / "b01.msr"),
        "--sft", str(DATA / "full2.sft"), "--measure", str(DATA / "b5.msr"),
        "--eps", "0.9", "--mode", "practical", "--N", "200", "--M", "2",
        "--delta", "0.01", "--alpha", "0.5", "--mc-samples", "150",
        "--seed", "4"],
    "dict_practical.txt": [
        "dict", "--source-sft", str(DATA / "full2.sft"),
        "--source-measure", str(DATA / "b01.msr"),
        "--sft", str(DATA / "full2.sft"), "--measure", str(DATA / "b5.msr"),
        "--eps", "0.2", "--N", "64", "--M", "2", "--delta", "0.02",
        "--alpha", "0.5", "--seed", "1"],
    "dict_paper.txt": [
        "dict", "--source-sft", str(DATA / "full2.sft"),
        "--source-measure", str(DATA / "b01.msr"),
        "--sft", str(DATA / "full2.sft"), "--measure", str(DATA / "b5.msr"),
        "--eps", "0.2", "--N", "1024", "--M", "4", "--delta", "0.01",
        "--alpha", "0.5", "--seed", "1"],
    "verify_paper.txt": [
        "verify", "--source-sft", str(DATA / "full2.sft"),
        "--source-measure", str(DATA / "b01.msr"),
        "--sft", str(DATA / "full2.sft"), "--measure", str(DATA / "b5.msr"),
        "--eps", "0.2", "--N", "1024", "--M", "4", "--delta", "0.01",
        "--alpha", "0.5", "--seed", "3", "--length", "200000"],
    "verify.txt": [
        "verify", "--source-sft", str(DATA / "full2.sft"),
        "--source-measure", str(DATA / "b01.msr"),
        "--sft", str(DATA / "full2.sft"), "--measure", str(DATA / "b5.msr"),
        "--eps", "0.2", "--N", "64", "--M", "2", "--delta", "0.02",
        "--alpha", "0.5", "--seed", "3", "--length", "20000"],
    "splice_boost.txt": [
        "splice", "--sft", str(DATA / "full2.sft"),
        "--measure", str(DATA / "b5.msr"), "--kind", "boost", "--eps", "0.2",
        "--gamma", "0.1", "--N", "1000", "--length", "20000", "--seed", "2"],
    "splice_support.txt": [
        "splice", "--sft", str(DATA / "gm.sft"),
        "--measure", str(DATA / "gmu.msr"), "--kind", "support", "--N", "100",
        "--M", "2", "--target", "1", "--length", "20000", "--seed", "2"],
    "toral_classify.txt": ["toral", "classify", "--matrix", "2 1; 1 1"],
    "toral_entropy.txt": ["toral", "entropy", "--matrix", "2 1; 1 1"],
    "toral_split.txt": ["toral", "split", "--matrix",
                        "2 1 0 0; 1 1 0 0; 0 0 0 -1; 0 0 1 0"],
    "halmos.txt": ["halmos", "6", "2"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden(name):
    proc = cli(*GOLDEN_CASES[name])
    assert proc.returncode == 0, proc.stderr
    expected = (GOLDEN / name).read_text()
    assert proc.stdout == expected
    assert first_schema_offence(proc.stdout) is None


def test_verify_block_csv(tmp_path):
    csv = tmp_path / "blocks.csv"
    proc = cli(*GOLDEN_CASES["verify.txt"], "--csv", str(csv))
    assert proc.stdout == (GOLDEN / "verify.txt").read_text()
    rows = [row.split(",") for row in csv.read_text().splitlines()]
    assert rows[0] == ["start", "length", "boy", "flag"]
    starts = [int(r[0]) for r in rows[1:]]
    lengths = [int(r[1]) for r in rows[1:]]
    assert starts == [sum(lengths[:i]) for i in range(len(lengths))]
    assert sum(lengths) == 20000
    kinds = Counter((r[1], r[2], r[3] if r[3] in ("D", "-") else "girl")
                    for r in rows[1:])
    # 183 boy blocks flagged D: 183 * 64 / 20000 is the golden coverage
    assert kinds == {("1", "0", "-"): 480, ("64", "0", "D"): 95,
                     ("64", "0", "girl"): 8, ("64", "1", "D"): 183,
                     ("64", "1", "girl"): 19}


@pytest.mark.parametrize("length", ["20000", "100000"])
def test_verify_block_csv_matches_the_block_loop(tmp_path, monkeypatch, capsys,
                                                 length):
    from shiftcode import cli as cli_module
    pairs, write = [], cli_module._write_block_csv
    monkeypatch.setattr(cli_module, "_write_block_csv",
                        lambda path, pair, pack: (pairs.append(pair),
                                                  write(path, pair, pack)))
    csv = tmp_path / "blocks.csv"
    assert run([*GOLDEN_CASES["verify.txt"][:-1], length, "--csv", str(csv)]) == 0
    if length == "20000":
        assert capsys.readouterr().out == (GOLDEN / "verify.txt").read_text()
    assert csv.read_text() == reference_block_csv(pairs[0])


def test_verify_and_splice_leave_numpy_ma_unimported():
    # a plain np.unique calls np.ma.is_masked, whose first use imports
    # numpy.ma: 9-16 ms and about 1.25 MB of RSS that no result needs
    code = "\n".join([
        "import contextlib, io, sys",
        "from shiftcode.cli import run",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    assert run({GOLDEN_CASES['verify.txt']!r}) == 0",
        f"    assert run({GOLDEN_CASES['splice_support.txt']!r}) == 0",
        "print('numpy.ma' in sys.modules)"])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=str(DATA.parent.parent))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_byte_identical_rerun():
    args = GOLDEN_CASES["verify.txt"]
    assert cli(*args).stdout == cli(*args).stdout


def test_missing_file_exit_code():
    proc = cli("entropy", "--sft", "/tmp/does-not-exist.sft")
    assert proc.returncode == 2
    assert "/tmp/does-not-exist.sft" in proc.stderr


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "broken.sft"
    bad.write_text("alphabet 2\nsomething unparseable\n")
    proc = cli("gap", "--sft", str(bad))
    assert proc.returncode == 1
    assert "line 2" in proc.stderr


def test_domain_error_exit_code(tmp_path):
    bad = tmp_path / "cycle.sft"
    bad.write_text("alphabet 2\nforbid 00\nforbid 11\n")
    proc = cli("gap", "--sft", str(bad))
    assert proc.returncode == 1
    assert "NotMixing" in proc.stderr


# Each once ended in a Python traceback or an error from deep inside the
# library; encode cases get the dictionary and output flags appended.
MISSING_INPUT = {
    "encode-no-source": (["encode", "--seed", "5"],
                         "one of the arguments --length --x-file is required"),
    "encode-length-0": (["encode", "--seed", "5", "--length", "0"],
                        "--length must be at least 1, got 0"),
    "verify-length-0": ([*GOLDEN_CASES["verify.txt"][:-1], "0"],
                        "--length must be at least 1, got 0"),
    "verify-length-1": ([*GOLDEN_CASES["verify.txt"][:-1], "1"],
                        "verify --length must be at least 2 for the weak* "
                        "audit, got 1"),
    "encode-x-file-empty": (["encode", "--seed", "5", "--x-file", os.devnull],
                            f"x file {os.devnull} holds no source symbols"),
    "toral-no-matrix": (["toral", "entropy"],
                        "one of the arguments --matrix --matrix-file is required"),
    "toral-matrix-ragged": (["toral", "entropy", "--matrix", "2 1; 1"],
                            "--matrix: entries per row [2, 1] do not form a "
                            "square matrix"),
    "toral-matrix-entry": (["toral", "entropy", "--matrix", "2 x; 1 1"],
                           "--matrix: entry 'x' is not an integer"),
    "splice-target-not-digits": (
        ["splice", "--sft", str(DATA / "gm.sft"), "--measure", str(DATA / "gmu.msr"),
         "--kind", "support", "--target", "1x", "--length", "200", "--seed", "2"],
        "--target '1x' is not a word of digits"),
    "marker-budget-0": (["marker", "--sft", str(DATA / "full2.sft"),
                         "--measure", str(DATA / "b5.msr"), "--M", "4",
                         "--alpha", "0.5", "--budget", "0", "--seed", "1"],
                        "ParameterError: budget must be >= 1, got 0"),
    "params-eps-only": (["params", "--eps", "0.5"],
                        "params needs --h-source, or --source-sft with "
                        "--source-measure"),
    "decode-dict-garbage": (["decode", "--dict", str(DATA / "garbage.dict"),
                             "--coded", "unread.coded"],
                            f"dictionary file {DATA / 'garbage.dict'} has no "
                            f"[format] section"),
    "decode-dict-format-pack-only": (
        ["decode", "--dict", str(DATA / "format_pack_only.dict"),
         "--coded", "unread.coded"],
        f"dictionary file {DATA / 'format_pack_only.dict'} has no "
        f"[source-sft] section"),
}


@pytest.mark.parametrize("case", sorted(MISSING_INPUT))
def test_missing_input_ends_in_an_error_line(case, coded_stream, tmp_path):
    args, message = MISSING_INPUT[case]
    if args[0] == "encode":
        args = [*args, "--dict", str(coded_stream[0]),
                "--coded-out", str(tmp_path / "run.coded")]
    proc = cli(*args)
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr
    assert proc.stdout == ""


def test_sft_above_table_budget_named(tmp_path):
    # 2^21 states: the n x n adjacency alone once asked numpy for 4 TiB
    big = tmp_path / "big.sft"
    big.write_text("alphabet 2\nforbid " + "0" * 22 + "\n")
    start = time.perf_counter()
    proc = cli("gap", "--sft", str(big))
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert (f"SFT file {big}: an SFT with 2,097,152 states" in proc.stderr
            and "table budget" in proc.stderr)


def test_malformed_matrix_file_named(tmp_path):
    bad = tmp_path / "m.txt"
    bad.write_text("2 1\n1 1 0\n")
    proc = cli("toral", "classify", "--matrix-file", str(bad))
    assert proc.returncode == 1
    assert (f"ShiftcodeError: --matrix-file {bad}: entries per row [2, 3] do "
            f"not form a square matrix") in proc.stderr


def test_measure_row_not_finite_named(tmp_path):
    # a NaN once reached LAPACK, which printed DLASCL lines and then failed
    bad = tmp_path / "nan.msr"
    bad.write_text("states 2\nrow nan 1\nrow 0.5 0.5\n")
    proc = cli("splice", "--sft", str(DATA / "full2.sft"), "--measure", str(bad),
               "--kind", "support", "--length", "200", "--seed", "2")
    assert proc.returncode == 1
    assert (f"measure file {bad}: row 0 has an entry that is not "
            f"finite") in proc.stderr
    assert "DLASCL" not in proc.stderr


def test_strict_params_refuse_N_and_M():
    # both were once dropped without a word: the report matched the run
    # without them
    proc = cli(*GOLDEN_CASES["params_strict.txt"], "--N", "64", "--M", "2")
    assert proc.returncode == 1
    assert ("ParameterError: strict mode derives N and M; it refuses the N "
            "and M override") in proc.stderr
    assert proc.stdout == ""


def test_boost_splice_with_long_two_runs():
    # k2 = 750 exceeds k1 + 1 = 150, which once capped every segment
    proc = cli("splice", "--sft", str(DATA / "full2.sft"),
               "--measure", str(DATA / "b5.msr"), "--kind", "boost",
               "--eps", "0.8", "--gamma", "0.1", "--N", "1000",
               "--length", "20000", "--seed", "2")
    assert proc.returncode == 0, proc.stderr
    assert "admissible=true\nk0=50\nk1=149\nk2=750\n" in proc.stdout


def test_boost_splice_refuses_negative_k1():
    # eps + gamma/2 > 1 makes k1 = floor((1 - eps - gamma/2) N) negative;
    # the refusal names the three flags, not a numpy shape
    proc = cli("splice", "--sft", str(DATA / "full2.sft"),
               "--measure", str(DATA / "b5.msr"), "--kind", "boost",
               "--eps", "0.9", "--gamma", "0.5", "--N", "10",
               "--length", "200", "--seed", "2")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "ParameterError: k1 = floor((1 - eps - gamma/2) N) = -2" in proc.stderr
    assert "eps=0.9, gamma=0.5, N=10" in proc.stderr
    assert "negative dimensions" not in proc.stderr
    assert proc.stdout == ""


class TestSchemaCheck:
    def test_well_formed(self):
        assert first_schema_offence((GOLDEN / "verify.txt").read_text()) is None

    @pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.txt")))
    def test_every_golden_meets_the_schema(self, name):
        assert first_schema_offence((GOLDEN / name).read_text()) is None

    def test_stray_prose(self):
        text = "subcommand=gap\ngap=2\nsome stray prose\n"
        assert first_schema_offence(text) == "some stray prose"

    def test_undeclared_key(self):
        text = "subcommand=gap\nbogus=1\n"
        assert first_schema_offence(text) == "bogus=1"

    def test_empty_vacuous(self):
        assert first_schema_offence("") is None


@pytest.fixture(scope="module")
def coded_stream(tmp_path_factory):
    """(dictionary file, coded stream) of a small practical instance."""
    tmp = tmp_path_factory.mktemp("coded")
    dict_path, coded_path = tmp / "inst.dict", tmp / "run.coded"
    proc = cli("dict", "--source-sft", str(DATA / "full2.sft"),
               "--source-measure", str(DATA / "b01.msr"),
               "--sft", str(DATA / "full2.sft"), "--measure", str(DATA / "b5.msr"),
               "--eps", "0.2", "--N", "64", "--M", "2", "--delta", "0.02",
               "--alpha", "0.5", "--seed", "1", "--dict-out", str(dict_path))
    assert proc.returncode == 0, proc.stderr
    proc = cli("encode", "--dict", str(dict_path), "--length", "2000",
               "--seed", "5", "--coded-out", str(coded_path))
    assert proc.returncode == 0, proc.stderr
    return dict_path, coded_path


# the hall file's one boy and the two girls at N = 12, M = 1
HALL_BOY, HALL_GIRLS = "0" * 12, ("0", "1")


def marker_word(word, counts=True):
    """An edit of a dictionary file's lines: its [marker] word replaced,
    and its [counts] section removed unless ``counts``."""
    def edit(lines):
        at = lines.index("[marker]") + 1
        lines[at] = lines[at].split("word=")[0] + f"word={word}"
        if not counts:
            at = lines.index("[counts]")
            del lines[at:at + 3]
    return edit


def marker_line(change):
    """An edit of a dictionary file's lines: its [marker] line changed."""
    def edit(lines):
        at = lines.index("[marker]") + 1
        lines[at] = change(lines[at])
    return edit


@pytest.fixture(scope="module")
def hall_dict(tmp_path_factory):
    """A hall-mode dictionary file whose table maps its one boy to the
    first of its two girls."""
    full2, mu = build_sft(2, []), MarkovMeasure.bernoulli([0.98, 0.02])
    nu = MarkovMeasure.bernoulli([0.5, 0.5])
    pack = choose_parameters(mu.entropy(), math.log(2), 0.2, mode="practical",
                             overrides={"N": 12, "M": 1, "delta": 0.1,
                                        "alpha": 0.9})
    scheme = find_marker(full2, nu, M=1, alpha=0.9, seed=2)
    b, g = boys(mu, pack), girls(full2, pack, scheme)
    assert (b.count, b.unrank(0).to_string()) == (1, HALL_BOY)
    assert tuple(g.unrank(i).to_string() for i in range(2)) == HALL_GIRLS
    d = dictionary(b, g, "hall", K=1, pack=pack,
                   relation={HALL_BOY: [HALL_GIRLS[0]]})
    path = tmp_path_factory.mktemp("hall") / "hall.dict"
    write_dictionary_file(str(path), pack, scheme, mu, nu, d)
    return path


class TestEncodeDecodeFiles(object):
    def test_pipeline(self, tmp_path):
        dict_path = tmp_path / "inst.dict"
        coded_path = tmp_path / "run.coded"
        out1 = tmp_path / "r1.txt"
        base = ["dict", "--source-sft", str(DATA / "full2.sft"),
                "--source-measure", str(DATA / "b01.msr"),
                "--sft", str(DATA / "full2.sft"),
                "--measure", str(DATA / "b5.msr"), "--eps", "0.2",
                "--N", "64", "--M", "2", "--delta", "0.02", "--alpha", "0.5",
                "--seed", "1", "--dict-out", str(dict_path)]
        assert cli(*base).returncode == 0
        # dictionary file reconstructs a working codec
        pack, scheme, mu, nu, d = read_dictionary_file(str(dict_path))
        assert pack.N == 64 and d.mode == "enumerative"
        proc = cli("encode", "--dict", str(dict_path), "--length", "4000",
                   "--seed", "5", "--coded-out", str(coded_path),
                   "--out", str(out1))
        assert proc.returncode == 0, proc.stderr
        proc2 = cli("decode", "--dict", str(dict_path), "--coded",
                    str(coded_path), "--x-out", str(tmp_path / "xhat.txt"))
        assert proc2.returncode == 0, proc2.stderr
        report = dict(line.split("=") for line in
                      proc2.stdout.strip().splitlines())
        assert int(report["decoded_blocks"]) > 0
        # the --out file carries the same bytes as stdout
        assert out1.read_text() == proc.stdout

    def test_x_out_writes_a_character_per_coordinate(self, coded_stream,
                                                     tmp_path):
        # the source digit where the block was recovered, "-" elsewhere;
        # each unrecovered coordinate was once written as "255"
        dict_path = coded_stream[0]
        pack, scheme, mu, nu, d = read_dictionary_file(str(dict_path))
        x = mu.sample_path(2000, seed=17)
        x_file, coded, x_out = (tmp_path / name for name in
                                ("x.txt", "run.coded", "xhat.txt"))
        x_file.write_text(x.to_string() + "\n")
        assert cli("encode", "--dict", str(dict_path), "--x-file", str(x_file),
                   "--seed", "5", "--coded-out", str(coded)).returncode == 0
        proc = cli("decode", "--dict", str(dict_path), "--coded", str(coded),
                   "--x-out", str(x_out))
        assert proc.returncode == 0, proc.stderr
        pair = codec.encode(x, d, scheme, pack, nu.sft, seed=5)
        assert coded.read_text() == codec.write_coded(pair.y, pack, d, scheme)
        assert 0 < pair.coverage < 1
        assert x_out.read_text() == "".join(
            c if m else "-" for c, m in zip(x.to_string(), pair.mask)) + "\n"

    def test_file_reads_back_the_built_pack(self, coded_stream):
        # [pack] floats and the marker's alpha were once written to 12
        # significant digits, so the read-back pack hashed differently
        pack, scheme, mu, nu, d = read_dictionary_file(str(coded_stream[0]))
        args = build_parser().parse_args(GOLDEN_CASES["dict_practical.txt"])
        _, _, built, built_scheme, *_ = _build_instance(args)
        assert pack.scalars() == built.scalars()
        assert codec.pack_hash(pack) == codec.pack_hash(built)
        assert scheme == built_scheme

    def test_int_overrides_hash_like_their_file(self, tmp_path):
        # a library pack once kept an int alpha 1 where its dictionary file
        # reads back 1.0, so the two hashed differently and decode would
        # refuse the built pack's streams
        from fractions import Fraction
        full2 = build_sft(2, [])
        mu, nu = MarkovMeasure.bernoulli([0.9, 0.1]), MarkovMeasure.bernoulli([0.5, 0.5])

        def pack_with(delta, alpha):
            return choose_parameters(
                mu.entropy(), nu.entropy(), 0.2, mode="practical",
                overrides={"N": 64, "M": 2, "delta": delta, "alpha": alpha},
                source_alphabet=2, gap=1, nu=nu)

        pack = pack_with(Fraction(1, 50), 1)
        assert type(pack.delta) is type(pack.alpha) is float
        assert codec.pack_hash(pack) == codec.pack_hash(pack_with(0.02, 1.0))
        scheme = find_marker(full2, nu, pack.M, pack.alpha, seed=1)
        d = dictionary(boys(mu, pack), girls(full2, pack, scheme),
                       "enumerative", pack=pack)
        path = tmp_path / "int.dict"
        write_dictionary_file(str(path), pack, scheme, mu, nu, d)
        back, back_scheme, *_ = read_dictionary_file(str(path))
        assert back.scalars() == pack.scalars()
        assert codec.pack_hash(back) == codec.pack_hash(pack)
        assert back_scheme == scheme

    @pytest.mark.parametrize("key, value, message", [
        ("alpha", 0.9, "[marker] alpha is 0.9, [pack] alpha is 0.5"),
        ("M", 1, "[marker] M is 1, [pack] M is 2")])
    def test_writer_refuses_a_scheme_of_another_pack(self, tmp_path, key,
                                                     value, message):
        # the writer used to store such a scheme, in a file that
        # read_dictionary_file then refused
        from dataclasses import replace
        full2 = build_sft(2, [])
        mu, nu = MarkovMeasure.bernoulli([0.9, 0.1]), MarkovMeasure.bernoulli([0.5, 0.5])
        pack = choose_parameters(mu.entropy(), nu.entropy(), 0.2, mode="practical",
                                 overrides={"N": 64, "M": 2, "delta": 0.02,
                                            "alpha": 0.5})
        scheme = find_marker(full2, nu, pack.M, pack.alpha, seed=1)
        d = dictionary(boys(mu, pack), girls(full2, pack, scheme),
                       "enumerative", pack=pack)
        path = tmp_path / "other.dict"
        with pytest.raises(ShiftcodeError) as exc:
            write_dictionary_file(str(path), pack, replace(scheme, **{key: value}),
                                  mu, nu, d)
        assert str(exc.value) == f"dictionary file {path}: {message}"
        assert not path.exists()

    @pytest.mark.parametrize("text, position, char", [
        ("01012", 4, "2"), ("0101a10", 4, "a")])
    def test_x_file_off_the_source_alphabet_refused(self, coded_stream,
                                                    tmp_path, text, position,
                                                    char):
        # the first encoded with exit 0, the second ended in a bare int()
        # ValueError that named no file
        x_file = tmp_path / "x.txt"
        x_file.write_text(text + "\n")
        proc = cli("encode", "--dict", str(coded_stream[0]), "--x-file",
                   str(x_file), "--seed", "5",
                   "--coded-out", str(tmp_path / "run.coded"))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert (f"ShiftcodeError: x file {x_file}: position {position} holds "
                f"{char!r}, not a source symbol 0 to 1") in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("key", ["pack", "dict", "marker"])
    def test_decode_rejects_tampered_header(self, coded_stream, tmp_path, key):
        dict_path, coded_path = coded_stream
        tampered = {"pack": "pack 0000000000000000",
                    "dict": "dict 0000000000000000",
                    "marker": "marker M=2 alpha=0.5 word=1111111111111111"}
        lines = [tampered[key] if line.split(" ", 1)[0] == key else line
                 for line in coded_path.read_text().splitlines()]
        assert lines != coded_path.read_text().splitlines()
        bad = tmp_path / "tampered.coded"
        bad.write_text("\n".join(lines) + "\n")
        proc = cli("decode", "--dict", str(dict_path), "--coded", str(bad))
        assert proc.returncode == 1
        assert f"coded stream {key} header does not match" in proc.stderr
        assert f"(stream {bad}, dictionary {dict_path})" in proc.stderr

    @pytest.mark.parametrize("marker, message", [
        ("M=2 alpha=0.5", "[marker] has no word field"),
        ("alpha=0.5 word=0010010010010011", "[marker] has no M field"),
        ("M=2 word=0010010010010011", "[marker] has no alpha field"),
        ("M=two alpha=0.5 word=0010010010010011",
         "[marker] field M=two is malformed"),
        ("M=2 alpha=0.5 word=00100x0010010011",
         "[marker] field word=00100x0010010011 is malformed"),
        ("M=2 alpha=0.5 word=0010010010010011 extra",
         "[marker] field extra is malformed"),
        # int(), float() and the digit loop once read Arabic-Indic digits
        ("M=\u0662 alpha=0.5 word=0010010010010011",
         "[marker] field M=\u0662 is malformed"),
        ("M=2 alpha=\u0660.\u0665 word=0010010010010011",
         "[marker] field alpha=\u0660.\u0665 is malformed"),
        ("M=2 alpha=0.5 word=" + "0010010010010011".translate(ARABIC_INDIC),
         "[marker] field word=" + "0010010010010011".translate(ARABIC_INDIC)
         + " is malformed"),
    ])
    @pytest.mark.parametrize("command", ["encode", "decode"])
    def test_cut_marker_line_ends_in_an_error_line(self, coded_stream,
                                                   tmp_path, marker, message,
                                                   command):
        dict_path, coded_path = coded_stream
        lines = dict_path.read_text().splitlines()
        at = lines.index("[marker]") + 1
        assert lines[at].startswith("M=2 alpha=0.5 word=")
        lines[at] = marker
        bad = tmp_path / "cut.dict"
        bad.write_text("\n".join(lines) + "\n")
        args = {"encode": ["--length", "100", "--seed", "5",
                           "--coded-out", str(tmp_path / "run.coded")],
                "decode": ["--coded", str(coded_path)]}[command]
        proc = cli(command, "--dict", str(bad), *args)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert f"dictionary file {bad}: {message}" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("name, key, value, message", [
        ("dict", "N", "sixty-four", "[pack] field N sixty-four is malformed"),
        ("dict", "boys", "many", "[counts] field boys many is malformed"),
        ("dict", "mode", "hall\n[table]\n0101 0011",
         "[table] field 0101 0011 is malformed"),
        ("coded", "base", "zero", "base 'zero' is not an integer"),
        # int() and float() once read Arabic-Indic digits
        ("dict", "N", "\u0666\u0664", "[pack] field N \u0666\u0664 is malformed"),
        ("dict", "delta", "\u0660.\u0660\u0662",
         "[pack] field delta \u0660.\u0660\u0662 is malformed"),
        ("dict", "boys", "\u0667", "[counts] field boys \u0667 is malformed"),
        ("coded", "base", "\u0660", "base '\u0660' is not an integer"),
        ("coded", None, "01x0",
         "line 5 is neither a header line nor a line of digits"),
        ("coded", None, "01\u06630",
         "line 5 is neither a header line nor a line of digits"),
    ])
    def test_malformed_value_ends_in_an_error_line(self, coded_stream, tmp_path,
                                                   name, key, value, message):
        files = dict(zip(["dict", "coded"], coded_stream))
        lines = files[name].read_text().splitlines()
        if key is None:         # the first digit line, after four header lines
            lines[4] = value
        else:
            at = [line.split(" ", 1)[0] for line in lines].index(key)
            lines[at] = f"{key} {value}"
        files[name] = tmp_path / f"bad.{name}"
        files[name].write_text("\n".join(lines) + "\n")
        proc = cli("decode", "--dict", str(files["dict"]),
                   "--coded", str(files["coded"]))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        where = {"dict": "dictionary file", "coded": "coded stream"}[name]
        assert f"ShiftcodeError: {where} {files[name]}: {message}" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("name, edit, message", [
        # an extra N line before the stored one
        ("practical", lambda lines: lines.insert(lines.index("N 64"), "N 65"),
         "[pack] repeats the key N"),
        # keeps the H1/H2 windows, so the stored counts still agree, but
        # its offset-4 window equals its offset-12 window
        ("practical", marker_word("0010001100100011"),
         "[marker] word 0010001100100011 is not a marker: 1 of its windows "
         "at offsets 0 to 6M-1 equal the one at 6M"),
        ("practical", marker_word("001001001001001", counts=False),
         "[marker] word has 15 symbols, not 8M = 16"),
        ("practical", marker_word("0" * 16, counts=False),
         f"[marker] word {'0' * 16} is not a marker: 12 of its windows "
         "at offsets 0 to 6M-1 equal the one at 6M"),
        # one more boy than the rebuilt set holds
        ("practical", lambda lines: lines.__setitem__(
            lines.index("[counts]") + 1, "boys 704494194"),
         "[counts] boys is 704494194, the rebuilt set has 704494193"),
        # the one boy listed again, to the other girl
        ("hall", lambda lines: lines.append(f"{HALL_BOY} -> {HALL_GIRLS[1]}"),
         f"[table] repeats the key {HALL_BOY}"),
        ("hall", lambda lines: lines.__setitem__(-1, lines[-1][:-1] + "x"),
         f"[table] field {HALL_BOY} -> {HALL_GIRLS[0][:-1]}x is malformed"),
        ("hall", lambda lines: lines.__setitem__(-1, "x" + lines[-1][1:]),
         f"[table] field x{HALL_BOY[1:]} -> {HALL_GIRLS[0]} is malformed"),
        # a marker of another alpha or M than the pack's: the first
        # encoded with exit 0, the second failed naming no file
        ("practical", marker_line(lambda line: line.replace(
            "alpha=0.5", "alpha=1e300")),
         "[marker] alpha is 1e+300, [pack] alpha is 0.5"),
        ("practical", marker_line(lambda line: "M=1 alpha=0.5 word=11000001"),
         "[marker] M is 1, [pack] M is 2"),
    ], ids=["pack-repeated", "marker-repeats-its-window", "marker-short",
            "marker-constant", "counts-disagree", "table-repeated",
            "table-girl-x", "table-boy-x", "marker-alpha-not-the-pack's",
            "marker-M-not-the-pack's"])
    def test_bad_dictionary_entry_refused(self, coded_stream, hall_dict,
                                          tmp_path, name, edit, message):
        # a repeated key used to overwrite the one before it, a non-digit
        # table word ended in a bare int() ValueError, and a [marker] word
        # was never checked (the first two encoded with exit 0, the last
        # failed inside encode on spurious marker occurrences)
        path = {"practical": coded_stream[0], "hall": hall_dict}[name]
        args = ["--length", "1200", "--seed", "0",
                "--coded-out", str(tmp_path / "y.coded")]
        assert cli("encode", "--dict", str(path), *args).returncode == 0
        lines = path.read_text().splitlines()
        edit(lines)
        bad = tmp_path / "bad.dict"
        bad.write_text("\n".join(lines) + "\n")
        proc = cli("encode", "--dict", str(bad), *args)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert f"ShiftcodeError: dictionary file {bad}: {message}" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("section, line, replaced, message", [
        ("source-sft", 1, "alphabet two", "line 1: cannot parse 'alphabet two'"),
        ("target-measure", 2, "row 0.5 x", "line 2: cannot parse 'row 0.5 x'"),
        ("target-sft", 1, "alphabet 2\nforbid " + "0" * 22,
         "an SFT with 2,097,152 states"),
    ], ids=["source-sft", "target-measure", "target-sft-above-table-budget"])
    def test_bad_sft_or_measure_section_names_it(self, coded_stream, tmp_path,
                                                  section, line, replaced,
                                                  message):
        # these once ended in a bare int() or float() ValueError
        lines = coded_stream[0].read_text().splitlines()
        lines[lines.index(f"[{section}]") + line] = replaced
        bad = tmp_path / "bad.dict"
        bad.write_text("\n".join(lines) + "\n")
        proc = cli("encode", "--dict", str(bad), "--length", "100", "--seed",
                   "5", "--coded-out", str(tmp_path / "run.coded"))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert (f"ShiftcodeError: dictionary file {bad}: [{section}] {message}"
                in proc.stderr)

    @pytest.mark.parametrize("kind, text, message", [
        ("SFT", "alphabet two\n", "line 1: cannot parse 'alphabet two'"),
        ("SFT", "alphabet 2\nforbid 1a\n", "line 2: cannot parse 'forbid 1a'"),
        ("measure", "states 2\nrow 0.5 x\nrow 0.5 0.5\n",
         "line 2: cannot parse 'row 0.5 x'"),
        # int() and float() once read Arabic-Indic digits
        ("SFT", "alphabet \u0663\n", "line 1: cannot parse 'alphabet \u0663'"),
        ("measure", "states \u0662\nrow 0.5 0.5\nrow 0.5 0.5\n",
         "line 1: cannot parse 'states \u0662'"),
        ("measure", "states 2\nrow \u0660.\u0665 0.5\nrow 0.5 0.5\n",
         "line 2: cannot parse 'row \u0660.\u0665 0.5'"),
    ], ids=["sft", "sft-forbid", "measure", "sft-arabic-indic-alphabet",
            "measure-arabic-indic-states", "measure-arabic-indic-row"])
    def test_bad_sft_or_measure_file_names_it(self, tmp_path, kind, text,
                                               message):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        args = {"SFT": ["entropy", "--sft", str(bad)],
                "measure": ["marker", "--sft", str(DATA / "full2.sft"),
                            "--measure", str(bad), "--M", "2", "--alpha", "0.5",
                            "--seed", "1"]}
        proc = cli(*args[kind])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert f"ShiftcodeError: {kind} file {bad}: {message}" in proc.stderr

    def test_entropy_of_cycle_with_transient_exit_is_zero(self, tmp_path,
                                                          capsys):
        # a 7-cycle on 0..6 that also steps from 6 into the fixed point 7,
        # for which the eigensolve printed h_top=4.4408920985e-16
        allowed = {(i, (i + 1) % 7) for i in range(7)} | {(6, 7), (7, 7)}
        path = tmp_path / "cycle.sft"
        path.write_text("alphabet 8\n" + "".join(
            f"forbid {a}{b}\n" for a in range(8) for b in range(8)
            if (a, b) not in allowed))
        assert run(["entropy", "--sft", str(path)]) == 0
        assert "h_top=0\n" in capsys.readouterr().out

    def test_run_api(self, tmp_path, capsys):
        code = run(["entropy", "--sft", str(DATA / "full2.sft")])
        assert code == 0
        assert "h_top=0.69314718056" in capsys.readouterr().out
