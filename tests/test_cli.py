import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from shiftcode.cli import (first_schema_offence, read_dictionary_file,
                           report_schema_check, run)

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def cli(*args):
    proc = subprocess.run([sys.executable, "-m", "shiftcode", *args],
                          capture_output=True, text=True, cwd=str(DATA.parent.parent))
    return proc


GOLDEN_CASES = {
    "entropy_full2.txt": ["entropy", "--sft", str(DATA / "full2.sft")],
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
    assert report_schema_check(proc.stdout), first_schema_offence(proc.stdout)


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
    "toral-no-matrix": (["toral", "entropy"],
                        "one of the arguments --matrix --matrix-file is required"),
    "params-eps-only": (["params", "--eps", "0.5"],
                        "params needs --h-source, or --source-sft with "
                        "--source-measure"),
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


class TestSchemaCheck:
    def test_well_formed(self):
        assert report_schema_check((GOLDEN / "verify.txt").read_text())

    def test_stray_prose(self):
        text = "subcommand=gap\ngap=2\nsome stray prose\n"
        assert not report_schema_check(text)
        assert first_schema_offence(text) == "some stray prose"

    def test_undeclared_key(self):
        text = "subcommand=gap\nbogus=1\n"
        assert not report_schema_check(text)

    def test_empty_vacuous(self):
        assert report_schema_check("")


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

    def test_run_api(self, tmp_path, capsys):
        code = run(["entropy", "--sft", str(DATA / "full2.sft")])
        assert code == 0
        assert "h_top=0.69314718056" in capsys.readouterr().out
