"""The benchmark's own tests: every workload path at reduced size, the trace
mode, and gates that must count deliberately corrupted outputs as failures."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracer
import workloads
from shiftcode import codec
from shiftcode.shiftspace import Word

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def roundtrip():
    return workloads.Roundtrip(seed=1, length=20_000)


@pytest.fixture(scope="module")
def coded(roundtrip):
    rt = roundtrip
    x = rt.mu.sample_path(rt.length, seed=(1, 1, 0x5A))
    pair = codec.encode(x, rt.dict, rt.scheme, rt.pack, rt.target, seed=1)
    x_hat, mask = codec.decode(pair.y, rt.dict, rt.scheme, rt.pack)
    return pair, x_hat, mask


def test_roundtrip_round_passes(roundtrip):
    r = roundtrip.round(1)
    assert r.failures == []
    assert set(r.stages) == {"sample", "encode", "decode", "check", "audit"}
    assert r.counts["codec.decoded_blocks"] == r.counts["codec.blocks.dict"] > 0


def test_corrupted_decode_fails(roundtrip, coded):
    rt = roundtrip
    pair, x_hat, mask = coded
    gate = (rt.coverage_bound, rt.instance, rt.golden)
    assert workloads.roundtrip_failures(pair, x_hat, mask, *gate) == []
    i = int(np.flatnonzero(pair.mask)[0])
    wrong = x_hat.symbols.copy()
    wrong[i] ^= 1
    assert workloads.roundtrip_failures(pair, Word(wrong, x_hat.lo), mask,
                                        *gate) == ["errors_on_mask=1"]
    lost = mask.copy()
    lost[i] = False
    assert workloads.roundtrip_failures(pair, x_hat, lost, *gate) == [
        "decode mask differs from encode mask"]
    assert workloads.roundtrip_failures(pair, x_hat, mask, 1.0,
                                        rt.instance, rt.golden)
    other = {**rt.golden, "log_girls": "21"}
    assert workloads.roundtrip_failures(pair, x_hat, mask, rt.coverage_bound,
                                        rt.instance, other)


def test_splice_round_passes_and_inadmissible_output_fails():
    sp = workloads.Splice(seed=1, length=5_000)
    assert sp.round(1).failures == []
    out = Word.from_string("0010" * 1_000)
    assert workloads.splice_failures(sp.sft, out, sp.target, sp.N) == []
    broken = out.symbols.copy()
    broken[1] = 1               # "11" is forbidden in the golden-mean shift
    assert workloads.splice_failures(sp.sft, Word(broken), sp.target,
                                     sp.N) == ["splice output is not admissible"]
    assert workloads.splice_failures(sp.sft, Word.from_string("0" * 500),
                                     sp.target, sp.N)


def test_strict_gates():
    st = workloads.Strict(seed=1)
    # The bounds hold only at the strict block length, so a reduced build
    # must be reported as failing them.
    assert st.round(1, N=2_000).failures == ["BoundsReport.all_hold is false"]
    holds = workloads.dictionary.BoundsReport(1.0, 1.0, 1.0, True, True,
                                              True, True)
    assert workloads.strict_failures(holds, 7, 7) == []
    assert workloads.strict_failures(holds, 7, 8) == [
        "girls.count differs between rounds at one seed"]


def test_trace_mode_reproduces_untraced_outputs(roundtrip):
    encode = codec.encode
    layer_names = set(workloads.layer_units()) - {"trace.setup_overhead_s"}
    for wl in (roundtrip, workloads.Splice(seed=2, length=5_000)):
        plain, traced, layers = workloads.traced_rounds(wl, tracer.Tracer())
        assert [r.digest for r in traced] == [r.digest for r in plain]
        assert all(r.failures == [] for r in plain + traced)
        assert set(layers) == layer_names
    assert codec.encode is encode           # wrappers removed again
    assert layers["splicer.splice_full_support.calls"] == 2
    assert layers["interp.interpolate.s"] >= layers["interp.interpolate.self_s"] > 0
    assert layers["codec.encode.calls"] == 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    # strict is run by hand only: one build is too long to time steadily.
    assert ({w["name"] for w in spec["workloads"]}
            == set(workloads.WORKLOADS) - {"strict"})
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == workloads.layer_units())


def test_refuses_to_run_outside_a_checkout(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "splice",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
