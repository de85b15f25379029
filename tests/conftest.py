import math
import os
from pathlib import Path

import pytest

from shiftcode.measures import MarkovMeasure
from shiftcode.shiftspace import build_sft

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="session", autouse=True)
def src_on_subprocess_path():
    """CLI subprocesses import shiftcode from this checkout, as pytest does."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture(scope="session")
def full2():
    return build_sft(2, [])


@pytest.fixture(scope="session")
def full3():
    return build_sft(3, [])


@pytest.fixture(scope="session")
def golden_mean():
    return build_sft(2, ["11"])


@pytest.fixture(scope="session")
def bern_half():
    return MarkovMeasure.bernoulli([0.5, 0.5])


@pytest.fixture(scope="session")
def bern_01():
    return MarkovMeasure.bernoulli([0.9, 0.1])


@pytest.fixture(scope="session")
def sft_zoo():
    """Small mixing SFTs: alphabet <= 3, memory <= 2."""
    return [
        build_sft(2, []),
        build_sft(2, ["11"]),
        build_sft(2, ["111"]),
        build_sft(3, []),
        build_sft(3, ["22"]),
        build_sft(3, ["012"]),
    ]


LOG2 = math.log(2)
GOLDEN_ENTROPY = math.log((1 + math.sqrt(5)) / 2)
