import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
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


def markov_on_support(sft, weights):
    """Markov measure with the given positive weights on the SFT's edges."""
    p = sft.adjacency * np.asarray(weights, dtype=np.float64)
    return MarkovMeasure(sft, p / p.sum(axis=1, keepdims=True))


def halmos_oracle(n: int, m: int) -> bool:
    """Reference for toral.halmos_membership by an independent path.

    n = 1 is constants-only by telescoping; n | m exhibits the explicit
    cosine witness; otherwise the circulant is nonsingular and the
    generators C^{-1} e_i of the solution group expose any non-constant
    solution.
    """
    import sympy
    from sympy import ZZ, Poly
    from sympy.polys.specialpolys import cyclotomic_poly

    from shiftcode.toral import _X, _circulant_for, poly_coeffs

    if n == 1:
        return False
    coeffs = poly_coeffs(Poly(cyclotomic_poly(n, _X), _X, domain=ZZ))
    if m % n == 0:
        # witness g(x) = cos(2 pi (x - alpha)/n) / 3: values stay in
        # (-1/3, 1/3), so mod-1 equality is real equality and the witness
        # is genuinely non-constant
        alpha = 0.5 ** 0.5
        g = [math.cos(2 * math.pi * (x - alpha) / n) / 3 for x in range(m + len(coeffs))]
        vals = [math.fsum(ak * g[x + k] for k, ak in enumerate(coeffs))
                for x in range(m)]
        assert all(abs(v) < 1e-9 for v in vals), "cosine witness failed"
        assert any(abs(g[x] - g[0]) > 1e-9 for x in range(m)), "witness constant"
        return True
    c = _circulant_for(n, m)
    inv = c.inv()
    for j in range(m):
        col = [Fraction(int(sympy.fraction(inv[i, j])[0]),
                        int(sympy.fraction(inv[i, j])[1])) % 1 for i in range(m)]
        if any(v != col[0] for v in col):
            return True
    return False
