import itertools
import math
import subprocess
import sys

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import Matrix, eye, zeros
from sympy.polys.specialpolys import cyclotomic_poly

from shiftcode.toral import (_integer_kernel_basis, check_unimodular, classify,
                             cyclotomic_split, halmos_membership,
                             is_quasi_hyperbolic, poly_coeffs, split_action,
                             toral_entropy)

from conftest import halmos_oracle

CAT = [[2, 1], [1, 1]]
ROT4 = [[0, -1], [1, 0]]
# companion of x^4 - x^3 - x^2 - x + 1 (reciprocal quartic)
QUARTIC = [[0, 0, 0, -1], [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]
CAT_ENTROPY = math.log((3 + math.sqrt(5)) / 2)


def doubled(block):
    b = Matrix(block)
    d = b.rows
    return b.row_join(eye(d)).col_join(zeros(d, d).row_join(b)).tolist()


def numpy_entropy(matrix):
    """Independent oracle: plain floating eigenvalues."""
    ev = np.linalg.eigvals(np.array(matrix, dtype=float))
    return float(sum(math.log(abs(l)) for l in ev if abs(l) > 1 + 1e-9))


class TestQuasiHyperbolic:
    def test_identity(self):
        assert not is_quasi_hyperbolic([[1, 0], [0, 1]])

    def test_cat_map(self):
        assert is_quasi_hyperbolic(CAT)

    def test_rotation(self):
        assert not is_quasi_hyperbolic(ROT4)

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(5)
        for matrix in (CAT, ROT4, QUARTIC):
            m = Matrix(matrix)
            d = m.rows
            p = eye(d)
            for _ in range(6):
                i, j = rng.integers(0, d, size=2)
                if i != j:
                    p[i, :] = p[i, :] + int(rng.integers(-2, 3)) * p[j, :]
            conj = p * m * p.inv()
            assert is_quasi_hyperbolic(conj.tolist()) == is_quasi_hyperbolic(matrix)

    def test_determinant_guard(self):
        with pytest.raises(ValueError):
            is_quasi_hyperbolic([[2, 0], [0, 1]])


class TestEntropy:
    def test_identity_zero(self):
        assert toral_entropy([[1, 0], [0, 1]]) == 0.0

    def test_cat_map_certified(self):
        h = toral_entropy(CAT)
        assert abs(h - CAT_ENTROPY) < 1e-9
        assert abs(h - numpy_entropy(CAT)) < 1e-9

    def test_quartic_largest_root(self):
        h = toral_entropy(QUARTIC)
        roots = np.roots([1, -1, -1, -1, 1])
        largest = max(abs(r) for r in roots)
        assert abs(h - math.log(largest)) < 1e-9

    def test_inverse_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            m = eye(d)
            for _ in range(8):
                i, j = rng.integers(0, d, size=2)
                if i != j:
                    m[i, :] = m[i, :] + int(rng.integers(-2, 3)) * m[j, :]
            a = m.tolist()
            inv = m.inv().tolist()
            assert Matrix(inv) == Matrix(m).inv()
            assert abs(toral_entropy(a) - toral_entropy(inv)) < 2e-10

    def test_block_additivity(self):
        bd = Matrix(CAT).row_join(zeros(2, 4)).col_join(
            zeros(4, 2).row_join(Matrix(QUARTIC)))
        assert abs(toral_entropy(bd.tolist()) -
                   (toral_entropy(CAT) + toral_entropy(QUARTIC))) < 1e-10


class TestClassify:
    def test_identity(self):
        assert classify([[1, 0], [0, 1]]) == "not-quasi-hyperbolic"

    def test_cat(self):
        assert classify(CAT) == "hyperbolic"

    def test_rotation(self):
        assert classify(ROT4) == "not-quasi-hyperbolic"

    def test_central_spin_dimension_four(self):
        assert classify(QUARTIC) == "central-spin"

    def test_central_skew_dimension_eight(self):
        assert classify(doubled(QUARTIC)) == "central-skew"

    def test_doubled_cat_still_hyperbolic(self):
        # repeated factors without circle spectrum stay hyperbolic
        assert classify(doubled(CAT)) == "hyperbolic"


class TestCyclotomicSplit:
    def test_worked_product(self):
        x = sympy.symbols("x")
        f = sympy.Poly((x ** 2 + x + 1) * (x ** 2 - x - 1), x)
        split = cyclotomic_split(f)
        assert poly_coeffs(split.g) == [1, 1, 1]
        assert poly_coeffs(split.h) == [-1, -1, 1]
        assert split.certificate == [(3, [1, 1, 1], 1)]

    def test_no_cyclotomic_factor(self):
        split = cyclotomic_split([1, -3, 1])
        assert split.g.degree() == 0 and not split.has_cyclotomic_part

    def test_phi_one(self):
        split = cyclotomic_split([-1, 1])
        assert poly_coeffs(split.g) == [-1, 1]
        assert split.h.degree() == 0

    def test_certificate_order_and_multiplicities(self):
        x = sympy.symbols("x")
        f = sympy.Poly((x - 1) ** 2 * (x ** 2 + x + 1) * (x ** 2 - x + 1)
                       * (x ** 2 - 3 * x + 1), x)
        split = cyclotomic_split(f)
        assert split.certificate == [(1, [-1, 1], 2), (3, [1, 1, 1], 1),
                                     (6, [1, -1, 1], 1)]
        assert poly_coeffs(split.g) == poly_coeffs(
            sympy.Poly((x - 1) ** 2 * (x ** 4 + x ** 2 + 1), x))
        assert poly_coeffs(split.h) == [1, -3, 1]

    def test_other_generator(self):
        # a Poly in t is read as the same polynomial in x
        t = sympy.symbols("t")
        split = cyclotomic_split(sympy.Poly((t ** 2 + t + 1) * (t ** 2 - 3 * t + 1), t))
        assert split.certificate == [(3, [1, 1, 1], 1)]
        assert poly_coeffs(split.h) == [1, -3, 1]

    def test_random_products_multiply_back(self):
        x = sympy.symbols("x")
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(1, 13))
            mult = int(rng.integers(1, 3))
            deg = int(rng.integers(1, 4))
            coeffs = [int(c) for c in rng.integers(-4, 5, size=deg)] + [1]
            cofactor = sympy.Poly(coeffs[::-1], x)
            f = sympy.Poly(cyclotomic_poly(n, x), x) ** mult * cofactor
            split = cyclotomic_split(f)
            assert (split.g * split.h - f).is_zero
            # multiplicity of Phi_n is at least mult in the g part
            phi = sympy.Poly(cyclotomic_poly(n, x), x)
            g = split.g
            count = 0
            while g.degree() >= phi.degree():
                q, r = g.div(phi)
                if not r.is_zero:
                    break
                g = q
                count += 1
            assert count >= mult
            assert not has_cyclotomic_factor(split.h)


def has_cyclotomic_factor(h):
    """Oracle: does some Phi_n divide h?  Trial division by every Phi_n
    with euler_phi(n) <= deg h; phi(n) >= sqrt(n/2) bounds the n."""
    x = sympy.symbols("x")
    for n in range(1, 2 * h.degree() ** 2 + 2):
        phi = sympy.Poly(cyclotomic_poly(n, x), x)
        if phi.degree() <= h.degree() and h.div(phi)[1].is_zero:
            return True
    return False


def gcd_of_maximal_minors(basis):
    k = basis.cols
    return math.gcd(*(int(basis.extract(list(rows), list(range(k))).det())
                      for rows in itertools.combinations(range(basis.rows), k)))


class TestIntegerKernel:
    @given(rows=st.integers(1, 4), cols=st.integers(1, 5), rank=st.integers(0, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=120)
    @example(rows=3, cols=3, rank=0, seed=0)        # the zero matrix
    @example(rows=3, cols=3, rank=2, seed=1)        # singular square
    def test_basis_is_saturated_kernel(self, rows, cols, rank, seed):
        # a product of rows x rank and rank x cols integer factors has
        # rank at most ``rank``; entries up to 9 in modulus
        rng = np.random.default_rng(seed)
        left = Matrix(rows, rank, rng.integers(-3, 4, size=rows * rank).tolist())
        right = Matrix(rank, cols, rng.integers(-3, 4, size=rank * cols).tolist())
        m = left * right
        basis = _integer_kernel_basis(m)
        assert basis.rows == cols
        assert basis.cols == cols - m.rank()
        assert (m * basis).is_zero_matrix
        if basis.cols:
            assert gcd_of_maximal_minors(basis) == 1


class TestSplitAction:
    def test_block_diagonal(self):
        bd = Matrix(CAT).row_join(zeros(2, 2)).col_join(
            zeros(2, 2).row_join(Matrix(ROT4)))
        sp = split_action(bd.tolist())
        assert sp.dimensions() == (2, 2)
        assert sp.index == 1
        assert Matrix(sp.quasi_hyperbolic).charpoly().as_expr() == \
            Matrix(CAT).charpoly().as_expr()
        assert toral_entropy(sp.zero_entropy.tolist()) == 0.0

    def test_conjugated(self):
        bd = Matrix(CAT).row_join(zeros(2, 2)).col_join(
            zeros(2, 2).row_join(Matrix(ROT4)))
        p = Matrix([[1, 2, 0, 1], [0, 1, 1, 0], [1, 1, 1, 0], [0, 1, 0, 1]])
        assert p.det() in (1, -1)
        conj = (p * bd * p.inv()).applyfunc(sympy.Integer)
        sp = split_action(conj.tolist())
        assert sp.dimensions() == (2, 2)
        assert abs(toral_entropy(sp.quasi_hyperbolic.tolist()) - CAT_ENTROPY) < 1e-9
        # restrictions act on saturated lattices; the sum has finite index
        assert sp.index >= 1

    def test_trivial_parts(self):
        sp = split_action(CAT)
        assert sp.dimensions() == (2, 0)
        sp2 = split_action(ROT4)
        assert sp2.dimensions() == (0, 2)

    def test_restrictions_commute_with_action(self):
        bd = Matrix(CAT).row_join(zeros(2, 2)).col_join(
            zeros(2, 2).row_join(Matrix(ROT4)))
        p = Matrix([[1, 0, 2, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1]])
        assert p.det() in (1, -1)
        a = (p * bd * p.inv()).applyfunc(sympy.Integer)
        sp = split_action(a.tolist())
        k = sp.quasi_hyperbolic.rows
        basis_q = sp.basis[:, :k]
        assert a * basis_q == basis_q * sp.quasi_hyperbolic


class TestHalmos:
    def test_paper_witness(self):
        assert halmos_membership(6, 2) is True

    def test_divisor_rule(self):
        for m in range(2, 13):
            for ell in range(2, m + 1):
                if m % ell == 0:
                    assert halmos_membership(ell, m) is True, (ell, m)

    def test_phi_one_never(self):
        for m in range(1, 9):
            assert halmos_membership(1, m) is False

    def test_against_oracle_grid(self):
        for n in range(1, 11):
            for m in range(1, 11):
                assert halmos_membership(n, m) == halmos_oracle(n, m), (n, m)

    def test_four_two_decided(self):
        # det of the circulant is 4 against 2 constant solutions
        assert halmos_membership(4, 2) is True

    def test_preconditions(self):
        with pytest.raises(ValueError):
            halmos_membership(0, 3)
        with pytest.raises(ValueError):
            halmos_membership(3, 0)


class TestUnimodularGuard:
    def test_check(self):
        check_unimodular(CAT)
        with pytest.raises(ValueError):
            check_unimodular([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError):
            check_unimodular([[3, 0], [0, 1]])


def test_package_import_defers_sympy():
    # toral's exports load on first access, so plain imports skip sympy
    code = ("import sys, shiftcode\n"
            "assert 'sympy' not in sys.modules\n"
            "assert 'mpmath' not in sys.modules\n"
            "from shiftcode import classify\n"
            "assert classify([[2, 1], [1, 1]]) == 'hyperbolic'\n"
            "assert 'sympy' in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
