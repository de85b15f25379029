"""Exact integer-arithmetic companion: quasi-hyperbolicity, entropy,
spectral classification of unimodular integer matrices, invariant-lattice
splitting, and the cyclotomic-rotation solvability invariant.

Unit-circle decisions never rest on floating-point moduli: a root of an
integer polynomial lies on the circle iff it divides the self-reciprocal
part, and the circle-root count of a self-reciprocal irreducible factor
is the number of real roots of its z + 1/z transform inside (-2, 2),
counted by Sturm sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath
import sympy
from sympy import Matrix, Poly, ZZ, symbols
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.specialpolys import cyclotomic_poly

from .errors import CertificationError, InseparableError

_X = symbols("x")


def _to_poly(coeffs) -> Poly:
    """Coefficient list, constant term first, to a sympy Poly over ZZ."""
    if isinstance(coeffs, Poly):
        return coeffs
    return Poly(list(reversed([int(c) for c in coeffs])), _X, domain=ZZ)


def poly_coeffs(p: Poly):
    """Constant-first integer coefficient list of a sympy Poly."""
    return [int(c) for c in reversed(p.all_coeffs())]


def check_unimodular(matrix) -> Matrix:
    a = Matrix(matrix)
    if a.rows != a.cols:
        raise ValueError("matrix must be square")
    d = a.det()
    if d not in (1, -1):
        raise ValueError(f"determinant must be +-1, got {d}")
    return a


@dataclass
class CyclotomicSplit:
    """f = g h with g the product of all cyclotomic factors (with
    multiplicity) and h free of roots of unity."""

    g: Poly
    h: Poly
    certificate: list = field(default_factory=list)   # (n, Phi_n, multiplicity)
    gcd_gh: Poly | None = None

    @property
    def has_cyclotomic_part(self) -> bool:
        return self.g.degree() > 0


def _totient_bound_orders(max_deg: int):
    """All n with euler_phi(n) <= max_deg."""
    out = []
    n = 1
    # phi(n) >= sqrt(n/2), so n <= 2 (max_deg)^2 suffices
    while n <= 2 * max_deg * max_deg + 1:
        if sympy.totient(n) <= max_deg:
            out.append(n)
        n += 1
    return out


def cyclotomic_split(f) -> CyclotomicSplit:
    """Divide out every cyclotomic factor of f to full multiplicity."""
    f = _to_poly(f)
    if f.degree() < 1:
        raise ValueError("polynomial must have degree >= 1")
    h = f
    g = Poly(1, _X, domain=ZZ)
    certificate = []
    for n in _totient_bound_orders(f.degree()):
        phi = Poly(cyclotomic_poly(n, _X), _X, domain=ZZ)
        if phi.degree() > h.degree():
            continue
        mult = 0
        while h.degree() >= phi.degree():
            q, rem = h.div(phi)
            if not rem.is_zero:
                break
            h = q
            mult += 1
        if mult:
            g = g * phi ** mult
            certificate.append((n, poly_coeffs(phi), mult))
    assert (g * h - f).is_zero, "split does not multiply back"
    # re-verify: the cofactor has no cyclotomic factor left
    for n in _totient_bound_orders(max(h.degree(), 1)):
        phi = Poly(cyclotomic_poly(n, _X), _X, domain=ZZ)
        if h.degree() >= phi.degree() and h.div(phi)[1].is_zero:
            raise AssertionError("cofactor retained a cyclotomic factor")
    return CyclotomicSplit(g, h, certificate, gcd_gh=g.gcd(h))


def is_quasi_hyperbolic(matrix) -> bool:
    """True iff no eigenvalue is a root of unity."""
    a = check_unimodular(matrix)
    f = a.charpoly(_X)
    return not cyclotomic_split(Poly(f.as_expr(), _X, domain=ZZ)).has_cyclotomic_part


def _is_self_reciprocal(p: Poly) -> int:
    """+1 / -1 when x^d p(1/x) = +-p, else 0."""
    c = p.all_coeffs()
    if c == c[::-1]:
        return 1
    if c == [-v for v in c[::-1]]:
        return -1
    return 0


def _circle_root_count(p: Poly) -> int:
    """Exact number of unit-circle roots of an irreducible non-cyclotomic
    integer polynomial, via the z + 1/z = t substitution."""
    sign = _is_self_reciprocal(p)
    if sign == 0:
        return 0
    d = p.degree()
    if d % 2 == 1:
        # odd self-reciprocal has the root -1 or +1, hence cyclotomic: not here
        return 0
    if sign == -1:
        return 0   # antisymmetric implies roots at +-1, cyclotomic factors
    # write p(z) / z^(d/2) = q(z + 1/z) using v_k(t) = z^k + z^-k
    half = d // 2
    coeffs = list(reversed(p.all_coeffs()))   # constant first
    t = symbols("t")
    v = [sympy.Integer(2), t]
    for k in range(2, half + 1):
        v.append(sympy.expand(t * v[k - 1] - v[k - 2]))
    expr = sympy.Integer(coeffs[half])
    for k in range(1, half + 1):
        # coefficients pair up: c_{half+k} = c_{half-k} by symmetry
        expr += coeffs[half + k] * v[k]
    q = Poly(sympy.expand(expr), t, domain=ZZ)
    return 2 * q.count_roots(-2, 2)


def _entropy_of_factor(p: Poly, tol: float) -> tuple[float, int]:
    """(sum of log moduli of roots outside the unit circle, number of
    roots on the circle) for an irreducible non-cyclotomic factor."""
    on_circle = _circle_root_count(p)
    d = p.degree()
    if d == on_circle:
        return 0.0, on_circle
    coeffs = [int(c) for c in p.all_coeffs()]
    prec = 60
    last = None
    while prec <= 1000:
        with mpmath.workdps(prec):
            roots = mpmath.polyroots([mpmath.mpf(c) for c in coeffs],
                                     maxsteps=200, extraprec=prec)
            moduli = sorted(abs(r) for r in roots)
            margin = mpmath.mpf(10) ** (-prec // 3)
            near = sum(1 for m in moduli if abs(m - 1) <= margin)
            if near == on_circle:
                total = math.fsum(float(mpmath.log(m)) for m in moduli
                                  if m - 1 > margin)
                if last is not None and abs(total - last) <= tol / 10:
                    return total, on_circle
                last = total
        prec *= 2
    raise CertificationError(
        f"could not certify root moduli of {coeffs} at tolerance {tol}; "
        "try a smaller tol")


def toral_entropy(matrix, tol: float = 1e-10) -> float:
    """Sum of log |eigenvalue| over eigenvalues of modulus at least 1.

    Exact-circle detection plus high-precision root finding per
    irreducible factor; unit-circle roots contribute zero.
    """
    a = check_unimodular(matrix)
    f = Poly(a.charpoly(_X).as_expr(), _X, domain=ZZ)
    total = 0.0
    for factor, mult in f.factor_list()[1]:
        if cyclotomic_split(factor).has_cyclotomic_part:
            continue   # cyclotomic: all roots on the circle
        ent, _ = _entropy_of_factor(factor, tol)
        total += mult * ent
    return total


def classify(matrix) -> str:
    """One of not-quasi-hyperbolic | hyperbolic | central-spin | central-skew.

    Among quasi-hyperbolic matrices with unit-circle spectrum, the action
    is central spin iff the circle part is semisimple: for every
    irreducible factor p with circle roots, nullity(p(A)) equals
    multiplicity(p) * deg(p).
    """
    a = check_unimodular(matrix)
    f = Poly(a.charpoly(_X).as_expr(), _X, domain=ZZ)
    factors = f.factor_list()[1]
    if any(cyclotomic_split(p).has_cyclotomic_part for p, _ in factors):
        return "not-quasi-hyperbolic"
    circle_factors = [(p, m) for p, m in factors if _circle_root_count(p) > 0]
    if not circle_factors:
        return "hyperbolic"
    for p, m in circle_factors:
        pa = _eval_poly_at_matrix(p, a)
        nullity = pa.cols - pa.rank()
        if nullity != m * p.degree():
            return "central-skew"
    return "central-spin"


def _eval_poly_at_matrix(p: Poly, a: Matrix) -> Matrix:
    coeffs = p.all_coeffs()   # leading first
    out = sympy.zeros(a.rows, a.rows)
    for c in coeffs:
        out = out * a + sympy.Integer(c) * sympy.eye(a.rows)
    return out


@dataclass
class SplitAction:
    """Invariant-lattice splitting A ~ A_q x A_o up to finite index."""

    quasi_hyperbolic: Matrix     # restriction to the root-of-unity-free part
    zero_entropy: Matrix         # restriction to the cyclotomic part
    basis: Matrix                # columns: lattice basis (q part then o part)
    index: int                   # index of the sublattice sum in Z^d

    def dimensions(self):
        return self.quasi_hyperbolic.rows, self.zero_entropy.rows


def _integer_kernel_basis(m: Matrix) -> Matrix:
    """Columns form a basis of ker(m) intersect Z^d.

    The integer kernel of an integer matrix is automatically saturated;
    the columns of the diagonalizing V that meet zero diagonal entries
    give a lattice basis of it.
    """
    s, v = _diagonalize_with_col_transform(m)
    cols = [j for j in range(s.cols) if j >= s.rows or s[j, j] == 0]
    basis = v[:, cols]
    assert (m * basis).is_zero_matrix
    return basis


def _diagonalize_with_col_transform(m: Matrix):
    """(S, V) with S = U m V diagonal over Z and U, V unimodular.

    S need not satisfy the Smith divisibility chain; only the zero/nonzero
    diagonal pattern matters for kernel extraction.
    """
    s = Matrix(m)
    rows, cols = s.rows, s.cols
    v = sympy.eye(cols)

    def min_pivot(k):
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                if s[i, j] != 0 and (best is None
                                     or abs(s[i, j]) < abs(s[best[0], best[1]])):
                    best = (i, j)
        return best

    k = 0
    while k < min(rows, cols):
        piv = min_pivot(k)
        if piv is None:
            break
        i, j = piv
        if i != k:
            s.row_swap(i, k)
        if j != k:
            s.col_swap(j, k)
            v.col_swap(j, k)
        dirty = False
        for i in range(k + 1, rows):
            q = s[i, k] // s[k, k]
            if q != 0:
                s.row_op(i, lambda x, c, q=q: x - q * s[k, c])
            if s[i, k] != 0:
                dirty = True
        for j in range(k + 1, cols):
            q = s[k, j] // s[k, k]
            if q != 0:
                s.col_op(j, lambda x, r, q=q: x - q * s[r, k])
                v.col_op(j, lambda x, r, q=q: x - q * v[r, k])
            if s[k, j] != 0:
                dirty = True
        if dirty:
            continue   # smaller remainders exist; re-pivot this corner
        k += 1
    return s, v


def split_action(matrix, factors=None) -> SplitAction:
    """Split the torus action along a coprime factorization f = g h of its
    characteristic polynomial (default: cyclotomic part vs the rest).

    Returns the restrictions to the saturated invariant sublattices
    ker g(A) and ker h(A) and the index of their sum in Z^d.
    """
    a = check_unimodular(matrix)
    f = Poly(a.charpoly(_X).as_expr(), _X, domain=ZZ)
    if factors is None:
        split = cyclotomic_split(f)
        g, h = split.g, split.h
    else:
        g, h = _to_poly(factors[0]), _to_poly(factors[1])
        if not (g * h - f).is_zero:
            raise ValueError("provided factors do not multiply to charpoly")
    if g.degree() == 0 or h.degree() == 0:
        zero_dim = sympy.zeros(0, 0)
        if g.degree() == 0:
            return SplitAction(a, zero_dim, sympy.eye(a.rows), 1)
        return SplitAction(zero_dim, a, sympy.eye(a.rows), 1)
    if g.gcd(h).degree() != 0:
        raise InseparableError(
            f"factors share gcd {poly_coeffs(g.gcd(h))}: the action does "
            "not split along them")
    basis_o = _integer_kernel_basis(_eval_poly_at_matrix(g, a))
    basis_q = _integer_kernel_basis(_eval_poly_at_matrix(h, a))
    a_o = _restriction(a, basis_o)
    a_q = _restriction(a, basis_q)
    joint = basis_q.row_join(basis_o)
    index = abs(joint.det())
    return SplitAction(a_q, a_o, joint, int(index))


def _restriction(a: Matrix, basis: Matrix) -> Matrix:
    """X with A basis = basis X; integral because the lattice is saturated
    and A-invariant."""
    if basis.cols == 0:
        return sympy.zeros(0, 0)
    sol = basis.solve(a * basis) if basis.rows == basis.cols else \
        (basis.T * basis).solve(basis.T * (a * basis))
    x = sympy.Matrix(sol)
    assert all(e == int(e) for e in x), "restriction is not integral"
    return x.applyfunc(sympy.Integer)


# ---------------------------------------------------------------------------
# the rotation-solvability invariant


def _circulant_for(n: int, m: int) -> Matrix:
    """Integer matrix of f -> sum_k a_k f(. + k) on Z/m, for Phi_n."""
    coeffs = poly_coeffs(Poly(cyclotomic_poly(n, _X), _X, domain=ZZ))
    c = sympy.zeros(m, m)
    for x in range(m):
        for k, ak in enumerate(coeffs):
            if ak:
                c[x, (x + k) % m] += ak
    return c


def halmos_membership(n: int, m: int) -> bool:
    """Does a non-constant f: Z/m -> R/Z solve Phi_n(shift)[f] = 0?

    The solution group {f in T^m : C f in Z^m} is computed through the
    Smith normal form of the circulant C; membership holds iff it strictly
    exceeds its subgroup of constant solutions.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    c = _circulant_for(n, m)
    snf = smith_normal_form(c, domain=ZZ)
    diag = [int(snf[i, i]) for i in range(m)]
    nullity = sum(1 for d in diag if d == 0)
    torsion = [d for d in diag if d > 1]
    phi_at_1 = int(sum(poly_coeffs(Poly(cyclotomic_poly(n, _X), _X, domain=ZZ))))
    # constants: {c : Phi_n(1) c in Z}, a cyclic group of order |Phi_n(1)|,
    # or the full circle when Phi_n(1) = 0 (only n = 1)
    if nullity == 0:
        order = 1
        for d in torsion:
            order *= d
        return order > abs(phi_at_1)
    if phi_at_1 != 0:
        return True      # solution group has positive dimension, constants finite
    # n = 1: solutions and constants are both one circle; compare components
    return nullity >= 2 or len(torsion) > 0
