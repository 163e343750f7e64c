"""Tests for the exact cyclotomic arithmetic core."""

import cmath
import math
import operator
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from icosacurves import exactfield
from icosacurves.errors import DivisionByZero, FactoringExhausted
from icosacurves.exactfield import (
    CycloElement,
    CyclotomicField,
    I_UNIT,
    OMEGA,
    QuadraticElement,
    SQRT3,
    SQRT5,
    THETA,
    cyclo_sqrt,
    cyclotomic_field,
    rational_square_root,
    squarefree_part,
    to_ambient,
    to_subfield,
    _galois,
    _tower,
)
from icosacurves.fixtures import load_fixtures
from icosacurves.icosa import build_icosahedral_group
from icosacurves.invariants import _vector_field_element
from icosacurves.polyring import Poly, _inv, clear_denominators

SRC = Path(__file__).resolve().parent.parent / "src"

_zeta60 = cyclotomic_field(60).zeta


def AlgebraicNumber(coeffs=()):
    """The element of the ambient field Q(zeta60) with the given power-basis
    coefficients."""
    return cyclotomic_field(60).element(coeffs)

ZETA = _zeta60(1)
EPSILON5 = _zeta60(12)  # primitive 5th root, smallest positive argument
EPSILON3 = _zeta60(40)  # primitive cube root, negative imaginary part

# the pinned square roots of the square classes of the ambient field:
# positive real for positive D, positive imaginary for negative D
SQRT15 = SQRT3 * SQRT5
PINNED_ROOTS = {5: SQRT5, 3: SQRT3, 15: SQRT15, -1: I_UNIT,
                -3: I_UNIT * SQRT3, -5: I_UNIT * SQRT5, -15: I_UNIT * SQRT15}


def brute_cyclotomic(n):
    """Independent oracle: divide x^n - 1 by the product over proper divisors."""
    num = [-1] + [0] * (n - 1) + [1]
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            phi_d = brute_cyclotomic(d)
            out = [0] * (len(den) + len(phi_d) - 1)
            for i, a in enumerate(den):
                for j, b in enumerate(phi_d):
                    out[i + j] += a * b
            den = out
    # exact polynomial division of num by den
    q = [0] * (len(num) - len(den) + 1)
    rem = list(num)
    dn = len(den) - 1
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + dn] // den[dn]
        q[k] = c
        for j in range(dn + 1):
            rem[k + j] -= c * den[j]
    assert not any(rem)
    return q


def test_cyclotomic_polynomial_order_60():
    # x^16 + x^14 - x^10 - x^8 - x^6 + x^2 + 1
    expected = [1, 0, 1, 0, 0, 0, -1, 0, -1, 0, -1, 0, 0, 0, 1, 0, 1]
    assert list(cyclotomic_field(60).modulus) == expected
    assert brute_cyclotomic(60) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 12, 15, 20, 30, 60])
def test_cyclotomic_polynomial_matches_oracle(n):
    assert list(cyclotomic_field(n).modulus) == brute_cyclotomic(n)


def totient(n):
    """Oracle: the number of units mod n."""
    return sum(math.gcd(k, n) == 1 for k in range(1, n + 1))


def test_cyclotomic_field_degree_is_the_totient():
    assert [cyclotomic_field(n).degree for n in range(1, 61)] == [
        totient(n) for n in range(1, 61)]


def test_zeta_order():
    f = cyclotomic_field(60)
    z = f.zeta(1)
    assert z ** 60 == 1
    assert z * f.zeta(59) == 1
    for k in (1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30):
        assert z ** k != 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 12, 60])
def test_zeta_has_order_n_and_galois_permutes_its_powers(n):
    # a linear Phi_n has no x term on its basis: zeta_1 = 1, zeta_2 = -1
    f = cyclotomic_field(n)
    z = f.zeta()
    assert z ** n == 1
    assert all(z ** k != 1 for k in range(1, n))
    assert all(f.zeta(k) == z ** k for k in range(-n, 2 * n))
    for k in (u for u in range(1, n + 1) if math.gcd(u, n) == 1):
        for j in range(f.degree):
            assert f.galois(f.zeta(j).ints, k) == f.zeta(j * k).ints
    assert f.galois((3,) + (0,) * (f.degree - 1), 1) == f.element([3]).ints


def test_fifth_root_constant():
    assert EPSILON5 ** 5 == 1
    assert EPSILON5 != 1
    assert EPSILON5 ** 2 != 1


def test_cube_root_constant():
    assert EPSILON3 ** 3 == 1
    assert EPSILON3 != 1
    # the pinned cube root has negative imaginary part: 2*e3 + 1 = -(i*sqrt3)
    assert EPSILON3 * 2 + 1 == -PINNED_ROOTS[-3]


def test_golden_section_relation():
    # omega satisfies w^2 + w - 1 = 0
    assert OMEGA * OMEGA + OMEGA - 1 == 0
    assert SQRT5 * SQRT5 == 5
    assert THETA * THETA == -3 - OMEGA


def test_i_unit():
    assert I_UNIT * I_UNIT == -1
    assert SQRT15 == SQRT3 * SQRT5
    for d, r in PINNED_ROOTS.items():
        assert r * r == d


def test_pinned_roots_numerically():
    # float cross-check of the sign conventions only; all identities above are exact
    z = cmath.exp(2j * cmath.pi / 60)

    def val(x):
        return sum(complex(c) * z ** k for k, c in enumerate(x.coeffs))

    assert abs(val(SQRT5) - math.sqrt(5)) < 1e-9
    assert abs(val(SQRT3) - math.sqrt(3)) < 1e-9
    assert abs(val(SQRT15) - math.sqrt(15)) < 1e-9
    for d in (-1, -3, -5, -15):
        v = val(PINNED_ROOTS[d])
        assert abs(v - 1j * math.sqrt(-d)) < 1e-9


def test_inverse_round_trip():
    x = ZETA * 3 - OMEGA + Fraction(7, 2)
    assert x * x.inverse() == 1
    with pytest.raises(DivisionByZero):
        AlgebraicNumber().inverse()


def inverse_mod(p, m):
    """Oracle: the inverse of p modulo m, of degree below m's, by the
    extended Euclidean algorithm; None when p and m share a nonconstant
    factor."""
    r0, r1 = m, p % m
    s0, s1 = Poly(), Poly([1])
    while r1:
        quo, rem = divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - quo * s1
    if r0.degree != 0:
        return None
    return s0 * _inv(r0.coeffs[0])


rational_poly = st.lists(st.builds(Fraction, st.integers(-4, 4),
                                   st.integers(1, 3)),
                         min_size=1, max_size=5).map(Poly)


@settings(max_examples=60, deadline=None)
@given(p=rational_poly, m=rational_poly, factor=rational_poly)
def test_inverse_mod(p, m, factor):
    assume(m.degree >= 1 and p)
    inv = inverse_mod(p, m)
    if p.gcd(m).degree == 0:
        assert inv is not None and inv.degree < m.degree
        assert (p * inv) % m == Poly([1])
    else:
        assert inv is None
    if factor.degree >= 1:
        assert inverse_mod(p * factor, m * factor) is None


def euclid_inverse(x):
    """Oracle: (ints, den) of 1/x from den times the inverse of ints modulo
    the cyclotomic polynomial, by the extended Euclidean algorithm."""
    inv = inverse_mod(Poly(x.ints), Poly(x.field.modulus))
    values = [c * x.den for c in inv.coeffs]
    values += [Fraction(0)] * (x.field.degree - len(values))
    ints, den = clear_denominators(values)
    return tuple(ints), den


@pytest.mark.parametrize("n", [3, 4, 5, 7, 8, 9, 12, 15, 20, 21, 60])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_inverse_by_the_norm_matches_the_euclid_oracle(n, data):
    field = cyclotomic_field(n)
    ints = data.draw(st.lists(st.integers(-40, 40), min_size=field.degree,
                              max_size=field.degree))
    x = field.from_ints(tuple(ints), data.draw(st.integers(1, 12)))
    if not x:
        with pytest.raises(DivisionByZero):
            x.inverse()
        return
    y = x.inverse()
    assert (y.ints, y.den) == euclid_inverse(x)
    assert y.den > 0 and math.gcd(y.den, *y.ints) == 1
    assert len(y.ints) == field.degree and x * y == 1


def test_a_zero_divisor_of_a_quadratic_tower_has_no_inverse():
    # sqrt5 - sqrt5' in Q(sqrt5)(sqrt5), a ring with zero divisors
    x = exactfield._quadratic_field((5, 5)).from_ints((0, 1, -1, 0))
    assert x
    with pytest.raises(DivisionByZero):
        x.inverse()


def test_a_power_forms_no_square_past_the_last_bit():
    class Counting(CyclotomicField):
        products = 0

        def mul(self, a, b):
            Counting.products += 1
            return super().mul(a, b)

    x = Counting(5).element([1, 2])
    assert x ** 5 == x * x * x * x * x
    Counting.products = 0
    x ** 5
    # 1 * x, x^2, x^4 and x * x^4; no x^8
    assert Counting.products == 4


coeff_strategy = st.integers(min_value=-9, max_value=9)
element_strategy = st.builds(
    lambda cs: AlgebraicNumber(cs), st.lists(coeff_strategy, min_size=16, max_size=16)
)


@settings(max_examples=40, deadline=None)
@given(element_strategy, element_strategy, element_strategy)
def test_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a - a == 0


@settings(max_examples=25, deadline=None)
@given(element_strategy)
def test_inverse_of_nonzero(a):
    if a:
        assert a * a.inverse() == 1


def schoolbook_product(n, a, b):
    """Oracle: Fraction convolution, then long division by the monic Phi_n."""
    mod = list(cyclotomic_field(n).modulus)
    d = len(mod) - 1
    conv = [Fraction(0)] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    for k in range(len(conv) - 1, d - 1, -1):
        c = conv[k]
        for j in range(d + 1):
            conv[k - d + j] -= c * mod[j]
    return tuple(conv[:d])


fraction_strategy = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@pytest.mark.parametrize("n", [5, 15, 60])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_cyclo_mul_matches_schoolbook(n, data):
    field = cyclotomic_field(n)
    vec = st.lists(fraction_strategy, min_size=field.degree,
                   max_size=field.degree)
    a, b = data.draw(vec), data.draw(vec)
    scalar = data.draw(fraction_strategy)
    x, y = field.element(a), field.element(b)
    prod = x * y
    assert prod.coeffs == schoolbook_product(n, a, b)
    assert all(type(c) is Fraction for c in prod.coeffs)
    assert (x * scalar).coeffs == tuple(c * scalar for c in a)
    assert (scalar * x).coeffs == (x * scalar).coeffs


def test_ambient_product_keeps_its_type():
    prod = AlgebraicNumber([Fraction(1, 2), 3]) * ZETA
    assert type(prod) is CycloElement
    assert prod == ZETA * Fraction(1, 2) + ZETA * ZETA * 3


def test_the_ambient_field_has_one_element_type():
    amb = cyclotomic_field(60)
    z, a = amb.zeta(7), amb.from_ints((1, 2) + (0,) * 14, 3)
    for x in (z, a, amb.element([1, 2]), amb.one(), AlgebraicNumber([5])):
        assert type(x) is CycloElement and x.field is amb
    assert type(z * a) is type(a * z) is CycloElement
    assert type(z + a) is type(a - z) is CycloElement
    # the ambient field embeds as itself, a subfield through its images
    assert to_ambient(z) == z
    assert to_ambient(cyclotomic_field(5).zeta()) == _zeta60(12)
    # a list of zeta powers and from_ints values takes the vector kernel
    assert _vector_field_element([a, z, 1, z * a]) is a
    assert type(cyclotomic_field(5).zeta()) is CycloElement


def test_subfield_round_trip():
    f5 = cyclotomic_field(5)
    x = f5.element([1, 2, 0, 5])
    amb = to_ambient(x)
    back = to_subfield(amb, 5)
    assert back == x
    assert to_subfield(ZETA, 5) is None
    assert to_subfield(ZETA, 4) is None
    assert to_subfield(to_ambient(f5.zeta(1)), 5) == f5.zeta(1)
    for n in (1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60):
        f = cyclotomic_field(n)
        for y in (f.zero(), f.element([Fraction(k + 1, 7) - k
                                       for k in range(f.degree)])):
            assert to_subfield(to_ambient(y), n) == y
        # zeta60 generates the ambient field; zeta60^(60/n) lies in Q(zeta_n)
        if n < 60:
            assert to_subfield(ZETA, n) is None
            assert to_subfield(ZETA + _zeta60(60 // n), n) is None
    with pytest.raises(ValueError):
        to_subfield(ZETA, 7)


def test_two_cyclotomic_orders_meet_only_on_equal_rationals():
    three60, three5 = (cyclotomic_field(n).element([3]) for n in (60, 5))
    assert three60 in {three5} and three5 in {three60}
    assert three60 == three5 and hash(three60) == hash(three5)
    assert three60 != cyclotomic_field(5).element([4])
    # zeta5 and zeta60^12 are values of two fields; to_ambient lifts one
    zeta5 = cyclotomic_field(5).zeta()
    assert zeta5 != _zeta60(12) and (_zeta60(12) == zeta5) is False
    assert to_ambient(zeta5) == _zeta60(12)
    with pytest.raises(ValueError, match="mixed cyclotomic fields"):
        three60 + three5


def test_cyclo_sqrt_known_values():
    assert cyclo_sqrt(AlgebraicNumber([4])) == 2
    assert cyclo_sqrt(AlgebraicNumber([5])) in (SQRT5, -SQRT5)
    root15 = PINNED_ROOTS[-15]
    assert cyclo_sqrt(AlgebraicNumber([-15])) in (root15, -root15)
    r = cyclo_sqrt(-3 - OMEGA)
    assert r is not None and r * r == -3 - OMEGA
    assert r in (THETA, -THETA)


def test_cyclo_sqrt_nonsquares():
    # a 60th root of unity has no square root of order dividing 60
    assert cyclo_sqrt(ZETA) is None
    assert cyclo_sqrt(AlgebraicNumber([2])) is None
    assert cyclo_sqrt(AlgebraicNumber([7])) is None
    assert cyclo_sqrt(AlgebraicNumber([-2])) is None


def test_cyclo_sqrt_zero():
    assert cyclo_sqrt(AlgebraicNumber()) == 0


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=16, max_size=16))
def test_cyclo_sqrt_round_trip(cs):
    x = AlgebraicNumber(cs)
    sq = x * x
    r = cyclo_sqrt(sq)
    assert r is not None
    assert r * r == sq


def test_each_level_automorphism_negates_its_generator_only():
    gens = [g for _, g, _, _ in _tower()]
    for level, (k, gen, square, inv) in enumerate(_tower()):
        assert _galois(gen, k) == -gen
        assert square == gen * gen and gen * inv == 1
        for below in gens[:level]:
            assert _galois(below, k) == below
    # a field automorphism: it respects products and fixes the rationals
    x, y = ZETA * 3 - OMEGA + Fraction(7, 2), ZETA ** 7 + I_UNIT
    for k, _, _, _ in _tower():
        assert _galois(x * y, k) == _galois(x, k) * _galois(y, k)
        assert _galois(AlgebraicNumber([Fraction(5, 3)]), k) == Fraction(5, 3)


def tower_element(level, coeffs):
    """sum over the subsets S of the first `level` tower generators of a
    coefficient times the product of S: an element of that level."""
    gens = [g for _, g, _, _ in _tower()][:level]
    acc = AlgebraicNumber()
    for mask, c in enumerate(coeffs[:1 << level]):
        acc = acc + math.prod((g for b, g in enumerate(gens) if mask >> b & 1),
                              start=AlgebraicNumber([c]))
    return acc


@pytest.mark.parametrize("level", range(5))
@settings(max_examples=12, deadline=None)
@given(coeffs=st.lists(fraction_strategy, min_size=16, max_size=16))
def test_cyclo_sqrt_round_trip_at_every_tower_level(level, coeffs):
    # Q, Q(sqrt5), Q(zeta5), Q(zeta20) and the ambient field: squares from
    # the lower levels run the descent's b = 0 branches
    x = tower_element(level, coeffs)
    r = cyclo_sqrt(x * x)
    assert r is not None and r * r == x * x
    assert r in (x, -x)


def test_cyclo_sqrt_pins_the_root_of_the_order_three_discriminant():
    # the conjugating map sigma of the x3 decomposition comes from this root
    gamma = next(g for g in build_icosahedral_group().elements
                 if g.order() == 3)
    a, b, c, d = gamma.a, gamma.b, gamma.c, gamma.d
    disc = (d - a) * (d - a) + b * c * 4
    assert cyclo_sqrt(disc) == 1 - ZETA ** 4 - 2 * ZETA ** 10 - ZETA ** 14


def test_level_table_is_built_on_first_use():
    code = ("import icosacurves.exactfield as e\n"
            "assert e._tower.cache_info().currsize == 0\n"
            "e.cyclo_sqrt(e.cyclotomic_field(60).element([5]))\n"
            "assert e._tower.cache_info().currsize == 1\n")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": str(SRC)})


def test_quadratic_element_arithmetic():
    x = QuadraticElement(1, 2, 5)
    y = QuadraticElement(3, -1, 5)
    assert x + y == QuadraticElement(4, 1, 5)
    assert x * y == QuadraticElement(3 - 10, 6 - 1, 5)
    assert (x / y) * y == x
    assert x * x.inverse() == 1
    assert x ** 3 == x * x * x
    with pytest.raises(DivisionByZero):
        QuadraticElement(0, 0, 5).inverse()
    with pytest.raises(ValueError):
        x + QuadraticElement(1, 1, 3)


@pytest.mark.parametrize("D", [4, 9, 25, 0, 1, 36, 10 ** 6])
def test_quadratic_element_rejects_a_square_d(D):
    with pytest.raises(ValueError, match="nonsquare"):
        QuadraticElement(0, 1, D)


def test_quadratic_element_reduces_d_to_its_squarefree_class():
    root12 = QuadraticElement(0, 1, 12)
    assert (root12.a, root12.b, root12.D) == (0, 2, 3)
    assert root12 == 2 * QuadraticElement(0, 1, 3)
    assert hash(root12) == hash(2 * QuadraticElement(0, 1, 3))
    assert root12 * root12 == 12
    assert QuadraticElement(1, 1, -4) == QuadraticElement(1, 2, -1)
    assert QuadraticElement(Fraction(1, 3), 1, 45) == QuadraticElement(
        Fraction(1, 3), 3, 5)
    # a class outside the ambient field, with a large square factor
    p = 10 ** 9 + 7
    big = QuadraticElement(1, 1, 7 * p * p)
    assert big.D == 7 and big == QuadraticElement(1, p, 7)
    # a tower over a reduced inner class, with a reduced outer D
    tower = QuadraticElement(QuadraticElement(1, 1, 20), 1, -9)
    assert tower.D == -1 and tower.b == 3
    assert tower.a == QuadraticElement(1, 2, 5) and tower.a.D == 5
    assert tower == QuadraticElement(QuadraticElement(1, 2, 5), 3, -1)


def test_distinct_square_classes_compare_unequal_but_do_not_mix():
    root5, root3 = QuadraticElement(0, 1, 5), QuadraticElement(0, 1, 3)
    assert root5 != root3 and not root5 == root3
    assert QuadraticElement(2, 1, 5) != QuadraticElement(2, 1, -1)
    # rationals in two classes are one rational
    assert QuadraticElement(3, 0, 5) == QuadraticElement(3, 0, -1)
    assert QuadraticElement(3, 0, 5) != QuadraticElement(2, 0, -1)
    assert QuadraticElement(3, 1, 5) != QuadraticElement(3, 0, -1)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(ValueError, match="mixed quadratic fields"):
            op(root5, root3)


def test_values_of_two_quadratic_fields_compare_by_their_basis_terms():
    # == agrees with the hash across fields and levels, and never raises
    root5 = QuadraticElement(0, 1, 5)
    lifted = QuadraticElement(root5, 0, -1)
    assert root5 == lifted and lifted == root5
    assert lifted in {root5} and root5 in {lifted}
    # the same Gaussian value in the towers over sqrt(2) and sqrt(3)
    g2 = QuadraticElement(QuadraticElement(1, 0, 2), 3, -1)
    g3 = QuadraticElement(QuadraticElement(1, 0, 3), 3, -1)
    assert g2 == g3 and hash(g2) == hash(g3) and len({g2, g3}) == 1
    r2 = QuadraticElement(QuadraticElement(0, 1, 2), 0, -1)
    r3 = QuadraticElement(QuadraticElement(0, 1, 3), 0, -1)
    assert r2 != r3 and not r2 == r3
    # i sqrt(5) in Q(sqrt(5))(i) and in Q(i)(sqrt(5))
    assert QuadraticElement(0, root5, -1) == QuadraticElement(
        0, QuadraticElement(0, 1, -1), 5)
    with pytest.raises(ValueError, match="mixed quadratic fields"):
        g2 + g3


@pytest.mark.parametrize("d,D,r,k", [
    (-2, -1, 2, -1),  # sqrt(-2)*i = -sqrt(2): two imaginary roots
    (2, -1, -2, 1),   # sqrt(2)*i = sqrt(-2)
    (5, -1, -5, 1),
    (2, 6, 3, 2),     # sqrt(2)*sqrt(6) = 2*sqrt(3)
    (-2, -6, 3, -2),
    (-3, 6, -2, 3),
    (5, -5, -1, 5),   # sqrt(5)*sqrt(-5) = 5i
])
def test_a_tower_product_term_is_named_by_its_squarefree_radicand(d, D, r,
                                                                   k):
    # sqrt(d)*sqrt(D) in the tower Q(sqrt(d))(sqrt(D)) is k*sqrt(r) in the
    # field of the squarefree r, with the principal roots sqrt(-n) =
    # i*sqrt(n): == and the hash agree across the two fields
    term = QuadraticElement(0, QuadraticElement(0, 1, d), D)
    assert term * term == k * k * r == d * D
    plain = QuadraticElement(0, k, r)
    assert term == plain and plain == term and hash(term) == hash(plain)
    assert len({term, plain}) == 1 and term != -plain
    # over a denominator, the multiplier k cancels against it
    over_k = QuadraticElement(0, QuadraticElement(0, Fraction(1, k), d), D)
    assert over_k == QuadraticElement(0, 1, r)
    assert hash(over_k) == hash(QuadraticElement(0, 1, r))
    with pytest.raises(ValueError, match="mixed quadratic fields"):
        term + plain


def test_towers_over_two_imaginary_classes_compare_term_by_term():
    # 1 + sqrt(-2) + sqrt(-2)*i in Q(sqrt(-2))(i) is 1 + sqrt(-2) - sqrt(2),
    # which Q(i)(sqrt(-2)) writes as 1 + (1 + i)*sqrt(-2)
    i = QuadraticElement(0, 1, -1)
    x = QuadraticElement(QuadraticElement(1, 1, -2),
                         QuadraticElement(0, 1, -2), -1)
    y = QuadraticElement(QuadraticElement(1, 0, -1), i + 1, -2)
    assert x == y and hash(x) == hash(y)
    assert x != QuadraticElement(QuadraticElement(1, 0, -1), 1 - i, -2)


def test_a_class_from_squarefree_part_is_not_factored_again(monkeypatch):
    # classes squarefree_part returned: the case-1 collision class and -1
    d, minus_one = squarefree_part(FIBER_D * 49), squarefree_part(-4)
    assert (d, minus_one) == (FIBER_D, -1)

    def refuse(n, max_b1):
        raise AssertionError("factored again")

    monkeypatch.setattr(exactfield, "_factor_bounded", refuse)
    x = QuadraticElement(1, 1, d)
    tower = QuadraticElement(x, x + 1, minus_one)
    assert x.D == d and tower.a == x and tower.b.D == d
    assert QuadraticElement(x.a, -x.b, x.D) == x.conjugate()


def test_a_quadratic_value_has_no_ambient_image():
    # not even in a square class whose root the ambient field holds
    for x in (QuadraticElement(1, 1, 7), QuadraticElement(1, 1, -1),
              QuadraticElement(QuadraticElement(0, 1, 5), 1, -1)):
        for call in (to_ambient, cyclo_sqrt):
            with pytest.raises(TypeError):
                call(x)
    x = QuadraticElement(1, 1, 7)
    assert len({x, QuadraticElement(1, 1, 7)}) == 1
    with pytest.raises(TypeError):
        to_ambient(Poly([1, 2]))


def test_an_element_outside_the_ambient_field_is_unequal_to_every_one_in_it():
    x = QuadraticElement(1, 1, 7)
    assert (ZETA == x) is False and (x == ZETA) is False
    assert ZETA != x and x != ZETA
    with pytest.raises(ValueError):
        ZETA + x


@pytest.mark.parametrize("inner, D", [(5, 5), (5, 20), (-1, -4)])
def test_a_tower_over_its_own_square_class_is_rejected(inner, D):
    # in Q(sqrt5)(sqrt5'), (sqrt5 - sqrt5') * (sqrt5 + sqrt5') = 0: no field
    with pytest.raises(ValueError, match="own square class"):
        QuadraticElement(QuadraticElement(0, 1, inner), -1, D)


def test_quadratic_element_matches_ambient():
    x = QuadraticElement(Fraction(1, 2), Fraction(-3, 7), 5)
    y = QuadraticElement(2, Fraction(1, 3), 5)
    amb_x = SQRT5 * x.b + x.a
    amb_y = SQRT5 * y.b + y.a
    prod = x * y
    assert SQRT5 * prod.b + prod.a == amb_x * amb_y


def test_rational_square_root():
    assert rational_square_root(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_square_root(Fraction(2)) is None
    assert rational_square_root(Fraction(-4)) is None
    assert rational_square_root(0) == 0


def test_squarefree_part():
    assert squarefree_part(1) == 1
    assert squarefree_part(12) == 3
    assert squarefree_part(-12) == -3
    assert squarefree_part(49) == 1
    assert squarefree_part(2 * 3 * 5 * 7) == 210
    big = (10 ** 9 + 7) ** 2 * 13
    assert squarefree_part(big) == 13
    # a prime above the strong test's bound needs its certificate
    assert squarefree_part(-(2 ** 89 - 1) * 7 ** 2) == -(2 ** 89 - 1)
    with pytest.raises(ValueError):
        squarefree_part(0)


def test_squarefree_part_effort_cap(monkeypatch):
    # two large primes; one round of curves at the smallest bound must give up
    p = 2 ** 127 - 1
    q = 2 ** 89 - 1
    monkeypatch.setattr(exactfield, "_MAX_B1", 1000)
    with pytest.raises(FactoringExhausted):
        squarefree_part(p * q)


def test_squarefree_part_sees_through_a_strong_pseudoprime():
    # psi_12 = 399165290221 * 798330580441 passes the strong test to every
    # prime base up to 37; only the prime certificate exposes it
    psi12 = 318665857834031151167461
    assert squarefree_part(psi12 * 399165290221) == 798330580441
    assert squarefree_part(psi12) == psi12


@pytest.mark.parametrize("case", range(1, 9))
def test_squarefree_part_gives_the_printed_fields_of_moduli(case):
    fx = load_fixtures()
    for kind, q in fx.singular_quadratics[case].items():
        disc = int(q.coeff(1) ** 2 - 4 * q.coeff(2) * q.coeff(0))
        assert squarefree_part(disc) == fx.moduli_fields[case][kind]


def fraction_vector_sum(a, b, sign):
    return tuple(x + sign * y for x, y in zip(a, b))


@pytest.mark.parametrize("n", [5, 15, 60])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_elements_stay_integer_vectors_in_lowest_terms(n, data):
    field = cyclotomic_field(n)
    vec = st.lists(fraction_strategy, min_size=field.degree,
                   max_size=field.degree)
    a, b = data.draw(vec), data.draw(vec)
    x, y = field.element(a), field.element(b)
    assert (x + y).coeffs == fraction_vector_sum(a, b, 1)
    assert (x - y).coeffs == fraction_vector_sum(a, b, -1)
    results = [x, y, x + y, x - y, x * y, x + Fraction(1, 2)]
    if y:
        results.append(x / y)
        assert x / y * y == x
    for z in results:
        assert len(z.ints) == field.degree
        assert all(type(c) is int for c in z.ints)
        assert z.den > 0
        assert math.gcd(z.den, *z.ints) == 1


def test_rational_cyclotomic_elements_hash_like_their_value():
    assert 3 in {AlgebraicNumber([3])}
    assert AlgebraicNumber([3]) in {3}
    half = cyclotomic_field(5).element([Fraction(1, 2)])
    assert hash(half) == hash(Fraction(1, 2))
    assert Fraction(1, 2) in {half}
    assert hash(AlgebraicNumber()) == hash(0)


def test_quadratic_elements_hash_like_their_value():
    x = QuadraticElement(3, 0, -1)
    tower = QuadraticElement(QuadraticElement(3, 0, 5), 0, -1)
    assert x == Fraction(3) and tower == x
    assert Fraction(3) in {x}
    assert x in {tower} and tower in {x}
    assert len({Fraction(3), x, tower}) == 1
    gauss = QuadraticElement(3, 2, -1)
    gauss_tower = QuadraticElement(QuadraticElement(3, 0, 5), 2, -1)
    assert gauss == gauss_tower and hash(gauss) == hash(gauss_tower)


@settings(max_examples=40, deadline=None)
@given(a=fraction_strategy, b=fraction_strategy,
       D=st.sampled_from(sorted(PINNED_ROOTS)),
       n=st.sampled_from([5, 15, 60]))
def test_quadratic_and_cyclotomic_values_meet_only_on_rationals(a, b, D, n):
    # the rule of two square classes: a quadratic value and a cyclotomic
    # one, even its pinned image, do not mix and are equal only as equal
    # rationals, so == agrees with the hashes
    x = QuadraticElement(a, b, D)
    field = cyclotomic_field(n)
    image = PINNED_ROOTS[D] * b + a if n == 60 else field.element([a, b])
    for got, other in ((x, image), (image, x)):
        for op in (operator.add, operator.sub, operator.mul,
                   operator.truediv):
            with pytest.raises(ValueError):
                op(got, other)
        assert (got == other) is (not b and image.is_rational())
        assert (got != other) is not (got == other)
    if x == image:
        assert hash(x) == hash(image) == hash(a)
        assert len({x, image}) == 1
    else:
        assert len({x, image}) == 2
    # the same value with parts in Q(sqrt 7) whose irrational parts
    # happen to vanish
    tower = QuadraticElement(QuadraticElement(a, 0, 7),
                             QuadraticElement(b, 0, 7), D)
    assert tower == x and hash(tower) == hash(x)
    assert len({x, tower}) == 1


# ----------------------------------------------------------------------------
# QuadraticElement against a Fraction-pair oracle
# ----------------------------------------------------------------------------

class Pair:
    """Oracle for a + b*sqrt(D): a pair of parts of one ring, either two
    Fractions or two Pairs over one inner class (the tower)."""

    def __init__(self, a, b, D):
        self.a, self.b, self.D = a, b, D

    def __add__(self, o):
        return Pair(self.a + o.a, self.b + o.b, self.D)

    def __sub__(self, o):
        return Pair(self.a - o.a, self.b - o.b, self.D)

    def __neg__(self):
        return Pair(-self.a, -self.b, self.D)

    def __mul__(self, o):
        if not isinstance(o, Pair):  # a scalar of the base ring
            return Pair(self.a * o, self.b * o, self.D)
        return Pair(self.a * o.a + self.b * o.b * self.D,
                    self.a * o.b + self.b * o.a, self.D)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def inverse(self):
        norm = self.a * self.a - self.b * self.b * self.D
        inv = norm.inverse() if isinstance(norm, Pair) else 1 / norm
        return Pair(self.a * inv, -self.b * inv, self.D)


def const(c, like):
    """The oracle of the rational c at the level of the oracle like."""
    if isinstance(like.a, Pair):
        return Pair(const(c, like.a), const(0, like.a), like.D)
    return Pair(Fraction(c), Fraction(0), like.D)


def lift(x, d):
    """An oracle of Q(sqrt(D)) as the tower oracle over the class d."""
    return Pair(Pair(x.a, Fraction(0), d), Pair(x.b, Fraction(0), d), x.D)


def agrees(x, want):
    """x is the element the oracle describes, part for part."""
    if isinstance(want, Pair):
        return (isinstance(x, QuadraticElement) and x.D == want.D
                and agrees(x.a, want.a) and agrees(x.b, want.b))
    return type(x) is Fraction and x == want


def lowest_terms(z, size):
    return (len(z.ints) == size and all(type(c) is int for c in z.ints)
            and z.den > 0 and math.gcd(z.den, *z.ints) == 1)


# the square class of the case-1 collision fiber, a fiber-sized d
FIBER_D = 6594752841114090745134757
LEVELS = [-1, 5, -15, FIBER_D, "tower"]


def plain(D):
    return st.builds(lambda a, b: (QuadraticElement(a, b, D), Pair(a, b, D)),
                     fraction_strategy, fraction_strategy)


def tower(d=FIBER_D):
    def build(x, y):
        return (QuadraticElement(x[0], y[0], -1), Pair(x[1], y[1], -1))
    return st.builds(build, plain(d), plain(d))


def level(name):
    return tower() if name == "tower" else plain(name)


@pytest.mark.parametrize("name", LEVELS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_quadratic_arithmetic_matches_the_fraction_pair_oracle(name, data):
    (x, ox), (y, oy) = data.draw(level(name)), data.draw(level(name))
    size = 4 if name == "tower" else 2
    half = Fraction(1, 2)
    results = [(x + y, ox + oy), (x - y, ox - oy), (-x, -ox), (x * y, ox * oy),
               (x * 3, ox * 3), (half - x, const(half, ox) - ox),
               (x.conjugate(), Pair(ox.a, -ox.b, ox.D))]
    power = const(1, ox)
    for k in range(4):
        results.append((x ** k, power))
        power = power * ox
    if y:
        results += [(x / y, ox * oy.inverse()), (y.inverse(), oy.inverse()),
                    (y ** -2, oy.inverse() * oy.inverse()),
                    (2 / y, oy.inverse() * 2)]
        assert x / y * y == x
    else:
        with pytest.raises(DivisionByZero):
            y.inverse()
    for got, want in results:
        assert agrees(got, want)
        assert lowest_terms(got, size)


def basis_loop_product(field, a, b):
    """Oracle: basis element j times basis element k is squares[j & k]
    times basis element j ^ k."""
    out = [0] * len(field.squares)
    for j, x in enumerate(a):
        for k, y in enumerate(b):
            out[j ^ k] += x * y * field.squares[j & k]
    return tuple(out)


big_ints = st.one_of(st.integers(-50, 50),
                     st.integers(-2 ** 260, 2 ** 260),
                     st.integers(2 ** 200, 2 ** 201))


@settings(max_examples=80, deadline=None)
@given(D=st.one_of(st.sampled_from([-1, -3, -12, 12, 5, -15, 18, -50,
                                    FIBER_D]),
                   st.integers(-10 ** 6, 10 ** 6).filter(
                       lambda D: D and squarefree_part(D) != 1)),
       a=st.tuples(big_ints, big_ints), b=st.tuples(big_ints, big_ints))
def test_quadratic_two_term_product_matches_the_basis_loop(D, a, b):
    field = QuadraticElement(1, 1, D).field
    assert field.mul(a, b) == basis_loop_product(field, a, b)
    # a tower with the same class on top keeps the loop
    inner = 7 if field.D != 7 else 5
    top = QuadraticElement(QuadraticElement(1, 1, inner), 1, D).field
    a4, b4 = a + b, b[::-1] + a
    assert top.mul(a4, b4) == basis_loop_product(top, a4, b4)


@settings(max_examples=60, deadline=None)
@given(t=tower(), g=plain(-1), f=fraction_strategy)
def test_gaussian_elements_are_promoted_into_the_tower(t, g, f):
    (x, ox), (y, oy) = t, g
    oy = lift(oy, FIBER_D)
    results = [(x + y, ox + oy), (y + x, ox + oy), (y - x, oy - ox),
               (x - y, ox - oy), (y * x, oy * ox), (x * y, ox * oy),
               (f - x, const(f, ox) - ox), (x * f, ox * f)]
    if y:
        results.append((x / y, ox * oy.inverse()))
    if x:
        results.append((y / x, oy * ox.inverse()))
    for got, want in results:
        assert agrees(got, want)
        assert lowest_terms(got, 4)
    # mixing two classes at one level is refused
    with pytest.raises(ValueError):
        x + QuadraticElement(1, 1, FIBER_D)
    with pytest.raises(ValueError):
        y * QuadraticElement(1, 1, 5)


@pytest.mark.parametrize("D", [-1, 5, -15, FIBER_D])
@settings(max_examples=40, deadline=None)
@given(a=fraction_strategy, b=fraction_strategy)
def test_equal_values_in_every_form_compare_and_hash_alike(D, a, b):
    x = QuadraticElement(a, b, D)
    # the same value as a tower element over the fiber class, or over
    # sqrt5 for the fiber class itself, since a tower needs two classes
    d = 5 if D == FIBER_D else FIBER_D
    t = QuadraticElement(QuadraticElement(a, 0, d),
                         QuadraticElement(b, 0, d), D)
    assert x == t and t == x and hash(x) == hash(t)
    assert lowest_terms(t, 4) and lowest_terms(x, 2)
    assert t.ints == (x.ints[0], 0, x.ints[1], 0) and t.den == x.den
    assert len({x, t}) == 1
    assert (x == a) == (not b) and (t == a) == (not b)
    if not b:
        assert hash(x) == hash(t) == hash(a) and a in {x} and x in {a}
    assert x != x + 1 and t != t + Fraction(1, 3)
    # a value built along two routes hashes alike
    y = QuadraticElement(b, a, D)
    assert hash(x * y) == hash(y * x) and hash((x + y) - y) == hash(x)
    u = QuadraticElement(QuadraticElement(a, b, d),
                         QuadraticElement(b, a, d), D)
    assert (u + t) - t == u and hash((u + t) - t) == hash(u)
    assert hash(u * t) == hash(t * u) and u * t == t * u
