"""Tests for polynomials, rational functions, and exact linear algebra."""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icosacurves.errors import (
    DegreeMismatch,
    DivisionByZero,
    DuplicateAbscissa,
    InconsistentData,
    ZeroPolynomial,
)
from icosacurves import polyring
from icosacurves.exactfield import (
    CyclotomicField,
    QuadraticElement,
    cyclotomic_field,
)
from icosacurves.polyring import (
    Poly,
    RationalFunction,
    _CERT_PRIMES,
    _bareiss_det,
    _pack,
    _unpack,
    certified_coprime,
    clear_denominators,
    compose_rational,
    exact_quotient,
    integer_primitive,
    interpolate,
    is_squarefree_certified,
    moebius_substitute,
    nullspace,
    poly_mod_p,
    primitive_part,
    sylvester_matrix,
)

F = Fraction


def test_poly_basic_ops():
    p = Poly([1, 2, 3])     # 1 + 2x + 3x^2
    q = Poly([0, 1])        # x
    assert (p * q).coeffs == (0, 1, 2, 3)
    assert (p + q).coeffs == (1, 3, 3)
    assert (p - p) == Poly()
    assert p(2) == 1 + 4 + 12
    assert p.degree == 2
    assert Poly([0, 0]).degree == -1


def test_negative_power_of_a_poly_raises():
    # squaring with k >>= 1 would never reach 0 from a negative k
    with pytest.raises(ValueError):
        Poly([1, 1]) ** -1
    assert Poly([1, 1]) ** 0 == Poly([1])


def _one_value_in_every_type(coeffs, cofactor):
    """The polynomial with these coefficients as a Poly, as a rational
    function over 1 and over the cofactor cancelled, and, when constant,
    as a Fraction and an int if integral."""
    p = Poly(coeffs)
    forms = [p, RationalFunction(p), RationalFunction(p * cofactor, cofactor)]
    if p.degree <= 0:
        c = F(p.coeffs[0]) if p else F(0)
        forms += [c] + ([int(c)] if c.denominator == 1 else [])
    return forms


small_fractions = st.lists(st.fractions(min_value=-4, max_value=4,
                                        max_denominator=3), max_size=3)


@settings(max_examples=150, deadline=None)
@given(small_fractions, small_fractions,
       small_fractions.filter(any).map(Poly))
@example([F(3)], [F(1), F(1)], Poly([F(1), F(2)]))
@example([], [F(1, 2)], Poly([F(-1), F(0), F(1)]))
def test_equal_values_compare_and_hash_alike_across_types(a, b, cofactor):
    def trimmed(cs):
        cs = list(cs)
        while cs and not cs[-1]:
            cs.pop()
        return cs

    same = trimmed(a) == trimmed(b)
    forms = [(0, x) for x in _one_value_in_every_type(a, cofactor)]
    forms += [(1, y) for y in _one_value_in_every_type(b, cofactor)]
    for i, x in forms:
        for j, y in forms:
            assert (x == y) == (i == j or same)
            if x == y:
                assert hash(x) == hash(y)
    assert len({x for _, x in forms}) == (1 if same else 2)
    for k in (0, 1):
        members = {x for i, x in forms if i == k}
        assert all((x in members) == (i == k or same) for i, x in forms)


def test_poly_divmod():
    p = Poly([F(-1), 0, 1])   # x^2 - 1
    d = Poly([F(1), 1])       # x + 1
    q, r = divmod(p, d)
    assert q == Poly([F(-1), 1])
    assert r == Poly()
    q, r = divmod(Poly([F(1), 0, 0, 1]), Poly([F(2), 1]))
    assert q * Poly([F(2), 1]) + r == Poly([F(1), 0, 0, 1])
    with pytest.raises(ZeroPolynomial):
        divmod(p, Poly())


def test_division_inverts_the_leading_coefficient_once():
    # a field element's inverse is a norm computation: one per division,
    # however many quotient coefficients there are
    num = Poly([QuadraticElement(k, 7 - k, -1) for k in range(7)])
    den = Poly([QuadraticElement(1, 2, -1), 3, QuadraticElement(2, -1, -1)])
    calls = []
    inverse = QuadraticElement.inverse

    def spy(x):
        calls.append(x)
        return inverse(x)

    with mock.patch.object(QuadraticElement, "inverse", spy):
        q, r = divmod(num, den)
    assert calls == [QuadraticElement(2, -1, -1)]
    assert q.degree == 4 and r.degree < 2 and q * den + r == num


def test_poly_gcd():
    a = Poly([F(-1), 0, 1]) * Poly([F(3), 1])
    b = Poly([F(1), 1]) * Poly([F(7), 1])
    g = a.gcd(b)
    assert g == Poly([F(1), 1])
    assert Poly([F(2)]).gcd(Poly([F(0), 1])) == Poly([F(1)])


def _fraction_euclid(a, b):
    """The monic gcd of two ascending coefficient lists by schoolbook
    Euclid over Fractions, the definition the integer sequence must meet."""
    a, b = [F(c) for c in a], [F(c) for c in b]
    while b:
        while a and len(a) >= len(b):
            q, shift = a[-1] / b[-1], len(a) - len(b)
            for j, c in enumerate(b):
                a[shift + j] -= q * c
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return [c / a[-1] for c in a]


wide_fraction = st.builds(F, st.integers(-2 ** 240, 2 ** 240),
                          st.integers(1, 2 ** 220))
gcd_operand = st.lists(st.one_of(st.integers(-9, 9),
                                 st.fractions(-6, 6, max_denominator=5),
                                 wide_fraction), max_size=4).map(Poly)


@settings(max_examples=80, deadline=None)
@given(common=gcd_operand, p=gcd_operand, q=gcd_operand)
@example(common=Poly([F(1, 3), -2]), p=Poly([5, 0, -7]), q=Poly([-4, -1]))
@example(common=Poly([F(2 ** 211 + 1, 3 ** 140), -1]), p=Poly([1]),
         q=Poly([0, -1]))
@example(common=Poly([1, 1]), p=Poly([3]), q=Poly())
@example(common=Poly([-5]), p=Poly([1, 2, 3]), q=Poly([F(1, 2)]))
@example(common=Poly(), p=Poly([1]), q=Poly([1]))
def test_rational_gcd_is_fraction_euclid_on_integers(common, p, q):
    # a planted common factor, zero and constant operands, negative
    # leading coefficients and Fractions of more than 200 bits
    def refuse(*args):
        raise AssertionError("the rational gcd divided polynomials")

    a, b = common * p, common * q
    with mock.patch.object(Poly, "__divmod__", refuse):
        with pytest.raises(AssertionError):
            Poly([1, 1]) % Poly([2])
        g = a.gcd(b)
    assert g.coeffs == tuple(_fraction_euclid(a.coeffs, b.coeffs))
    assert all(type(c) is F for c in g.coeffs)
    if a and b:
        assert g.degree >= common.degree


def test_poly_compose_and_derivative():
    p = Poly([F(1), 0, 1])       # 1 + x^2
    assert p.derivative() == Poly([0, F(2)])
    assert Poly([F(5)]).derivative() == Poly()


def test_poly_over_cyclotomic_coefficients():
    f = cyclotomic_field(5)
    z = f.zeta(1)
    p = Poly([z, 1])
    q = Poly([-z, 1])
    prod = p * q
    assert prod.coeffs == (-(z * z), f.zero(), f.one()) or prod == Poly(
        [-(z * z), 0, 1])
    g = (p * p).gcd(p * q)
    assert g.degree == 1
    assert g.monic() == p.monic()


def test_poly_power_forms_no_square_past_the_last_bit():
    degrees = []
    multiply = Poly.__mul__

    def spy(p, q):
        out = multiply(p, q)
        degrees.append(out.degree)
        return out

    with mock.patch.object(Poly, "__mul__", spy):
        assert Poly([1, 1]) ** 5 == Poly([1, 5, 10, 10, 5, 1])
    # 1 * p, p^2, p^4 and p * p^4; no p^8
    assert degrees == [1, 2, 4, 5]


def schoolbook(p, q):
    """Oracle: the product one coefficient product at a time."""
    if not p or not q:
        return Poly()
    out = [0] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, x in enumerate(p.coeffs):
        for j, y in enumerate(q.coeffs):
            out[i + j] = out[i + j] + x * y
    return Poly(out)


def _packed_calls(p, q):
    """p * q, and how many packed products it ran."""
    with mock.patch.object(polyring, "_packed_product",
                           wraps=polyring._packed_product) as spy:
        out = p * q
    return out, spy.call_count


def _near_powers_of_two(bits):
    """Integers at and next to +-(2^k - 1), the largest digit of k + 1
    signed bits, for k up to bits."""
    return st.builds(lambda k, off, sign: sign * ((1 << k) - 1 + off),
                     st.integers(0, bits), st.integers(-1, 1),
                     st.sampled_from([1, -1]))


def packed_coeff(field):
    """An int, a Fraction, a zero or an element of field, whose integers
    are small or near a power of two."""
    ints = st.one_of(st.integers(-3, 3), _near_powers_of_two(80))
    element = st.builds(
        lambda cs, den: field.from_ints(tuple(cs), den),
        st.lists(ints, min_size=field.degree, max_size=field.degree),
        st.sampled_from([1, 1, 2, 3, 7, 2 ** 40 + 15]))
    return st.one_of(element, element, st.just(0), st.just(F(0)), ints,
                     st.builds(F, ints, st.integers(1, 6)))


@pytest.mark.parametrize("n", [5, 15, 60])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_packed_product_matches_the_schoolbook_loop(n, data):
    field = cyclotomic_field(n)
    coeffs = st.lists(packed_coeff(field), min_size=1, max_size=7)
    p, q = Poly(data.draw(coeffs)), Poly(data.draw(coeffs))
    got, packed = _packed_calls(p, q)
    assert got == schoolbook(p, q)
    on_field = any(getattr(c, "field", None) is field
                   for c in p.coeffs + q.coeffs)
    assert packed == (on_field and bool(p) and bool(q))
    if packed:
        assert all(c.field is field for c in got.coeffs if c)


@pytest.mark.parametrize("n", [5, 15, 60])
@pytest.mark.parametrize("width", [1, 2, 3, 5])
@pytest.mark.parametrize("step", [0, 1])
def test_packed_product_at_a_digit_width_boundary(n, width, step):
    # every entry M of both factors puts d * M^2, the digit-width bound,
    # into the middle digit of the convolution: just under the sign bit
    # of width bytes for step 0, just over it for step 1
    field = cyclotomic_field(n)
    d = field.degree
    m = math.isqrt(((1 << (8 * width - 1)) - 1) // d) + step
    x = field.from_ints((m,) * d)
    for p, q in [(Poly([x]), Poly([x])), (Poly([x]), Poly([-x])),
                 (Poly([x, -x, 0, x]), Poly([-x, x]))]:
        got, packed = _packed_calls(p, q)
        assert packed == 1 and got == schoolbook(p, q)


@pytest.mark.parametrize("width", [1, 2, 4])
def test_digits_just_under_the_sign_bit_survive_pack_and_unpack(width):
    top = (1 << (8 * width - 1)) - 1
    rows = [(top, -top, 0), (-top, 1, -1), (0, 0, top)]
    value = _pack(rows, width, 5)
    assert value == sum(v << (8 * width * (5 * i + j))
                        for i, row in enumerate(rows)
                        for j, v in enumerate(row))
    assert _unpack(value, 20, width, 5) == [
        list(row + (0, 0)) for row in rows] + [None]


def test_products_across_fields_keep_the_schoolbook_loop():
    # two field objects of one order, and quadratic coefficients
    other5 = CyclotomicField(5)
    z, w = cyclotomic_field(5).zeta(), other5.element([0, 0, 1])
    gauss = QuadraticElement(F(1, 2), 3, -1)
    for p, q in [(Poly([z, 1, w]), Poly([w, z])),
                 (Poly([F(2, 3), w]), Poly([z, 0, 5])),
                 (Poly([gauss, F(1, 3)]), Poly([gauss, 1]))]:
        got, packed = _packed_calls(p, q)
        assert packed == 0 and got == schoolbook(p, q)


def test_clear_denominators_and_primitive():
    p = Poly([F(1, 2), F(3, 4), F(5)])
    ints, mult = clear_denominators(p.coeffs)
    assert mult == 4
    assert ints == [2, 3, 20]
    assert integer_primitive(Poly([F(4), F(-8), F(12)])) == Poly([1, -2, 3])
    assert integer_primitive(Poly([F(2), F(-4)])) == Poly([-1, 2])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(-10**12, 10**12),
                          st.fractions(max_denominator=10**6)),
                max_size=8))
@example([])
@example([0, F(0), 0])
@example([F(-4, 3), F(8, 9), 12])
def test_primitive_part_matches_its_definition(values):
    content, ints = primitive_part(values)
    assert all(type(c) is int for c in ints)
    assert [content * c for c in ints] == values
    assert isinstance(content, Fraction) and content > 0
    if any(values):
        assert math.gcd(*ints) == 1
    else:
        assert content == 1


def test_interpolate_exact():
    p = Poly([F(1), F(-2), F(0), F(7)])
    pts = [(F(k), p(F(k))) for k in range(-3, 4)]
    assert interpolate(pts, degree=3) == p
    assert interpolate(pts[:4], degree=3) == p
    with pytest.raises(DuplicateAbscissa):
        interpolate([(F(1), F(0)), (F(1), F(1))], degree=1)
    bad = pts[:4] + [(F(9), p(F(9)) + 1)]
    with pytest.raises(InconsistentData):
        interpolate(bad, degree=3)


def naive_det(m):
    if len(m) == 1:
        return m[0][0]
    total = 0
    for j, c in enumerate(m[0]):
        if c:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * c * naive_det(minor)
    return total


def sylvester_det(p, q):
    """Independent oracle: cofactor-expanded Sylvester determinant."""
    m, n = p.degree, q.degree
    pd = list(reversed([F(c) for c in p.coeffs]))
    qd = list(reversed([F(c) for c in q.coeffs]))
    rows = [[F(0)] * i + pd + [F(0)] * (n - 1 - i) for i in range(n)]
    rows += [[F(0)] * i + qd + [F(0)] * (m - 1 - i) for i in range(m)]
    return naive_det(rows)


def resultant(p, q):
    """Res(p, q) of Fraction polynomials of degree at least 1 through the
    elimination kernel: _bareiss_det of the integer Sylvester matrix, the
    rows of p on top, so that Res(x - a, x - b) == a - b."""
    pi, pa = clear_denominators(p.coeffs)
    qi, qa = clear_denominators(q.coeffs)
    det = _bareiss_det(sylvester_matrix(pi, qi))
    return F(det) / (F(pa) ** q.degree * F(qa) ** p.degree)


def test_resultant_known_values():
    assert resultant(Poly([F(-3), 1]), Poly([F(-5), 1])) == 3 - 5
    assert resultant(Poly([F(-1), 0, 1]), Poly([F(-2), 1])) == 3
    # common root makes the resultant vanish
    assert resultant(Poly([F(-1), 1]) * Poly([F(2), 1]),
                     Poly([F(-1), 1]) * Poly([F(5), 1])) == 0


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(-6, 6), min_size=2, max_size=5),
    st.lists(st.integers(-6, 6), min_size=2, max_size=5),
)
def test_resultant_matches_sylvester_oracle(a, b):
    p, q = Poly([F(c) for c in a]), Poly([F(c) for c in b])
    if p.degree < 1 or q.degree < 1:
        return
    assert resultant(p, q) == sylvester_det(p, q)


def _linear_product(lead, roots):
    p = Poly([lead])
    for r in roots:
        p = p * Poly([-r, 1])
    return p


small_rational = st.fractions(min_value=-6, max_value=6, max_denominator=5)
nonzero_lead = small_rational.filter(lambda c: c != 0)


@settings(max_examples=40, deadline=None)
@given(nonzero_lead, st.lists(small_rational, min_size=1, max_size=4),
       nonzero_lead, st.lists(small_rational, min_size=1, max_size=4))
def test_resultant_of_linear_products(lp, roots_p, lq, roots_q):
    # Res(lp prod (x - a_i), lq prod (x - b_j)) = lp^n lq^m prod (a_i - b_j)
    p, q = _linear_product(lp, roots_p), _linear_product(lq, roots_q)
    m, n = len(roots_p), len(roots_q)
    want = lp ** n * lq ** m
    for a in roots_p:
        for b in roots_q:
            want *= a - b
    assert resultant(p, q) == want


@settings(max_examples=40, deadline=None)
@given(st.integers(-6, 6).filter(bool),
       st.lists(st.integers(-6, 6), min_size=1, max_size=3),
       st.integers(-6, 6).filter(bool),
       st.lists(st.integers(-6, 6), min_size=1, max_size=3),
       st.integers(0, 2))
def test_sylvester_matrix_fixed_length(lp, roots_p, lq, roots_q, pad):
    p, q = _linear_product(lp, roots_p), _linear_product(lq, roots_q)
    n = len(roots_q)
    # each zero leading coefficient on p's list multiplies by (-1)^n lq
    pc = [int(c) for c in p.coeffs] + [0] * pad
    qc = [int(c) for c in q.coeffs]
    want = resultant(p, q) * ((-1) ** n * lq) ** pad
    assert _bareiss_det(sylvester_matrix(pc, qc)) == want
    # a formal degree of at most 0 gives 0
    assert _bareiss_det(sylvester_matrix(pc[:1], qc)) == 0
    assert _bareiss_det(sylvester_matrix(pc, [lq])) == 0


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.integers(-5, 5), min_size=2, max_size=4),
    st.lists(st.integers(-5, 5), min_size=2, max_size=4),
    st.lists(st.integers(-5, 5), min_size=2, max_size=3),
)
def test_resultant_multiplicative(a, b, c):
    p, q, r = (Poly([F(x) for x in v]) for v in (a, b, c))
    if p.degree < 1 or q.degree < 1 or r.degree < 1:
        return
    assert resultant(p * q, r) == resultant(p, r) * resultant(q, r)


def test_poly_mod_p_and_coprime_certificate():
    p = Poly([F(1, 3), F(2)])
    assert poly_mod_p(p, 7) == [5, 2]
    assert poly_mod_p(p, 3) is None
    a = Poly([F(-1), 0, 1])
    b = Poly([F(1), 1])
    assert certified_coprime(a, b) is None  # shared root x = -1
    assert certified_coprime(a, Poly([F(-2), 1])) is True


def test_poly_mod_p_quadratic_coefficients():
    i = QuadraticElement(0, 1, -1)
    p = Poly([i, 1])
    # 13 = 1 mod 4, so -1 has a residue root, the image of i
    red = poly_mod_p(p, 13)
    assert red == [8, 1]
    assert 8 * 8 % 13 == 13 - 1


def test_coefficients_of_two_fields_fall_back_to_the_exact_gcd():
    # t lies in the tower Q(sqrt(5))(i) and three in Q(i): the residues of
    # the two fields are chosen apart, so the certificate is undecided
    t = QuadraticElement(QuadraticElement(1, 2, 5),
                         QuadraticElement(0, 1, 5), -1)
    three = QuadraticElement(3, 0, -1)
    assert poly_mod_p(Poly([t, 1]), 13) is None  # 5 is no square mod 13
    assert certified_coprime(Poly([t, 1]), Poly([three, 1])) is None
    r = RationalFunction(Poly([t, 1]), Poly([three, 1]))
    assert r.num == Poly([t, 1]) and r.den == Poly([three, 1])
    shared = RationalFunction(Poly([t, 1]) * Poly([three, 1]),
                              Poly([three, 1]))
    assert shared.num == Poly([t, 1]) and shared.den == Poly([1])


def test_is_squarefree_certified():
    assert is_squarefree_certified(Poly([F(-1), 0, 1]))
    assert not is_squarefree_certified(Poly([F(1), 2, 1]))
    assert not is_squarefree_certified(Poly([F(1), 1]) ** 2 * Poly([F(3), 1]))
    assert is_squarefree_certified(Poly([F(2), 1]))


def test_rational_function_reduction():
    num = Poly([F(-1), 0, 1])
    den = Poly([F(1), 1]) * Poly([F(2)])
    r = RationalFunction(num, den)
    assert r.num == Poly([F(-1, 2), F(1, 2)])
    assert r.den == Poly([F(1)])
    assert r(F(3)) == 1
    with pytest.raises(ZeroPolynomial):
        RationalFunction(num, Poly())


def test_rational_function_arith():
    x = RationalFunction(Poly([0, F(1)]))
    one_over = RationalFunction(Poly([F(1)]), Poly([0, F(1)]))
    with pytest.raises(DivisionByZero):
        x / RationalFunction(Poly())
    with pytest.raises(DivisionByZero):
        one_over(F(0))


def test_division_by_a_rational_function_needs_a_known_operand():
    x = RationalFunction(Poly([0, F(1)]))
    assert x / x == 1
    for other in (2, "a", QuadraticElement(1, 1, 5)):
        with pytest.raises(TypeError):
            other / x
        with pytest.raises(TypeError):
            x / other


def test_compose_rational():
    # outer = x^2 / (x - 1), inner = (x+1)/(x-1)
    outer = RationalFunction(Poly([0, 0, F(1)]), Poly([F(-1), 1]))
    inner = RationalFunction(Poly([F(1), 1]), Poly([F(-1), 1]))
    comp = compose_rational(outer, inner)
    for v in (F(2), F(3), F(-5), F(1, 7)):
        assert comp(v) == outer(inner(v))
    assert compose_rational(outer, Poly([0, F(1)])) == outer


def test_compose_rational_degree():
    # only Moebius inner maps compose, and a degree above m is refused
    outer = RationalFunction(Poly([F(1), 0, 0, 1]), Poly([F(2), 1]))
    inner = RationalFunction(Poly([F(0), 0, 1]), Poly([F(1), 1]))
    with pytest.raises(DegreeMismatch):
        compose_rational(outer, inner)


def test_homogenize_rejects_a_degree_above_m():
    # homogenizing to degree m: the coefficients above m were once dropped,
    # which gave 1 + 2x here
    with pytest.raises(DegreeMismatch):   # c = 0: scaled coefficients
        moebius_substitute(Poly([1, 2, 3]), 1, 0, 0, 1, 1)
    with pytest.raises(DegreeMismatch):   # c != 0: the Taylor shifts
        moebius_substitute(Poly([1, 2, 3]), 0, 1, 1, 0, 1)


def naive_compose(outer, inner):
    """Oracle: sum c_i a^i b^(m-i) term by term for inner = a/b."""
    a, b = inner.num, inner.den
    m = max(outer.num.degree, outer.den.degree, 0)

    def homog(p):
        acc = Poly()
        for i, c in enumerate(p.coeffs):
            acc = acc + a ** i * b ** (m - i) * c
        return acc

    return RationalFunction(homog(outer.num), homog(outer.den))


Z15 = cyclotomic_field(15)
small_ints = st.integers(-4, 4)
cyclo_coeff = st.builds(lambda cs: Z15.element(cs),
                        st.lists(small_ints, min_size=8, max_size=8))
rational_coeff = st.builds(F, small_ints, st.integers(1, 3))


@settings(max_examples=40, deadline=None)
@given(
    outer_num=st.lists(small_ints, min_size=1, max_size=5),
    outer_den=st.lists(small_ints, min_size=1, max_size=5),
    inner_num=st.lists(st.one_of(rational_coeff, cyclo_coeff),
                       min_size=1, max_size=2),
    inner_den=st.lists(st.one_of(rational_coeff, cyclo_coeff),
                       min_size=1, max_size=2),
)
@example(outer_num=[0], outer_den=[0, 1], inner_num=[F(0)],
         inner_den=[F(0), F(1)])
def test_compose_rational_matches_naive_sum(outer_num, outer_den,
                                            inner_num, inner_den):
    # constant outers and deg num < deg den arise from the list lengths
    if not Poly(outer_den) or not Poly(inner_den):
        return
    outer = RationalFunction(Poly(outer_num), Poly(outer_den))
    inner = RationalFunction(Poly(inner_num), Poly(inner_den))
    if inner.is_constant():
        return
    got = compose_rational(outer, inner)
    want = naive_compose(outer, inner)
    assert got.num == want.num
    assert got.den == want.den


def test_compose_rational_edge_shapes():
    inner = RationalFunction(Poly([Z15.zeta(), 1]), Poly([1, Z15.zeta(2)]))
    const = compose_rational(RationalFunction(Poly([F(3, 2)])), inner)
    assert const.num == Poly([F(3, 2)]) and const.den == Poly([F(1)])
    low = RationalFunction(Poly([F(1)]), Poly([F(0), F(0), F(1)]))
    assert compose_rational(low, inner).num.degree == 2
    assert compose_rational(low, inner) == naive_compose(low, inner)



def naive_moebius(poly, a, b, c, d, m):
    """Oracle: sum_i p_i (ax + b)^i (cx + d)^(m-i), one power at a time."""
    acc = Poly()
    for i, ci in enumerate(poly.coeffs):
        acc = acc + Poly([b, a]) ** i * Poly([d, c]) ** (m - i) * ci
    return acc


GAUSS = QuadraticElement(0, 1, -1)
gauss_coeff = st.builds(lambda x, y: QuadraticElement(x, y, -1),
                        small_ints, small_ints)
# coefficients of each kind, mixed with plain ints
moebius_coeffs = st.sampled_from([
    small_ints,
    st.one_of(small_ints, rational_coeff),
    st.one_of(small_ints, gauss_coeff),
    st.one_of(small_ints, cyclo_coeff),
])


@settings(max_examples=80, deadline=None)
@given(data=st.data(), kind=moebius_coeffs, m=st.integers(0, 6),
       shape=st.sampled_from(["free", "c=0", "d=0", "a=c", "a=-c"]))
def test_moebius_substitute_matches_the_naive_sum(data, kind, m, shape):
    # deg p < m whenever fewer than m + 1 coefficients are drawn
    p = Poly(data.draw(st.lists(kind, max_size=m + 1)))
    a, b, c, d = (data.draw(kind) for _ in range(4))
    if shape == "c=0":
        c = 0
    elif shape == "d=0":
        d = 0
    elif shape in ("a=c", "a=-c"):
        c = c or 1
        a = c if shape == "a=c" else -c
    got = moebius_substitute(p, a, b, c, d, m)
    assert got == naive_moebius(p, a, b, c, d, m)


@pytest.mark.parametrize("a, b, c, d", [
    (F(2), 1, F(1, 3), -1), (GAUSS, 1, 0, 2), (1, 0, Z15.zeta(), 0)])
def test_moebius_substitute_of_zero_is_zero(a, b, c, d):
    assert moebius_substitute(Poly(), a, b, c, d, 4) == Poly()


def test_moebius_substitute_promotes_gaussian_into_the_tower():
    # Gaussian coefficients meet Q(sqrt5)(i) parameters: the shift carries
    # every coefficient into the tower
    root5 = QuadraticElement(0, 1, 5)
    t = QuadraticElement(root5 + 1, root5, -1)
    p = Poly([GAUSS, 3, GAUSS * 2 + 1])
    got = moebius_substitute(p, t, GAUSS, t * t, 3, 2)
    assert got == naive_moebius(p, t, GAUSS, t * t, 3, 2)
    assert all(c.field is t.field for c in got.coeffs)


Z60 = cyclotomic_field(60)
cyclo60_poly = st.lists(
    st.builds(lambda cs: Z60.element(cs),
              st.lists(st.integers(-3, 3), min_size=16, max_size=16)),
    min_size=2, max_size=4).filter(lambda cs: cs[-1])


@settings(max_examples=15, deadline=None)
@given(cyclo60_poly, cyclo60_poly, cyclo60_poly, st.integers(1, 9))
def test_certified_coprime_cyclotomic(p, h, r, c):
    p, h, r = Poly(p), Poly(h), Poly(r)
    # gcd(p, p*h + c) = 1 over the field and modulo every prime
    assert certified_coprime(p, p * h + c) is True
    # a shared factor of positive degree survives every reduction
    assert certified_coprime(p * r, p * h) is None


def test_certified_coprime_cyclotomic_falls_through(monkeypatch):
    zeta = Z60.zeta()
    prime = 1000081
    w = Z60.residues(prime)[1]
    assert pow(w, 60, prime) == 1
    assert all(pow(w, 60 // f, prime) != 1 for f in (2, 3, 5))
    q = Poly([zeta, 1])
    # the leading coefficient zeta - w is nonzero but vanishes mod prime
    vanishing_lead = Poly([1, zeta - w])
    # a coefficient whose denominator vanishes mod prime
    bad_denominator = Poly([zeta * F(1, prime), 1])
    for p in (vanishing_lead, bad_denominator):
        assert certified_coprime(p, q) is True
        with monkeypatch.context() as m:
            m.setattr(polyring, "_CERT_PRIMES", (prime,))
            assert certified_coprime(p, q) is None
    # no prime below 1000081 is 1 mod 60, so none gives zeta an image
    monkeypatch.setattr(polyring, "_CERT_PRIMES", (1000003,))
    assert certified_coprime(q, Poly([1, zeta])) is None


def test_certified_coprime_refuses_mixed_fields():
    sqrt5 = QuadraticElement(0, 1, 5)
    assert certified_coprime(Poly([sqrt5, 1]), Poly([Z60.zeta(), 1])) is None


def _root(D, scale=1):
    return scale * QuadraticElement(0, 1, D)


# each pair shares a root, its coefficients in dependent square classes:
# sqrt(12) = 2 sqrt(3), sqrt(-4) = 2i, sqrt(20) = 2 sqrt(5), and
# sqrt(-5) = sqrt(5) i, the root of sqrt(5) x - 5i
@pytest.mark.parametrize("p, q", [
    (Poly([-_root(12), 1]), Poly([-_root(3, 2), 1])),
    (Poly([-_root(-4), 1]), Poly([-_root(-1, 2), 1])),
    (Poly([-_root(20), 1]), Poly([-_root(5, 2), 1])),
    (Poly([-_root(-5), 1]), Poly([-_root(-1, 5), _root(5)])),
], ids=["12-3", "-4--1", "20-5", "-5-5--1"])
def test_certified_coprime_refuses_two_square_classes(p, q):
    assert certified_coprime(p, q) is None


def test_certified_coprime_certifies_one_square_class():
    assert certified_coprime(Poly([-_root(3), 1]),
                             Poly([-_root(3, 2), 1])) is True


def test_certified_coprime_certifies_one_tower():
    s5 = QuadraticElement(0, 1, 5)
    t = QuadraticElement(s5 + 1, s5, -1)  # (sqrt5 + 1) + sqrt5 i
    u = QuadraticElement(3, s5, -1)       # 3 + sqrt5 i
    assert t.field is u.field
    assert certified_coprime(Poly([t, 1]), Poly([u, 1])) is True
    assert certified_coprime(Poly([t, 1]) * Poly([u, 1]), Poly([u, 1])) is None
    # against a coefficient of Q(sqrt5) itself: two fields, undecided
    assert certified_coprime(Poly([t, 1]), Poly([s5, 1])) is None


def _tower(cs):
    return QuadraticElement(QuadraticElement(cs[0], cs[1], 5),
                            QuadraticElement(cs[2], cs[3], 5), -1)


# name: (coordinates per element, element from its coordinates, coordinates
# of a root of unity of the field, its order)
RESIDUE_FIELDS = {
    "zeta5": (4, cyclotomic_field(5).element, [0, 1], 5),
    "zeta15": (8, cyclotomic_field(15).element, [0, 1], 15),
    "zeta60": (16, Z60.element, [0, 1], 60),
    "sqrt-1": (2, lambda cs: QuadraticElement(*cs, -1), [0, 1], 4),
    "sqrt5": (2, lambda cs: QuadraticElement(*cs, 5), [-1, 0], 2),
    "sqrt-15": (2, lambda cs: QuadraticElement(*cs, -15), [-1, 0], 2),
    "sqrt5-i": (4, _tower, [0, 0, 1, 0], 4),
}


def _residue(x, prime):
    image, _ = poly_mod_p(Poly([x, 1]), prime)
    return image


@pytest.mark.parametrize("name", RESIDUE_FIELDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_residues_are_a_ring_map(name, data):
    size, make, root, order = RESIDUE_FIELDS[name]
    root = make(root)
    primes = [p for p in _CERT_PRIMES if root.field.residues(p) is not None]
    assert primes
    coords = st.builds(lambda ints, den: [F(c, den) for c in ints],
                       st.lists(st.integers(-20, 20), min_size=size,
                                max_size=size), st.integers(1, 9))
    x, y = make(data.draw(coords)), make(data.draw(coords))
    for prime in primes:
        rx, ry = _residue(x, prime), _residue(y, prime)
        assert _residue(x * y, prime) == rx * ry % prime
        assert _residue(x + y, prime) == (rx + ry) % prime
        powers = [pow(_residue(root, prime), j, prime)
                  for j in range(1, order + 1)]
        assert powers.index(1) == order - 1


def rref(rows):
    """Test oracle: reduced row echelon form by Gauss-Jordan elimination,
    as (rows, pivot columns)."""
    m = [list(r) for r in rows]
    piv_cols = []
    for c in range(len(m[0]) if m else 0):
        r = len(piv_cols)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(len(m)):
            if i != r:
                m[i] = [a - m[i][c] * b for a, b in zip(m[i], m[r])]
        piv_cols.append(c)
    return m, piv_cols


def solve_linear(rows, rhs):
    """The unique solution of rows * x == rhs, or None: the nullspace
    vector (x, 1) of the columns of rows and -rhs, when it is the only
    one."""
    n = len(rows[0])
    basis = nullspace([list(r) + [-b] for r, b in zip(rows, rhs)], n + 1)
    return basis[0][:n] if len(basis) == 1 and basis[0][n] == 1 else None


def test_rref_and_nullspace():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
    red, piv = rref(rows)
    assert piv == [0]
    ns = nullspace(rows, 3)
    assert len(ns) == 2
    for v in ns:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0


def test_nullspace_full_rank():
    rows = [[F(1), F(0)], [F(0), F(1)]]
    assert nullspace(rows, 2) == []


def test_solve_linear():
    rows = [[F(2), F(1)], [F(1), F(-1)]]
    sol = solve_linear(rows, [F(5), F(1)])
    assert sol == [F(2), F(1)]
    assert solve_linear([[F(1), F(1)]], [F(3)]) is None  # underdetermined
    assert solve_linear([[F(1), F(1)], [F(2), F(2)]], [F(3), F(7)]) is None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4))
def test_rref_and_solve_linear_on_random_systems(seed, size):
    rng = random.Random(seed)

    def vec():
        return [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(size)]

    def apply(rows, x):
        return [sum((a * v for a, v in zip(row, x)), F(0)) for row in rows]

    x = vec()
    rows = [vec() for _ in range(size)]
    # a combination of the other rows
    coefs = [F(rng.randint(-3, 3)) for _ in range(size - 1)]
    last = [sum((c * r[j] for c, r in zip(coefs, rows)), F(0))
            for j in range(size)]
    if naive_det(rows):
        red, piv = rref(rows)
        assert piv == list(range(size))
        assert red == [[int(i == j) for j in range(size)] for i in range(size)]
        assert solve_linear(rows, apply(rows, x)) == x
        over = rows + [last]   # overdetermined and consistent
        assert solve_linear(over, apply(over, x)) == x
    singular = rows[:-1] + [last]
    assert len(rref(singular)[1]) < size
    b = apply(singular, x)
    assert solve_linear(singular, b) is None   # consistent, not unique
    b[-1] += 1
    aug = [row + [v] for row, v in zip(singular, b)]
    assert size in rref(aug)[1]
    assert solve_linear(singular, b) is None   # inconsistent


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.integers(-10 ** 6, 10 ** 6),
                          st.fractions(max_denominator=10 ** 4)),
                min_size=1, max_size=8))
def test_clear_denominators_is_minimal(values):
    ints, den = clear_denominators(values)
    assert all(isinstance(c, int) for c in ints)
    assert [F(c) for c in ints] == [v * den for v in values]
    # the smallest positive multiplier is the lcm of the denominators
    assert den == math.lcm(*(F(v).denominator for v in values))


NULLSPACE_ENTRIES = {
    "fraction": st.builds(F, st.integers(-3, 3), st.integers(1, 3)),
    "gaussian": st.builds(lambda a, b: QuadraticElement(a, b, -1),
                          st.integers(-3, 3), st.integers(-2, 2)),
}


@pytest.mark.parametrize("kind", sorted(NULLSPACE_ENTRIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_nullspace_is_the_kernel_on_its_free_columns(kind, data):
    entry = NULLSPACE_ENTRIES[kind]
    ncols = data.draw(st.integers(1, 5))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = data.draw(st.lists(row, max_size=4))
    # planted dependencies: combinations of the rows, and a column that
    # is a combination of two others
    for _ in range(data.draw(st.integers(0, 2)) if rows else 0):
        coefs = data.draw(st.lists(entry, min_size=len(rows),
                                   max_size=len(rows)))
        rows.insert(data.draw(st.integers(0, len(rows))),
                    [sum((c * r[j] for c, r in zip(coefs, rows)), F(0))
                     for j in range(ncols)])
    if ncols >= 3 and data.draw(st.booleans()):
        i, j, k = data.draw(st.permutations(range(ncols)))[:3]
        a, b = data.draw(entry), data.draw(entry)
        for r in rows:
            r[k] = a * r[i] + b * r[j]
    basis = nullspace(rows, ncols)
    _, piv = rref(rows)
    free = [c for c in range(ncols) if c not in piv]
    assert len(basis) == ncols - len(piv) == len(free)
    for v, f in zip(basis, free):
        assert all(sum((a * x for a, x in zip(r, v)), F(0)) == 0
                   for r in rows)
        assert [v[c] for c in free] == [int(c == f) for c in free]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=8),
       st.lists(st.integers(-50, 50), min_size=1, max_size=5)
       .filter(lambda b: b[-1] and b not in ([1], [-1])))
def test_exact_quotient_undoes_a_product(a, b):
    ab = [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
          for k in range(len(a) + len(b) - 1)]
    assert exact_quotient(ab, b) == a
    # one more than a multiple of b, a non-unit, is not a multiple of it
    ab[0] += 1
    with pytest.raises(InconsistentData):
        exact_quotient(ab, b)


def test_exact_quotient_divides_over_the_integers():
    # (x + 1)(x + 2) / (2x + 2) is (x + 2)/2, not an integer polynomial
    with pytest.raises(InconsistentData):
        exact_quotient([2, 3, 1], [2, 2])
    # a zero leading entry of the divisor is skipped
    assert exact_quotient([2, 3, 1], [1, 1, 0]) == [2, 1]


def test_nullspace_over_quadratic_field():
    i = QuadraticElement(0, 1, -1)
    rows = [[i, 1]]
    ns = nullspace(rows, 2)
    assert len(ns) == 1
    v = ns[0]
    assert rows[0][0] * v[0] + rows[0][1] * v[1] == 0


def test_zero_rational_function_is_canonical():
    x = Poly([F(0), F(1)])
    zero_over_x = RationalFunction(Poly([F(0)]), x)
    assert zero_over_x == RationalFunction(0)
    assert hash(zero_over_x) == hash(RationalFunction(0))
    assert zero_over_x.den == Poly([1])
    assert compose_rational(zero_over_x, zero_over_x) == 0
