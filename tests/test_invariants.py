import math
from fractions import Fraction as F

import pytest
from hypothesis import Phase, given, settings, strategies as st

from icosacurves.errors import (
    DegenerateLeadingOrTrailing,
    DegreeTooSmall,
    NormalizationUndefined,
    OrderTooLarge,
    SingularSystem,
)
from icosacurves.exactfield import QuadraticElement, cyclotomic_field
from icosacurves.families import (
    curve_equation,
    even_model,
    model_forms,
    symmetric_from_dihedral,
)
from icosacurves.fixtures import load_fixtures
from icosacurves.invariants import (
    DihedralInvariants,
    check_group_relation,
    covariant_vanishing_checks,
    dihedral_invariants,
    form_coefficients,
    invariant_set,
    pencil_invariants,
    transvectant,
)
from icosacurves.polyring import Poly, moebius_substitute

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=7)

# a binary form of degree n is the tuple of its n + 1 coefficients, entry
# i multiplying X^(n-i) Y^i


def form_of_degree(n):
    return st.lists(rationals, min_size=n + 1, max_size=n + 1).map(tuple)


def scale(form, c):
    return tuple(c * a for a in form)


def add(f, h):
    assert len(f) == len(h)
    return tuple(a + b for a, b in zip(f, h))


def product(f, h):
    """The product of two forms, a convolution: f(x, 1) h(x, 1) read back
    at the full degree."""
    return form_coefficients(Poly(f[::-1]) * Poly(h[::-1]),
                             len(f) + len(h) - 2)


def substitute(form, a, b, c, d):
    """The form at (aX + bY, cX + dY)."""
    n = len(form) - 1
    return form_coefficients(moebius_substitute(Poly(form[::-1]), a, b, c, d,
                                                n), n)


def test_form_coefficients_pad_a_lower_degree_with_leading_zeros():
    assert form_coefficients(Poly([1, 2, 3]), 4) == (0, 0, 3, 2, 1)
    assert form_coefficients(Poly(), 2) == (0, 0, 0)
    with pytest.raises(ValueError):
        form_coefficients(Poly([1, 2, 3]), 1)


def test_zeroth_transvectant_is_product():
    f = (F(3), F(5), F(7))
    h = (F(1), F(2), F(0), F(4))
    assert transvectant(f, h, 0) == product(f, h)


def test_quadratic_self_transvectant():
    # discriminant-type value for a X^2 + b XY + c Y^2
    a, b, c = F(3), F(5), F(7)
    f = (a, b, c)
    assert transvectant(f, f, 2) == (F(4 * a * c - b * b, 2),)


def test_odd_self_transvectants_vanish():
    f = (F(1), F(-2), F(3), F(0), F(4), F(7))
    for r in (1, 3, 5):
        assert all(c == 0 for c in transvectant(f, f, r))


def test_transvectant_order_cap():
    f = (1, 2, 3)
    h = (1, 0, 0, 0, 1)
    with pytest.raises(OrderTooLarge):
        transvectant(f, h, 3)


def test_power_sum_form_has_invariant_two():
    for d in (4, 6, 8, 12):
        F_ = form_coefficients(Poly([1] + [0] * (d - 1) + [1]), d)
        assert transvectant(F_, F_, d) == (2,)


@settings(max_examples=25, deadline=None)
@given(form_of_degree(4), form_of_degree(4), form_of_degree(3), rationals)
def test_transvectant_bilinear(f, g, h, c):
    r = 2
    left = transvectant(add(f, scale(g, c)), h, r)
    right = add(transvectant(f, h, r), scale(transvectant(g, h, r), c))
    assert left == right
    assert len(left) - 1 == 4 + 3 - 2 * r


def _textbook_transvectant(f, h, r):
    """The defining formula: mixed r-th partials by repeated
    differentiation, multiplied as forms and summed with signs."""
    def dx(form):
        n = len(form) - 1
        return tuple(c * (n - i) for i, c in enumerate(form[:-1]))

    def dy(form):
        return tuple(c * i for i, c in enumerate(form) if i)

    def partial(form, k):
        # d^r form / dX^(r-k) dY^k
        for _ in range(r - k):
            form = dx(form)
        for _ in range(k):
            form = dy(form)
        return form

    m, n = len(f) - 1, len(h) - 1
    acc = (0,) * (m + n - 2 * r + 1)
    for k in range(r + 1):
        term = product(partial(f, k), partial(h, r - k))
        acc = add(acc, scale(term, (-1) ** k * math.comb(r, k)))
    return scale(acc, F(math.factorial(m - r) * math.factorial(n - r),
                        math.factorial(m) * math.factorial(n)))


COEFFICIENTS = {
    "integer": st.integers(-50, 50),
    "fraction": rationals,
    "quadratic": st.builds(lambda a, b: QuadraticElement(a, b, 5),
                           rationals, rationals),
}


# a support stride: entries at one residue class mod 2, 3 or 5; mod 16,
# past every degree drawn, one nonzero entry; 0 for the zero form
SPARSE = (2, 3, 5, 16, 0)


@pytest.mark.parametrize("kind", sorted(COEFFICIENTS))
@pytest.mark.parametrize("shape", ["self, even r", "self, odd r",
                                   "two forms", "sparse self, even r",
                                   "sparse self, odd r", "two sparse forms",
                                   "two forms, one stride",
                                   "strides 5 and 2"])
# no shrink or explain phase: shrinking the data draws of a failing case
# takes minutes, and the unshrunk case already shows the fault
@settings(max_examples=25, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
@given(data=st.data())
def test_transvectant_matches_the_textbook_formula(shape, kind, data):
    def form(least, stride=1):
        n = data.draw(st.integers(least, 8 if stride == 1 else 12))
        cs = st.lists(COEFFICIENTS[kind], min_size=n + 1, max_size=n + 1)
        offset = data.draw(st.integers(0, max(min(stride, n + 1) - 1, 0)))
        return tuple(c if stride and i % stride == offset else c * 0
                     for i, c in enumerate(data.draw(cs)))

    def stride():
        return data.draw(st.sampled_from(SPARSE))

    if "self" in shape:
        f = h = form(1, stride() if "sparse" in shape else 1)
        parity = 0 if shape.endswith("even r") else 1
        r = data.draw(st.sampled_from(
            [k for k in range(len(f)) if k % 2 == parity]))
    else:
        if shape == "two forms":
            strides = 1, 1
        elif shape == "two sparse forms":
            strides = stride(), stride()
        elif shape == "two forms, one stride":
            strides = (data.draw(st.sampled_from(SPARSE[:3])),) * 2
        else:  # an x^5 model's stride meets an even model's: s = 1
            strides = data.draw(st.permutations((5, 2)))
        f, h = form(0, strides[0]), form(0, strides[1])
        r = data.draw(st.integers(0, min(len(f), len(h)) - 1))
    assert transvectant(f, h, r) == _textbook_transvectant(f, h, r)


def test_substitution_composes_with_product():
    f = (F(1), F(2), F(3))
    h = (F(4), F(-1))
    a, b, c, d = F(2), F(1), F(1), F(1)
    assert substitute(product(f, h), a, b, c, d) == \
        product(substitute(f, a, b, c, d), substitute(h, a, b, c, d))


@pytest.fixture(scope="module")
def genus5_curve():
    return curve_equation(5, [], "x5")


def test_invariant_set_shape(genus5_curve):
    inv = invariant_set(genus5_curve.f, 5)
    # degree 12 is below the threshold for the starred slot
    assert inv.I6star is None and inv.i3 is None
    assert inv.i1 == inv.I4 / inv.I2 ** 2
    assert inv.i2 == inv.I6 / inv.I2 ** 3
    assert inv.i4 == inv.I6 ** 2 / inv.I4 ** 3


def test_degree_too_small():
    with pytest.raises(DegreeTooSmall):
        invariant_set(Poly([1, 0, 0, 0, 0, 0, 0, 0, 1]), 3)


def test_degree_genus_mismatch():
    # too low and too high for the form degree 12 of genus 5
    for run in (invariant_set, covariant_vanishing_checks):
        for f in (Poly([1, 1, 1]), Poly([1] * 14)):
            with pytest.raises(ValueError):
                run(f, 5)


def test_all_invariants_vanish_on_a_power():
    inv = invariant_set(Poly([0] * 12 + [1]), 5)
    assert inv.I2 == 0 and inv.I4 == 0 and inv.I6 == 0
    assert inv.i1 is None and inv.i4 is None
    with pytest.raises(NormalizationUndefined):
        inv.absolute()


def test_unimodular_substitution_fixes_absolute_invariants(genus5_curve):
    inv = invariant_set(genus5_curve.f, 5)
    F_ = form_coefficients(genus5_curve.f, 12)
    moved = substitute(F_, F(2), F(3), F(1), F(2))  # determinant one
    inv2 = invariant_set(Poly(moved[::-1]), 5)
    assert (inv.I2, inv.I4, inv.I6) == (inv2.I2, inv2.I4, inv2.I6)
    assert (inv.i1, inv.i2, inv.i4) == (inv2.i1, inv2.i2, inv2.i4)


def test_scaling_fixes_absolute_invariants(genus5_curve):
    c = F(5, 3)
    scaled = Poly([a * c ** k for k, a in enumerate(genus5_curve.f.coeffs)])
    inv = invariant_set(genus5_curve.f, 5)
    inv2 = invariant_set(scaled, 5)
    assert inv.I2 != inv2.I2  # the raw invariants do move
    assert (inv.i1, inv.i2, inv.i4) == (inv2.i1, inv2.i2, inv2.i4)


def test_covariant_vanishing_on_family_curve():
    cur = curve_equation(29, [F(7)], "x2")
    checks = covariant_vanishing_checks(cur.f, 29)
    assert set(checks) == {4, 8, 16, 28}
    assert all(v == 0 for v in checks.values())


def test_covariant_vanishing_fails_off_family():
    cur = curve_equation(29, [F(7)], "x2")
    bumped = Poly([c + (1 if k == 3 else 0) for k, c in
                   enumerate(cur.f.coeffs)])
    checks = covariant_vanishing_checks(bumped, 29)
    assert any(v != 0 for v in checks.values())


def _textbook_value(form, r):
    [c] = _textbook_transvectant(form, form, r)
    return c


def _textbook_invariants(f, genus):
    """(I2, I4, I6, I6star) by the textbook transvectant on the whole
    form, with no content removed between the steps."""
    d = 2 * genus + 2
    F_ = form_coefficients(f, d)
    J12 = _textbook_transvectant(F_, F_, d - 6)
    G = _textbook_transvectant(F_, J12, 12)
    I6star = None
    if d >= 20:
        H = _textbook_transvectant(F_, _textbook_transvectant(F_, F_, d - 10),
                                   20)
        I6star = _textbook_value(H, d - 20)
    return (_textbook_value(F_, d), _textbook_value(J12, 12),
            _textbook_value(G, d - 12), I6star)


def _textbook_chain(f, genus):
    """(I2, I4, I6, I6star, covariant values) by the textbook
    transvectant."""
    d = 2 * genus + 2
    F_ = form_coefficients(f, d)
    covariants = {
        s: _textbook_value(_textbook_transvectant(F_, F_, d - s // 2), s)
        if d >= s // 2 else None for s in (4, 8, 16, 28)}
    return (*_textbook_invariants(f, genus), covariants)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_invariant_chain_matches_the_textbook_chain(data):
    genus = data.draw(st.integers(5, 11))
    d = 2 * genus + 2
    coeffs = data.draw(st.lists(st.one_of(st.integers(-9, 9), rationals),
                                min_size=d + 1, max_size=d + 1))
    if not (coeffs[-1] or coeffs[-2]):
        coeffs[-1] = 1
    f = Poly(coeffs)
    inv = invariant_set(f, genus)
    I2, I4, I6, I6star, covariants = _textbook_chain(f, genus)
    assert (inv.I2, inv.I4, inv.I6, inv.I6star) == (I2, I4, I6, I6star)
    assert covariant_vanishing_checks(f, genus) == covariants


# no shrink or explain phase: a textbook chain at degree 62 takes about a
# second, and the unshrunk case already shows the fault
@settings(max_examples=12, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
@given(data=st.data())
def test_pencil_invariants_match_the_textbook_chain(data):
    # the members f0 + lam f1 are forms of degree d or d - 1 supported on
    # one residue class mod the stride, as an x^5 model is at stride 5
    d = data.draw(st.sampled_from((20, 24, 62)))
    genus = d // 2 - 1
    stride = data.draw(st.sampled_from((1, 2, 5)))
    top = data.draw(st.sampled_from((d, d - 1)))
    values = st.one_of(st.integers(-9, 9), rationals)

    def part():
        cs = data.draw(st.lists(values, min_size=top + 1, max_size=top + 1))
        return [c if (top - j) % stride == 0 else 0
                for j, c in enumerate(cs)]

    c0, c1 = part(), part()
    c0[top] = c0[top] or 1
    f0, f1 = Poly(c0), Poly(c1)
    lams = [0, data.draw(st.integers(-20, 20)),
            data.draw(st.fractions(-20, 20, max_denominator=9))]
    members = [f0 + f1 * lam for lam in lams]
    if any(f.degree not in (d - 1, d) for f in members):
        with pytest.raises(ValueError):
            pencil_invariants((f0, f1), genus, lams)
        with pytest.raises(ValueError):
            invariant_set(next(f for f in members if f.degree < d - 1),
                          genus)
        lams, members = zip(*[(lam, f) for lam, f in zip(lams, members)
                              if f.degree >= d - 1])
    want = [_textbook_invariants(f, genus) for f in members]
    assert pencil_invariants((f0, f1), genus, lams) == want
    assert [tuple(invariant_set(f, genus))[:4] for f in members] == want


def test_pencil_invariants_refuse_what_invariant_set_refuses():
    f0, f1 = Poly([1] * 11), Poly([0, 1])
    with pytest.raises(DegreeTooSmall):
        pencil_invariants((f0, f1), 4, [1])
    with pytest.raises(ValueError):
        pencil_invariants((f0, f1), 5, [1])
    # at lam = -1 the member x^12 - x^12 + ... drops to degree 10
    f0, f1 = Poly([1] * 13), Poly([0] * 11 + [1, 1])
    assert pencil_invariants((f0, f1), 5, [0, 2]) == [
        tuple(invariant_set(f0 + f1 * lam, 5))[:4] for lam in (0, 2)]
    with pytest.raises(ValueError):
        pencil_invariants((f0, f1), 5, [0, -1])
    with pytest.raises(ValueError):
        invariant_set(f0 - f1, 5)
    # below form degree 20 the starred slot is None
    assert pencil_invariants((f0, f1), 5, [3])[0][3] is None


def test_dihedral_reduces_to_plain_formula_when_normal():
    # b0 = bd = 1: u_i = a1^(d-i) a_i + a_(d-1)^(d-i) a_(d-i)
    b = [F(1), F(2), F(-3), F(5), F(7), F(1)]
    d = 5
    u = dihedral_invariants(b)
    for i in range(1, d):
        expect = b[1] ** (d - i) * b[i] + b[d - 1] ** (d - i) * b[d - i]
        assert u.u(i) == expect


def test_dihedral_scale_and_reverse_invariance():
    b = [F(3), F(2), F(-1), F(4), F(5), F(6), F(7)]
    u = dihedral_invariants(b)
    assert dihedral_invariants([F(11, 7) * x for x in b]).values == u.values
    assert dihedral_invariants(list(reversed(b))).values == u.values


def test_dihedral_branch_choice_cancels():
    # rescaling x by v changes the normalization root rationally; the
    # invariants must not notice
    b = [F(3), F(2), F(-1), F(4), F(5), F(6), F(3)]
    v = F(2, 3)
    scaled = [c * v ** (2 * j) for j, c in enumerate(b)]
    assert dihedral_invariants(scaled).values == dihedral_invariants(b).values


def three_power_dihedral(b):
    """Oracle: u_1 ... u_(d-1) from the three powers low^k, high^k and
    ratio^k, k = d - i, of low = b_1/b_0, high = b_(d-1)/b_0 and
    ratio = b_0/b_d, each raised afresh, demoted as the package does."""
    d = len(b) - 1
    low, high, ratio = b[1] / b[0], b[d - 1] / b[0], b[0] / b[d]
    vals = []
    for i in range(1, d):
        k = d - i
        v = (low ** k * (b[i] / b[0]) * ratio
             + high ** k * (b[d - i] / b[0]) * ratio ** k)
        vals.append(v.a if isinstance(v, QuadraticElement) and v.b == 0
                    else v)
    return tuple(vals)


def even_coefficients(entries, max_size):
    """Coefficient lists b_0 ... b_d, 2 <= d < max_size, b_0 b_d != 0."""
    nonzero = entries.filter(bool)
    return st.tuples(nonzero, st.lists(entries, min_size=1,
                                       max_size=max_size - 2),
                     nonzero).map(lambda t: [t[0], *t[1], t[2]])


def quadratics(D):
    return st.builds(QuadraticElement, rationals, rationals, st.just(D))


gaussians = quadratics(-1)
# Q(sqrt5)(i), each part an element of Q(sqrt5)
sqrt5_towers = st.builds(QuadraticElement, quadratics(5), quadratics(5),
                         st.just(-1))
zeta5s = st.lists(rationals, min_size=4, max_size=4).map(
    cyclotomic_field(5).element)


@settings(max_examples=50, deadline=None)
@given(st.one_of(
    even_coefficients(rationals, 40),
    even_coefficients(gaussians, 12),
    even_coefficients(quadratics(5), 12),
    st.sampled_from([12, -12]).flatmap(
        lambda D: even_coefficients(quadratics(D), 12)),
    even_coefficients(sqrt5_towers, 8),
    # the int 0 of even_model's vanishing slots, and rational entries
    even_coefficients(st.one_of(gaussians, st.just(0), rationals), 12),
    # rational ends around Gaussian entries
    st.tuples(rationals.filter(bool), st.lists(
        st.one_of(gaussians, st.just(0)), min_size=1, max_size=10),
        rationals.filter(bool)).map(lambda t: [t[0], *t[1], t[2]]),
    even_coefficients(zeta5s, 8)))
def test_dihedral_matches_the_three_power_oracle(b):
    got = dihedral_invariants(b).values
    want = three_power_dihedral(b)
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]
    # a tower value demotes to its part in Q(sqrt5)
    assert [getattr(v, "field", None) for v in got] == [
        getattr(v, "field", None) for v in want]


@settings(max_examples=25, deadline=None)
@given(st.one_of(
    st.tuples(even_coefficients(rationals, 12), gaussians, gaussians),
    st.tuples(even_coefficients(quadratics(5), 8), sqrt5_towers,
              sqrt5_towers)).filter(lambda t: t[1] and t[2]))
def test_dihedral_of_a_scaled_list_lies_in_the_base_field(data):
    # u(c t^j b_j) = u(b): over Q(i) the values are rationals, over
    # Q(sqrt5)(i) elements of Q(sqrt5), demoted as the oracle demotes
    base, c, t = data
    # an element of Q(sqrt5) enters the tower only as a part
    b = [c * t ** j * (QuadraticElement(x, 0, -1)
                       if isinstance(x, QuadraticElement) else x)
         for j, x in enumerate(base)]
    got, want = dihedral_invariants(b).values, three_power_dihedral(b)
    assert got == want == dihedral_invariants(base).values
    assert [type(v) for v in got] == [type(v) for v in want]
    assert all(type(v) is (F if type(c) is QuadraticElement else
                           QuadraticElement) for v in got)


def test_dihedral_rejects_two_square_classes():
    b = [QuadraticElement(1, 1, 5), F(2), QuadraticElement(1, 1, 3)]
    with pytest.raises(ValueError, match="mixed quadratic fields"):
        dihedral_invariants(b)
    with pytest.raises(ValueError, match="mixed quadratic fields"):
        dihedral_invariants([QuadraticElement(1, 1, 5), 0, 0, F(3),
                             QuadraticElement(2, 1, -1)])


nonzero_rationals = rationals.filter(bool)


@settings(max_examples=50, deadline=None)
@given(even_coefficients(rationals, 40), nonzero_rationals,
       nonzero_rationals)
def test_dihedral_invariant_under_scaling_and_weights(b, c, t):
    # u(c t^j b_j) = u(b): the overall scale and x -> t^(1/2) x cancel
    scaled = [c * t ** j * x for j, x in enumerate(b)]
    assert dihedral_invariants(scaled).values == dihedral_invariants(b).values


def test_dihedral_degenerate_ends():
    with pytest.raises(DegenerateLeadingOrTrailing):
        dihedral_invariants([F(0), F(1), F(2)])
    with pytest.raises(DegenerateLeadingOrTrailing):
        dihedral_invariants([F(1), F(1), F(0)])
    i = QuadraticElement(0, 1, -1)
    with pytest.raises(DegenerateLeadingOrTrailing):
        dihedral_invariants([i * 0, i, 0, i])
    with pytest.raises(DegenerateLeadingOrTrailing):
        dihedral_invariants([i, i, 0])


def test_group_relation_odd_genus():
    cur = curve_equation(29, [F(7)], "x2")
    u = dihedral_invariants(even_model(cur))
    assert check_group_relation(u) == "Z2xA5"


def test_group_relation_even_genus():
    cur = curve_equation(44, [F(5)], "x2")
    u = dihedral_invariants(even_model(cur))
    assert check_group_relation(u) == "SL2_5"


def test_group_relation_generic_rejects():
    b = [F(1), F(2), F(3), F(4), F(5), F(6), F(7), F(8), F(9), F(10), F(1)]
    u = dihedral_invariants(b)
    assert check_group_relation(u) == "neither"


def test_printed_dihedral_invariants_match():
    # the genus-29 family's u_1 and u_29 against the printed rational
    # functions of lambda, at 89 points.  Each b_j = top_2j - lambda
    # bottom_2j is affine, so u_1 and u_29 are N / (b_0 b_30)^29 with
    # deg N <= 58, and N Q - P (b_0 b_30)^29 for a printed P / Q of degree
    # 30 has degree at most 88: equal values at 89 points make it zero
    fx = load_fixtures()
    _, (top, bottom) = model_forms("x2")
    for lam in range(89):
        b = [top.coeff(2 * j) - lam * bottom.coeff(2 * j) for j in range(31)]
        u = dihedral_invariants(b)
        assert u.u(1) == fx.reference_dihedral_g29["u1"](lam)
        assert u.u(29) == fx.reference_dihedral_g29["u29"](lam)
        assert check_group_relation(u) == "Z2xA5"


def test_recover_single_branch_value():
    cur = curve_equation(29, [F(7)], "x2")
    u = dihedral_invariants(even_model(cur))
    assert symmetric_from_dihedral(u, 1) == (F(7),)
    other = dihedral_invariants(even_model(curve_equation(29, [F(9)], "x2")))
    assert symmetric_from_dihedral(other, 1) == (F(9),)


def test_recover_symmetric_pair():
    cur = curve_equation(59, [F(3), F(-11, 4)], "x2")
    u = dihedral_invariants(even_model(cur))
    s = symmetric_from_dihedral(u, 2)
    assert s == (F(3) + F(-11, 4), F(3) * F(-11, 4))


def test_recover_with_multiplier():
    cur = curve_equation(44, [F(5)], "x2")
    u = dihedral_invariants(even_model(cur))
    assert symmetric_from_dihedral(u, 1) == (F(5),)


def test_recover_rejects_tampered_invariants():
    cur = curve_equation(29, [F(7)], "x2")
    u = dihedral_invariants(even_model(cur))
    vals = list(u.values)
    vals[4] = vals[4] + 1
    with pytest.raises(SingularSystem):
        symmetric_from_dihedral(DihedralInvariants(d=u.d, values=tuple(vals)),
                                1)


def test_recover_rejects_bad_shape():
    b = [F(k + 1) for k in range(13)]
    u = dihedral_invariants(b)
    with pytest.raises(ValueError):
        symmetric_from_dihedral(u, 1)


def test_record_types_are_immutable_named_records():
    import icosacurves as ic

    fields = {
        ic.CaseDescriptor: ("case_no", "group", "delta", "multipliers",
                            "genus"),
        ic.CurveModel: ("f", "genus", "model", "case", "params"),
        ic.InvariantSet: ("I2", "I4", "I6", "I6star", "i1", "i2", "i3",
                          "i4"),
        ic.DihedralInvariants: ("d", "values"),
        ic.LocusCurve: ("case_no", "genus", "F", "i1_of_lambda",
                        "i2_of_lambda", "I2_of_lambda", "I4_of_lambda",
                        "I6_of_lambda", "I6star_of_lambda"),
        ic.SingularFiber: ("kind", "q", "D", "d_table"),
    }
    for cls, names in fields.items():
        assert cls._fields == names
        rec = cls(**{name: k for k, name in enumerate(names)})
        assert tuple(getattr(rec, n) for n in names) == tuple(
            range(len(names)))
        assert repr(rec).startswith(f"{cls.__name__}({names[0]}=0, ")
        with pytest.raises(AttributeError):
            setattr(rec, names[0], 1)
        with pytest.raises(AttributeError):
            rec.extra = 1

    u = ic.DihedralInvariants(d=3, values=(F(5), F(7)))
    assert (u.u(1), u.u(2)) == (F(5), F(7))
    with pytest.raises(IndexError):
        u.u(3)
    inv = ic.InvariantSet(I2=F(2), I4=1, I6=1, I6star=None,
                          i1=F(1, 4), i2=F(1, 8), i3=None, i4=1)
    assert inv.absolute() == (F(1, 4), F(1, 8), None, 1)
    with pytest.raises(NormalizationUndefined):
        inv._replace(I2=0).absolute()
    assert ic.InvariantSet.__doc__.startswith("Classical invariants")
    assert ic.DihedralInvariants.__doc__.startswith("Root-free dihedral")
