"""Tests for genus classification and family curve equations."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from icosacurves.errors import (
    DegenerateBranchValue,
    DuplicateBranchValue,
    InconsistentData,
    NotEven,
    NotInLocus,
    SingularSystem,
)
from icosacurves.families import (
    CurveModel,
    classify_genus,
    curve_equation,
    curve_from_symmetric,
    even_model,
    lambda_factor,
    model_forms,
    models_equivalent,
    smallest_one_dimensional_genus,
    symmetric_from_dihedral,
)
from icosacurves.invariants import DihedralInvariants, dihedral_invariants
from icosacurves.loci import rational_model
from icosacurves.polyring import Poly, is_squarefree_certified

F = Fraction


def test_classify_examples():
    c = classify_genus(29)
    assert (c.case_no, c.group, c.delta) == (1, "Z2xA5", 1)
    assert c.multipliers == frozenset()
    c = classify_genus(5)
    assert (c.case_no, c.group, c.delta) == (2, "Z2xA5", 0)
    assert c.multipliers == {"vertex"}
    c = classify_genus(30)
    assert (c.case_no, c.group, c.delta) == (8, "SL2_5", 0)
    assert c.multipliers == {"edge", "face", "vertex"}
    with pytest.raises(NotInLocus):
        classify_genus(7)
    with pytest.raises(NotInLocus):
        classify_genus(1)


def test_classify_full_sweep():
    offsets = {1: -1, 2: 5, 3: 15, 4: 9, 5: 14, 6: 20, 7: 24, 8: 30}
    hits = 0
    for g in range(2, 301):
        try:
            c = classify_genus(g)
        except NotInLocus:
            assert all((g - off) % 30 != 0 or g < off
                       for off in offsets.values())
            continue
        hits += 1
        off = offsets[c.case_no]
        assert c.delta == (g - off) // 30
        assert (g - off) % 30 == 0
        # odd genus pairs with the direct product, even with the cover
        assert (c.group == "Z2xA5") == (g % 2 == 1)
    assert hits == 80  # each of the eight residues occurs ten times up to 300


def test_smallest_one_dimensional():
    expected = {1: 29, 2: 35, 3: 45, 4: 39, 5: 44, 6: 50, 7: 54, 8: 60}
    for case_no, g in expected.items():
        assert smallest_one_dimensional_genus(case_no) == g
        c = classify_genus(g)
        assert c.case_no == case_no
        assert c.delta == 1


def test_lambda_factor_plain_printed_coefficients():
    lam = F(7)
    p = lambda_factor(lam, "x5")
    assert p.degree == 60
    assert p.leading() == -1
    assert p.coeff(0) == -1
    assert p.coeff(55) == 684 - lam
    with pytest.raises(DegenerateBranchValue):
        lambda_factor(F(0))
    with pytest.raises(DegenerateBranchValue):
        lambda_factor(F(1728), "x2")


def test_lambda_factor_even_leading():
    lam = F(3, 7)
    p = lambda_factor(lam, "x2")
    assert p.degree == 60
    assert p.leading() == 125 ** 5 * (1728 - lam)


def test_curve_equation_delta_zero_rows():
    m = curve_equation(5, [], "x5")
    assert m.f == model_forms("x5")[0]["vertex"]
    assert m.f == Poly([0, F(-1)] + [0] * 4 + [F(11)] + [0] * 4 + [F(1)])
    m = curve_equation(30, [], "x5")
    assert m.f.degree == 61


def test_curve_equation_one_dimensional_all_cases():
    rng = random.Random(20)
    for case_no in range(1, 9):
        g = smallest_one_dimensional_genus(case_no)
        lam = F(rng.randint(2, 60), rng.randint(1, 9))
        if lam in (0, 1728):
            lam += 1
        for model in ("x5", "x2"):
            m = curve_equation(g, [lam], model)
            assert m.f.degree in (2 * g + 1, 2 * g + 2)
            assert is_squarefree_certified(m.f)
            # distinct roots plus the possible branch at infinity
            count = m.f.degree + (1 if m.f.degree % 2 else 0)
            assert count == 2 * g + 2


def test_curve_equation_rejects_bad_branch_values():
    with pytest.raises(DuplicateBranchValue):
        curve_equation(59, [F(2), F(2)], "x5")
    with pytest.raises(DegenerateBranchValue):
        curve_equation(29, [F(0)], "x5")
    with pytest.raises(InconsistentData):
        curve_equation(29, [F(2), F(3)], "x5")


def test_plain_model_power_structure():
    # every plain-model equation is a polynomial in x^5, or x times one
    for g, lams in ((29, [F(2)]), (35, [F(3)]), (44, [F(5)]), (60, [F(7)])):
        f = curve_equation(g, lams, "x5").f
        support = [k % 5 for k, c in enumerate(f.coeffs) if c]
        assert len(set(support)) == 1


def test_degenerate_values_really_degenerate():
    # at the two excluded branch values the fiber polynomial acquires
    # repeated roots, which is exactly why the guard exists
    from icosacurves.icosa import edge_form, face_form, vertex_form
    r, s, t = face_form(), vertex_form(), edge_form()
    at_zero = -(r ** 3)
    at_1728 = -(r ** 3) - s ** 5 * 1728
    assert at_1728 == -(t * t)
    assert not is_squarefree_certified(at_zero)
    assert not is_squarefree_certified(at_1728)


def test_even_model_examples():
    c = classify_genus(29)
    toy = CurveModel(Poly([F(3), 0, 2, 0, 1]), 1, "x2", c, [])
    assert even_model(toy) == [3, 2, 1]
    toy_odd = CurveModel(Poly([0, F(1), 0, 0, 0, 1]), 2, "x2", c, [])
    assert even_model(toy_odd) == [1, 0, 1]
    with pytest.raises(NotEven):
        even_model(CurveModel(Poly([F(1), 1]), 1, "x2", c, []))
    with pytest.raises(NotEven):
        even_model(CurveModel(Poly([F(1), 0, 1]), 1, "x5", c, []))


def test_even_model_family():
    m = curve_equation(29, [F(11, 3)], "x2")
    b = even_model(m)
    assert len(b) == 31
    assert b[0] and b[30]
    modd = curve_equation(44, [F(4)], "x2")
    b = even_model(modd)
    assert len(b) == 45  # degree 89 strips to an even polynomial of degree 88


def test_models_equivalent():
    for g, lam in ((29, F(2)), (44, F(7, 2)), (35, F(-3))):
        plain = curve_equation(g, [lam], "x5")
        even = curve_equation(g, [lam], "x2")
        assert models_equivalent(plain, even)
    plain = curve_equation(29, [F(2)], "x5")
    other = curve_equation(29, [F(3)], "x2")
    assert not models_equivalent(plain, other)


def _product_path(g, lams, model):
    # the reference: the multiplier forms times one lambda_factor per value
    f = Poly([1])
    for name in sorted(classify_genus(g).multipliers):
        f = f * model_forms(model)[0][name]
    for lam in lams:
        f = f * lambda_factor(lam, model)
    return f


_rationals = st.fractions(min_value=-10 ** 4, max_value=10 ** 4,
                          max_denominator=50).filter(
    lambda x: x not in (0, 1728))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 3), st.sampled_from(["x5", "x2"]),
       st.lists(_rationals, min_size=3, max_size=3, unique=True))
def test_curve_equation_matches_the_product_path(case_no, delta, model,
                                                  values):
    if case_no == 1 and delta == 0:
        delta = 1  # case 1 has no zero-dimensional member
    g = smallest_one_dimensional_genus(case_no) + 30 * (delta - 1)
    lams = values[:delta]
    assert curve_equation(g, lams, model).f == _product_path(g, lams, model)


def test_curve_from_symmetric_matches_rational_branch_values():
    for g, lams in ((29, [F(7)]), (59, [F(3), F(-11, 4)]),
                    (89, [F(3), F(-5, 7), F(11)])):
        s = [sum(math.prod(c) for c in itertools.combinations(lams, m))
             for m in range(1, len(lams) + 1)]
        for model in ("x5", "x2"):
            m = curve_from_symmetric(g, s, model)
            assert m.f == curve_equation(g, lams, model).f
            assert (m.genus, m.model, m.params) == (g, model, [])


@pytest.mark.parametrize("s,error,value", [
    ([F(3), F(0)], DegenerateBranchValue, "0"),           # t^2 - 3t
    ([F(1729), F(1728)], DegenerateBranchValue, "1728"),  # (t-1)(t-1728)
    ([F(4), F(4)], DuplicateBranchValue, None),           # (t-2)^2
    ([F(4)], InconsistentData, None),
])
def test_curve_from_symmetric_rejects_bad_branch_polynomials(s, error,
                                                             value):
    with pytest.raises(error) as info:
        curve_from_symmetric(59, s, "x5")
    assert info.value.payload.get("value") == (
        None if value is None else F(value))


@pytest.mark.parametrize("g,s", [
    (89, (F(3, 2), F(-5), F(7, 3))),
    (119, (F(3, 2), F(-5), F(7, 3), F(2))),
    (104, (F(3, 2), F(-5), F(7, 3))),
    (134, (F(3, 2), F(-5), F(7, 3), F(2))),
])
def test_recovery_at_three_and_four_branch_values(g, s):
    # case 1 (Z2xA5) at genus 89 and 119 and case 5 (SL2_5) at genus 104
    # and 134, delta = 3 and 4
    u = dihedral_invariants(even_model(curve_from_symmetric(g, s, "x2")))
    assert symmetric_from_dihedral(u, len(s)) == s
    vals = list(u.values)
    vals[4] = vals[4] + 1
    with pytest.raises(SingularSystem):
        symmetric_from_dihedral(DihedralInvariants(d=u.d, values=tuple(vals)),
                                len(s))


@pytest.mark.parametrize("case_no", range(1, 9))
def test_round_trip_at_irrational_branch_values(case_no):
    # P = t^2 - t - 1 has the roots (1 +- sqrt(5))/2, yet the moduli point
    # is rational and so is the model built from s alone
    g = smallest_one_dimensional_genus(case_no) + 30
    s = (F(1), F(-1))
    plain = curve_from_symmetric(g, s, "x5")
    even = curve_from_symmetric(g, s, "x2")
    u = dihedral_invariants(even_model(even))
    assert all(isinstance(v, (int, F)) for v in u.values)
    assert symmetric_from_dihedral(u, 2) == s
    assert models_equivalent(plain, even)
    assert dihedral_invariants(even_model(rational_model(u))).values == (
        u.values)
