"""Tests for decompositions of the invariant map."""

import json
from fractions import Fraction
from importlib import resources

import pytest

from icosacurves import decomp
from icosacurves.decomp import (
    check_inner,
    conjugated_edge_identity,
    conjugated_form,
    gaussian_transport,
    inner_cubic_decomposition,
    left_factor,
    transported_invariant_map,
    transported_matches_factored,
    verify_conjugated_identities,
)
from icosacurves.errors import ConstantInner, DegreeMismatch, IdentityFailed
from icosacurves.exactfield import QuadraticElement
from icosacurves.icosa import MoebiusMap, invariant_map
from icosacurves.polyring import Poly, RationalFunction

F = Fraction
I = QuadraticElement(0, 1, -1)


def horner_compose(outer, inner):
    """Oracle: outer(a/b) for inner = a/b of any degree, each part sum c_i x^i
    of outer becoming sum c_i a^i b^(m-i) by Horner's rule from the top."""
    a, b = inner.num, inner.den
    m = max(outer.num.degree, outer.den.degree)

    def homog(p):
        acc, b_pow = Poly(), Poly([1])
        for i in range(m, -1, -1):
            acc = acc * a + b_pow * p.coeff(i)
            b_pow = b_pow * b
        return acc

    return RationalFunction(homog(outer.num), homog(outer.den))


def test_conjugated_form_degrees():
    assert conjugated_form("face").degree == 20
    assert conjugated_form("vertex").degree == 12
    assert conjugated_form("edge").degree == 29


@pytest.mark.parametrize("kind", ["face", "vertex", "edge"])
def test_conjugated_forms_equal_the_printed_factor_products(kind):
    derived = conjugated_form(kind)
    printed = json.loads(resources.files("icosacurves").joinpath(
        "fixtures.json").read_text())["conjugated_factors"][kind]
    product = Poly([1])
    for factor in printed:
        product = product * Poly([QuadraticElement(F(x), F(y), -1)
                                  for x, y in factor])
    assert derived == product


def test_conjugated_forms_parity():
    # face and vertex forms are even; the edge form is x times an even one
    for form in (conjugated_form("face"), conjugated_form("vertex")):
        assert all(not form.coeff(k) for k in range(1, form.degree + 1, 2))
    t = conjugated_form("edge")
    assert not t.coeff(0)
    assert all(not t.coeff(k) for k in range(0, t.degree + 1, 2))


def test_transported_map_samples():
    # the transported map must equal the plain map after the substitution
    t = transported_invariant_map()
    phi = invariant_map()
    i = QuadraticElement(0, 1, -1)
    sigma = MoebiusMap(i, 1, -i, 1)   # x -> (ix + 1)/(-ix + 1)
    for x0 in (F(2), F(1, 3), F(-5)):
        pre = sigma.inverse().as_rational_function()(x0)
        expect = phi(pre)
        got = t(QuadraticElement(x0, 0, -1))
        assert got == expect


def test_transported_matches_factored():
    assert transported_matches_factored()


def test_conjugated_edge_identity_true_scalar():
    # edge^2 is nonzero, so only one scalar passes: the derived default
    assert conjugated_edge_identity()
    assert conjugated_edge_identity(QuadraticElement(256, 512, -1))
    verify_conjugated_identities()


def test_conjugated_edge_identity_rejects_conjugate_scalar():
    # swapping the Gaussian parts of the scalar breaks the identity
    assert not conjugated_edge_identity(QuadraticElement(512, 256, -1))
    assert not conjugated_edge_identity(QuadraticElement(256, -512, -1))


def test_leading_coefficient_cancellation():
    lhs = conjugated_form("face") ** 3 * F(64) \
        - conjugated_form("vertex") ** 5 * F(1728)
    assert lhs.degree == 58
    assert 64 * 9375 ** 3 == 1728 * 125 ** 5


def test_left_factor_power_of_five():
    phi = invariant_map()
    g = left_factor(phi, 5)
    assert g is not None
    assert g.mapped_degree() == 12
    assert horner_compose(g, RationalFunction(Poly([0, 0, 0, 0, 0, 1]))) \
        == phi


def test_left_factor_even_transported():
    t = transported_invariant_map()
    g = left_factor(t, 2)
    assert g is not None
    assert g.mapped_degree() == 30


def test_left_factor_rejects_bad_inner():
    phi = invariant_map()
    with pytest.raises(ConstantInner):
        left_factor(phi, 0)
    with pytest.raises(DegreeMismatch):
        left_factor(phi, 7)
    # the plain map is not a function of x^2
    assert left_factor(phi, 2) is None


def test_inner_cubic_decomposition():
    outer, inner = inner_cubic_decomposition()
    assert inner.mapped_degree() == 3
    assert outer.mapped_degree() == 20
    assert horner_compose(outer, inner) == invariant_map()


def test_inner_cubic_decomposition_rejects_a_wrong_outer(monkeypatch):
    # the verification is exact: one changed coefficient of the outer map
    # that left_factor hands back must fail it
    found = left_factor

    def one_coefficient_off(f, m):
        outer = found(f, m)
        cs = list(outer.num.coeffs)
        cs[1] = cs[1] + 1
        return RationalFunction(Poly(cs), outer.den)

    monkeypatch.setattr(decomp, "left_factor", one_coefficient_off)
    with pytest.raises(IdentityFailed):
        inner_cubic_decomposition()


def test_gaussian_transport_rejects_a_degree_above_m():
    # an IndexError before
    with pytest.raises(DegreeMismatch):
        gaussian_transport(Poly([1, 2, 3]), 1)


def test_check_inner_reports():
    r5 = check_inner("x5")
    assert r5["found"] and r5["outer_degree"] == 12
    r2 = check_inner("x2")
    assert r2["found"] and r2["outer_degree"] == 30
    with pytest.raises(ValueError):
        check_inner("x7")


@pytest.mark.parametrize("kind,degree", [("x5", 12), ("x2", 30), ("x3", 20)])
def test_the_certificate_reduces_every_decomposition_map(kind, degree,
                                                         monkeypatch):
    # each rational function of a route, the outer map and the x3 spread
    # outer(x^3) included, is certified coprime, so no exact gcd runs
    def refuse(self, other):
        raise AssertionError("exact gcd on a decomposition route")

    monkeypatch.setattr(Poly, "gcd", refuse)
    assert check_inner(kind) == {"inner": kind, "found": True,
                                 "outer_degree": degree}
