"""Tests for the icosahedral rotation group and its invariant map."""

import json
import random
from fractions import Fraction
from importlib import resources

import pytest

from icosacurves.errors import (
    FixedPointsOutsideField,
    InconsistentData,
    OrderTooLarge,
    ParabolicElement,
)
from icosacurves.exactfield import QuadraticElement, cyclotomic_field
from icosacurves.icosa import (
    IcosahedralGroup,
    MoebiusMap,
    _OrbitCosets,
    _first_entry_one,
    build_icosahedral_group,
    edge_form,
    face_form,
    first_nonconstant_symmetric_function,
    invariant_map,
    moebius_equivalence,
    normalize_element_to_scaling,
    syzygy_check,
    vertex_form,
)
from icosacurves.polyring import Poly, RationalFunction, compose_rational

F = Fraction
ZETA = cyclotomic_field(60).zeta(1)
EPSILON5 = ZETA ** 12  # primitive 5th root, smallest positive argument
F5 = cyclotomic_field(5)


def orbit_invariance_check(func, group):
    """Oracle: func(g(x)) == func(x) for both generators, hence the group."""
    return all(compose_rational(func, g.as_rational_function()) == func
               for g in group.generators)


def test_group_order_and_profile():
    g = build_icosahedral_group()
    assert len(g) == 60
    assert g.order_profile() == {1: 1, 2: 15, 3: 20, 5: 24}


def test_generator_orders():
    g = build_icosahedral_group()
    ga, gb = g.generators
    assert ga.order() == 2
    assert gb.order() == 5


def test_group_maps_stay_over_q_zeta5():
    g = build_icosahedral_group()
    for m in g.elements + list(g.generators):
        assert all(e.field is F5 for e in (m.a, m.b, m.c, m.d))
    # normalize_element_to_scaling lifts into the ambient field itself
    sigma, mu, _ = normalize_element_to_scaling(g.generators[1])
    assert mu.field is ZETA.field and sigma.b.field is ZETA.field


def _key(m):
    """A map's entries scaled so the first nonzero one is 1."""
    return _first_entry_one((m.a, m.b, m.c, m.d))


def test_group_closure_sampled():
    g = build_icosahedral_group()
    members = set(map(_key, g.elements))
    rng = random.Random(7)
    for _ in range(40):
        x, y = rng.choice(g.elements), rng.choice(g.elements)
        assert _key(x.compose(y)) in members
    for x in rng.sample(g.elements, 10):
        assert _key(x.inverse()) in members


def test_moebius_map_basics():
    m = MoebiusMap(1, 2, 3, 4)
    assert (type(m.a), m.d) == (int, 4)  # entries stay as given
    assert m.as_rational_function()(F(0)) == F(2, 4)
    inv = m.inverse()
    assert m.compose(inv).is_identity()
    with pytest.raises(ValueError):
        MoebiusMap(1, 2, 2, 4)
    with pytest.raises(OrderTooLarge):
        MoebiusMap(1, 1, 0, 1).order()


def test_orbit_form_degrees_and_values():
    r, s, t = face_form(), vertex_form(), edge_form()
    assert (r.degree, s.degree, t.degree) == (20, 11, 30)
    assert r(F(1)) == 496
    assert s(F(1)) == 11
    assert t(F(1)) == -20008


def printed_orbit_forms():
    """The orbit forms as the reference data prints them."""
    raw = json.loads(resources.files("icosacurves").joinpath(
        "fixtures.json").read_text())["orbit_forms"]
    return {k: Poly([F(c) for c in v]) for k, v in raw.items()}


def test_orbit_forms_equal_the_printed_forms():
    printed = printed_orbit_forms()
    assert vertex_form() == printed["vertex"]
    assert face_form() == printed["face"]
    assert edge_form() == printed["edge"]


def test_syzygy():
    syzygy_check()
    r, s, t = face_form(), vertex_form(), edge_form()
    assert t * t == r ** 3 + s ** 5 * 1728


def test_invariant_map_shape():
    phi = invariant_map()
    assert phi.mapped_degree() == 60
    assert phi.num.degree == 60
    assert phi.den.degree == 55


def test_invariant_map_orbit_invariance():
    g = build_icosahedral_group()
    assert orbit_invariance_check(invariant_map(), g)


def test_orbit_invariance_rejects_noninvariant():
    g = build_icosahedral_group()
    x = RationalFunction(Poly([0, F(1)]))
    assert not orbit_invariance_check(x, g)


def test_normalize_order_five_diagonal():
    g = build_icosahedral_group()
    gb = g.generators[1]
    sigma, mu, order = normalize_element_to_scaling(gb)
    assert order == 5
    assert mu ** 5 == 1 and mu != 1
    assert mu in (EPSILON5 ** k for k in range(1, 5))


def test_normalize_order_two_generator():
    g = build_icosahedral_group()
    ga = g.generators[0]
    sigma, mu, order = normalize_element_to_scaling(ga)
    assert order == 2
    assert mu == -1


def test_normalize_involutions_all_in_field():
    g = build_icosahedral_group()
    for el in g.elements:
        if el.order() == 2:
            _, mu, _ = normalize_element_to_scaling(el)
            assert mu == -1


def test_normalize_order_three_uniform_outcome():
    # all order-3 elements are conjugate over the ambient field, so either
    # every one diagonalizes in the field or none does
    g = build_icosahedral_group()
    outcomes = set()
    for el in g.elements:
        if el.order() != 3:
            continue
        try:
            _, mu, _ = normalize_element_to_scaling(el)
            assert mu * mu + mu + 1 == 0
            outcomes.add("in-field")
        except FixedPointsOutsideField:
            outcomes.add("outside")
    assert len(outcomes) == 1


def test_normalize_parabolic_and_outside():
    with pytest.raises(ParabolicElement):
        normalize_element_to_scaling(MoebiusMap(1, 1, 0, 1))
    # x -> zeta/x has order two and fixed points +-sqrt(zeta), not in the field
    with pytest.raises(FixedPointsOutsideField):
        normalize_element_to_scaling(MoebiusMap(0, ZETA, 1, 0))


def test_normalize_identity():
    sigma, mu, order = normalize_element_to_scaling(MoebiusMap(1, 0, 0, 1))
    assert (mu, order) == (1, 1)


def _cyclic_group(n=5):
    maps = [MoebiusMap(F5.zeta(k), 0, 0, 1) for k in range(n)]
    return IcosahedralGroup(maps, (maps[1],))


def test_symmetric_function_cyclic_oracle():
    # for the cyclic rotation group the orbit product is T^5 - x^5, so the
    # first varying elementary symmetric function is the fifth, equal to x^5
    grp = _cyclic_group()
    k, s = first_nonconstant_symmetric_function(grp)
    assert k == 5
    assert s == RationalFunction(Poly([0, 0, 0, 0, 0, F(1)]))


def _plain_orbit_product(group, xv):
    """prod_g ((c x+d) T - (a x+b)) at x = xv, one linear factor at a time."""
    poly = [F5.one()]
    for g in group.elements:
        a, b, c, d = g.a, g.b, g.c, g.d
        alpha, beta = c * xv + d, a * xv + b
        nxt = [F5.zero() for _ in range(len(poly) + 1)]
        for k, coef in enumerate(poly):
            nxt[k + 1] = nxt[k + 1] + coef * alpha
            nxt[k] = nxt[k] - coef * beta
        poly = nxt
    return poly


def test_orbit_cosets_top_coefficients_match_plain_product():
    # the coset binomials give the 60-factor product up to a rational
    # scalar: U^12, U^11, U^10 with U = T^5 are T^60, T^55, T^50
    grp = build_icosahedral_group()
    cosets = _OrbitCosets(grp)
    assert cosets.m == 5
    top = cosets.top(3)
    for xv in (1, -1, 2, 3):
        plain = _plain_orbit_product(grp, xv)
        assert all(c.is_rational() for c in plain)
        plain = [c.rational_value() for c in plain]
        assert [plain[60 - 5 * t] / plain[60] for t in range(3)] == [
            p(xv) / top[0](xv) for p in top]


def test_symmetric_function_without_diagonal_rotations():
    # x -> x+1 conjugates the rotations to (zeta^k, 1-zeta^k, 0, 1): only the
    # identity is diagonal, so m = 1, and the orbit product is
    # (T-1)^5 - (x-1)^5, whose fifth symmetric function is (x-1)^5 + 1
    maps = [MoebiusMap(F5.zeta(k), 1 - F5.zeta(k), 0, 1) for k in range(5)]
    grp = IcosahedralGroup(maps, (maps[1],))
    assert _OrbitCosets(grp).m == 1
    k, s = first_nonconstant_symmetric_function(grp)
    assert k == 5
    assert s == RationalFunction(Poly([0, F(5), F(-10), F(10), F(-5), F(1)]))


def _without(group, drop):
    kept = [g for g in group.elements if g is not drop]
    return IcosahedralGroup(kept, group.generators)


def test_symmetric_function_rejects_group_without_identity():
    grp = build_icosahedral_group()
    identity = next(g for g in grp.elements if g.is_identity())
    with pytest.raises(InconsistentData, match="roots of unity"):
        first_nonconstant_symmetric_function(_without(grp, identity))


def test_symmetric_function_rejects_diagonal_maps_off_the_roots_of_unity():
    # {x, zeta x}: two diagonal maps, but zeta is not a square root of unity
    maps = _cyclic_group().elements[:2]
    with pytest.raises(InconsistentData, match="roots of unity"):
        first_nonconstant_symmetric_function(
            IcosahedralGroup(maps, (maps[1],)))


def test_symmetric_function_rejects_a_missing_coset_member():
    grp = build_icosahedral_group()
    rotation = next(g for g in grp.elements if g.order() == 3)
    with pytest.raises(InconsistentData, match="not closed"):
        first_nonconstant_symmetric_function(_without(grp, rotation))


def test_orbit_cosets_of_a_gaussian_cyclic_group():
    # the entries stay in Q(i): x -> i^k x has the orbit product T^4 - x^4,
    # whose fourth symmetric function is i^6 x^4 = -x^4
    i = QuadraticElement(0, 1, -1)
    maps = [MoebiusMap(i ** k, 0, 0, 1) for k in range(4)]
    grp = IcosahedralGroup(maps, (maps[1],))
    assert _OrbitCosets(grp).m == 4
    assert first_nonconstant_symmetric_function(grp) == (
        4, RationalFunction(Poly([0, 0, 0, 0, F(-1)])))


def test_symmetric_function_rejects_an_irrational_orbit_coefficient():
    # x -> zeta^k (x - zeta) + zeta fixes zeta, not 0: only the identity is
    # diagonal, so m = 1, and the orbit product (T - zeta)^5 - (x - zeta)^5
    # has T^4 coefficient -5 zeta
    zeta = F5.zeta(1)
    maps = [MoebiusMap(F5.zeta(k), zeta * (1 - F5.zeta(k)), 0, 1)
            for k in range(5)]
    grp = IcosahedralGroup(maps, (maps[1],))
    assert _OrbitCosets(grp).m == 1
    with pytest.raises(InconsistentData, match="not rational"):
        first_nonconstant_symmetric_function(grp)


def test_moebius_equivalence_synthetic():
    g = RationalFunction(Poly([F(1), 0, 0, 1]), Poly([F(2), 1]))
    target = MoebiusMap(2, 3, 1, -1)
    f = RationalFunction(g.num * 2 + g.den * 3, g.num - g.den)
    w = moebius_equivalence(f, g)
    assert w is not None
    assert _key(w) == _key(target)
    assert moebius_equivalence(
        RationalFunction(Poly([0, F(1)])),
        RationalFunction(Poly([0, 0, F(1)]))) is None
