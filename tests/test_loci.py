import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from icosacurves.errors import (
    EliminationDegenerate,
    InconsistentData,
    NormalizationUndefined,
    NotInLocus,
    NotOnLocus,
    RationalI3,
    SingularPoint,
)
from icosacurves.exactfield import QuadraticElement
from icosacurves.families import curve_equation, even_model
from icosacurves.fixtures import load_fixtures
from icosacurves.invariants import (
    DihedralInvariants,
    _demote,
    check_group_relation,
    dihedral_invariants,
    invariant_set,
)
from icosacurves.loci import (
    _quadratic_root,
    _reduce_plane_model,
    _reduced_resultant,
    build_locus,
    evaluate_plane_model,
    fiber_model,
    field_of_moduli_at,
    rational_model,
    singular_fibers,
    solve_lambda,
)
from icosacurves.polyring import (
    Poly,
    _bareiss_det,
    pseudo_remainder,
    sylvester_matrix,
)

FIBER_KEYS = {"collision": "collision", "zero_locus": "zero",
              "infinity_locus": "infinity"}


@pytest.fixture(scope="module")
def locus1():
    return build_locus(1)


@pytest.fixture(scope="module")
def fibers1(locus1):
    return singular_fibers(locus1)


def test_case1_matches_printed_equation(locus1):
    ref = {k: int(v) for k, v in load_fixtures().reference_locus_case1.items()}
    assert locus1.F == ref
    assert locus1.F[(0, 4)] == 20104543529222176607891970551365425625
    # the printed normalisation is the computed one: kappa = (1, 1, 1)
    printed = load_fixtures().reference_absolute_g29
    assert locus1.i1_of_lambda == printed["i1"]
    assert locus1.i2_of_lambda == printed["i2"]


def test_case1_degree_box(locus1):
    assert max(j for j, k in locus1.F) == 6
    assert max(k for j, k in locus1.F) == 4


def test_identity_holds_symbolically(locus1):
    # clear denominators: sum c_jk n1^j d1^(6-j) n2^k d2^(4-k) must vanish
    n1, d1 = locus1.i1_of_lambda.num, locus1.i1_of_lambda.den
    n2, d2 = locus1.i2_of_lambda.num, locus1.i2_of_lambda.den
    acc = Poly()
    for (j, k), c in locus1.F.items():
        acc = acc + Poly([c]) * n1 ** j * d1 ** (6 - j) * n2 ** k * d2 ** (4 - k)
    assert not acc


def test_identity_at_sample_values(locus1):
    for lam in (F(5), F(7), F(-3, 2), F(22, 7)):
        v = evaluate_plane_model(locus1.F, locus1.i1_of_lambda(lam),
                                 locus1.i2_of_lambda(lam))
        assert v == 0


def test_origin_is_a_singular_point(locus1):
    # value and both first partials vanish at (0, 0)
    assert (0, 0) not in locus1.F
    assert (1, 0) not in locus1.F
    assert (0, 1) not in locus1.F


def test_invalid_case_number_rejected():
    with pytest.raises(ValueError):
        build_locus(9)


@pytest.mark.parametrize("case", range(1, 9))
def test_singular_fibers_match_reference_tables(case):
    fx = load_fixtures()
    L = build_locus(case)
    fibers = singular_fibers(L)
    assert [fb.kind for fb in fibers] == ["collision", "zero_locus",
                                          "infinity_locus"]
    for fb in fibers:
        ref = fx.singular_quadratics[case][FIBER_KEYS[fb.kind]]
        assert [int(c) for c in fb.q.coeffs] == [ref.coeff(i)
                                                 for i in range(3)]
        assert fb.d_table == fx.moduli_fields[case][FIBER_KEYS[fb.kind]]
        # table datum is the squarefree part of the discriminant
        prod = fb.D * fb.d_table
        assert prod > 0
        assert math.isqrt(prod) ** 2 == prod


def test_collision_roots_share_both_invariants(locus1, fibers1):
    coll = fibers1[0]
    root = _quadratic_root(coll.q, coll.d_table)
    conj = QuadraticElement(root.a, -root.b, root.D)
    assert root != conj
    for rf in (locus1.i1_of_lambda, locus1.i2_of_lambda):
        assert rf(root) == rf(conj)


def test_field_of_moduli_case1(locus1, fibers1):
    expected = {"collision": 6594752841114090745134757,
                "zero_locus": 127067509222,
                "infinity_locus": -27468005002203037701}
    for fb in fibers1:
        assert field_of_moduli_at(fb, locus1) == expected[fb.kind]


def test_field_of_moduli_exits(locus1, fibers1):
    fb = fibers1[0]
    q = fb.q
    with pytest.raises(ValueError, match="reducible"):
        field_of_moduli_at(fb._replace(q=Poly([F(-1), 0, F(1)]), D=4,
                                       d_table=1), locus1)
    # generators that are rational at the root of q: constants plus
    # multiples of q
    lam = Poly([0, F(1)])
    rational = locus1._replace(
        I2_of_lambda=q * lam + 2, I4_of_lambda=Poly([F(3)]),
        I6_of_lambda=q + 5, I6star_of_lambda=q * q + 7)
    with pytest.raises(RationalI3):
        field_of_moduli_at(fb, rational)
    # every denominator vanishes at the root
    undefined = locus1._replace(I2_of_lambda=q, I4_of_lambda=q * lam,
                                I6star_of_lambda=q)
    with pytest.raises(InconsistentData, match="no absolute invariant"):
        field_of_moduli_at(fb, undefined)


def test_solve_lambda_round_trip(locus1):
    for lam in (F(7), F(-3, 2)):
        i1 = locus1.i1_of_lambda(lam)
        i2 = locus1.i2_of_lambda(lam)
        assert solve_lambda(i1, i2, locus1) == lam


@settings(max_examples=25, deadline=None)
@given(lam=st.fractions(min_value=-200, max_value=200, max_denominator=11))
def test_solve_lambda_round_trips_generically(lam):
    L = build_locus(1)
    assert solve_lambda(L.i1_of_lambda(lam), L.i2_of_lambda(lam), L) == lam


def test_solve_lambda_rejects_points_off_the_curve(locus1):
    assert evaluate_plane_model(locus1.F, F(1), F(1)) != 0
    with pytest.raises(NotOnLocus):
        solve_lambda(F(1), F(1), locus1)


def test_solve_lambda_rejects_invariants_undefined_by_a_vanishing_i2(locus1):
    inv = invariant_set(Poly([0] * 12 + [1]), 5)  # x^12: every I vanishes
    assert inv.i1 is None and inv.i2 is None
    with pytest.raises(NormalizationUndefined):
        solve_lambda(inv.i1, inv.i2, locus1)
    with pytest.raises(NormalizationUndefined):
        solve_lambda(locus1.i1_of_lambda(F(7)), None, locus1)


def test_solve_lambda_flags_singular_points(locus1, fibers1):
    root = _quadratic_root(fibers1[0].q, fibers1[0].d_table)
    i1 = _demote(locus1.i1_of_lambda(root))
    i2 = _demote(locus1.i2_of_lambda(root))
    assert isinstance(i1, F) and isinstance(i2, F)
    with pytest.raises(SingularPoint):
        solve_lambda(i1, i2, locus1)


def _u_of_model(curve):
    return dihedral_invariants(even_model(curve))


@pytest.mark.parametrize("case,genus,lam", [(1, 29, F(7)), (1, 29, F(-5, 3)),
                                            (5, 44, F(5)), (5, 44, F(13, 4))])
def test_rational_model_round_trip(case, genus, lam):
    u = _u_of_model(curve_equation(genus, [lam], "x2"))
    group = check_group_relation(u)
    m = rational_model(u)
    assert m.genus == genus
    assert m.case.case_no == case
    assert _u_of_model(m).values == u.values
    assert check_group_relation(_u_of_model(m)) == group
    # the model is defined over the field generated by the u_i
    assert all(isinstance(c, (int, F)) for c in m.f.coeffs)


def test_rational_model_matches_absolute_invariants():
    lam = F(7)
    m = rational_model(_u_of_model(curve_equation(29, [lam], "x2")))
    s_orig = invariant_set(curve_equation(29, [lam], "x5").f, 29)
    s_model = invariant_set(m.f, 29)
    assert s_orig.absolute() == s_model.absolute()


def test_rational_model_rejects_generic_invariants():
    u = DihedralInvariants(d=30, values=tuple(F(k + 3) for k in range(29)))
    assert check_group_relation(u) == "neither"
    with pytest.raises(NotInLocus):
        rational_model(u)


def test_fiber_model_lives_over_the_moduli_field(locus1, fibers1):
    coll = fibers1[0]
    d, m = fiber_model(locus1, coll)
    assert d == coll.d_table
    assert m.genus == 29
    # some coefficient must genuinely need sqrt(d)
    assert any(isinstance(c, QuadraticElement) and c.b != 0
               for c in m.f.coeffs)
    u = _u_of_model(m)
    assert check_group_relation(u) == "Z2xA5"


def _times(*factors):
    """Product of bivariate polynomials given as {(j, k): c} for X^j Y^k."""
    out = {(0, 0): 1}
    for fac in factors:
        prod = {}
        for (j1, k1), c1 in out.items():
            for (j2, k2), c2 in fac.items():
                key = (j1 + j2, k1 + k2)
                prod[key] = prod.get(key, 0) + c1 * c2
        out = {jk: c for jk, c in prod.items() if c}
    return out


def _columns(R):
    """cols[k], the X-polynomial multiplying Y^k in R."""
    width = max(j for j, _ in R) + 1
    return [Poly([F(R.get((j, k), 0)) for j in range(width)])
            for k in range(max(k for _, k in R) + 1)]


def test_reduce_plane_model_rejects_a_squared_factor():
    # R(x0, Y) is a square at every x0, so no point certifies R
    Q = {(0, 2): 1, (3, 0): -1, (0, 0): -2}          # Y^2 - X^3 - 2
    L = {(0, 1): 1, (1, 0): 1}                       # Y + X
    with pytest.raises(EliminationDegenerate):
        _reduce_plane_model(_columns(_times(Q, Q, L)))


def test_reduce_plane_model_skips_roots_of_the_leading_column():
    # ((X - 1) Y + 1)^2 at X = 1 is the squarefree constant 1, which
    # certifies nothing: the point must move on to X = 2, where it fails
    square = _times(*[{(1, 1): 1, (0, 1): -1, (0, 0): 1}] * 2)
    with pytest.raises(EliminationDegenerate):
        _reduce_plane_model(_columns(square))
    R = {(1, 2): 1, (0, 2): -1, (0, 1): 1, (1, 0): 1}  # (X-1)Y^2 + Y + X
    assert _reduce_plane_model(_columns(R)) == R


def test_reduce_plane_model_strips_one_variable_factors():
    curve = {(0, 2): 1, (3, 0): -1, (1, 0): -1}      # Y^2 - X^3 - X
    R = _times({(2, 0): 3, (0, 0): 3}, {(0, 1): 1, (0, 0): -3}, curve)
    assert _reduce_plane_model(_columns(R)) == _times({(0, 0): -1}, curve)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_reduced_resultant_matches_the_sylvester_determinant(data):
    # the full determinant is the oracle: a wrong power of lc(p) would be
    # an X-factor of R, which _reduce_plane_model strips, so a matching
    # plane model alone does not prove the identity
    coeffs = st.integers(-40, 40)
    m = data.draw(st.integers(2, 5))
    n = data.draw(st.integers(m, 9))
    pc = data.draw(st.lists(coeffs, min_size=m, max_size=m))
    pc.append(data.draw(coeffs.filter(bool)))
    zeros = data.draw(st.integers(0, n))
    qc = data.draw(st.lists(coeffs, min_size=n + 1 - zeros,
                            max_size=n + 1 - zeros)) + [0] * zeros
    want = _bareiss_det(sylvester_matrix(pc, qc))
    assert _reduced_resultant(pc, pseudo_remainder(qc, pc), n) == want


def test_reduced_resultant_refuses_a_linear_p():
    # a remainder of formal degree 0 reads as resultant 0 in
    # sylvester_matrix, while Res(x - 2, x) is 2
    with pytest.raises(EliminationDegenerate):
        _reduced_resultant([-2, 1], pseudo_remainder([0, 1], [-2, 1]), 1)
