"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass line when it succeeds, so a verbose run
yields one pass or fail line per criterion.  Every comparison is exact;
no tolerances appear anywhere.
"""

import json
import math
import random
import time
from fractions import Fraction as F
from importlib import resources

from icosacurves.decomp import conjugated_edge_identity, verify_conjugated_identities
from icosacurves.exactfield import QuadraticElement
from icosacurves.families import (
    classify_genus,
    curve_equation,
    even_model,
    lambda_factor,
    smallest_one_dimensional_genus,
    symmetric_from_dihedral,
)
from icosacurves.fixtures import load_fixtures
from icosacurves.icosa import (
    build_icosahedral_group,
    first_nonconstant_symmetric_function,
    invariant_map,
    moebius_equivalence,
    syzygy_check,
)
from icosacurves.invariants import (
    check_group_relation,
    covariant_vanishing_checks,
    dihedral_invariants,
    invariant_set,
)
from icosacurves.loci import (
    build_locus,
    fiber_model,
    field_of_moduli_at,
    rational_model,
    singular_fibers,
    _quadratic_root,
)
from icosacurves.polyring import Poly, RationalFunction

_CASE_OFFSETS = {1: -1, 2: 5, 3: 15, 4: 9, 5: 14, 6: 20, 7: 24, 8: 30}

_rng = random.Random("acceptance-suite")


def _random_lambda(forbid=(F(0), F(1728))):
    while True:
        lam = F(_rng.randint(-400, 400), _rng.randint(1, 12))
        if lam not in forbid:
            return lam


def _ok(n, text):
    print(f"PASS criterion {n:02d}: {text}")


def test_criterion_01_group_construction():
    t0 = time.monotonic()
    group = build_icosahedral_group()
    elapsed = time.monotonic() - t0
    assert len(group) == 60
    assert group.order_profile() == {1: 1, 2: 15, 3: 20, 5: 24}
    g1, g2 = group.generators
    if g1.order() != 2:
        g1, g2 = g2, g1
    assert g1.order() == 2
    assert g2.order() == 5
    assert g1.compose(g2).order() == 3
    assert elapsed < 5.0
    _ok(1, f"60 classes, profile and generator relations, {elapsed:.2f}s")


def test_criterion_02_fixed_field_generator():
    group = build_icosahedral_group()
    k, fn = first_nonconstant_symmetric_function(group)
    assert fn.mapped_degree() == 60
    forms = {k: Poly([F(c) for c in v]) for k, v in json.loads(
        resources.files("icosacurves").joinpath("fixtures.json").read_text()
    )["orbit_forms"].items()}
    printed = RationalFunction(-(forms["face"] ** 3), forms["vertex"] ** 5)
    assert invariant_map() == printed
    cert = moebius_equivalence(fn, invariant_map())
    assert cert is not None
    _ok(2, f"symmetric function #{k} has degree 60 and maps onto the "
           f"printed quotient map")


def test_criterion_03_orbit_form_identities():
    syzygy_check()
    verify_conjugated_identities()
    scalar = load_fixtures().conjugated_identity_scalar
    assert conjugated_edge_identity(scalar)
    swapped = QuadraticElement(scalar.b, scalar.a, scalar.D)
    assert not conjugated_edge_identity(swapped)
    _ok(3, f"syzygy and Gaussian identity hold; scalar "
           f"{scalar.a}+{scalar.b}i works, its swap does not")


def test_criterion_04_branch_factor_expansion():
    ref = load_fixtures().branch_factor_x5
    p1 = lambda_factor(F(1), "x5")
    p2 = lambda_factor(F(2), "x5")
    assert p1.degree == 60
    pairs = {}
    for k in range(61):
        a = 2 * p1.coeff(k) - p2.coeff(k)
        b = p2.coeff(k) - p1.coeff(k)
        pairs[k] = (a, b)
        assert (a, b) == ref.get(k, (F(0), F(0)))
    assert pairs[55] == (F(684), F(-1))
    assert pairs[30] == (F(33211924), F(-134761))
    lam = _random_lambda()
    expanded = Poly([a + b * lam for a, b in (pairs[k] for k in range(61))])
    assert expanded == lambda_factor(lam, "x5")
    _ok(4, "all 61 coefficients linear in the branch value match")


def test_criterion_05_genus_classification_and_curves():
    hits = 0
    for g in range(2, 301):
        matches = [(c, (g - off) // 30) for c, off in _CASE_OFFSETS.items()
                   if (g - off) % 30 == 0 and g >= off]
        if not matches:
            continue
        case_no, delta = matches[0]
        desc = classify_genus(g)
        assert desc.case_no == case_no
        assert desc.delta == delta
        assert desc.group == ("Z2xA5" if g % 2 else "SL2_5")
        hits += 1
    assert hits == 80
    for case_no in range(1, 9):
        g = smallest_one_dimensional_genus(case_no)
        lam = _random_lambda()
        cur = curve_equation(g, [lam], "x5")
        d = cur.f.degree
        assert d in (2 * g + 1, 2 * g + 2)
        assert cur.f.gcd(cur.f.derivative()).degree == 0
        weierstrass = d + (1 if d % 2 else 0)
        assert weierstrass == 2 * g + 2
    _ok(5, "80 genera classified up to 300; all 8 smallest families give "
           "squarefree curves with 2g+2 Weierstrass points")


def test_criterion_06_covariant_vanishing():
    for lam in (F(7), F(-2), F(22, 7)):
        cur = curve_equation(29, [lam], "x2")
        checks = covariant_vanishing_checks(cur.f, 29)
        assert set(checks) == {4, 8, 16, 28}
        assert all(v == 0 for v in checks.values())
    bumped = Poly([c + (1 if k == 3 else 0)
                   for k, c in enumerate(cur.f.coeffs)])
    perturbed = covariant_vanishing_checks(bumped, 29)
    assert any(v != 0 for v in perturbed.values())
    _ok(6, "four covariants vanish at three branch values and detect a "
           "perturbed coefficient")


def test_criterion_07_dihedral_invariants():
    ref = load_fixtures().reference_dihedral_g29
    u1, u29 = ref["u1"], ref["u29"]
    # The even-model b_j are linear in lam, so the computed u_1 is N/D with
    # D = b_0^29 b_30^29 and deg N, deg D <= 58, and the computed u_29 =
    # 2 b_1 b_29 / (b_0 b_30) has degrees <= 2.  Cross-multiplied, each
    # check below is a numerator identity of degree at most 58 plus the
    # printed u_1 degree (u_1), 2 + 2 (u_29) or 58 + 15 * 2 (the relation
    # 2^14 u_1 = u_29^15).  Holding at one point more than that, none of
    # them a pole (dihedral_invariants and the printed functions raise
    # there), it holds identically in lam.
    assert max(u29.num.degree, u29.den.degree) == 2
    need = 58 + max(u1.num.degree, u1.den.degree, 15 * 2) + 1
    assert need == 89
    for k in range(1, need + 1):
        lam = F(k, 3)
        u = dihedral_invariants(even_model(curve_equation(29, [lam], "x2")))
        assert u.u(1) == u1(lam)
        assert u.u(29) == u29(lam)
        assert 2 ** 14 * u.u(1) - u.u(29) ** 15 == 0
    for lam in (F(9), _random_lambda()):
        u = dihedral_invariants(even_model(curve_equation(29, [lam], "x2")))
        assert 2 ** 14 * u.u(1) - u.u(29) ** 15 == 0
        assert check_group_relation(u) == "Z2xA5"
    for lam in (F(5), _random_lambda()):
        u = dihedral_invariants(even_model(curve_equation(44, [lam], "x2")))
        assert check_group_relation(u) == "SL2_5"
    _ok(7, "printed u1, u29 and their group relation proved at 89 points; "
           "odd and even group relations verified")


def test_criterion_08_printed_invariant_functions_and_locus():
    fx = load_fixtures()
    L = build_locus(1)
    ref_i1 = fx.reference_absolute_g29["i1"]
    ref_i2 = fx.reference_absolute_g29["i2"]
    samples = [F(2)] + [_random_lambda() for _ in range(5)]
    base1 = ref_i1(samples[0]) / L.i1_of_lambda(samples[0])
    base2 = ref_i2(samples[0]) / L.i2_of_lambda(samples[0])
    for lam in samples[1:]:
        assert ref_i1(lam) / L.i1_of_lambda(lam) == base1
        assert ref_i2(lam) / L.i2_of_lambda(lam) == base2
    # kappa = (1, 1, 1): the computed functions are the printed ones
    assert L.i1_of_lambda == ref_i1
    assert L.i2_of_lambda == ref_i2
    ref_F = {k: int(v) for k, v in fx.reference_locus_case1.items()}
    assert L.F == ref_F
    _ok(8, "rescaling constants stay fixed over six samples; invariant "
           "functions and the plane relation match the printed data")


def test_criterion_09_singular_fibers_all_cases():
    fx = load_fixtures()
    names = {"collision": "collision", "zero_locus": "zero",
             "infinity_locus": "infinity"}
    for case_no in range(1, 9):
        L = build_locus(case_no)
        for fb in singular_fibers(L):
            ref_q = fx.singular_quadratics[case_no][names[fb.kind]]
            ours = Poly([F(c) for c in fb.q.coeffs])
            assert ours == ref_q or ours == -ref_q
            prod = fb.D * fx.moduli_fields[case_no][names[fb.kind]]
            assert prod > 0 and math.isqrt(prod) ** 2 == prod
            assert field_of_moduli_at(fb, L) == fb.d_table
            d, m = fiber_model(L, fb)
            assert d == fx.moduli_fields[case_no][names[fb.kind]]
            # rational_model reads the genus off the group relation of u
            assert m.genus == L.genus
            assert m.case.group == classify_genus(L.genus).group
            assert any(isinstance(c, QuadraticElement) and c.b != 0
                       for c in m.f.coeffs)
            if fb.kind == "collision":
                root = _quadratic_root(fb.q, fb.d_table)
                conj = QuadraticElement(root.a, -root.b, root.D)
                assert root != conj
                assert L.i1_of_lambda(root) == L.i1_of_lambda(conj)
                assert L.i2_of_lambda(root) == L.i2_of_lambda(conj)
    _ok(9, "all 8 cases: quadratics, colliding root pairs, square-class "
           "data, irrational moduli values and 24 fiber models over "
           "Q(sqrt(d)) confirmed")


def test_criterion_10_rational_model_round_trip():
    for case_no in (1, 5):
        g = smallest_one_dimensional_genus(case_no)
        for _ in range(5):
            lam = _random_lambda()
            u = dihedral_invariants(even_model(
                curve_equation(g, [lam], "x2")))
            m = rational_model(u)
            assert m.genus == g
            assert dihedral_invariants(even_model(m)).values == u.values
            s_orig = invariant_set(curve_equation(g, [lam], "x5").f, g)
            assert s_orig.absolute() == invariant_set(m.f, g).absolute()
            assert symmetric_from_dihedral(u, 1) == (lam,)
    lam1, lam2 = F(3), F(-11, 4)
    u = dihedral_invariants(even_model(
        curve_equation(59, [lam1, lam2], "x2")))
    assert symmetric_from_dihedral(u, 2) == (lam1 + lam2, lam1 * lam2)
    _ok(10, "ten round trips preserve invariants; branch values recovered "
            "for one and two parameters")
