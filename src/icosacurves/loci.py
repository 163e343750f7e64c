"""One-parameter loci: elimination, singular fibers, moduli fields, models.

Each family case with one free branch value traces a rational curve in
the plane of absolute invariants (i1, i2).  This module interpolates the
invariants as exact functions of the branch value, eliminates the
parameter to produce the integer plane model, locates the three singular
fibers, determines the quadratic field of moduli at each, inverts the
parameterization at nonsingular points, and emits curve models over the
field of moduli.
"""

import functools
import itertools
import math
from collections import namedtuple
from fractions import Fraction

from .errors import (
    EliminationDegenerate,
    InconsistentData,
    NormalizationUndefined,
    NotInLocus,
    NotOnLocus,
    RationalI3,
    SingularPoint,
    UnexpectedFactorStructure,
)
from .exactfield import QuadraticElement, squarefree_part
from .families import (
    CurveModel,
    classify_genus,
    curve_equation,
    even_model,
    smallest_one_dimensional_genus,
)
from .invariants import (
    check_group_relation,
    dihedral_invariants,
    invariant_set,
)
from .polyring import (
    Poly,
    RationalFunction,
    _bareiss_det,
    exact_quotient,
    integer_primitive,
    interpolate,
    is_squarefree_certified,
    primitive_part,
    pseudo_remainder,
    sylvester_matrix,
)


# A one-parameter family traced in the (i1, i2) plane: F maps (j, k) to
# the integer coefficient of i1^j i2^k, the i-slots are RationalFunctions
# and the I-slots Polys in lambda
LocusCurve = namedtuple(
    "LocusCurve", "case_no genus F i1_of_lambda i2_of_lambda I2_of_lambda "
    "I4_of_lambda I6_of_lambda I6star_of_lambda")

# A parameter quadratic over which the moduli map degenerates
SingularFiber = namedtuple("SingularFiber", "kind q D d_table")


_SAMPLE_COUNT = 25


def _sample_values(count, lead=None):
    """The first count of 1, -1, 2, -2, ... other than 1728 and, when a
    nonzero Poly lead is given, its roots."""
    if lead is not None and not lead:
        raise EliminationDegenerate("leading coefficient vanishes on the "
                                    "whole grid")
    out = []
    for k in itertools.count(1):
        for v in (k, -k):
            if v != 1728 and (lead is None or lead(v)):
                out.append(v)
                if len(out) == count:
                    return out


@functools.cache
def build_locus(case_no):
    """Interpolate the invariants of the one-parameter family and
    eliminate the parameter.

    The classical invariants are polynomials in the branch value of
    degrees at most 2, 4, 6, 6, so twenty-five integer samples fix them
    with plenty of consistency slack.  The plane model in (i1, i2) is the
    resultant that eliminates the branch value, interpolated from a grid
    of integer Sylvester determinants (_eliminate).
    """
    if case_no not in range(1, 9):
        raise ValueError("case number must be between 1 and 8")
    g = smallest_one_dimensional_genus(case_no)
    lams = _sample_values(_SAMPLE_COUNT)
    samples = []
    for lam in lams:
        cur = curve_equation(g, [Fraction(lam)], "x5")
        samples.append(invariant_set(cur.f, g))
    I2, I4, I6, I6s = (
        interpolate([(Fraction(l), getattr(s, name))
                     for l, s in zip(lams, samples)], degree=bound)
        for name, bound in (("I2", 2), ("I4", 4), ("I6", 6), ("I6star", 6)))
    i1 = RationalFunction(I4, I2 ** 2)
    i2 = RationalFunction(I6, I2 ** 3)
    F = _eliminate(i1, i2)
    return LocusCurve(case_no=case_no, genus=g, F=F,
                      i1_of_lambda=i1, i2_of_lambda=i2,
                      I2_of_lambda=I2, I4_of_lambda=I4,
                      I6_of_lambda=I6, I6star_of_lambda=I6s)


def _integer_pair(rf):
    """Integer numerator and denominator with exactly the ratio of rf, and
    the mapped degree of rf.

    One common rescaling keeps num/den equal to the input; scaling the
    two halves separately would silently change the function.
    """
    _, ints = primitive_part(rf.num.coeffs + rf.den.coeffs)
    k = len(rf.num.coeffs)
    return Poly(ints[:k]), Poly(ints[k:]), rf.mapped_degree()


def _eliminate(i1, i2):
    """Plane model by eliminating the parameter with a resultant.

    R(X, Y) = Res_lam(numer(i1) - X denom(i1), numer(i2) - Y denom(i2))
    vanishes exactly on the image curve plus possible coordinate lines
    from leading-coefficient dropouts; R is recovered by interpolating
    integer resultants over a grid, then reduced to the content-free
    model by stripping one-variable factors and repeated factors.  At
    X = a the second polynomial is reduced modulo p_a = n1 - a d1 once,
    which is linear in Y, so every Y on that row pays for a Sylvester
    determinant of order 2 deg p_a - 1 only.
    """
    n1, d1, m1 = _integer_pair(i1)
    n2, d2, m2 = _integer_pair(i2)
    # the Sylvester block structure bounds deg_X R by m2 and deg_Y R by m1;
    # grid values where p_a drops degree are skipped
    xs = _sample_values(m2 + 3, Poly([n1.coeff(m1), -d1.coeff(m1)]))
    ys = _sample_values(m1 + 3)
    num2 = [n2.coeff(j) for j in range(m2 + 1)]
    den2 = [d2.coeff(j) for j in range(m2 + 1)]
    slices = []
    for a in xs:
        pc = [n1.coeff(j) - a * d1.coeff(j) for j in range(m1 + 1)]
        rn, rd = pseudo_remainder(num2, pc), pseudo_remainder(den2, pc)
        pts = []
        for b in ys:
            rc = [x - b * y for x, y in zip(rn, rd)]
            pts.append((Fraction(b), Fraction(_reduced_resultant(pc, rc, m2))))
        slices.append(interpolate(pts, degree=m1))
    cols = []
    for k in range(m1 + 1):
        cpts = [(Fraction(a), s.coeff(k)) for a, s in zip(xs, slices)]
        cols.append(interpolate(cpts, degree=m2))
    if not any(cols):
        raise EliminationDegenerate(
            "elimination resultant vanished identically")
    return _reduce_plane_model(cols)


def _reduced_resultant(pc, rc, n):
    """Res(p, q) at formal degrees m and n from rc = pseudo_remainder(qc, pc).

    With e = n - m + 1, lc(p)^e q = s p + r gives Res_(m,n)(p, q) =
    Res_(m,m-1)(p, r) / lc(p)^(e (m - 1)), a Sylvester determinant of
    order 2m - 1 in place of m + n.  At m = 1 the remainder has formal
    degree 0, which sylvester_matrix takes as resultant 0, so m >= 2 and
    n >= m with lc(p) != 0 are required.
    """
    m = len(pc) - 1
    if m < 2 or n < m or pc[-1] == 0:
        raise EliminationDegenerate("reduced resultant needs 2 <= deg p "
                                    "<= formal deg q", m=m, n=n)
    det, rem = divmod(_bareiss_det(sylvester_matrix(pc, rc)),
                      pc[-1] ** ((n - m + 1) * (m - 1)))
    if rem:
        raise InconsistentData("reduced resultant left a remainder")
    return det


def _reduce_plane_model(cols):
    """Content-free irreducible model from the Y-coefficient list of R.

    cols[k] is the X-polynomial multiplying Y^k.  One point proves R free
    of repeated factors: if lc_Y(x0) != 0 at the first such integer x0 >= 1
    and R(x0, Y) is squarefree, then Res_Y(R, dR/dY)(x0), the resultant of
    R(x0, Y) and its derivative, is nonzero, so R has no repeated factor
    over Q(X).  Where the point proves nothing, EliminationDegenerate is
    raised.  The X- and Y-content, where one-variable leading-coefficient
    artifacts live, are stripped last.
    """
    lead = max(k for k, c in enumerate(cols) if c)
    x0 = next(x for x in itertools.count(1) if cols[lead](x))
    if not is_squarefree_certified(Poly([c(x0) for c in cols])):
        raise EliminationDegenerate(
            "plane model is not squarefree at the certificate point", x0=x0)
    xcontent = functools.reduce(Poly.gcd, filter(None, cols))
    if xcontent.degree > 0:
        cols = [c // xcontent for c in cols]
    width = max(c.degree for c in cols if c) + 1
    rows = [Poly([c.coeff(j) for c in cols]) for j in range(width)]
    ycontent = functools.reduce(Poly.gcd, filter(None, rows))
    if ycontent.degree > 0:
        rows = [r // ycontent for r in rows]
    out = {(j, k): Fraction(v) for j, row in enumerate(rows)
           for k, v in enumerate(row.coeffs) if v}
    if not out:
        raise EliminationDegenerate("plane model reduced to zero")
    _, ints = primitive_part(out.values())
    sign = -1 if out[max(out)] < 0 else 1
    return {jk: sign * c for jk, c in zip(out, ints)}


def evaluate_plane_model(F, x, y):
    """F at a point, for dict-of-monomials plane models."""
    total = 0
    for (j, k), c in F.items():
        total = total + c * x ** j * y ** k
    return total


def _divided_kernel(num, den, lam0):
    """Coefficients in mu of (num(lam0) den(mu) - num(mu) den(lam0)) divided
    by (mu - lam0); the division is exact since mu = lam0 is a root."""
    m = max(num.degree, den.degree)
    a = num(lam0)
    b = den(lam0)
    top = [a * den.coeff(j) - num.coeff(j) * b for j in range(m + 1)]
    return exact_quotient(top, (-lam0, 1))


def _strip_factor(poly, factor):
    """Remove every copy of a monic factor; both arguments monic."""
    while poly.degree >= factor.degree:
        q, r = divmod(poly, factor)
        if r:
            break
        poly = q
    return poly


def _quadratic_root(q, d):
    """The root (-B + sqrt(B^2 - 4AC)) / (2A) of A x^2 + B x + C, an
    element of Q(sqrt(d))."""
    A, B, C = q.coeff(2), q.coeff(1), q.coeff(0)
    root = QuadraticElement(Fraction(-B, 2 * A), Fraction(1, 2 * A),
                            B * B - 4 * A * C)
    if root.D != d:
        raise InconsistentData("discriminant is not d times a square")
    return root


def singular_fibers(locus):
    """The three parameter quadratics where the locus map degenerates, in
    the row order of Tables 2 and 3: collision, zero_locus, infinity_locus.

    zero_locus: shared quadratic of the two numerators (the point (0,0)).
    infinity_locus: the quadratic I2, killing every denominator.
    collision: pairs of distinct parameters with equal (i1, i2), found by
    a resultant of divided-difference kernels and verified exactly in the
    quadratic field of its roots.
    """
    i1, i2 = locus.i1_of_lambda, locus.i2_of_lambda
    gz = i1.num.gcd(i2.num)
    if gz.degree > 1:
        # the shared quadratic enters both numerators squared
        gz = gz // gz.gcd(gz.derivative())
    if gz.degree != 2:
        raise UnexpectedFactorStructure(
            "numerators do not share a quadratic", degree=gz.degree)
    q_zero = integer_primitive(gz)
    q_inf = integer_primitive(locus.I2_of_lambda)
    if q_inf.degree != 2:
        raise UnexpectedFactorStructure("I2 is not quadratic",
                                        degree=q_inf.degree)
    inf_monic = q_inf.monic()
    for den, power in ((i1.den, 2), (i2.den, 3)):
        if divmod(inf_monic ** power, den)[1]:
            raise UnexpectedFactorStructure(
                "denominator is not a power of the I2 quadratic")

    n1, d1, m1 = _integer_pair(i1)
    n2, d2, m2 = _integer_pair(i2)
    bound = (m1 + m2 - 2) * (2 * max(m1, m2) - 1) + 1
    points = []
    # the first kernel drops degree where its leading coefficient,
    # n1(lam0) lc(d1) - lc(n1) d1(lam0), vanishes: those values are skipped
    lead = n1 * d1.coeff(m1) - d1 * n1.coeff(m1)
    for lam0 in _sample_values(bound + 6, lead):
        p1 = _divided_kernel(n1, d1, lam0)
        p2 = _divided_kernel(n2, d2, lam0)
        det = _reduced_resultant(p1, pseudo_remainder(p2, p1), m2 - 1)
        points.append((Fraction(lam0), Fraction(det)))
    res = interpolate(points, degree=bound)
    if not res:
        raise UnexpectedFactorStructure("collision resultant vanished")
    work = integer_primitive(res).monic()
    zero_monic = q_zero.monic()
    work = _strip_factor(work, zero_monic)
    work = _strip_factor(work, inf_monic)
    work = (work // work.gcd(work.derivative())).monic()
    if work.degree != 2:
        raise UnexpectedFactorStructure(
            "collision residue is not quadratic", degree=work.degree)
    q_coll = integer_primitive(work)

    fibers = []
    for kind, q in (("collision", q_coll), ("zero_locus", q_zero),
                    ("infinity_locus", q_inf)):
        disc = q.coeff(1) ** 2 - 4 * q.coeff(2) * q.coeff(0)
        fibers.append(SingularFiber(kind=kind, q=q, D=disc,
                                    d_table=squarefree_part(disc)))

    coll = fibers[0]
    root = _quadratic_root(coll.q, coll.d_table)
    conj = root.conjugate()
    for rf in (i1, i2):
        if rf(root) != rf(conj):
            raise UnexpectedFactorStructure(
                "collision quadratic fails the equal-invariants check")
    return tuple(fibers)


def field_of_moduli_at(fiber, locus):
    """Squarefree d with Q(sqrt(d)) the field of moduli over the fiber.

    Evaluates the absolute-invariant generators at a root of q, in
    Q(sqrt(d)): the first one defined there that is not rational
    certifies that adjoining it is the same as adjoining the root, so the
    field is Q(sqrt(disc)).
    """
    disc = fiber.D
    if disc >= 0 and math.isqrt(disc) ** 2 == disc:
        raise ValueError("fiber quadratic is reducible")
    root = _quadratic_root(fiber.q, fiber.d_table)
    I2, I4, I6, I6s = (p(root) for p in (
        locus.I2_of_lambda, locus.I4_of_lambda, locus.I6_of_lambda,
        locus.I6star_of_lambda))
    # i3, its reciprocal, i1, i2 and i4, as (numerator, denominator)
    cascade = [(I6s, I2 ** 3), (I2 ** 3, I6s), (I4, I2 ** 2), (I6, I2 ** 3),
               (I6 ** 2, I4 ** 3)]
    saw_rational = False
    for num, den in cascade:
        if not den:
            continue
        if not (num / den).is_rational():
            return fiber.d_table
        saw_rational = True
    if saw_rational:
        raise RationalI3("every defined generator is rational over the "
                         "fiber", fiber=fiber.kind)
    raise InconsistentData("no absolute invariant is defined over the fiber")


def solve_lambda(i1_value, i2_value, locus):
    """The branch value with the given absolute invariants.

    Generic points pin the parameter as the unique common root of two
    specialized numerators; a quadratic gcd means the point is one of the
    three singular fibers.  An invariant left None by a vanishing I2
    raises NormalizationUndefined.
    """
    if i1_value is None or i2_value is None:
        raise NormalizationUndefined("I2 vanishes, absolute invariants "
                                     "undefined")
    g1 = locus.i1_of_lambda.num - locus.i1_of_lambda.den * Fraction(i1_value)
    g2 = locus.i2_of_lambda.num - locus.i2_of_lambda.den * Fraction(i2_value)
    if not g1 or not g2:
        raise InconsistentData("specialized numerator vanished identically")
    h = g1.gcd(g2)
    if h.degree == 0:
        raise NotOnLocus("invariants do not solve the locus equation",
                         i1=i1_value, i2=i2_value)
    if h.degree == 1:
        return -Fraction(h.coeff(0)) / Fraction(h.coeff(1))
    if h.degree == 2:
        raise SingularPoint("two parameters share this moduli point",
                            quadratic=[str(c) for c in h.monic().coeffs])
    raise InconsistentData("parameter gcd has impossible degree",
                           degree=h.degree)


def rational_model(u, group=None):
    """A curve model over the field generated by the dihedral invariants.

    Z2xA5 gives y^2 = u1 x^(2g+2) + u1 x^(2g) + u2 x^(2g-2) + ... +
    u_g x^2 + 2; SL2_5 the same shape times x with top weight u1 at
    x^(2g+1).  Coefficients are exactly the u_i and 2, so the model is
    defined over the field of moduli.
    """
    if group is None:
        group = check_group_relation(u)
    if group == "neither":
        raise NotInLocus("dihedral invariants satisfy no group relation")
    d = u.d
    if group == "Z2xA5":
        g = d - 1
    else:
        g = d
    desc = classify_genus(g)
    if desc.group != group:
        raise NotInLocus("group does not match the genus", genus=g)
    # 2, u_(d-1), ..., u_1, u_1 at x^0, x^2, ..., x^(2d), times x for
    # SL2_5; a vanishing u_i is stored as the int 0 of the empty slots
    shift = int(group == "SL2_5")
    coeffs = [0] * (2 * d + 1 + shift)
    coeffs[shift::2] = [c or 0 for c in (2, *reversed(u.values), u.u(1))]
    return CurveModel(f=Poly(coeffs), genus=g, model="x2", case=desc,
                      params=[])


def fiber_model(locus, fiber):
    """(d, model): the curve over Q(sqrt(d)) attached to a singular fiber.

    The parameter is a root of the fiber quadratic, in Q(sqrt(d)).  The
    even model has Gaussian coefficients, so the family member at the root
    lives over Q(sqrt(d))(i); its dihedral invariants are functions of the
    parameter alone and land back in Q(sqrt(d)), where the group-relation
    model follows, exactly as for a rational parameter.
    """
    d = fiber.d_table
    root = _quadratic_root(fiber.q, d)
    curve = curve_equation(locus.genus, [QuadraticElement(root, 0, -1)],
                           "x2")
    u = dihedral_invariants(even_model(curve))
    if any(getattr(v, "D", d) != d for v in u.values):
        raise InconsistentData("fiber dihedral invariants leave the field "
                               "of moduli", d=d)
    return d, rational_model(u)
