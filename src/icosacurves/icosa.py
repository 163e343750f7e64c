"""The rotation group of the icosahedron inside the projective linear group.

Everything here is exact: the sixty fractional-linear maps are generated by
an order-2 and an order-5 element with entries in the 5th cyclotomic field,
and the three special point orbits (face centers, vertices, edge midpoints)
appear as fixed polynomials whose combination gives the degree-60 invariant
map of the projective line.
"""

import functools
from fractions import Fraction

from .errors import (
    FixedPointsOutsideField,
    IdentityFailed,
    InconsistentData,
    OrderTooLarge,
    ParabolicElement,
)
from .exactfield import cyclo_sqrt, cyclotomic_field, to_ambient
from .invariants import form_coefficients, transvectant
from .polyring import Poly, RationalFunction, _inv, nullspace


def _first_entry_one(entries):
    """The entries scaled so the first nonzero one is 1."""
    lead = next(e for e in entries if e)
    if lead == 1:
        return tuple(entries)
    inv = _inv(lead)
    return tuple(e * inv for e in entries)


class MoebiusMap:
    """x -> (a*x + b)/(c*x + d) up to scaling, its entries kept in the
    field they were given in; _first_entry_one of them keys the map."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d
        if not (a * d - b * c):
            raise ValueError("singular matrix does not define a map")

    def compose(self, other):
        return MoebiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self):
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def is_identity(self):
        return not self.b and not self.c and self.a == self.d

    def order(self):
        acc = self
        for k in range(1, 61):  # 60, the order of the group, bounds the search
            if acc.is_identity():
                return k
            acc = acc.compose(self)
        raise OrderTooLarge("order exceeds search bound", bound=60)

    def as_rational_function(self):
        return RationalFunction(Poly([self.b, self.a]), Poly([self.d, self.c]))

    def __repr__(self):
        return (f"MoebiusMap({self.a!r}, {self.b!r}, "
                f"{self.c!r}, {self.d!r})")


class IcosahedralGroup:
    """All sixty maps, plus the pair of generators that produced them."""

    def __init__(self, elements, generators):
        self.elements = elements
        self.generators = generators

    def __len__(self):
        return len(self.elements)

    def order_profile(self):
        profile = {}
        for g in self.elements:
            k = g.order()
            profile[k] = profile.get(k, 0) + 1
        return profile


@functools.cache
def _generators():
    """The order-2 and order-5 generators over the 5th cyclotomic field."""
    f5 = cyclotomic_field(5)
    w = f5.element([-1, 0, -1, -1])          # the golden-section element
    one, zero = f5.one(), f5.zero()
    return (_first_entry_one((w, one, one, -w)),                # order 2
            _first_entry_one((f5.zeta(2), zero, zero, one)))    # order 5


def _closure(start, act):
    """Breadth-first closure of start under act(g, .) for both generators,
    each image scaled so its first nonzero entry is 1."""
    seen, frontier = {start}, {start}
    while frontier:
        frontier = {_first_entry_one(act(g, m))
                    for m in frontier for g in _generators()} - seen
        seen |= frontier
    return seen


@functools.cache
def build_icosahedral_group():
    """Breadth-first closure of the two defining generators; cached."""
    f5 = cyclotomic_field(5)
    one, zero = f5.one(), f5.zero()
    seen = _closure((one, zero, zero, one), lambda g, m: (
        g[0] * m[0] + g[1] * m[2], g[0] * m[1] + g[1] * m[3],
        g[2] * m[0] + g[3] * m[2], g[2] * m[1] + g[3] * m[3]))
    elements = sorted(seen, key=lambda m: tuple(e.coeffs for e in m))
    return IcosahedralGroup([MoebiusMap(*m) for m in elements],
                            tuple(MoebiusMap(*g) for g in _generators()))


def _rational_poly(poly):
    """A Poly over a number field, whose coefficients may also be ints and
    Fractions, as a Fraction Poly; InconsistentData unless every
    coefficient is rational."""
    try:
        return Poly([Fraction(c) if isinstance(c, (int, Fraction))
                     else c.rational_value() for c in poly.coeffs])
    except ValueError:
        raise InconsistentData(
            "orbit product coefficient is not rational") from None


# The orbit forms (Klein, Lectures on the Icosahedron, 1884): the vertex
# form from its roots, the face form its Hessian and the edge form the
# Jacobian of the two, each scaled to constant term 1


@functools.cache
def vertex_form():
    """x^11 + 11x^6 - x: the monic product of x - p over the eleven finite
    points p = u/v of the orbit of infinity, the vertices."""
    f5 = cyclotomic_field(5)
    prod = Poly([f5.one()])
    for u, v in _closure((f5.one(), f5.zero()), lambda g, p: (
            g[0] * p[0] + g[1] * p[1], g[2] * p[0] + g[3] * p[1])):
        if v:
            prod = prod * Poly([-u * v.inverse(), f5.one()])
    return _rational_poly(prod)


def _scaled_transvectant(f, h, r):
    poly = Poly(transvectant(f, h, r)[::-1])
    return poly * (1 / poly.coeff(0))


@functools.cache
def face_form():
    """The Hessian (V, V)_2 of the vertex form V: the face centers."""
    v = form_coefficients(vertex_form(), 12)
    return _scaled_transvectant(v, v, 2)


@functools.cache
def edge_form():
    """The Jacobian (V, H)_1 of V and its Hessian: the edge midpoints."""
    return _scaled_transvectant(form_coefficients(vertex_form(), 12),
                                form_coefficients(face_form(), 20), 1)


@functools.cache
def fiber_pair():
    """(top, bottom) = (-face^3, vertex^5).

    The invariant map is top/bottom, so the fiber over lam is cut out by
    top - lam*bottom.
    """
    return -(face_form() ** 3), vertex_form() ** 5


def syzygy_check():
    """The edge form squared equals faces cubed plus 1728 vertices fifth."""
    top, bottom = fiber_pair()
    t = edge_form()
    if t * t != bottom * 1728 - top:
        raise IdentityFailed("orbit form syzygy does not hold")


def invariant_map():
    """The degree-60 map with value 0 on faces and a pole on vertices."""
    return RationalFunction(*fiber_pair())


# ----------------------------------------------------------------------------
# diagonalization of a finite-order map
# ----------------------------------------------------------------------------

def normalize_element_to_scaling(gamma):
    """Conjugate a finite-order map to x -> mu*x.

    Returns (sigma, mu, order) with sigma mapping the fixed points of gamma
    to 0 and infinity.  The entries of gamma are lifted into the ambient
    field first, where the square root of its discriminant is taken.
    Raises ParabolicElement when the fixed points coincide and
    FixedPointsOutsideField when they live outside the ambient field.
    """
    a, b, c, d = (to_ambient(v) for v in (gamma.a, gamma.b, gamma.c, gamma.d))
    gamma = MoebiusMap(a, b, c, d)
    if not c:
        if a == d:
            if b:
                raise ParabolicElement("single fixed point at infinity")
            sigma = MoebiusMap(1, 0, 0, 1)   # gamma is the identity
        else:
            p = b * (d - a).inverse()
            sigma = MoebiusMap(1, -p, 0, 1)  # fixed points p and infinity
    else:
        disc = (d - a) * (d - a) + b * c * 4
        if not disc:
            raise ParabolicElement("coincident fixed points")
        root = cyclo_sqrt(disc)
        if root is None:
            raise FixedPointsOutsideField(
                "fixed points generate a larger field")
        inv2c = (c * 2).inverse()
        p1 = (a - d + root) * inv2c
        p2 = (a - d - root) * inv2c
        sigma = MoebiusMap(1, -p1, 1, -p2)
    k = gamma.order()
    tau = sigma.compose(gamma).compose(sigma.inverse())
    if tau.b or tau.c:
        raise IdentityFailed("conjugation did not diagonalize the map")
    mu = tau.a * tau.d.inverse()
    if mu ** k != 1:
        raise IdentityFailed("scaling factor is not a root of unity")
    if any(mu ** j == 1 for j in range(1, k)):
        raise IdentityFailed("scaling factor has too small an order")
    return sigma, mu, k


# ----------------------------------------------------------------------------
# symmetrized orbit functions
# ----------------------------------------------------------------------------

class _OrbitCosets:
    """The group's right cosets of its diagonal maps, one binomial each.

    The group's diagonal maps, normalised to (1, 0, 0, lam), must have lam
    running over all m-th roots of unity, for m their number (m = 1 when the
    identity is the only one).  The factors of a right coset, the maps
    (a, b, lam*c, lam*d) for one normalised g = (a, b, c, d), then multiply
    to one binomial: prod_lam (lam*A - B) = +-(A^m - B^m) with A = (c x+d) T
    and B = a x+b.  So prod_g ((c x+d) T - (a x+b)) is, up to a constant,
    the product of A_j U - B_j over the cosets, with U = T^m,
    A_j = (c_j x+d_j)^m and B_j = (a_j x+b_j)^m.  Every coset member must be
    an element of the group, else the data raise InconsistentData.
    """

    def __init__(self, group):
        mats = [_first_entry_one((g.a, g.b, g.c, g.d)) for g in group.elements]
        lams = [d for a, b, c, d in mats if not b and not c]
        m = len(lams)
        if not m or len(set(lams)) != m or any(lam ** m != 1 for lam in lams):
            raise InconsistentData(
                "diagonal maps are not the m-th roots of unity", m=m)
        members = set(mats)
        covered = set()
        self.powers = []
        for mat in mats:
            if mat in covered:
                continue
            a, b, c, d = mat
            coset = {(a, b, lam * c, lam * d) for lam in lams}
            if not coset <= members:
                raise InconsistentData(
                    "group is not closed under its diagonal maps")
            covered |= coset
            self.powers.append((Poly([d, c]) ** m, Poly([b, a]) ** m))
        self.m = m

    def top(self, r):
        """The coefficients of U^R, ..., U^(R-r+1) in prod_j (A_j U - B_j),
        R the number of cosets, as rational polynomials in x."""
        top = [Poly([1])] + [Poly()] * (r - 1)
        for a_pow, b_pow in self.powers:
            top = [a_pow * top[0]] + [a_pow * t - b_pow * s
                                      for t, s in zip(top[1:], top)]
        return [_rational_poly(p) for p in top]


def first_nonconstant_symmetric_function(group):
    """Smallest k whose k-th elementary symmetric orbit function varies.

    Returns (k, the function), read off the top coefficients of the exact
    orbit product of _OrbitCosets, one binomial per coset of the diagonal
    maps, so only k divisible by their number m can vary; m = 1 multiplies
    all the linear factors.  A group whose diagonal maps are not the m-th
    roots of unity, or not closed under them, raises InconsistentData.
    """
    cosets = _OrbitCosets(group)
    for t in range(1, len(cosets.powers) + 1):
        top = cosets.top(t + 1)
        k = t * cosets.m
        fn = RationalFunction(top[t] * (-1) ** k, top[0])
        if not fn.is_constant():
            return k, fn
    raise InconsistentData("all symmetric orbit functions look constant")


def moebius_equivalence(f, g):
    """A projective change of target with f == (a*g + b)/(c*g + d), or None.

    The certificate is found as a nullspace vector of the cross-multiplied
    coefficient system and then verified by exact polynomial identity.
    """
    nf, df = f.num, f.den
    ng, dg = g.num, g.den
    # f.num * (c*ng + d*dg) == f.den * (a*ng + b*dg)
    lhs_c = nf * ng
    lhs_d = nf * dg
    rhs_a = df * ng
    rhs_b = df * dg
    deg = max(p.degree for p in (lhs_c, lhs_d, rhs_a, rhs_b))
    rows = []
    for i in range(deg + 1):
        rows.append([rhs_a.coeff(i), rhs_b.coeff(i),
                     -lhs_c.coeff(i), -lhs_d.coeff(i)])
    basis = nullspace(rows, 4)
    for vec in basis:
        a, b, c, d = (Fraction(v) if isinstance(v, int) else v for v in vec)
        if a * d - b * c == 0:
            continue
        if rhs_a * a + rhs_b * b == lhs_c * c + lhs_d * d:
            return MoebiusMap(a, b, c, d)
    return None
