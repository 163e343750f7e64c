"""Decompositions of the degree-60 invariant map through smaller inner maps.

Three routes are covered.  The map is a polynomial in x^5 as written, since
the vertex orbit sits at 0 and infinity.  Conjugating by the fixed Moebius
map that carries a pair of edge midpoints to 0 and infinity produces an even
map over the Gaussian rationals, the x^2 route.  Conjugating by a map that
does the same for two face centers produces the x^3 route.  Each route
reads the outer map off the coefficients of a map supported on multiples
of the exponent; the x^3 route verifies its answer by exact composition
with the conjugating Moebius map.
"""

import functools
from fractions import Fraction

from .errors import ConstantInner, DegreeMismatch, IdentityFailed
from .exactfield import QuadraticElement
from .icosa import (
    build_icosahedral_group,
    edge_form,
    face_form,
    invariant_map,
    normalize_element_to_scaling,
    vertex_form,
)
from .polyring import (
    Poly,
    RationalFunction,
    compose_rational,
    moebius_substitute,
    primitive_part,
)

_GAUSS_I = QuadraticElement(0, 1, -1)


@functools.cache
def conjugated_form(kind):
    """An orbit form carried to the even side: the one Gaussian multiple of
    its transport whose leading coefficient is a positive rational and whose
    coefficients are Gaussian integers, their parts of gcd 1."""
    form, m = {"face": (face_form, 20), "vertex": (vertex_form, 12),
               "edge": (edge_form, 30)}[kind]
    moved = gaussian_transport(form(), m)
    moved = moved * moved.leading().conjugate()
    content, _ = primitive_part([q for c in moved.coeffs for q in (c.a, c.b)])
    return moved * (1 / content)


@functools.cache
def conjugated_fiber_pair():
    """(top, bottom) = (64*face^3, vertex^5) of the conjugated forms.

    The transported invariant map is top/bottom, so the even model's
    fiber over lam is cut out by top - lam*bottom.
    """
    return (conjugated_form("face") ** 3 * Fraction(64),
            conjugated_form("vertex") ** 5)


def gaussian_transport(poly, m):
    """A rational polynomial pulled back through the conjugation to even
    form, x -> (ix + 1)/(-ix + 1), and cleared by (x + 1)^m.

    That is sum_i c_i i^(m-i) (x - 1)^i (x + 1)^(m-i), with Gaussian
    coefficients; m is the degree of the branch divisor, at least deg poly.
    As i^m (x + 1)^m p((-ix + i)/(x + 1)), it is one Moebius substitution.
    """
    return moebius_substitute(poly, -_GAUSS_I, _GAUSS_I, 1, 1, m) \
        * _GAUSS_I ** m


def transported_invariant_map():
    """The invariant map conjugated to even form, over the Gaussian field:
    the plain map composed with the inverse of the conjugation,
    x -> (-ix + i)/(x + 1), with Gaussian coefficients and joint degree 60.
    """
    inner = RationalFunction(Poly([_GAUSS_I, -_GAUSS_I]), Poly([1, 1]))
    return compose_rational(invariant_map(), inner)


def transported_matches_factored():
    """Whether the transported map equals 64 * face^3 / vertex^5: both
    sides are reduced with a monic denominator, so == compares them
    exactly."""
    return transported_invariant_map() == RationalFunction(
        *conjugated_fiber_pair())


def conjugated_edge_identity(scalar=None):
    """Whether 64*face^3 - 1728*vertex^5 equals scalar * edge^2 exactly;
    the default scalar is the ratio of the leading coefficients."""
    top, bottom = conjugated_fiber_pair()
    lhs = top - bottom * Fraction(1728)
    edge_sq = conjugated_form("edge") ** 2
    if scalar is None:
        scalar = lhs.leading() / edge_sq.leading()
    return lhs == edge_sq * scalar


def verify_conjugated_identities():
    """Raise IdentityFailed unless both conjugated-side identities hold."""
    if not transported_matches_factored():
        raise IdentityFailed("transported map misses the factored form")
    if not conjugated_edge_identity():
        raise IdentityFailed("edge-square identity fails on the even side")


# ----------------------------------------------------------------------------
# left factorization through a power: find g with f == g(x^m)
# ----------------------------------------------------------------------------

def _compress_power(poly, m):
    """Read a polynomial supported on multiples of m as a polynomial in x^m."""
    out = []
    for k, c in enumerate(poly.coeffs):
        if k % m == 0:
            out.append(c)
        elif c:
            return None
    return Poly(out)


def _expand_power(poly, m):
    """p(x^m) for a polynomial p."""
    out = []
    for c in poly.coeffs:
        out += [c] + [0] * (m - 1)
    return Poly(out)


def left_factor(f, m):
    """Solve f == g(x^m) for the outer map g; None when no such g exists.

    A factorization exists exactly when both reduced parts of f are
    supported on multiples of m, and g is read off them.  An exponent
    below 1 raises ConstantInner; one that does not divide the mapped
    degree of f raises DegreeMismatch.
    """
    if m < 1:
        raise ConstantInner("inner exponent is below 1", exponent=m)
    n = f.mapped_degree()
    if n % m:
        raise DegreeMismatch("inner degree does not divide the outer degree",
                             inner=m, outer=n)
    cn = _compress_power(f.num, m)
    cd = _compress_power(f.den, m)
    if cn is None or cd is None:
        return None
    return RationalFunction(cn, cd)


def inner_cubic_decomposition():
    """Write the invariant map as outer(inner) with a degree-3 inner map.

    Diagonalize an order-3 group element (its fixed points lie in the
    ambient field Q(zeta60)) and compress the conjugated map through x^3.
    Returns (outer, inner) with inner = sigma^3, verified as
    phi == (outer(x^3))(sigma), which by associativity is
    outer(sigma^3) == phi with both compositions Moebius substitutions.
    """
    group = build_icosahedral_group()
    phi = invariant_map()
    gamma = next(g for g in group.elements if g.order() == 3)
    sigma, _, _ = normalize_element_to_scaling(gamma)
    psi = compose_rational(phi, sigma.inverse().as_rational_function())
    outer = left_factor(psi, 3)
    if outer is None:
        raise IdentityFailed("conjugated map is not a function of x^3")
    spread = RationalFunction(_expand_power(outer.num, 3),
                              _expand_power(outer.den, 3))
    if compose_rational(spread, sigma.as_rational_function()) != phi:
        raise IdentityFailed("cubic decomposition failed verification")
    snum, sden = Poly([sigma.b, sigma.a]), Poly([sigma.d, sigma.c])
    return outer, RationalFunction(snum ** 3, sden ** 3)


def check_inner(kind):
    """CLI-facing decomposition check; returns a report dictionary."""
    if kind == "x5":
        outer = left_factor(invariant_map(), 5)
    elif kind == "x2":
        outer = left_factor(transported_invariant_map(), 2)
    elif kind == "x3":
        outer, _ = inner_cubic_decomposition()
    else:
        raise ValueError(f"unknown inner kind {kind!r}")
    found = outer is not None
    return {"inner": kind, "found": found,
            "outer_degree": outer.mapped_degree() if found else None}
