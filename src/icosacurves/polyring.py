"""Dense univariate polynomials and rational functions over exact fields.

Coefficients may be Fractions, quadratic-field elements, or cyclotomic
elements; any type with exact +, -, *, / and truthiness works, and plain
ints coerce through the coefficient type's own arithmetic.  Polynomials are
stored lowest degree first with trailing zeros stripped.

The modular certificates, the Taylor shifts of moebius_substitute and the
packed product read a coefficient that is not an int or Fraction only
through three attributes: ints, a tuple of integers, over den, a positive
integer, on the basis of field.  field.residues(prime) gives the images of
that basis under a ring map onto the integers mod prime, or None where
there is no such map, and field.from_ints(ints, den) builds the element
ints / den in lowest terms.  A field whose basis is the power basis
1, z, ..., z^(d-1) of one root z also has field.reduce(conv), the basis
vector of sum_j conv[j] z^j for a list of 2d - 1 integers; a product of two
polynomials whose field coefficients all share one such field is one
integer multiply (_packed_product), and every other product, Fractions
only included, runs the schoolbook loop.
"""

import itertools
import math
import operator
from fractions import Fraction

from .errors import (
    DegreeMismatch,
    DivisionByZero,
    DuplicateAbscissa,
    InconsistentData,
    ZeroPolynomial,
)


def _exact_div(a, b):
    # keep int/int division exact instead of drifting into floats
    if isinstance(b, int):
        b = Fraction(b)
    return a / b


def _inv(x):
    # 1/x exactly, a field element by its own inverse; callers invert a
    # leading coefficient once and multiply by the result
    return Fraction(1) / x if isinstance(x, (int, Fraction)) else x.inverse()


def _power(base, k, one):
    """base^k, k >= 0, by square-and-multiply from one and no square past
    the last bit: the one power loop of polynomials and field elements."""
    result = one
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


class Poly:
    """Dense univariate polynomial, ascending coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly([other])
        return NotImplemented

    def __hash__(self):
        # a constant hashes as its coefficient, which it compares equal to
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly([other])
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly([other])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if not other:
                return Poly()
            return Poly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        fields = {getattr(c, "field", None) for c in a + b
                  if not isinstance(c, (int, Fraction))}
        if len(fields) == 1:
            field = fields.pop()
            if hasattr(field, "reduce"):
                return Poly(_packed_product(a, b, field))
        # a slot's first product is stored, not added to a zero, which for
        # field-element coefficients would cost a full vector addition
        out = [None] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        t = x * y
                        k = i + j
                        out[k] = t if out[k] is None else out[k] + t
        return Poly([0 if c is None else c for c in out])

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, k, Poly([1]))

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __divmod__(self, other):
        if not isinstance(other, Poly):
            other = Poly([other])
        if not other:
            raise ZeroPolynomial("polynomial division by zero")
        rem = list(self.coeffs)
        dn = other.degree
        if len(rem) <= dn:
            return Poly(), self
        inv = _inv(other.coeffs[-1])
        q = [0] * (len(rem) - dn)
        for k in range(len(rem) - dn - 1, -1, -1):
            c = rem[k + dn] * inv
            q[k] = c
            if c:
                for j in range(dn + 1):
                    rem[k + j] = rem[k + j] - c * other.coeffs[j]
        return Poly(q), Poly(rem[:dn])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def leading(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self):
        return self * _inv(self.leading())

    def derivative(self):
        return Poly([c * k for k, c in enumerate(self.coeffs)][1:])

    def gcd(self, other):
        """Monic gcd: by the primitive remainder sequence on integers when
        every coefficient is rational, else by the Euclidean algorithm."""
        if all(isinstance(c, (int, Fraction))
               for c in self.coeffs + other.coeffs):
            return _rational_gcd(self.coeffs, other.coeffs)
        a, b = self, other
        while b:
            a, b = b, a % b
        if not a:
            return a
        return a.monic()

    def coeff(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def map_coeffs(self, fn):
        return Poly([fn(c) for c in self.coeffs])

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        terms = [f"({c})*x^{k}" for k, c in enumerate(self.coeffs) if c]
        return "Poly(" + " + ".join(terms) + ")"


def clear_denominators(values):
    """(ints, den) for ints and Fractions: the smallest den > 0 with every
    values[i] * den == ints[i] an integer."""
    den = 1
    for c in values:
        if c.denominator != 1:
            den = den * c.denominator // math.gcd(den, c.denominator)
    if den == 1:
        return [c.numerator for c in values], 1
    return [c.numerator * (den // c.denominator) for c in values], den


def _integer_rows(coeffs, dim):
    """(rows, den): each coefficient as a tuple of dim integers over the one
    common denominator den, a rational at basis position 0."""
    pairs = [((c.numerator,) + (0,) * (dim - 1), c.denominator)
             if isinstance(c, (int, Fraction)) else (c.ints, c.den)
             for c in coeffs]
    den = math.lcm(*(d for _, d in pairs))
    return [ints if d == den else tuple(v * (den // d) for v in ints)
            for ints, d in pairs], den


def _pack(rows, width, block):
    """The integer sum of rows[i][j] * 2^(8 width (i block + j)): each row
    a block of digits, padded with zero digits to block, and each digit
    stored as width little-endian bytes plus half their range, a bias
    taken off once in the end."""
    half = 1 << (8 * width - 1)
    zero = half.to_bytes(width, "little")
    pad = zero * (block - len(rows[0]))
    data = b"".join(b"".join([(v + half).to_bytes(width, "little")
                              for v in row]) + pad if any(row)
                    else zero * block for row in rows)
    return int.from_bytes(data, "little") - _bias(len(rows) * block, width)


def _bias(count, width):
    """count digits of width bytes, each half the digit range."""
    return int.from_bytes((b"\0" * (width - 1) + b"\x80") * count, "little")


def _unpack(value, count, width, block):
    """The count signed digits of width bytes of value, each of absolute
    value below half the digit range, as blocks of block digits, and None
    for a block of zeros.  Biased by that half, every digit is nonnegative
    and below the range, so the bytes carry no borrows."""
    half = 1 << (8 * width - 1)
    data = (value + _bias(count, width)).to_bytes(count * width, "little")
    size = block * width
    zero = half.to_bytes(width, "little") * block
    return [None if data[k:k + size] == zero else
            [int.from_bytes(data[i:i + width], "little") - half
             for i in range(k, k + size, width)]
            for k in range(0, count * width, size)]


def _packed_product(a, b, field):
    """The coefficients of the product of two coefficient lists whose
    coefficients are ints, Fractions and elements of field, on the power
    basis of one root of degree d, by one integer multiply (Kronecker
    substitution; Schoenhage 1982, Harvey 2009).

    Over one denominator per factor, coefficient i at basis position j is
    digit i (2d - 1) + j of one integer.  A digit of the product is the
    coefficient of zeta^j in the convolution of the two vectors, j up to
    2d - 2, a sum of at most min(len(a), len(b)) * d products, so the
    bound min(len(a), len(b)) * d * max|a| * max|b| and a sign bit fix
    the digit width.  field.reduce takes each block of 2d - 1 digits to
    the basis; a block of zeros is the coefficient 0.
    """
    dim = next(len(c.ints) for c in a + b
               if not isinstance(c, (int, Fraction)))
    (ra, da), (rb, db) = _integer_rows(a, dim), _integer_rows(b, dim)
    bound = (min(len(a), len(b)) * dim * max(max(map(abs, r)) for r in ra)
             * max(max(map(abs, r)) for r in rb))
    width = (bound.bit_length() + 8) // 8  # bound < 2^(8 width - 1)
    block = 2 * dim - 1
    blocks = _unpack(_pack(ra, width, block) * _pack(rb, width, block),
                     (len(a) + len(b) - 1) * block, width, block)
    den = da * db
    return [0 if conv is None else field.from_ints(field.reduce(conv), den)
            for conv in blocks]


def primitive_part(values):
    """(content, ints) for ints and Fractions: coprime integers ints and a
    positive Fraction content with values[i] == content * ints[i]; the
    content is 1 when every value is 0."""
    ints, den = clear_denominators(values)
    g = math.gcd(*ints)
    if not g:
        return Fraction(1), ints
    return Fraction(g, den), [c // g for c in ints]


def integer_primitive(poly):
    """The content-free integer multiple of a Fraction-coefficient
    polynomial, with positive leading coefficient."""
    if not poly:
        return poly
    _, ints = primitive_part(poly.coeffs)
    return Poly(ints) if ints[-1] > 0 else -Poly(ints)


# ----------------------------------------------------------------------------
# interpolation
# ----------------------------------------------------------------------------

def interpolate(points, degree):
    """Newton interpolation through exact points under a degree bound.

    Fit on the first degree+1 points and verify the rest exactly;
    disagreement raises InconsistentData.  Repeated abscissae raise
    DuplicateAbscissa.
    """
    xs = [p[0] for p in points]
    if len(set(xs)) != len(xs):
        raise DuplicateAbscissa("interpolation nodes must be distinct")
    if len(points) < degree + 1:
        raise InconsistentData("not enough interpolation nodes",
                               needed=degree + 1, got=len(points))
    fit_pts, check_pts = list(points[: degree + 1]), list(points[degree + 1:])
    # divided differences
    n = len(fit_pts)
    coef = [p[1] for p in fit_pts]
    nodes = [p[0] for p in fit_pts]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = _exact_div(coef[i] - coef[i - 1], nodes[i] - nodes[i - j])
    poly = Poly()
    for k in range(n - 1, -1, -1):
        poly = poly * Poly([-nodes[k], 1]) + Poly([coef[k]])
    for x, y in check_pts:
        if poly(x) != y:
            raise InconsistentData("interpolated polynomial misses a sample",
                                   at=x)
    return poly


# ----------------------------------------------------------------------------
# resultants
# ----------------------------------------------------------------------------

def _bareiss_det(m):
    """Fraction-free determinant of a square integer matrix."""
    n = len(m)
    m = [list(r) for r in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            p = next((i for i in range(k + 1, n) if m[i][k]), None)
            if p is None:
                return 0
            m[k], m[p] = m[p], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def sylvester_matrix(pc, qc):
    """Sylvester matrix of two ascending integer coefficient lists of fixed
    length, the rows of the first list on top.

    The lengths fix the formal degrees, so a leading coefficient may be 0.
    When either formal degree is at most 0 the resultant is taken as 0 and
    the matrix is [[0]].
    """
    m, n = len(pc) - 1, len(qc) - 1
    if m <= 0 or n <= 0:
        return [[0]]
    pdesc = list(reversed(pc))
    qdesc = list(reversed(qc))
    rows = [[0] * i + pdesc + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + qdesc + [0] * (m - 1 - i) for i in range(m)]
    return rows


def pseudo_remainder(qc, pc):
    """lc(p)^(n-m+1) q mod p for ascending integer coefficient lists of
    formal degrees n >= m >= 1, as a list of length m.

    Every one of the n - m + 1 steps multiplies by lc(p), also where the
    top coefficient is 0, so the multiplier is fixed and the remainder is
    linear in q.
    """
    m, lc = len(pc) - 1, pc[-1]
    r = list(qc)
    for shift in range(len(qc) - 1 - m, -1, -1):
        top = r.pop()
        r = [lc * c for c in r]
        for i, c in enumerate(pc[:-1]):
            r[shift + i] -= top * c
    return r


def exact_quotient(num, den):
    """num / den for ascending integer coefficient lists when den divides
    num over the integers, as a list of length len(num) - deg den; a
    remainder raises InconsistentData."""
    num = list(num)
    dn = len(den) - 1
    while den[dn] == 0:
        dn -= 1
    q = [0] * (len(num) - dn)
    for k in range(len(num) - dn - 1, -1, -1):
        c, rem = divmod(num[k + dn], den[dn])
        if rem:
            raise InconsistentData("integer division left a remainder")
        q[k] = c
        if c:
            for j in range(dn + 1):
                num[k + j] -= c * den[j]
    if any(num[:dn]):
        raise InconsistentData("integer division left a remainder")
    return q


def _rational_gcd(a, b):
    """The monic gcd of two ascending lists of ints and Fractions without
    trailing zeros, by the primitive pseudo-remainder sequence (Collins
    1967): every remainder is taken on content-free integers and divided
    by its content, so no Fraction is made before the gcd turns monic."""
    if len(a) < len(b):
        a, b = b, a
    g = a
    if b:
        a, g = primitive_part(a)[1], primitive_part(b)[1]
        # a constant divisor ends it: pseudo_remainder needs degree >= 1
        while len(g) > 1:
            r = Poly(pseudo_remainder(a, g)).coeffs
            if not r:
                break
            a, g = g, primitive_part(r)[1]
    return Poly([Fraction(c, g[-1]) for c in g])


# ----------------------------------------------------------------------------
# modular reductions and squarefree certification
# ----------------------------------------------------------------------------

def poly_mod_p(poly, prime):
    """Reduce coefficients mod prime; None when a denominator vanishes or
    a coefficient's field has no residues mod prime.

    A coefficient c other than an int or Fraction maps to
    sum(c.ints[m] * c.field.residues(prime)[m]) / c.den.
    """
    out = []
    for c in poly.coeffs:
        if isinstance(c, (int, Fraction)):
            ints, den, images = (c.numerator,), c.denominator, (1,)
        else:
            ints, den, images = c.ints, c.den, c.field.residues(prime)
        if images is None or den % prime == 0:
            return None
        acc = sum(v * image for v, image in zip(ints, images))
        out.append(acc * pow(den, -1, prime) % prime)
    while out and out[-1] == 0:
        out.pop()
    return out


def _gcd_mod_p(a, b, p):
    """Euclid over the prime field; lists of residues, ascending."""
    a, b = list(a), list(b)
    while b:
        inv = pow(b[-1], -1, p)
        dn = len(b) - 1
        rem = list(a)
        if len(rem) > dn:
            for k in range(len(rem) - dn - 1, -1, -1):
                c = rem[k + dn] * inv % p
                if c:
                    for j in range(dn + 1):
                        rem[k + j] = (rem[k + j] - c * b[j]) % p
            rem = rem[:dn]
        while rem and rem[-1] == 0:
            rem.pop()
        a, b = b, rem
    return a


# the last three are 1 mod 60, so cyclotomic coefficients of order 60 and
# its divisors have images there
_CERT_PRIMES = (1000003, 1000033, 1000037, 1000039, 1000081, 1000099,
                1000381, 1000621)


def certified_coprime(p, q):
    """True when a single good prime certifies gcd(p, q) constant.

    A constant gcd mod a prime that preserves both leading coefficients is a
    proof of coprimality over the ground field; a nonconstant one is not a
    proof of the converse, so None means undecided.  For an algebraic
    ground field the reduction is a ring map onto the prime field, which
    keeps the argument: the resultant of p and q maps to that of their
    images, which is nonzero.  The reduction is a ring map only within one
    field, so coefficients from two fields, whose residues are chosen
    independently, are undecided.
    """
    if not p or not q:
        return False
    fields = {getattr(c, "field", None) for c in p.coeffs + q.coeffs
              if not isinstance(c, (int, Fraction))}
    if len(fields) > 1 or None in fields:
        return None
    for prime in _CERT_PRIMES:
        a = poly_mod_p(p, prime)
        b = poly_mod_p(q, prime)
        if a is None or b is None:
            continue
        if len(a) != len(p.coeffs) or len(b) != len(q.coeffs):
            continue  # leading coefficient vanished mod prime
        g = _gcd_mod_p(a, b, prime)
        if len(g) == 1:
            return True
    return None


def is_squarefree_certified(poly):
    """Exact squarefree test, preferring a one-prime certificate."""
    if not poly or poly.degree == 0:
        return bool(poly)
    if certified_coprime(poly, poly.derivative()):
        return True
    g = poly.gcd(poly.derivative())
    return g.degree == 0


# ----------------------------------------------------------------------------
# rational functions
# ----------------------------------------------------------------------------

class RationalFunction:
    """Quotient of two polynomials, kept reduced with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Poly):
            num = Poly([num])
        if den is None:
            den = Poly([1])
        elif not isinstance(den, Poly):
            den = Poly([den])
        if not den:
            raise ZeroPolynomial("rational function with zero denominator")
        if not num:
            den = Poly([1])  # one zero, so == and hash agree
        elif certified_coprime(num, den) is not True:
            g = num.gcd(den)
            if g.degree > 0:
                num = num // g
                den = den // g
        lc = den.leading()
        if lc != 1:
            inv = _inv(lc)
            num = num * inv
            den = den * inv
        self.num = num
        self.den = den

    def __eq__(self, other):
        # both sides are reduced with a monic denominator
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (Poly, int, Fraction)):
            return self == RationalFunction(other)
        return NotImplemented

    def __hash__(self):
        # over denominator 1 it equals, and so hashes as, its numerator
        if not self.den.degree:
            return hash(self.num)
        return hash((self.num.coeffs, self.den.coeffs))

    def __truediv__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if not other.num:
            raise DivisionByZero("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __call__(self, x):
        dv = self.den(x)
        if not dv:
            raise DivisionByZero("pole of a rational function", at=x)
        return self.num(x) / dv

    def __bool__(self):
        return bool(self.num)

    def is_constant(self):
        return self.num.degree <= 0 and self.den.degree == 0

    def mapped_degree(self):
        """Degree as a map of the projective line."""
        return max(self.num.degree, self.den.degree)

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"


def _scaled(parts, s):
    """values[k] * s^k for each k, for each list of values in parts (one
    length); the powers of s are formed once."""
    if s == 1:
        return parts
    powers = list(itertools.accumulate(
        itertools.repeat(s, len(parts[0]) - 1), operator.mul))
    return [values[:1] + [v * t if v else v for v, t in zip(values[1:],
                                                             powers)]
            for values in parts]


def _shift_ints(ints):
    """The coefficients of p(x + 1) for a list of integer coefficients of
    p, by additions only."""
    out = list(ints)
    n = len(out)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] += out[j + 1]
    return out


def _unit_shift(values):
    """The coefficients of p(x + 1) from those of p.

    The coefficients become integer vectors over one common denominator: a
    field element on its field's basis, a rational at position 0, the basis
    element 1 of every field, and a rational-only list on a basis of one.
    Each basis position is shifted as a list of integers.
    """
    elems = [c for c in values if not isinstance(c, (int, Fraction))]
    if len({c.field for c in elems}) > 1:
        # the operators carry every value into the field that holds them all
        zero = sum(c * 0 for c in elems)
        values = elems = [zero + c for c in values]
    rows, den = _integer_rows(values, len(elems[0].ints) if elems else 1)
    cols = [_shift_ints(col) if any(col) else col for col in zip(*rows)]
    build = (elems[0].field.from_ints if elems
             else lambda ints, den: Fraction(ints[0], den))
    return [build(ints, den) for ints in zip(*cols)]


def _affine(parts, t, s):
    """The coefficients of p(tx + s) for the coefficient lists p in parts
    (one length): for s = 0 coefficient k scaled by t^k, else p(sx)
    shifted by 1, with coefficient k scaled by (t/s)^k."""
    if not s:
        return _scaled(parts, t)
    return _scaled([_unit_shift(p) for p in _scaled(parts, s)],
                   _exact_div(t, s))


def moebius_substitute(poly, a, b, c, d, m):
    """(cx + d)^m p((ax + b)/(cx + d)) for a polynomial p of degree at most
    m, that is sum_i p_i (ax + b)^i (cx + d)^(m-i).

    O(m) products and O(m^2) additions, by Taylor shifts (von zur Gathen
    and Gerhard, ISSAC 1997).  For c != 0, (ax + b)/(cx + d) is
    a/c + e/(cx + d) with e = (bc - ad)/c, so the sum is r(cx + d) for
    the reversal r(z) = z^m q(1/z) to degree m of q(y) = p(ey + a/c).
    For c = 0 it is the polynomial with coefficients p_i d^(m-i) at
    ax + b.  A degree above m raises DegreeMismatch.  A tuple of
    polynomials gives the tuple of their substitutions, with the inverse
    of c, e, a/c and the powers of each scaling formed once for all.
    """
    parts = (poly,) if isinstance(poly, Poly) else poly
    for p in parts:
        if p.degree > m:
            raise DegreeMismatch("polynomial degree exceeds the substitution "
                                 "degree", degree=p.degree, m=m)
    coeffs = [list(p.coeffs) + [0] * (m + 1 - len(p.coeffs)) for p in parts]
    if c:
        inv = _inv(c)
        coeffs = _affine(coeffs, (b * c - a * d) * inv, a * inv)
        coeffs = _affine([cs[::-1] for cs in coeffs], c, d)
    else:
        coeffs = _affine([cs[::-1] for cs in _scaled(
            [cs[::-1] for cs in coeffs], d)], a, b)
    out = tuple(map(Poly, coeffs))
    return out[0] if isinstance(poly, Poly) else out


def compose_rational(outer, inner):
    """outer(inner(x)) for an inner map of mapped degree at most 1.

    With inner = (ax + b)/(cx + d) and m the joint degree of outer, both
    parts of outer go through one moebius_substitute.  An inner map of
    higher degree raises DegreeMismatch.
    """
    if not isinstance(inner, RationalFunction):
        inner = RationalFunction(inner)
    if not isinstance(outer, RationalFunction):
        outer = RationalFunction(outer)
    if inner.mapped_degree() > 1:
        raise DegreeMismatch("inner map is not a Moebius map",
                             degree=inner.mapped_degree())
    m = max(outer.num.degree, outer.den.degree, 0)
    a, b, c, d = (inner.num.coeff(1), inner.num.coeff(0),
                  inner.den.coeff(1), inner.den.coeff(0))
    num, den = moebius_substitute((outer.num, outer.den), a, b, c, d, m)
    if not den:
        raise ZeroPolynomial("composition collapses the denominator")
    return RationalFunction(num, den)


# ----------------------------------------------------------------------------
# exact linear algebra over any of the coefficient fields
# ----------------------------------------------------------------------------

def nullspace(rows, ncols):
    """Basis of the right nullspace of the given coefficient rows, by one
    Gauss-Jordan pass: per free column f, 1 at f, 0 at the other free
    columns and minus column f of the reduced rows at the pivots."""
    m = [list(r) for r in rows]
    piv_cols = []
    for c in range(ncols):
        r = len(piv_cols)
        if r == len(m):
            break
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = _inv(m[r][c])
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        piv_cols.append(c)
    basis = []
    for f in range(ncols):
        if f not in piv_cols:
            v = [0] * ncols
            v[f] = 1
            for i, pc in enumerate(piv_cols):
                v[pc] = -m[i][f]
            basis.append(v)
    return basis
