"""Exact arithmetic in cyclotomic and quadratic fields.

Each value stays in the field it was built in.  Cyclotomic fields Q(zeta_n)
carry the icosahedral group, over Q(zeta5), and the ambient field
Q(zeta60), which holds the fixed points of the group's maps.  Quadratic
fields Q(sqrt(D)) and the towers Q(sqrt(d))(sqrt(D)) carry the curve
models.  The one lift between fields is to_ambient, of a rational or a
cyclotomic subfield element into the ambient field.  A quadratic value is
never embedded: against a cyclotomic value, as against another square
class, arithmetic raises and only equal rationals compare equal, and so
do values of two cyclotomic orders.

Every element is an integer vector over one positive denominator, kept in
lowest terms, and both kinds share one set of operators; only the integer
product differs by field.  The inverse is den * c / N for c the product of
the other Galois conjugates of the integer vector and N their norm, a
rational integer, built by one loop over the prime-index steps of the
field's Galois group: steps of (Z/n)^* for a cyclotomic field, one step
per square class, which negates its root, for a quadratic field.  A
cyclotomic field's product is a convolution and its reduction mod the
cyclotomic polynomial (reduce), which polyring's packed polynomial product
shares.  Each field also maps its basis mod a prime (residues), the ring
map onto the prime field behind the modular certificates of polyring.

Square roots inside the ambient field are decided exactly by walking the
quadratic tower Q < Q(sqrt5) < Q(zeta5) < Q(zeta20) < ambient: the Galois
automorphism zeta -> zeta^k that negates a level's generator splits each
element into its parts one level down, and the walk ends in integer
perfect-square tests.  No floating point anywhere.
"""

import functools
import math
from fractions import Fraction

from .errors import DivisionByZero, FactoringExhausted
from .polyring import (
    _power,
    clear_denominators,
    exact_quotient,
    nullspace,
    pseudo_remainder,
)

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


# ----------------------------------------------------------------------------
# cyclotomic polynomials and fields
# ----------------------------------------------------------------------------

@functools.cache
def _cyclotomic_coefficients(n):
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = exact_quotient(poly, _cyclotomic_coefficients(d))
    return tuple(poly)


class CyclotomicField:
    """The field generated by a primitive n-th root of unity."""

    __slots__ = ("n", "degree", "modulus", "_rows")

    def __init__(self, n):
        self.n = n
        self.modulus = _cyclotomic_coefficients(n)
        self.degree = len(self.modulus) - 1
        # x^k mod modulus for k = d .. 2d-2, as its nonzero (index, value)
        self._rows = {k: tuple((j, c) for j, c in enumerate(
            pseudo_remainder([0] * k + [1], self.modulus)) if c)
            for k in range(self.degree, 2 * self.degree - 1)}

    def mul(self, a, b):
        """The product of two integer vectors on the power basis: the one
        cyclotomic multiply kernel, a convolution and its reduction."""
        conv = [0] * (2 * self.degree - 1)
        b_terms = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in b_terms:
                    conv[i + j] += x * y
        return self.reduce(conv)

    def reduce(self, conv):
        """The power-basis vector of a polynomial of degree at most
        2 * degree - 2 in zeta, given as its list of coefficients."""
        d = self.degree
        out = conv[:d]
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c:
                for j, r in self._rows[k]:
                    out[j] += c * r
        return tuple(out)

    @functools.cache
    def _galois_rows(self, k):
        """Per basis element zeta^j, the nonzero (index, value) of
        zeta^(jk) on the power basis."""
        return tuple(tuple((i, v) for i, v in enumerate(self.zeta(j * k).ints)
                           if v)
                     for j in range(self.degree))

    def galois(self, ints, k):
        """The image of an integer vector under zeta -> zeta^k: for k a unit
        mod n an automorphism, for k = n/m the embedding of Q(zeta_m), whose
        vectors have fewer entries."""
        out = [0] * self.degree
        for c, row in zip(ints, self._galois_rows(k)):
            if c:
                for i, v in row:
                    out[i] += c * v
        return tuple(out)

    @functools.cache
    def _norm_steps(self):
        """(k, p) per step of a chain 1 = H_0 < H_1 < ... = (Z/n)^* of
        subgroups, each of prime index p in the next, which zeta -> zeta^k
        generates over the one before.  Some power u^(e/p) of a unit u
        outside H, for e its order over H and p a prime dividing e, has
        order p over H."""
        n = self.n
        units = {u for u in range(n) if math.gcd(u, n) == 1}
        sub, steps = {1 % n}, []
        while len(sub) < len(units):
            u = min(units - sub)
            e, v = 1, u
            while v not in sub:
                e, v = e + 1, v * u % n
            p = next(q for q in range(2, e + 1) if e % q == 0)
            k = pow(u, e // p, n)
            sub = {s * pow(k, i, n) % n for s in sub for i in range(p)}
            steps.append((k, p))
        return tuple(steps)

    # -- element construction -------------------------------------------------

    def element(self, coeffs):
        """The element with the given rational coefficients on the power
        basis, of the type from_ints gives."""
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > self.degree:
            raise ValueError("coefficient vector too long")
        ints, den = clear_denominators(cs)
        return self.from_ints(tuple(ints) + (0,) * (self.degree - len(ints)),
                              den)

    def from_ints(self, ints, den=1):
        """The element ints / den in lowest terms, from a tuple of degree
        integers on the power basis and a positive den."""
        bare = object.__new__(CycloElement)
        bare.field = self
        return bare._new(ints, den)

    def zero(self):
        return self.element([])

    def one(self):
        return self.element([1])

    def zeta(self, power=1):
        """zeta_n raised to the given power, reduced to the power basis."""
        return self._power_table()[power % self.n]

    @functools.cache
    def _power_table(self):
        # zeta is x on the power basis, or the root -Phi_n(0) of a linear Phi_n
        z = self.element([0, 1] if self.degree > 1 else [-self.modulus[0]])
        powers = [self.one()]
        for _ in range(self.n - 1):
            powers.append(powers[-1] * z)
        return tuple(powers)

    @functools.cache
    def residues(self, prime):
        """The power basis mod prime under a ring map onto the prime field,
        or None: zeta_n goes to an element of exact order n, which exists
        when n divides prime - 1."""
        if (prime - 1) % self.n:
            return None
        for a in range(2, prime):
            z = pow(a, (prime - 1) // self.n, prime)
            powers = [pow(z, j, prime) for j in range(self.n)]
            if powers.count(1) == 1:
                return tuple(powers[:self.degree])

    def __repr__(self):
        return f"CyclotomicField({self.n})"


cyclotomic_field = functools.cache(CyclotomicField)


# ----------------------------------------------------------------------------
# field elements: integer vectors over one denominator
# ----------------------------------------------------------------------------

class _IntVectorElement:
    """A field element stored as ints / den on a basis fixed by its field.

    ints is a tuple of integers and den a positive integer with
    gcd(den, *ints) == 1, so each value has one representation.  Sums
    combine the integer vectors, products run field.mul, the field's
    integer product, and inverses walk the field's Galois steps
    (field._norm_steps, field.galois).  A subclass supplies _coerce (the
    other operand as an element of this field, or None), which raises
    ValueError for a value of a field that does not mix with this one,
    and _signature, the key by which a value that is not rational hashes.
    """

    __slots__ = ("field", "ints", "den")

    def _new(self, ints, den=1):
        """ints / den in lowest terms, of this element's type and field."""
        if den != 1:
            g = math.gcd(den, *ints)
            if g != 1:
                ints = tuple(c // g for c in ints)
                den //= g
        obj = object.__new__(type(self))
        obj.field = self.field
        obj.ints = ints
        obj.den = den
        return obj

    @property
    def coeffs(self):
        """The Fraction coefficient vector, derived on each read."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.ints)

    def _plus(self, o, sign):
        """self + sign * o for sign 1 or -1."""
        da, db = self.den, o.den
        if da == db:
            return self._new(tuple(x + sign * y
                                   for x, y in zip(self.ints, o.ints)), da)
        g = math.gcd(da, db)
        fa, fb = db // g, sign * (da // g)
        return self._new(tuple(x * fa + y * fb
                               for x, y in zip(self.ints, o.ints)), da * fa)

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._plus(o, 1)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._plus(o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o - self

    def __neg__(self):
        return self._new(tuple(-c for c in self.ints), self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._new(self.field.mul(self.ints, o.ints), self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o * self.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        return _power(self, k, self._coerce(1))

    def inverse(self):
        """den * c / N, for c the product of the other Galois conjugates of
        ints and N = ints * c their norm, a rational integer (Cohen, A Course
        in Computational Algebraic Number Theory, 4.3).  Step (k, p) of
        field._norm_steps() takes b, fixed by H_i, to its relative norm
        b * t(b) * ... * t^(p-1)(b), fixed by H_(i+1), for t the automorphism
        field.galois(., k), and multiplies c by the same cofactor."""
        if not self:
            raise DivisionByZero("inverse of zero")
        field, b, c = self.field, self.ints, None
        for k, p in field._norm_steps():
            cof = conj = field.galois(b, k)
            for _ in range(p - 2):
                conj = field.galois(conj, k)
                cof = field.mul(cof, conj)
            b = field.mul(b, cof)
            c = cof if c is None else field.mul(c, cof)
        norm = b[0]  # c is None when the field is Q
        if not norm:
            raise DivisionByZero("zero divisor of a quadratic tower")
        sign = -1 if norm < 0 else 1
        return self._new(tuple(v * self.den * sign for v in c or (1,)),
                         abs(norm))

    def __bool__(self):
        return any(self.ints)

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except ValueError:
            # two fields that do not mix share only the rationals
            return (self.is_rational() and other.is_rational()
                    and self.rational_value() == other.rational_value())
        return NotImplemented if o is None else (
            self.ints == o.ints and self.den == o.den)

    def __hash__(self):
        # equal values hash alike: a rational as its Fraction, others by the
        # subclass's _signature
        if self.is_rational():
            return hash(self.rational_value())
        return hash(self._signature())

    def is_rational(self):
        return not any(self.ints[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.ints[0], self.den)


class CycloElement(_IntVectorElement):
    """Element of a cyclotomic field: ints / den on the power basis, with
    field.degree integers."""

    __slots__ = ()

    def _coerce(self, other):
        if isinstance(other, CycloElement):
            if other.field.n != self.field.n:
                raise ValueError("mixed cyclotomic fields; convert explicitly")
            return other
        if isinstance(other, (int, Fraction)):
            zeros = (0,) * (self.field.degree - 1)
            return self._new((other.numerator,) + zeros, other.denominator)
        return None

    def _signature(self):
        return self.field.n, self.ints, self.den

    def __repr__(self):
        terms = [f"{c}*z{self.field.n}^{k}" if k else str(c)
                 for k, c in enumerate(self.coeffs) if c]
        return "(" + (" + ".join(terms) if terms else "0") + ")"


# ----------------------------------------------------------------------------
# embeddings between the ambient field and its cyclotomic subfields
# ----------------------------------------------------------------------------

def to_ambient(x):
    """Embed a rational or an element of a cyclotomic subfield into the
    ambient field by the power map zeta_n -> zeta_60^(60/n), the ambient
    field's galois(., 60/n) on x's degree(n) integers.  Any other value
    raises TypeError."""
    amb = cyclotomic_field(60)
    if isinstance(x, (int, Fraction)):
        return amb.element([x])
    if not isinstance(x, CycloElement):
        raise TypeError(f"no ambient image of a {type(x).__name__}")
    if 60 % x.field.n:
        raise ValueError("not a subfield order")
    return amb.from_ints(amb.galois(x.ints, 60 // x.field.n), x.den)


def to_subfield(x, n):
    """Project an ambient element into the order-n subfield, or None: x is
    sum_j c_j zeta_n^j when (c, 1) spans the nullspace of the columns
    to_ambient(zeta_n^j) and -x, 16 equations in degree(n) + 1 unknowns."""
    field = cyclotomic_field(n)
    cols = [to_ambient(field.zeta(j)).coeffs for j in range(field.degree)]
    cols.append((-x).coeffs)
    basis = nullspace(list(zip(*cols)), len(cols))
    return field.element(basis[0][:-1]) if basis else None


# ----------------------------------------------------------------------------
# distinguished constants (ambient field)
# ----------------------------------------------------------------------------

_Z = cyclotomic_field(60).zeta

I_UNIT = _Z(15)                       # the square root of -1 with positive imaginary part
OMEGA = _Z(12) + _Z(48)               # (-1 + sqrt5)/2, the golden-section cosine
THETA = _Z(12) - _Z(48)               # purely imaginary generator of Q(zeta5) over Q(sqrt5)

SQRT5 = OMEGA * 2 + 1                 # positive real square root of 5
SQRT3 = -I_UNIT * (_Z(20) * 2 + 1)    # positive real square root of 3


# ----------------------------------------------------------------------------
# square roots in the ambient field (quadratic tower descent)
# ----------------------------------------------------------------------------

@functools.cache
def _tower():
    """Per level of Q < Q(sqrt5) < Q(zeta5) < Q(zeta20) < ambient: the k of
    the automorphism zeta -> zeta^k that negates the level's generator g and
    fixes the levels below it, then g, g*g and 1/g."""
    return tuple((k, g, g * g, g.inverse())
                 for k, g in ((7, SQRT5), (49, THETA), (11, I_UNIT),
                              (41, SQRT3)))


def _galois(x, k):
    """The image of an ambient element under zeta -> zeta^k."""
    return x._new(x.field.galois(x.ints, k), x.den)


def rational_square_root(q):
    """Exact square root of a Fraction, or None."""
    q = Fraction(q)
    r = Fraction(math.isqrt(max(q.numerator, 0)), math.isqrt(q.denominator))
    return r if r * r == q else None


def _sqrt_descend(x, level):
    """A square root of x, an element of the given tower level, or None.
    x = a + b*g one level down, with a = (x + x')/2 and b = (x - x')/(2g)
    for x' the image of x under the level's automorphism."""
    if not level:
        r = rational_square_root(x.rational_value())
        return None if r is None else x.field.element([r])
    k, gen, msq, inv = _tower()[level - 1]
    conj = _galois(x, k)
    a, b = (x + conj) * _HALF, (x - conj) * inv * _HALF
    level -= 1
    if not b:
        r = _sqrt_descend(a, level)
        if r is not None:
            return r
        r = _sqrt_descend(a * inv * inv, level)
        return None if r is None else r * gen
    n = _sqrt_descend(a * a - msq * b * b, level)
    if n is None:
        return None
    for sgn in (1, -1):
        y = _sqrt_descend((a + n * sgn) * inv * inv * _HALF, level)
        if y:
            cand = b * (y * 2).inverse() + y * gen
            if cand * cand == x:
                return cand
    return None


def cyclo_sqrt(x):
    """A square root of x in the ambient field, or None if none exists."""
    return _sqrt_descend(to_ambient(x), 4)


# ----------------------------------------------------------------------------
# quadratic fields and their towers
# ----------------------------------------------------------------------------

class QuadraticField:
    """Q(sqrt(D)) for classes (D,), or the tower Q(sqrt(d))(sqrt(D)) for
    classes (d, D).

    Basis element m is the product of the square roots of the classes whose
    bits are set in m: (1, sqrt(D)), or (1, sqrt(d), sqrt(D),
    sqrt(d)*sqrt(D)).  So basis element j times basis element k is
    squares[j & k] times basis element j ^ k.
    """

    __slots__ = ("classes", "D", "squares")

    def __init__(self, classes):
        self.classes, self.D = classes, classes[-1]
        self.squares = tuple(math.prod(self.basis(m))
                             for m in range(1 << len(classes)))

    def basis(self, m):
        """The classes whose square roots multiply to basis element m."""
        return tuple(c for bit, c in enumerate(self.classes) if m >> bit & 1)

    def radicand(self, m):
        """(r, k) with basis element m equal to k*sqrt(r), r squarefree:
        sqrt(d)*sqrt(D) = g*sqrt(dD/g^2) for g = gcd(d, D), negated when
        both roots are imaginary, so sqrt(-2)*i = -sqrt(2)."""
        r, k = 1, 1
        for c in self.basis(m):
            g = math.gcd(r, c)
            r, k = (r // g) * (c // g), -g * k if r < 0 and c < 0 else g * k
        return r, k

    def mul(self, a, b):
        """The product of two integer vectors on the basis: two terms in
        Q(sqrt(D)), the basis-bit loop in a tower."""
        if len(a) == 2:
            (a0, a1), (b0, b1) = a, b
            return a0 * b0 + a1 * b1 * self.D, a0 * b1 + a1 * b0
        sq = self.squares
        out = [0] * len(sq)
        for j, x in enumerate(a):
            if x:
                for k, y in enumerate(b):
                    if y:
                        out[j ^ k] += x * y * sq[j & k]
        return tuple(out)

    def galois(self, ints, s):
        """The image of an integer vector under the automorphism that
        negates the square roots of the classes whose bits are set in s."""
        return tuple(-v if (m & s).bit_count() & 1 else v
                     for m, v in enumerate(ints))

    @functools.cache
    def _norm_steps(self):
        """One step of index 2 per class, which negates its square root."""
        return tuple((1 << bit, 2) for bit in range(len(self.classes)))

    def from_ints(self, ints, den=1):
        """The element ints / den in lowest terms, from a tuple of integers
        on the basis and a positive den."""
        tower = len(self.classes) > 1
        bare = object.__new__(_QuadraticTower if tower else QuadraticElement)
        bare.field = self
        return bare._new(ints, den)

    @functools.cache
    def residues(self, prime):
        """The basis mod prime under a ring map onto the prime field, or
        None: each class goes to its Tonelli-Shanks root, when it has one,
        and basis element m to the product of the roots of its bits."""
        roots = [_mod_sqrt(c, prime) for c in self.classes]
        if None in roots:
            return None
        return tuple(math.prod(r for bit, r in enumerate(roots)
                               if m >> bit & 1) % prime
                     for m in range(len(self.squares)))


# the one field of each tuple of classes, which operands compare by identity
_quadratic_field = functools.cache(QuadraticField)


class QuadraticElement(_IntVectorElement):
    """a + b*sqrt(D), kept as a + (b*m)*sqrt(s) for D = s*m^2, s squarefree.

    The parts a, b are rationals, stored as 2 integers over one
    denominator, or elements of Q(sqrt(d)) for one other square class d,
    which makes the tower Q(sqrt(d))(sqrt(D)) on 4 integers: with D = -1
    this is Q(sqrt(d), i), where a Gaussian-coefficient model is evaluated
    at a parameter in Q(sqrt(d)).  Rationals combine with either level and
    an element of Q(sqrt(D)) is promoted into the tower when the two meet;
    an element of Q(sqrt(d)) enters the tower only as a part, since two
    square classes at one level do not mix: arithmetic between them
    raises, and they compare equal only on equal rationals.
    """

    __slots__ = ()

    def __new__(cls, a, b, D):
        s = D if isinstance(D, _Squarefree) else squarefree_part(D) if D else 1
        if s == 1:
            raise ValueError("D must be a nonsquare integer")
        b = b * math.isqrt(int(D) // s)  # sqrt(D) = m*sqrt(s)
        inner = {p.field for p in (a, b) if isinstance(p, QuadraticElement)}
        if len(inner) > 1 or any(len(f.classes) > 1 for f in inner):
            raise ValueError("tower parts must share one quadratic field")
        if any(f.D == s for f in inner):
            raise ValueError("a tower over its own square class is no field")
        cs = [c for p in (a, b) for c in
              (p.coeffs if isinstance(p, QuadraticElement)
               else (Fraction(p),) + (_ZERO,) * len(inner))]
        field = _quadratic_field(tuple(f.D for f in inner) + (s,))
        ints, den = clear_denominators(cs)
        return field.from_ints(tuple(ints), den)

    def _part(self, k):
        h = len(self.ints) // 2
        cs = [Fraction(c, self.den) for c in self.ints[k * h:k * h + h]]
        return QuadraticElement(*cs, self.field.classes[0]) if h > 1 else cs[0]

    @property
    def a(self):
        """The rational part, or in a tower the part in Q(sqrt(d))."""
        return self._part(0)

    @property
    def b(self):
        """The coefficient of sqrt(D), of the same kind as a."""
        return self._part(1)

    @property
    def D(self):
        return self.field.D

    def _coerce(self, other):
        if isinstance(other, QuadraticElement):
            if other.field is self.field:
                return other
            if other.D == self.D and len(other.ints) != len(self.ints):
                if len(other.ints) > len(self.ints):
                    return None  # the tower operand promotes this one
                a, b = other.ints
                return self._new((a, 0, b, 0), other.den)
            raise ValueError("mixed quadratic fields")
        if isinstance(other, (int, Fraction)):
            zeros = (0,) * (len(self.ints) - 1)
            return self._new((other.numerator,) + zeros, other.denominator)
        if isinstance(other, CycloElement):
            raise ValueError("a quadratic and a cyclotomic field do not mix")
        return None

    def _signature(self):
        """(den, then (r, c) for each nonzero term c*sqrt(r) by r, r
        squarefree), in lowest terms: one signature for equal values,
        whatever the field or level."""
        terms = sorted((r, c * k) for (r, k), c in zip(
            map(self.field.radicand, range(len(self.ints))), self.ints) if c)
        g = math.gcd(self.den, *(c for _, c in terms))
        return (self.den // g,) + tuple((r, c // g) for r, c in terms)

    def __eq__(self, other):
        if (isinstance(other, QuadraticElement)
                and other.field is not self.field):
            return self._signature() == other._signature()
        return super().__eq__(other)

    # defining __eq__ would otherwise set __hash__ to None
    __hash__ = _IntVectorElement.__hash__

    def conjugate(self):
        """sqrt(D) -> -sqrt(D), which fixes the parts."""
        h = len(self.ints) // 2
        return self._new(self.ints[:h] + tuple(-c for c in self.ints[h:]),
                         self.den)

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt({self.D}))"


class _QuadraticTower(QuadraticElement):
    """An element of Q(sqrt(d))(sqrt(D)).  Its own type, so that an element
    of Q(sqrt(D)) on the left of an operator defers to it."""

    __slots__ = ()


# ----------------------------------------------------------------------------
# integer factor utilities
# ----------------------------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# psi_12, the least strong pseudoprime to every base in _SMALL_PRIMES: below
# it the strong test over those bases is a proof of primality
_STRONG_TEST_BOUND = 318665857834031151167461


def _is_probable_prime(n):
    """The strong test of n to every base in _SMALL_PRIMES."""
    if n < 2 or any(n % p == 0 for p in _SMALL_PRIMES):
        return n in _SMALL_PRIMES
    s = ((n - 1) & (1 - n)).bit_length() - 1    # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_prime(n, max_b1):
    """Whether n is a proven prime: by the strong test below psi_12, above
    it by a Pocklington certificate on the factorisation of n - 1
    (Brillhart, Lehmer and Selfridge 1975).  False means composite or
    unproven."""
    if not _is_probable_prime(n):
        return False
    if n < _STRONG_TEST_BOUND:
        return True
    # a prime p | n is 1 mod q^e for each q^e || n - 1 with a base a that
    # has a^(n-1) = 1 and gcd(a^((n-1)/q) - 1, n) = 1, so p > sqrt(n)
    for q in _factor_bounded(n - 1, max_b1):
        a = next((a for a in range(2, 256)
                  if math.gcd(pow(a, (n - 1) // q, n) - 1, n) == 1), None)
        if a is None or pow(a, n - 1, n) != 1:
            return False
    return True


def _prime_power_product(bound):
    """The product of the largest powers at most bound of the primes."""
    sieve = bytearray([1]) * (bound + 1)
    k = 1
    for p in range(2, bound + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(sieve[p * p::p]))
            q = p
            while q * p <= bound:
                q *= p
            k *= q
    return k


def _ecm_factor(n, max_b1):
    """A proper factor of the composite n by stage 1 of Lenstra's elliptic
    curve method, or None: Montgomery curves in Suyama's parametrisation,
    multiplied by the x-only ladder (Montgomery 1987); B1 doubles from 1000
    while it is at most max_b1, with eight curves seeded by n at each."""
    import random

    def double(x, z):
        s, d = (x + z) ** 2 % n, (x - z) ** 2 % n
        return s * d % n, (s - d) * (d + a24 * (s - d)) % n

    rng = random.Random(n)
    b1 = 1000
    while b1 <= max_b1:
        bits = bin(_prime_power_product(b1))[3:]
        for _ in range(8):
            sigma = rng.randrange(6, n - 1)
            u = (sigma * sigma - 5) % n
            v = 4 * sigma % n
            den = 16 * pow(u, 3, n) * v % n
            g = math.gcd(den, n)
            if g == 1:
                # (A + 2)/4 of By^2 = x^3 + Ax^2 + x, base point (u^3 : v^3)
                a24 = pow(v - u, 3, n) * (3 * u + v) * pow(den, -1, n) % n
                x0, z0 = pow(u, 3, n), pow(v, 3, n)
                (x1, z1), (x2, z2) = (x0, z0), double(x0, z0)
                for bit in bits:
                    # keep R2 - R1 = (x0 : z0): R1 + R2, and twice one of them
                    p = (x1 - z1) * (x2 + z2)
                    m = (x1 + z1) * (x2 - z2)
                    added = z0 * (p + m) ** 2 % n, x0 * (p - m) ** 2 % n
                    if bit == "1":
                        (x1, z1), (x2, z2) = added, double(x2, z2)
                    else:
                        (x1, z1), (x2, z2) = double(x1, z1), added
                g = math.gcd(z1, n)
            if 1 < g < n:
                return g
        b1 *= 2
    return None


def _factor_bounded(n, max_b1):
    """The factorisation of n >= 1 into proven primes; raises
    FactoringExhausted when the effort bound max_b1 does not suffice."""
    factors = {}
    for p in range(2, 100000):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        if p * p > n:
            break
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if _is_prime(m, max_b1):
            factors[m] = factors.get(m, 0) + 1
            continue
        r = math.isqrt(m)
        if r * r == m:
            stack.extend([r, r])
            continue
        g = _ecm_factor(m, max_b1)
        if g is None:
            raise FactoringExhausted(
                "no factor or prime certificate within the effort bound",
                remaining=m, max_b1=max_b1)
        stack.extend([g, m // g])
    return factors


def _mod_sqrt(a, p):
    """Tonelli-Shanks square root mod an odd prime, or None."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    s = ((p - 1) & (1 - p)).bit_length() - 1    # p - 1 = q 2^s with q odd
    q = (p - 1) >> s
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i = next(i for i in range(1, m) if pow(t, 1 << i, p) == 1)
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


class _Squarefree(int):
    """A result of squarefree_part, which QuadraticElement does not factor."""

    __slots__ = ()


# the one effort bound of squarefree_part: the largest elliptic-curve B1
_MAX_B1 = 50_000


@functools.cache
def squarefree_part(n):
    """The squarefree integer d with n = d * (square); sign preserved.

    |n| is factored by trial division and elliptic-curve stage 1 with B1 up
    to _MAX_B1, and every prime factor is proven."""
    n = int(n)
    if n == 0:
        raise ValueError("squarefree part of zero")
    factors = _factor_bounded(abs(n), _MAX_B1)
    d = math.prod(p for p, e in factors.items() if e % 2)
    return _Squarefree(-d if n < 0 else d)
