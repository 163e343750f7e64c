"""Invariants of hyperelliptic models: transvectant-based and dihedral.

Two toolkits live here.  Binary-form transvection gives the classical
invariants I2, I4, I6, I6star of the defining polynomial together with
their absolute ratios, which are what cut out the one-parameter loci.
The even-model coefficients give the dihedral invariants u_i, computed
by a root-free formula, and from those we detect the full automorphism
group.  This module imports no other part of the package but errors,
exactfield and polyring.
"""

import functools
import math
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from operator import mul

from .errors import (
    DegenerateLeadingOrTrailing,
    DegreeTooSmall,
    NormalizationUndefined,
    OrderTooLarge,
)
from .exactfield import QuadraticElement, _IntVectorElement
from .polyring import _inv, primitive_part


def form_coefficients(poly, degree):
    """An ascending-coefficient polynomial as a binary form of this degree:
    entry i multiplies X^(degree-i) Y^i.

    A polynomial of lower degree picks up roots at infinity: the x^j
    coefficient lands in entry degree - j, after leading zeros.
    """
    if poly.degree > degree:
        raise ValueError("polynomial degree exceeds the form degree")
    return (0,) * (degree + 1 - len(poly.coeffs)) + poly.coeffs[::-1]


def transvectant(f, h, r):
    """The r-th transvection of two binary forms' coefficient tuples.

    Normalization: ((m-r)! (n-r)! / (m! n!)) times the alternating sum of
    mixed r-th partial products, degree m + n - 2r.  The sum runs on the
    coefficients times the gcd-reduced weights t! (m-t)! / g, and the one
    rational scale g_f g_h / (m! n!) multiplies the result last.
    """
    scale, out = _transvect(f, h, r)
    return tuple(c * scale for c in out)


def _transvect(fc, hc, r):
    """(scale, out) with (f, h)_r == scale * out for coefficient sequences.

    With A[t] = c_t t! (m-t)! / g, slot i of d^r f / dX^(r-k) dY^k is
    g A[i+k] / ((m-r-i)! i!), so slot i + j gains C(m-r, i) C(n-r, j)
    times a column dot product.  out keeps the coefficient type: integer
    coefficients give an integer vector.  Pass one object as both
    sequences for a self-transvectant.

    Only the support stride is visited.  With the nonzero entries of f at
    indices a_f mod s_f, those of h at a_h mod s_h and s = gcd(s_f, s_h),
    the product of entries i + k of f and j + r - k of h can be nonzero
    only for i + j + r == a_f + a_h and k == a_f - i mod s, so column i of
    f and column j of h keep the entries k == a_f - i mod s, and each i
    meets only the j in its class.  An x^5 model has s = 5, an even one
    s = 2 and a dense form s = 1.
    """
    m, n = len(fc) - 1, len(hc) - 1
    if r < 0 or r > min(m, n):
        raise OrderTooLarge("transvection order exceeds a form degree",
                            order=r, degrees=(m, n))
    # (f, h)_r = (-1)^r (h, f)_r: sign the columns of the smaller form
    flip = n < m
    if flip:
        fc, hc, m, n = hc, fc, n, m
    weights, fscale, signs, fbinom = _tables(m, r)
    fa = list(map(mul, fc, weights))
    af, sf = _support(fc)
    if hc is fc:
        ha, hscale, hbinom, ah, sh = fa, fscale, fbinom, af, sf
    else:
        weights, hscale, _, hbinom = _tables(n, r)
        ha = list(map(mul, hc, weights))
        ah, sh = _support(hc)
    # a form with one nonzero entry fits every stride; past m + n the
    # congruences are equalities
    s = math.gcd(sf, sh) or m + n + 1
    fcols = [[signs[k] * fa[i + k] for k in range((af - i) % s, r + 1, s)]
             for i in range(m - r + 1)]
    hcols = [[ha[j + r - k] for k in range((j + r - ah) % s, r + 1, s)]
             for j in range(n - r + 1)]
    # for h is f the pair (j, i) repeats (i, j) up to the sign (-1)^r
    symmetric = hc is fc and r % 2 == 0
    out = [0] * (m + n - 2 * r + 1)
    for i, col in enumerate(fcols):
        if not col:
            continue
        weight = fbinom[i]
        start = i if symmetric else 0
        first = start + (af + ah - r - i - start) % s
        for j in range(first, n - r + 1, s):
            t = sum(map(mul, col, hcols[j])) * (weight * hbinom[j])
            out[i + j] += t + t if symmetric and j > i else t
    scale = fscale * hscale
    return (-scale if r * flip % 2 else scale), out


def _support(coeffs):
    """(a, s): every nonzero entry sits at an index a mod s, s the gcd of
    the index gaps, 0 for at most one nonzero entry."""
    nonzero = [i for i, c in enumerate(coeffs) if c]
    a = nonzero[0] if nonzero else 0
    # a running gcd: math.gcd(*gaps) raised the peak memory of a
    # 4000-curve sweep by a quarter MiB
    s = 0
    for i in nonzero:
        s = math.gcd(s, i - a)
    return a, s


@functools.cache
def _tables(n, r):
    """(weights, scale, signs, binom) for a degree-n form at order r.

    weights[t] = t! (n-t)! / g with g their gcd, scale = g / n!,
    signs[k] = (-1)^k C(r, k) and binom[i] = C(n-r, i).  Dividing by g
    shortens the weights: at n = 122 from 675 bits to at most 166.
    """
    fact = list(accumulate(range(1, n + 1), mul, initial=1))
    weights = [fact[t] * fact[n - t] for t in range(n + 1)]
    g = math.gcd(*weights)
    return (tuple(w // g for w in weights), Fraction(g, fact[n]),
            tuple((-1) ** k * math.comb(r, k) for k in range(r + 1)),
            tuple(math.comb(n - r, i) for i in range(n - r + 1)))


class InvariantSet(namedtuple("InvariantSet",
                              "I2 I4 I6 I6star i1 i2 i3 i4")):
    """Classical invariants of a curve model and their absolute ratios.

    The i-slots are None when their denominators vanish (or, for i3, when
    the degree is too small for I6star to exist at all).
    """

    __slots__ = ()

    def absolute(self):
        """(i1, i2, i3, i4), raising when I2 kills the normalization."""
        if self.I2 == 0:
            raise NormalizationUndefined(
                "I2 vanishes, absolute invariants undefined")
        return (self.i1, self.i2, self.i3, self.i4)


def _primitive(coeffs):
    """(scalar, coefficients): integer, content-free ones for rationals.

    Exotic coefficient types pass through untouched with scalar one; the
    point is to keep the transvectant inner loops on machine integers.
    """
    if not all(isinstance(c, (int, Fraction)) for c in coeffs):
        return Fraction(1), coeffs
    return primitive_part(coeffs)


def _covariant(f, h, r):
    """(f, h)_r as a (scalar, content-free coefficients) pair, from two
    such pairs; pass one pair twice for a self-transvectant."""
    (sf, fc), (sh, hc) = f, h
    scale, out = _transvect(fc, hc, r)
    s, out = _primitive(out)
    return sf * sh * scale * s, out


def _self_value(form, r):
    """The constant (form, form)_r of a (scalar, coefficients) pair."""
    s, coeffs = form
    scale, [c] = _transvect(coeffs, coeffs, r)
    return s * s * scale * c


def invariant_set(f, genus):
    """Classical invariants of y^2 = f(x) at the given genus.

    An odd-degree f is read as a form with one root at infinity, so the
    form degree is always d = 2*genus + 2.  Each covariant of the chain is
    kept as one rational scalar times content-free integers.
    """
    d = 2 * genus + 2
    if d < 12:
        raise DegreeTooSmall("invariant chain needs form degree twelve",
                             degree=d)
    if f.degree not in (d - 1, d):
        raise ValueError("polynomial degree does not match the genus")
    F = _primitive(form_coefficients(f, d))
    I2 = _self_value(F, d)
    J12 = _covariant(F, F, d - 6)
    I4 = _self_value(J12, 12)
    I6 = _self_value(_covariant(F, J12, 12), d - 12)
    I6star = None
    if d >= 20:
        H = _covariant(F, _covariant(F, F, d - 10), 20)
        I6star = _self_value(H, d - 20)
    i1 = i2 = i3 = i4 = None
    if I2 != 0:
        sq = I2 * I2
        cube = sq * I2
        i1 = I4 / sq
        i2 = I6 / cube
        if I6star is not None:
            i3 = I6star / cube
    if I4 != 0:
        i4 = (I6 * I6) / (I4 * I4 * I4)
    return InvariantSet(I2=I2, I4=I4, I6=I6, I6star=I6star,
                        i1=i1, i2=i2, i3=i3, i4=i4)


def covariant_vanishing_checks(f, genus):
    """Values of the four small self-transvected covariants.

    For each s in {4, 8, 16, 28} the covariant (F,F)^(d - s/2) has degree
    s, and transvecting it with itself s times yields a constant.  All
    four constants vanish on family curves; a slot is None when the form
    degree is too small to define it.
    """
    d = 2 * genus + 2
    if f.degree not in (d - 1, d):
        raise ValueError("polynomial degree does not match the genus")
    F = _primitive(form_coefficients(f, d))
    out = {}
    for s in (4, 8, 16, 28):
        r = d - s // 2
        out[s] = None if r < 0 else _self_value(_covariant(F, F, r), s)
    return out


def _demote(x):
    """Drop a quadratic wrapper whose irrational part vanishes: the part
    a, read when the sqrt(D) half of the integer vector is zero."""
    if isinstance(x, QuadraticElement) and not any(
            x.ints[len(x.ints) // 2:]):
        return x.a
    return x


class DihedralInvariants(namedtuple("DihedralInvariants", "d values")):
    """Root-free dihedral invariants of an even model.

    d is the reduced degree (genus + 1 or genus, by full group); values
    holds u_1 ... u_(d-1) in order.
    """

    __slots__ = ()

    def u(self, i):
        if not 1 <= i <= self.d - 1:
            raise IndexError(f"u_{i} is not defined for reduced degree "
                             f"{self.d}")
        return self.values[i - 1]


def dihedral_invariants(b):
    """Dihedral invariants from even-model coefficients b_0 ... b_d.

    Normalizing y^2 = sum b_j x^(2j) to leading and constant term one
    introduces a d-th root; in u_i every root exponent cancels, giving

        u_i = (b_1/b_0)^(d-i) (b_i/b_d) + (b_(d-1)/b_d)^(d-i) (b_(d-i)/b_0)

    entirely inside the coefficient field.  Only these two ratio powers
    run from i = d - 1 down.  Splitting the second as
    (b_(d-1)/b_0)^(d-i) (b_0/b_d)^(d-i) would keep a third power: two
    factors whose heights grow with d - i while their product stays
    small, so every step would pay a big-number gcd to cancel them.

    When b_0 or b_d lies in an integer-vector field (Q(i), Q(sqrt(d))(i),
    a cyclotomic field) and every other coefficient lies there too or is
    rational, the formula runs on integer vectors (_vector_invariants).
    A rational list keeps the Fraction loop (_fraction_invariants): there
    b_d is often thousands of bits long, and Fraction's cross-reduction
    of each product beats carrying unreduced powers.
    """
    b = list(b)
    d = len(b) - 1
    if d < 2:
        raise ValueError("need at least a quadratic even part")
    if b[0] == 0 or b[d] == 0:
        raise DegenerateLeadingOrTrailing(
            "leading or trailing even coefficient vanishes")
    ref = _vector_field_element(b)
    vals = (_fraction_invariants(b) if ref is None
            else _vector_invariants(b, ref))
    return DihedralInvariants(d=d, values=tuple(reversed(vals)))


def _vector_field_element(b):
    """b_0 or b_d when it is an integer-vector element and every entry of
    b is rational or of its type and field, else None.  Any other list,
    a mixed one among them, takes the loop, which promotes or raises."""
    ref = next((x for x in (b[0], b[-1])
                if isinstance(x, _IntVectorElement)), None)
    if ref is None or not all(isinstance(x, (int, Fraction))
                              or type(x) is type(ref) and x.field is ref.field
                              for x in b):
        return None
    return ref


def _fraction_invariants(b):
    """u_(d-1) ... u_1 by element arithmetic, each product reduced."""
    d = len(b) - 1
    inv0, invd = _inv(b[0]), _inv(b[d])
    low, high = b[1] * inv0, b[d - 1] * invd
    low_pow, high_pow = low, high
    vals = []
    for i in range(d - 1, 0, -1):
        vals.append(_demote(low_pow * (b[i] * invd)
                            + high_pow * (b[d - i] * inv0)))
        low_pow, high_pow = low_pow * low, high_pow * high
    return vals


def _vector_invariants(b, ref):
    """u_(d-1) ... u_1 on (integer vector, denominator) pairs in the field
    of ref.  Each small ratio b_j/b_0, b_j/b_d is reduced once; the ratio
    powers stay vector/den^k unreduced; the two terms meet over the gcd
    of their denominators, and each u_i is reduced once, built as a
    Fraction when its sqrt(D) half is zero.  Every u_i lies in the field,
    as in the loop, since b_0 or b_d does."""
    d = len(b) - 1
    mul = ref.field.mul
    zeros = (0,) * (len(ref.ints) - 1)

    def vector(x):
        if isinstance(x, _IntVectorElement):
            return x.ints, x.den
        return (x.numerator,) + zeros, x.denominator

    def times(x, y):
        return mul(x[0], y[0]), x[1] * y[1]

    def ratio(x, inv):
        """x * inv in lowest terms."""
        ints, den = times(vector(x), inv)
        g = math.gcd(den, *ints)
        return tuple(c // g for c in ints), den // g

    inv0, invd = vector(_inv(b[0])), vector(_inv(b[d]))
    low, high = ratio(b[1], inv0), ratio(b[d - 1], invd)
    low_pow, high_pow = low, high
    plain_quadratic = isinstance(ref, QuadraticElement) and len(ref.ints) == 2
    vals = []
    for i in range(d - 1, 0, -1):
        t1, d1 = times(low_pow, ratio(b[i], invd))
        t2, d2 = times(high_pow, ratio(b[d - i], inv0))
        g = math.gcd(d1, d2)
        f1, f2 = d2 // g, d1 // g
        ints, den = tuple(x * f1 + y * f2 for x, y in zip(t1, t2)), d1 * f1
        vals.append(Fraction(ints[0], den) if plain_quadratic and not ints[1]
                    else _demote(ref._new(ints, den)))
        low_pow, high_pow = times(low_pow, low), times(high_pow, high)
    return vals


def check_group_relation(u):
    """Which full automorphism group the dihedral invariants certify.

    Evaluates 2^((d-2)/2) u_1 -/+ u_(d-1)^(d/2) exactly; the minus sign
    certifies the direct product with the involution, the plus sign the
    binary icosahedral double cover.  Anything else is "neither".
    """
    d = u.d
    if d % 2:
        return "neither"
    lead = 2 ** ((d - 2) // 2)
    power = u.u(d - 1) ** (d // 2)
    scaled = lead * u.u(1)
    minus_zero = scaled - power == 0
    plus_zero = scaled + power == 0
    if minus_zero and not plus_zero:
        return "Z2xA5"
    if plus_zero and not minus_zero:
        return "SL2_5"
    return "neither"
