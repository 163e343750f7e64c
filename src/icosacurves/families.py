"""Families of hyperelliptic curves whose reduced symmetry is icosahedral.

Each admissible genus determines one of eight cases: a residue of g mod 30,
a family dimension, a set of fixed orbit multipliers, and one of two
automorphism groups.  Every curve equation is one combination of a cached
branch basis, in either the plain model (a polynomial in x^5 up to one
factor of x) or the even-conjugated model over the Gaussian rationals; its
coefficients, the symmetric functions of the branch values, are recovered
from the dihedral invariants of an even model.
"""

import functools
from collections import namedtuple
from fractions import Fraction

from .decomp import conjugated_fiber_pair, conjugated_form, gaussian_transport
from .errors import (
    DegenerateBranchValue,
    DuplicateBranchValue,
    InconsistentData,
    NotEven,
    NotInLocus,
    SingularSystem,
)
from .icosa import edge_form, face_form, fiber_pair, vertex_form
from .invariants import _demote, dihedral_invariants
from .polyring import Poly, _inv, is_squarefree_certified, nullspace

# per case: genus offset (delta = (g - offset)/30), group, multiplier names
_CASES = {
    1: (-1, "Z2xA5", frozenset()),
    2: (5, "Z2xA5", frozenset({"vertex"})),
    3: (15, "Z2xA5", frozenset({"vertex", "face"})),
    4: (9, "Z2xA5", frozenset({"face"})),
    5: (14, "SL2_5", frozenset({"edge"})),
    6: (20, "SL2_5", frozenset({"edge", "vertex"})),
    7: (24, "SL2_5", frozenset({"edge", "face"})),
    8: (30, "SL2_5", frozenset({"edge", "face", "vertex"})),
}


CaseDescriptor = namedtuple("CaseDescriptor",
                            "case_no group delta multipliers genus")

# y^2 = f(x): the Poly f, its genus, the model name ("x5" or "x2"), the
# CaseDescriptor and the list of branch values
CurveModel = namedtuple("CurveModel", "f genus model case params")


def classify_genus(g):
    """The unique family case admitting genus g, or NotInLocus."""
    if g < 2:
        raise NotInLocus("genus below two", genus=g)
    for case_no, (offset, group, mult) in _CASES.items():
        diff = g - offset
        if diff % 30 == 0 and diff >= 0:
            return CaseDescriptor(case_no, group, diff // 30, mult, g)
    raise NotInLocus("genus admits no icosahedral symmetry", genus=g)


def smallest_one_dimensional_genus(case_no):
    """The least genus whose family in this case has one free branch value."""
    return _CASES[case_no][0] + 30


def model_forms(model):
    """(forms, (top, bottom)) of the plain model "x5" or the even model
    "x2": the orbit forms by name, and the pair whose fiber factors are
    top - lam*bottom."""
    if model == "x5":
        return ({"face": face_form(), "vertex": vertex_form(),
                 "edge": edge_form()}, fiber_pair())
    if model == "x2":
        return ({k: conjugated_form(k) for k in ("face", "vertex", "edge")},
                conjugated_fiber_pair())
    raise ValueError(f"unknown model {model!r}")


@functools.cache
def branch_basis(model, multipliers, delta):
    """(M top^(delta-m) bottom^m for m = 0..delta), M the fixed orbit forms."""
    forms, (top, bottom) = model_forms(model)
    if delta == 0:
        f = Poly([1])
        for name in sorted(multipliers):
            f = f * forms[name]
        return (f,)
    below = branch_basis(model, multipliers, delta - 1)
    return tuple(p * top for p in below) + (below[-1] * bottom,)


def _regular(lam):
    if lam == 0 or lam == 1728:
        raise DegenerateBranchValue("branch value collides with a branch "
                                    "point of the invariant map", value=lam)


def lambda_factor(lam, model="x5"):
    """The degree-60 factor whose roots form the fiber of the invariant map.

    In the plain model this is -(face^3) - lam * vertex^5; in the even model
    64*face^3 - lam * vertex^5.  The two excluded values of lam are the
    branch points of the map, where the fiber degenerates.
    """
    _regular(lam)
    _, (top, bottom) = model_forms(model)
    return top - bottom * lam


def _case_for(g, count):
    desc = classify_genus(g)
    if count != desc.delta:
        raise InconsistentData("wrong number of branch values for the genus",
                               expected=desc.delta, got=count)
    return desc


def _member(desc, model, c, params):
    """sum_m c_m B_m over the branch basis, coefficient by coefficient."""
    basis = branch_basis(model, desc.multipliers, desc.delta)
    out = [None] * len(basis[0].coeffs)  # top has the largest degree
    for p, a in zip(basis, c):
        for j, x in enumerate(p.coeffs if a else ()):
            if x:
                out[j] = x * a if out[j] is None else out[j] + x * a
    f = Poly([0 if y is None else y for y in out])
    if f.degree not in (2 * desc.genus + 1, 2 * desc.genus + 2):
        raise InconsistentData("curve equation has an impossible degree",
                               degree=f.degree, genus=desc.genus)
    return CurveModel(f, desc.genus, model, desc, params)


def curve_equation(g, lams, model="x5"):
    """y^2 = f(x) for the genus-g family member with the given branch values."""
    lams = list(lams)
    desc = _case_for(g, len(lams))
    for i, a in enumerate(lams):
        if a in lams[i + 1:]:
            raise DuplicateBranchValue("branch values must be distinct",
                                       value=a)
    c = [1]  # (-1)^m e_m(lams): c <- c - lam * shift(c)
    for lam in lams:
        _regular(lam)
        c = [1] + [a - lam * b for a, b in zip(c[1:] + [0], c)]
    return _member(desc, model, c, lams)


def curve_from_symmetric(g, s, model="x5"):
    """The genus-g member whose branch values are the roots of P(t) =
    t^delta - s_1 t^(delta-1) + s_2 t^(delta-2) - ...; a rational s gives
    a model over Q even where those roots are not rational."""
    c = [-x if m % 2 else x for m, x in enumerate([1] + list(s))]
    desc = _case_for(g, len(c) - 1)
    p = Poly(c[::-1])
    for value in (0, 1728):
        if not p(value):
            _regular(value)
    if not is_squarefree_certified(p):
        raise DuplicateBranchValue("branch values must be distinct")
    return _member(desc, model, c, [])


def _even_coefficients(f):
    """b with f(x) = sum b_j x^(2j), after stripping one x from an odd f.

    A polynomial that is neither even nor odd raises NotEven.
    """
    odd = any(f.coeffs[1::2])
    if odd and any(f.coeffs[::2]):
        raise NotEven("polynomial mixes parities")
    return list(f.coeffs[odd::2])


def even_model(curve):
    """Coefficients b with f(x) = sum b_j x^(2j), after stripping one x.

    Only the even-conjugated model qualifies; a polynomial that is neither
    even nor x times even raises NotEven.
    """
    if curve.model != "x2":
        raise NotEven("only the even-conjugated model has an even form",
                      model=curve.model)
    return _even_coefficients(curve.f)


def symmetric_from_dihedral(u, delta):
    """Elementary symmetric functions of the branch values, from u alone.

    The even model in t = x^2 is sum_m (-1)^m s_m B_m over the branch
    basis, linear in the unknowns s_m = e_m(lam).  Normal-form
    coefficients obey a geometric-ratio symmetry whose unit, together with
    the normalization root, collapses into one extra unknown w; the
    quantities mu_k = u_(d-2k) / (2 (u_(d-1)/2)^k) then satisfy the
    bilinear relations w mu_k b_(2k+2) = mu_(k+1) b_(2k), linear in the
    doubled vector (1, s, w, w s).  A one-dimensional nullspace plus a
    forward re-check of every u_i pins the answer.
    """
    d = u.d
    if delta < 1:
        raise ValueError("dimension must be at least one")
    # d - 30*delta is the t-degree of the case's multiplier product: half
    # the x-degree, which is odd (x times even) when the edge form is in it
    offset = d - 30 * delta
    forms, _ = model_forms("x2")
    shapes = [names for _, _, names in _CASES.values()
              if sum(forms[n].degree for n in names) // 2 == offset]
    if not shapes:
        raise ValueError("invariant vector shape matches no family")
    cols = [[-c if m % 2 else c for c in _even_coefficients(b)]
            for m, b in enumerate(branch_basis("x2", shapes[0], delta))]

    half = u.u(d - 1) * Fraction(1, 2)
    if half == 0:
        raise SingularSystem("u_(d-1) vanishes, recovery degenerate")
    mus, hk, half_inv = [Fraction(1)], 1, _inv(half)
    for k in range(1, (d - 2) // 2 + 1):
        hk = hk * half_inv
        mus.append(u.u(d - 2 * k) * Fraction(1, 2) * hk)

    width = 2 * (delta + 1)
    rows = [[-(mus[k + 1] * col[2 * k]) for col in cols]
            + [mus[k] * col[2 * k + 2] for col in cols]
            for k in range((d - 2) // 2)]
    basis = nullspace(rows, width)
    if len(basis) != 1:
        raise SingularSystem("recovery system rank is off",
                             dimension=len(basis))
    v = basis[0]
    if v[0] == 0:
        raise SingularSystem("recovery system degenerates in the "
                             "leading slot")
    inv = _inv(v[0])
    s = tuple(v[m] * inv for m in range(1, delta + 1))
    w = v[delta + 1] * inv
    for m in range(1, delta + 1):
        if v[delta + 1 + m] * inv != w * s[m - 1]:
            raise SingularSystem("recovery system is internally "
                                 "inconsistent")
    rebuilt = [sum(cols[m][j] * (1 if m == 0 else s[m - 1])
                   for m in range(delta + 1)) for j in range(d + 1)]
    if dihedral_invariants(rebuilt).values != u.values:
        raise SingularSystem("recovered parameters fail to reproduce the "
                             "invariants")
    return tuple(_demote(x) for x in s)


def models_equivalent(plain, even):
    """Exact root-set correspondence between the two models of one curve.

    The even-model polynomial must be proportional to the plain one pulled
    back through the fixed conjugation, cleared by the appropriate power of
    (x + 1).  Proportionality is checked coefficient for coefficient.
    """
    if plain.model != "x5" or even.model != "x2":
        raise ValueError("expected one plain and one even model")
    # clear with the full branch-divisor degree 2g+2: an odd-degree plain
    # model branches at infinity, and the even model sees that point at -1
    transported = gaussian_transport(plain.f, 2 * plain.genus + 2)
    target = even.f
    return target == transported * (target.leading() / transported.leading())
