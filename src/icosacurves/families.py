"""Families of hyperelliptic curves whose reduced symmetry is icosahedral.

Each admissible genus determines one of eight cases: a residue of g mod 30,
a family dimension, a set of fixed orbit multipliers, and one of two
automorphism groups.  Curve equations are products of branch-value factors
with those multipliers, in either the plain model (a polynomial in x^5 up
to one factor of x) or the even-conjugated model over the Gaussian
rationals.  The branch values are recovered from the dihedral invariants
of an even model.
"""

from collections import namedtuple
from fractions import Fraction

from .decomp import (
    conjugated_edge_form,
    conjugated_face_form,
    conjugated_fiber_pair,
    conjugated_vertex_form,
    gaussian_transport,
)
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
from .polyring import Poly, _inv, nullspace

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


def multiplier_forms(model):
    if model == "x5":
        return {"face": face_form(), "vertex": vertex_form(),
                "edge": edge_form()}
    if model == "x2":
        return {"face": conjugated_face_form(),
                "vertex": conjugated_vertex_form(),
                "edge": conjugated_edge_form()}
    raise ValueError(f"unknown model {model!r}")


_MULTIPLIER_PRODUCT = {}


def _powers(model):
    """The (top, bottom) pair whose fiber factors are top - lam*bottom."""
    if model == "x5":
        return fiber_pair()
    if model == "x2":
        return conjugated_fiber_pair()
    raise ValueError(f"unknown model {model!r}")


def _multiplier_product(model, multipliers):
    """The lambda-free part of a curve equation: its fixed orbit forms."""
    key = (model, multipliers)
    if key not in _MULTIPLIER_PRODUCT:
        forms = multiplier_forms(model)
        f = Poly([1])
        for name in ("edge", "face", "vertex"):
            if name in multipliers:
                f = f * forms[name]
        _MULTIPLIER_PRODUCT[key] = f
    return _MULTIPLIER_PRODUCT[key]


def lambda_factor(lam, model="x5"):
    """The degree-60 factor whose roots form the fiber of the invariant map.

    In the plain model this is -(face^3) - lam * vertex^5; in the even model
    64*face^3 - lam * vertex^5.  The two excluded values of lam are the
    branch points of the map, where the fiber degenerates.
    """
    if lam == 0 or lam == 1728:
        raise DegenerateBranchValue("branch value collides with a branch "
                                    "point of the invariant map", value=lam)
    top, bottom = _powers(model)
    return top - bottom * lam


def curve_equation(g, lams, model="x5"):
    """y^2 = f(x) for the genus-g family member with the given branch values."""
    desc = classify_genus(g)
    lams = list(lams)
    if len(lams) != desc.delta:
        raise InconsistentData("wrong number of branch values for the genus",
                               expected=desc.delta, got=len(lams))
    for i, a in enumerate(lams):
        for b in lams[i + 1:]:
            if a == b:
                raise DuplicateBranchValue("branch values must be distinct",
                                           value=a)
    f = _multiplier_product(model, desc.multipliers)
    for lam in lams:
        f = f * lambda_factor(lam, model)
    if f.degree not in (2 * g + 1, 2 * g + 2):
        raise InconsistentData("curve equation has an impossible degree",
                               degree=f.degree, genus=g)
    return CurveModel(f=f, genus=g, model=model, case=desc, params=lams)


def _parity_support(f):
    """0 for even support, 1 for odd support, None for mixed."""
    has_even = any(f.coeff(k) for k in range(0, f.degree + 1, 2))
    has_odd = any(f.coeff(k) for k in range(1, f.degree + 1, 2))
    if has_even and has_odd:
        return None
    return 1 if has_odd else 0


def _even_coefficients(f):
    """b with f(x) = sum b_j x^(2j), after stripping one x from an odd f.

    A polynomial that is neither even nor odd raises NotEven.
    """
    par = _parity_support(f)
    if par is None:
        raise NotEven("polynomial mixes parities")
    return list(f.coeffs[par::2])


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

    The even model is M(t) * prod_j (A(t) - lam_j B(t)) in t = x^2, so its
    coefficients are linear in the unknowns s_m = e_m(lam).  Normal-form
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
    forms = multiplier_forms("x2")
    shapes = [names for _, _, names in _CASES.values()
              if sum(forms[n].degree for n in names) // 2 == offset]
    if not shapes:
        raise ValueError("invariant vector shape matches no family")
    mult, top, bottom = (Poly(_even_coefficients(p)) for p in (
        _multiplier_product("x2", shapes[0]), *_powers("x2")))
    cols = []
    for m in range(delta + 1):
        pol = mult * top ** (delta - m) * bottom ** m
        vec = [pol.coeff(j) for j in range(d + 1)]
        if m % 2:
            vec = [-c for c in vec]
        cols.append(vec)

    half = u.u(d - 1) * Fraction(1, 2)
    if half == 0:
        raise SingularSystem("u_(d-1) vanishes, recovery degenerate")
    mus = [Fraction(1)]
    hk = 1
    half_inv = _inv(half)
    for k in range(1, (d - 2) // 2 + 1):
        hk = hk * half_inv
        mus.append(u.u(d - 2 * k) * Fraction(1, 2) * hk)

    width = 2 * (delta + 1)
    rows = []
    for k in range((d - 2) // 2):
        row = [0] * width
        for m in range(delta + 1):
            row[m] = -(mus[k + 1] * cols[m][2 * k])
            row[delta + 1 + m] = mus[k] * cols[m][2 * k + 2]
        rows.append(row)
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
    if transported.degree != target.degree:
        return False
    ratio = target.leading() / transported.leading()
    return all(
        target.coeff(k) == (transported.coeff(k) * ratio if
                            transported.coeff(k) else 0)
        for k in range(target.degree + 1))
