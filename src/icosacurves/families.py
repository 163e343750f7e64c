"""Families of hyperelliptic curves whose reduced symmetry is icosahedral.

Each admissible genus determines one of eight cases: a residue of g mod 30,
a family dimension, a set of fixed orbit multipliers, and one of two
automorphism groups.  Curve equations are products of branch-value factors
with those multipliers, in either the plain model (a polynomial in x^5 up
to one factor of x) or the even-conjugated model over the Gaussian
rationals.
"""

from collections import namedtuple
from fractions import Fraction

from .decomp import (
    conjugated_edge_form,
    conjugated_face_form,
    conjugated_vertex_form,
    gaussian_transport,
)
from .errors import (
    DegenerateBranchValue,
    DuplicateBranchValue,
    InconsistentData,
    NotEven,
    NotInLocus,
)
from .icosa import edge_form, face_form, vertex_form
from .polyring import Poly

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


_FACE_CUBE = {}
_VERTEX_FIFTH = {}
_MULTIPLIER_PRODUCT = {}


def _powers(model):
    if model not in _FACE_CUBE:
        forms = multiplier_forms(model)
        if model == "x5":
            _FACE_CUBE[model] = -(forms["face"] ** 3)
            _VERTEX_FIFTH[model] = forms["vertex"] ** 5
        else:
            _FACE_CUBE[model] = forms["face"] ** 3 * Fraction(64)
            _VERTEX_FIFTH[model] = forms["vertex"] ** 5
    return _FACE_CUBE[model], _VERTEX_FIFTH[model]


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


def even_model(curve):
    """Coefficients b with f(x) = sum b_j x^(2j), after stripping one x.

    Only the even-conjugated model qualifies; a polynomial that is neither
    even nor x times even raises NotEven.
    """
    if curve.model != "x2":
        raise NotEven("only the even-conjugated model has an even form",
                      model=curve.model)
    f = curve.f
    par = _parity_support(f)
    if par is None:
        raise NotEven("polynomial mixes parities")
    if par == 1:
        f = Poly(f.coeffs[1:])
        if _parity_support(f) not in (0,):
            raise NotEven("odd part is not x times an even polynomial")
    return [f.coeff(2 * j) for j in range(f.degree // 2 + 1)]


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
