"""Exact computations for hyperelliptic curves with icosahedral symmetry.

Everything runs over explicit number fields (cyclotomic, Gaussian,
quadratic) with rational arithmetic throughout; no floating point is
involved anywhere.  The subpackages build the relevant Moebius group and
its invariant forms, decompose the quotient maps, enumerate the curve
families by genus, compute classical and dihedral invariants, and
construct the one-dimensional loci together with their singular fibers
and fields of moduli.
"""

from .decomp import (
    check_inner,
    conjugated_edge_identity,
    inner_cubic_decomposition,
    transported_invariant_map,
    verify_conjugated_identities,
)
from .errors import (
    DegenerateBranchValue,
    EliminationDegenerate,
    IcosaError,
    IdentityFailed,
    InconsistentData,
    NotEven,
    NotInLocus,
    NotOnLocus,
    RationalI3,
    SingularPoint,
    UsageError,
)
from .exactfield import CycloElement, CyclotomicField, QuadraticElement
from .families import (
    CaseDescriptor,
    CurveModel,
    classify_genus,
    curve_equation,
    curve_from_symmetric,
    even_model,
    lambda_factor,
    models_equivalent,
    smallest_one_dimensional_genus,
    symmetric_from_dihedral,
)
from .icosa import (
    IcosahedralGroup,
    MoebiusMap,
    build_icosahedral_group,
    edge_form,
    face_form,
    first_nonconstant_symmetric_function,
    invariant_map,
    moebius_equivalence,
    syzygy_check,
    vertex_form,
)
from .invariants import (
    DihedralInvariants,
    InvariantSet,
    check_group_relation,
    covariant_vanishing_checks,
    dihedral_invariants,
    form_coefficients,
    invariant_set,
    transvectant,
)
from .loci import (
    LocusCurve,
    SingularFiber,
    build_locus,
    evaluate_plane_model,
    fiber_model,
    field_of_moduli_at,
    rational_model,
    singular_fibers,
    solve_lambda,
)
from .polyring import Poly, RationalFunction

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
