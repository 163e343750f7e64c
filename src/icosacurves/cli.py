"""Command-line front end with JSON and text emission.

Subcommands expose the library surface piecewise (group data, the two
invariant maps, curve families, invariants, loci, models) and `verify`
runs the reproduction suite, printing one pass or fail line per check
with a stable id.  Exit codes: 0 success, 1 domain error (JSON details
on stderr), 2 verification failure, 64 usage error.
"""

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from .decomp import (
    check_inner,
    conjugated_edge_identity,
    transported_invariant_map,
    verify_conjugated_identities,
)
from .errors import IcosaError, InconsistentData, UsageError
from .exactfield import QuadraticElement
from .families import (
    classify_genus,
    curve_equation,
    even_model,
    lambda_factor,
)
from .fixtures import load_fixtures
from .icosa import (
    build_icosahedral_group,
    first_nonconstant_symmetric_function,
    invariant_map,
    moebius_equivalence,
    syzygy_check,
)
from .invariants import (
    check_group_relation,
    covariant_vanishing_checks,
    dihedral_invariants,
    invariant_set,
)
from .loci import (
    build_locus,
    fiber_model,
    field_of_moduli_at,
    rational_model,
    singular_fibers,
)
from .polyring import Poly


# ----------------------------------------------------------------------------
# JSON encoders: rationals as "p/q" strings, never floats
# ----------------------------------------------------------------------------

def _enc_value(v):
    if isinstance(v, QuadraticElement):
        if v.b == 0:
            return str(v.a)
        return {"a": str(v.a), "b": str(v.b), "D": v.D}
    if isinstance(v, (int, Fraction)):
        return str(Fraction(v))
    raise TypeError(f"no JSON encoding for {type(v).__name__}")


def _enc_poly(p, var="x"):
    return {"var": var, "coeffs": [_enc_value(c) for c in p.coeffs]}


def _enc_rational_function(rf, var="x"):
    return {"num": _enc_poly(rf.num, var), "den": _enc_poly(rf.den, var)}


def _enc_case(case):
    return {"case_no": case.case_no, "group": case.group,
            "delta": case.delta, "genus": case.genus,
            "multipliers": sorted(case.multipliers)}


def _enc_curve(model):
    return {"genus": model.genus, "model": model.model,
            "case": _enc_case(model.case),
            "params": [str(Fraction(p)) for p in model.params],
            "f": _enc_poly(model.f)}


def _render_text(doc, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(doc, dict):
        for k in doc:
            v = doc[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(doc, list):
        for v in doc:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{doc}")
    return lines


def _emit(doc, fmt):
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print("\n".join(_render_text(doc)))


def _emit_report(report, fmt):
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for chk in report["checks"]:
            print(f"{chk['status']:4s}  {chk['id']:28s}  {chk['details']}")
    return 0 if all(c["status"] == "pass" for c in report["checks"]) else 2


# ----------------------------------------------------------------------------
# verification checks, each with a stable id
# ----------------------------------------------------------------------------

def _group_summary():
    """(order, order profile, (the generators' orders and their product's)):
    what `icosa group` prints and the group.structure check tests."""
    group = build_icosahedral_group()
    g1, g2 = group.generators
    return (len(group), group.order_profile(),
            (g1.order(), g2.order(), g1.compose(g2).order()))


def _check_group_structure():
    order, profile, orders = _group_summary()
    ok = (order == 60 and profile == {1: 1, 2: 15, 3: 20, 5: 24}
          and orders == (2, 5, 3))
    return ok, (f"classes={order} profile={sorted(profile.items())} "
                f"generator orders {orders}")


def _check_syzygy():
    syzygy_check()
    return True, "edge^2 = face^3 + 1728 vertex^5"


def _check_fixed_field():
    k, fn = first_nonconstant_symmetric_function(build_icosahedral_group())
    deg = fn.mapped_degree()
    cert = moebius_equivalence(fn, invariant_map())
    ok = deg == 60 and cert is not None
    return ok, (f"first varying symmetric function index {k} degree {deg}, "
                f"projective change of target {'found' if cert else 'missing'}")


def _check_conjugated_identity():
    verify_conjugated_identities()
    scalar = load_fixtures().conjugated_identity_scalar
    wrong = QuadraticElement(scalar.b, scalar.a, scalar.D)
    if not conjugated_edge_identity(scalar) or conjugated_edge_identity(wrong):
        return False, "identity does not single out the printed scalar"
    return True, (f"scalar {scalar.a}+{scalar.b}i accepted, "
                  f"swapped scalar rejected")


def _check_inner_decompositions():
    want = {"x5": 12, "x2": 30, "x3": 20}
    got = {}
    for kind, deg in want.items():
        rep = check_inner(kind)
        if not rep["found"]:
            return False, f"no outer factor through {kind}"
        got[kind] = rep["outer_degree"]
    return got == want, f"outer degrees {sorted(got.items())}"


def _check_classification_table():
    # written out independently of families._CASES: this table is the
    # oracle that classify_genus is checked against
    offsets = {1: -1, 2: 5, 3: 15, 4: 9, 5: 14, 6: 20, 7: 24, 8: 30}
    hits = 0
    for g in range(2, 301):
        expect = [c for c, off in offsets.items()
                  if (g - off) % 30 == 0 and g >= off]
        if not expect:
            continue
        desc = classify_genus(g)
        if desc.case_no != expect[0]:
            return False, f"genus {g} classified as case {desc.case_no}"
        if (desc.group == "Z2xA5") != (g % 2 == 1):
            return False, f"genus {g} breaks the parity rule"
        hits += 1
    return hits == 80, f"{hits} genera up to 300 admit the symmetry"


def _check_branch_golden():
    ref = load_fixtures().branch_factor_x5
    p1 = lambda_factor(Fraction(1), "x5")
    p2 = lambda_factor(Fraction(2), "x5")
    if p1.degree != 60:
        return False, f"degree {p1.degree}"
    for k in range(61):
        a = 2 * p1.coeff(k) - p2.coeff(k)
        b = p2.coeff(k) - p1.coeff(k)
        want = ref.get(k, (Fraction(0), Fraction(0)))
        if (a, b) != want:
            return False, f"coefficient of x^{k} is {a}+({b})lam"
    return True, "all 61 coefficients match the fixed expansion"


def _check_covariant_vanishing():
    for lam in (Fraction(7), Fraction(-2), Fraction(22, 7)):
        cur = curve_equation(29, [lam], "x2")
        vals = covariant_vanishing_checks(cur.f, 29)
        if any(v != 0 for v in vals.values()):
            return False, f"nonzero covariant at lam={lam}: {vals}"
    bumped = Poly([c + (1 if k == 3 else 0)
                   for k, c in enumerate(cur.f.coeffs)])
    pvals = covariant_vanishing_checks(bumped, 29)
    if all(v == 0 for v in pvals.values()):
        return False, "vanishing is vacuous: perturbed curve also vanishes"
    return True, "orders 4,8,16,28 vanish at three samples, not after a bump"


def _curve_dihedral(genus, lams):
    """The dihedral invariants of the genus-g family curve with the given
    branch values, from its even (x2) model."""
    return dihedral_invariants(even_model(curve_equation(genus, lams, "x2")))


def _check_printed_dihedral():
    ref = load_fixtures().reference_dihedral_g29
    for lam in (Fraction(7), Fraction(-2), Fraction(22, 7)):
        u = _curve_dihedral(29, [lam])
        if u.u(1) != ref["u1"](lam) or u.u(29) != ref["u29"](lam):
            return False, f"mismatch at lam={lam}"
        if check_group_relation(u) != "Z2xA5":
            return False, f"odd-genus relation fails at lam={lam}"
    return True, "u1, u29 match the printed forms at three samples"


def _check_group_relations():
    got = (check_group_relation(_curve_dihedral(29, [Fraction(9)])),
           check_group_relation(_curve_dihedral(44, [Fraction(5)])))
    return got == ("Z2xA5", "SL2_5"), f"genus 29 -> {got[0]}, genus 44 -> {got[1]}"


def _case1_kappa(L):
    """The constants carrying case 1's invariants to the printed ones."""
    ref = load_fixtures().reference_absolute_g29
    kappa = []
    for name, computed in (("i1", L.i1_of_lambda), ("i2", L.i2_of_lambda)):
        ratio = ref[name] / computed
        if not ratio.is_constant():
            raise InconsistentData("normalization ratio is not constant",
                                   invariant=name)
        kappa.append(ratio.num.coeff(0) / ratio.den.coeff(0))
    return (*kappa, Fraction(1))


def _check_locus_equation():
    L = build_locus(1)
    ref = {k: int(v) for k, v in load_fixtures().reference_locus_case1.items()}
    kappa = _case1_kappa(L)
    ok = L.F == ref and kappa == (Fraction(1), Fraction(1), Fraction(1))
    return ok, (f"{len(L.F)} monomials, i2^4 coefficient {L.F.get((0, 4))}, "
                f"kappa {tuple(str(k) for k in kappa)}")


def _table_checks(case_no):
    fx = load_fixtures()
    L = build_locus(case_no)
    out = []
    for row, fb in enumerate(singular_fibers(L), start=1):
        key = fb.kind.split("_")[0]    # the table's row name
        ref_q = fx.singular_quadratics[case_no][key]
        ok_q = [int(c) for c in fb.q.coeffs] == [ref_q.coeff(i)
                                                 for i in range(3)]
        out.append((f"table2.case{case_no}.row{row}", ok_q,
                    f"{fb.kind} quadratic "
                    + ("matches" if ok_q else "differs")))
        ref_d = fx.moduli_fields[case_no][key]
        ok_d = fb.d_table == ref_d and field_of_moduli_at(fb, L) == ref_d
        out.append((f"table3.case{case_no}.row{row}", ok_d,
                    f"{fb.kind} field datum d={fb.d_table}"))
    return out


def _check_model_round_trip():
    lam = Fraction(7)
    u = _curve_dihedral(29, [lam])
    m = rational_model(u)
    u2 = dihedral_invariants(even_model(m))
    ok = u2.values == u.values
    s0 = invariant_set(curve_equation(29, [lam], "x5").f, 29)
    s1 = invariant_set(m.f, 29)
    ok = ok and s0.absolute() == s1.absolute()
    return ok, "u-vector and absolute invariants preserved by the model"


def _suite_checks(suite):
    """(id, check) pairs; a check returns (ok, details) or, for a table,
    its rows as (id, ok, details), and an error fails the pair's id."""
    simple = {
        "icosa": [
            ("group.structure", _check_group_structure),
            ("identity.syzygy", _check_syzygy),
            ("fixedfield.symmetric", _check_fixed_field),
        ],
        "decomp": [
            ("identity.conjugated", _check_conjugated_identity),
            ("decomp.inner", _check_inner_decompositions),
        ],
        "families": [
            ("table1.classification", _check_classification_table),
            ("family.branch-expansion", _check_branch_golden),
        ],
        "invariants": [
            ("covariants.vanishing", _check_covariant_vanishing),
            ("dihedral.printed", _check_printed_dihedral),
            ("dihedral.group-relation", _check_group_relations),
        ],
        "loci": [
            ("locus.case1.equation", _check_locus_equation),
            ("model.round-trip", _check_model_round_trip),
        ],
    }
    simple["loci"] += [(f"table2.case{n}.row1",
                        functools.partial(_table_checks, n))
                       for n in range(1, 9)]
    names = [suite] if suite != "all" else list(simple)
    return [check for name in names for check in simple[name]]


def _run_verify(suite, fmt):
    checks = []
    for cid, fn in _suite_checks(suite):
        try:
            out = fn()
            rows = out if isinstance(out, list) else [(cid, *out)]
        except IcosaError as e:
            rows = [(cid, False, f"{type(e).__name__}: {e.message}")]
        checks.extend({"id": rid, "status": "pass" if ok else "fail",
                       "details": details} for rid, ok, details in rows)
    return _emit_report({"suite": suite, "checks": checks}, fmt)


# ----------------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------------

def _cmd_icosa(args):
    if args.action == "group":
        order, profile, orders = _group_summary()
        _emit({"order": order,
               "order_profile": {str(k): profile[k] for k in sorted(profile)},
               "generator_orders": list(orders[:2]),
               "generator_product_order": orders[2]}, args.format)
        return 0
    if args.action == "phi":
        _emit({"phi": _enc_rational_function(invariant_map())}, args.format)
        return 0
    return _run_verify("icosa", args.format)


def _cmd_decomp(args):
    if args.action == "phi1":
        _emit({"phi1": _enc_rational_function(transported_invariant_map())},
              args.format)
        return 0
    if args.inner is None:
        raise UsageError("decomp check requires --inner x5|x2|x3")
    rep = check_inner(args.inner)
    _emit(rep, args.format)
    return 0 if rep["found"] else 2


def _require(value, flag):
    if value is None:
        raise UsageError(f"missing required flag {flag}")
    return value


def _cmd_curve(args):
    genus = _require(args.genus, "--genus")
    model = curve_equation(genus, args.lam or [], args.model or "x5")
    _emit(_enc_curve(model), args.format)
    return 0


def _cmd_invariants(args):
    genus = _require(args.genus, "--genus")
    model = curve_equation(genus, args.lam or [], args.model or "x2")
    mode = args.mode or "all"
    doc = {"genus": genus, "model": model.model,
           "lambda": [str(Fraction(v)) for v in (args.lam or [])]}
    if mode in ("absolute", "all"):
        inv = invariant_set(model.f, genus)._asdict()
        for block, names in (("classical", ("I2", "I4", "I6", "I6star")),
                             ("absolute", ("i1", "i2", "i3", "i4"))):
            doc[block] = {k: None if inv[k] is None else _enc_value(inv[k])
                          for k in names}
    if mode in ("dihedral", "all"):
        u = (dihedral_invariants(even_model(model)) if model.model == "x2"
             else _curve_dihedral(genus, args.lam or []))
        doc["dihedral"] = {"d": u.d,
                           "values": [_enc_value(v) for v in u.values]}
    _emit(doc, args.format)
    return 0


def _cmd_locus(args):
    case = _require(args.case, "--case")
    L = build_locus(case)
    if args.emit == "F":
        terms = [[j, k, str(L.F[(j, k)])] for j, k in sorted(L.F)]
        doc = {"case": case, "genus": L.genus,
               "kappa": None if case != 1
               else [str(k) for k in _case1_kappa(L)],
               "plane_model": {"variables": ["i1", "i2"], "terms": terms},
               "i1_of_lambda": _enc_rational_function(L.i1_of_lambda,
                                                      "lambda"),
               "i2_of_lambda": _enc_rational_function(L.i2_of_lambda,
                                                      "lambda")}
    elif args.emit == "fibers":
        doc = {"case": case,
               "fibers": [{"kind": fb.kind,
                           "quadratic": _enc_poly(fb.q, "lambda"),
                           "discriminant": fb.D, "d": fb.d_table}
                          for fb in singular_fibers(L)]}
    else:
        fibers = singular_fibers(L)
        doc = {"case": case,
               "moduli": {fb.kind: field_of_moduli_at(fb, L)
                          for fb in fibers}}
    _emit(doc, args.format)
    return 0


def _cmd_model(args):
    if args.case is not None or args.fiber is not None:
        if args.genus is not None or args.lam is not None:
            raise UsageError("--case/--fiber cannot be combined with "
                             "--genus/--lambda")
        _require(args.case, "--case")
        fiber_no = _require(args.fiber, "--fiber")
        if fiber_no not in (1, 2, 3):
            raise UsageError("--fiber must be 1 (collision), 2 (zero) or "
                             "3 (infinity)")
        L = build_locus(args.case)
        fb = singular_fibers(L)[fiber_no - 1]
        d, model = fiber_model(L, fb)
        _emit({"fiber": fb.kind, "d": d, "model": _enc_curve(model)},
              args.format)
        return 0
    u = _curve_dihedral(_require(args.genus, "--genus"), args.lam or [])
    group = check_group_relation(u)
    _emit({"group": group, "model": _enc_curve(rational_model(u, group))},
          args.format)
    return 0


def _cmd_verify(args):
    return _run_verify(args.suite or "all", args.format)


# ----------------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------------

def _terminal_columns():
    # shutil.get_terminal_size().columns, without importing shutil and the
    # compression modules it pulls in
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns > 0:
        return columns
    try:
        return os.get_terminal_size(sys.__stdout__.fileno()).columns or 80
    except (AttributeError, ValueError, OSError):
        return 80


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's formatter at the width it would pick itself."""

    def __init__(self, prog, **kwargs):
        if kwargs.get("width") is None:
            kwargs["width"] = _terminal_columns() - 2
        super().__init__(prog, **kwargs)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        kwargs.setdefault("formatter_class", _HelpFormatter)
        super().__init__(*args, **kwargs)
        # argparse takes only plain numbers such as -3 for negative values
        # and reads -3/7 or -3,2 as a flag; no option here starts with a
        # digit, so any "-<digit>" token is a value
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise UsageError(message)


def _fraction_list(text):
    try:
        return [Fraction(part.strip()) for part in text.split(",")
                if part.strip()]
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(f"bad rational list {text!r}: {e}")


def _build_parser():
    top = _Parser(prog="icosacurves",
                  description="exact icosahedral curve computations")
    # the global flags also follow the subcommand, where an absent one must
    # leave the value given before it
    shared = _Parser(add_help=False)
    for p, fmt, threads in ((top, "json", 1), (shared, argparse.SUPPRESS,
                                               argparse.SUPPRESS)):
        p.add_argument("--format", choices=("json", "text"), default=fmt)
        p.add_argument("--threads", type=int, default=threads,
                       help="accepted for interface stability; execution is "
                            "sequential either way")
    # the family member's flags, shared by curve, invariants and model
    member = _Parser(add_help=False)
    member.add_argument("--genus", type=int)
    member.add_argument("--lambda", dest="lam", type=_fraction_list)
    sub = top.add_subparsers(dest="command")

    p = sub.add_parser("icosa", parents=[shared])
    p.add_argument("action", choices=("group", "phi", "verify"))

    p = sub.add_parser("decomp", parents=[shared])
    p.add_argument("action", choices=("phi1", "check"))
    p.add_argument("--inner", choices=("x5", "x2", "x3"))

    p = sub.add_parser("curve", parents=[shared, member])
    p.add_argument("--model", choices=("x5", "x2"))

    p = sub.add_parser("invariants", parents=[shared, member])
    p.add_argument("--model", choices=("x5", "x2"))
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--absolute", dest="mode", action="store_const",
                     const="absolute")
    grp.add_argument("--dihedral", dest="mode", action="store_const",
                     const="dihedral")
    grp.add_argument("--all", dest="mode", action="store_const", const="all")

    p = sub.add_parser("locus", parents=[shared])
    p.add_argument("--case", type=int, choices=range(1, 9))
    p.add_argument("--emit", choices=("F", "fibers", "moduli"), default="F")

    p = sub.add_parser("model", parents=[shared, member])
    p.add_argument("--case", type=int, choices=range(1, 9))
    p.add_argument("--fiber", type=int)

    p = sub.add_parser("verify", parents=[shared])
    p.add_argument("--suite", choices=("icosa", "decomp", "families",
                                       "invariants", "loci", "all"))
    return top


_HANDLERS = {
    "icosa": _cmd_icosa,
    "decomp": _cmd_decomp,
    "curve": _cmd_curve,
    "invariants": _cmd_invariants,
    "locus": _cmd_locus,
    "model": _cmd_model,
    "verify": _cmd_verify,
}


def main(argv=None):
    parser = _build_parser()
    # every digit is printed: from genus 209 on a value passes the 4300
    # digits to which CPython 3.10.7 and later cap str(int) by default
    limit = None
    if hasattr(sys, "set_int_max_str_digits"):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required")
        if args.threads < 1:
            raise UsageError("--threads must be a positive integer")
        rc = _HANDLERS[args.command](args)
        sys.stdout.flush()
        return rc
    except UsageError as e:
        print(f"usage error: {e.message}", file=sys.stderr)
        return 64
    except IcosaError as e:
        print(json.dumps({"error": e.to_json()}, sort_keys=True),
              file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout (``... | head -1``): exit 1 quietly, with
        # the real stdout on devnull for the interpreter's flush at exit
        if sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
