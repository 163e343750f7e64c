"""Loader for the frozen reference data shipped with the package.

The JSON file holds exact integers and rationals as strings; this module
parses the entries that verify compares against once into polynomials and
field elements.  The printed orbit forms and conjugated factors stay in
the file for the tests to read.
"""

import functools
import json
import os
from fractions import Fraction

from .exactfield import QuadraticElement
from .polyring import Poly, RationalFunction


def _frac_poly(items):
    return Poly([Fraction(s) for s in items])


class Fixtures:
    """Typed view of the reference data."""

    def __init__(self, raw):
        self.branch_factor_x5 = {
            int(k): (Fraction(v[0]), Fraction(v[1]))
            for k, v in raw["branch_factor_x5"].items()
        }
        s = raw["conjugated_identity_scalar"]
        self.conjugated_identity_scalar = QuadraticElement(
            Fraction(s[0]), Fraction(s[1]), -1)

        def ref_power_quotient(d):
            num = _frac_poly(d["lin"]) ** d["lin_pow"] * Fraction(d["scale"])
            den = _frac_poly(d["den"]) ** d["den_pow"]
            return RationalFunction(num, den)

        rd = raw["reference_dihedral_g29"]
        self.reference_dihedral_g29 = {
            "u1": ref_power_quotient(rd["u1"]),
            "u29": ref_power_quotient(rd["u29"]),
        }
        ra = raw["reference_absolute_g29"]
        i1 = RationalFunction(
            _frac_poly(ra["i1"]["sq_num"]) ** 2 * Fraction(ra["i1"]["num_scale"]),
            _frac_poly(ra["i1"]["sq_den"]) ** 2 * Fraction(ra["i1"]["den_scale"]),
        )
        i2 = RationalFunction(
            _frac_poly(ra["i2"]["sq_num"]) ** 2 * _frac_poly(ra["i2"]["lin"]) ** 2
            * Fraction(ra["i2"]["num_scale"]),
            _frac_poly(ra["i2"]["cube_den"]) ** 3 * Fraction(ra["i2"]["den_scale"]),
        )
        self.reference_absolute_g29 = {"i1": i1, "i2": i2}
        self.reference_locus_case1 = {
            (int(j), int(k)): Fraction(c)
            for j, k, c in raw["reference_locus_case1"]
        }
        self.singular_quadratics = {
            int(case): {name: _frac_poly(v) for name, v in entry.items()}
            for case, entry in raw["singular_quadratics"].items()
        }
        self.moduli_fields = {
            int(case): {name: int(v) for name, v in entry.items()}
            for case, entry in raw["moduli_fields"].items()
        }


@functools.cache
def load_fixtures():
    with open(os.path.join(os.path.dirname(__file__), "fixtures.json")) as fh:
        return Fixtures(json.load(fh))
