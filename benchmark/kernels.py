"""Micro-timings of the arithmetic kernels the commands rest on.

Each figure is the median of k calls on inputs taken from the package's
own objects: the entries of the conjugator that diagonalizes an order-3
group element (they live in Q(zeta15) inside the order-60 ambient
field), the degree-60 invariant map, curve models at a fixed branch
value of height about 10^6, and the Sylvester matrix and sample points
that ``build_locus(1)`` passes to ``_bareiss_det`` and ``interpolate``.
``loci.build_locus_case1_ms`` is the one call of ``build_locus(1)`` that
captures those inputs, the first in its process: the locus set-up that
api-sweep does for all eight cases before its first curve.
"""

import time
from fractions import Fraction
from statistics import median

# a fixed branch value of the same height as the api-sweep draws
LAMBDA = Fraction(-731215, 499979)


def _median_of(fn, k, scale):
    times = []
    for _ in range(k):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return median(times) * scale


def _captured_locus_inputs():
    """First Sylvester matrix and the 25-point I6 samples of case 1, and
    the seconds of the build_locus(1) call they were captured from."""
    from icosacurves import loci

    dets, fits = [], []
    real_det, real_interp = loci._bareiss_det, loci.interpolate

    def det(m):
        dets.append([list(r) for r in m])
        return real_det(m)

    def interp(points, degree=None):
        fits.append((list(points), degree))
        return real_interp(points, degree)

    loci._bareiss_det, loci.interpolate = det, interp
    t0 = time.perf_counter()
    try:
        loci.build_locus(1)
    finally:
        seconds = time.perf_counter() - t0
        loci._bareiss_det, loci.interpolate = real_det, real_interp
    grid = dets[0]
    samples = next(f for f in fits if len(f[0]) == 25 and f[1] == 6)
    return grid, samples, seconds


def measure():
    """{metric name: (value, unit)} for every kernel."""
    from icosacurves.exactfield import cyclo_sqrt, to_subfield
    from icosacurves.families import curve_equation, even_model
    from icosacurves.icosa import (build_icosahedral_group, invariant_map,
                                   normalize_element_to_scaling)
    from icosacurves.invariants import invariant_set
    from icosacurves.polyring import _bareiss_det, interpolate

    group = build_icosahedral_group()
    gamma = next(g for g in group.elements if g.order() == 3)
    sigma, _, _ = normalize_element_to_scaling(gamma)
    x60, y60 = sigma.b, sigma.d
    x15, y15 = to_subfield(x60, 15), to_subfield(y60, 15)
    a, b, c, d = gamma.a, gamma.b, gamma.c, gamma.d
    disc = (d - a) * (d - a) + b * c * 4
    phi = invariant_map()
    num60 = phi.num.map_coeffs(lambda v: x60 * v)
    den60 = phi.den.map_coeffs(lambda v: y60 * v)
    plain29 = curve_equation(29, [LAMBDA], "x5").f
    plain60 = curve_equation(60, [LAMBDA], "x5").f
    even29 = curve_equation(29, [LAMBDA], "x2")
    gauss = even_model(even29)
    g1, g2 = gauss[len(gauss) // 2], gauss[len(gauss) // 2 + 1]
    grid, (points, degree), locus_s = _captured_locus_inputs()

    us, ms = 1e6, 1e3
    return {
        "exactfield.cyclo_mul_o60_us":
            (_median_of(lambda: x60 * y60, 201, us), "us"),
        "exactfield.cyclo_mul_o15_us":
            (_median_of(lambda: x15 * y15, 201, us), "us"),
        "exactfield.cyclo_inverse_o60_us":
            (_median_of(x60.inverse, 51, us), "us"),
        "exactfield.cyclo_sqrt_us":
            (_median_of(lambda: cyclo_sqrt(disc), 9, us), "us"),
        "exactfield.quad_mul_gauss_us":
            (_median_of(lambda: g1 * g2, 501, us), "us"),
        "polyring.poly_mul_deg60_cyclo_ms":
            (_median_of(lambda: num60 * den60, 7, ms), "ms"),
        "polyring.poly_mul_deg60_fraction_ms":
            (_median_of(lambda: plain29 * plain29, 21, ms), "ms"),
        "polyring.poly_mul_deg60_gauss_ms":
            (_median_of(lambda: even29.f * even29.f, 15, ms), "ms"),
        "polyring.bareiss_det_grid_ms":
            (_median_of(lambda: _bareiss_det(grid), 51, ms), "ms"),
        "loci.build_locus_case1_ms": (locus_s * ms, "ms"),
        "polyring.interpolate_25_ms":
            (_median_of(lambda: interpolate(points, degree), 51, ms), "ms"),
        "invariants.invariant_set_g29_ms":
            (_median_of(lambda: invariant_set(plain29, 29), 15, ms), "ms"),
        "invariants.invariant_set_g60_ms":
            (_median_of(lambda: invariant_set(plain60, 60), 11, ms), "ms"),
    }
