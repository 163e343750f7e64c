"""Span recorder around the public functions of the icosacurves modules.

Each call of a wrapped function is one span.  Its self time is its
duration minus the time covered by the wrapped calls it made.  The
recorder keeps one aggregate per function (calls, self seconds, calls
that returned None) rather than every span, because
hot helpers such as ``transvectant`` and ``Poly.gcd`` run thousands of
times per command.

A wrapper is installed by rebinding every attribute of every loaded
``icosacurves`` module that refers to the original function, so a name
bound by ``from .polyring import compose_rational`` in ``decomp`` is
traced as well as the one in ``polyring``.

The targets are the functions that the benchmarked workloads call.  The
loci set-up path (``build_locus``, ``_bareiss_det``) runs before the
api-sweep curves and is timed by kernels.py instead; the singular-fiber
and fiber-model path belongs to no benchmarked workload.
"""

import sys
import time

# (module, attribute path) of every traced function
TARGETS = (
    ("cli", "main"),
    ("fixtures", "load_fixtures"),
    ("icosa", "build_icosahedral_group"),
    ("icosa", "first_nonconstant_symmetric_function"),
    ("icosa", "normalize_element_to_scaling"),
    ("decomp", "transported_invariant_map"),
    ("decomp", "left_factor"),
    ("decomp", "inner_cubic_decomposition"),
    ("polyring", "compose_rational"),
    ("polyring", "certified_coprime"),
    ("polyring", "Poly.gcd"),
    ("polyring", "interpolate"),
    ("polyring", "nullspace"),
    ("families", "curve_equation"),
    ("families", "even_model"),
    ("invariants", "invariant_set"),
    ("invariants", "transvectant"),
    ("invariants", "dihedral_invariants"),
    ("loci", "rational_model"),
    ("loci", "solve_lambda"),
)

NAMES = tuple(f"{module}.{path}" for module, path in TARGETS)


class Recorder:
    """Aggregated spans: name -> [calls, self_s, returned_none]."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0] for name in NAMES}
        self._child_time = []
        self._undo = []

    def _wrap(self, name, fn):
        stats = self.stats[name]
        child_time = self._child_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child_time.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stats[0] += 1
                stats[1] += dt - child_time.pop()
                if child_time:
                    child_time[-1] += dt
            if result is None:
                stats[2] += 1
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        """Rebind every reference to a target in the loaded package."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "icosacurves" or key.startswith("icosacurves.")]
        for module, path in TARGETS:
            owner = sys.modules[f"icosacurves.{module}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{module}.{path}", original)
            if outer:
                self._rebind(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def _rebind(self, holder, attr, value):
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self):
        while self._undo:
            holder, attr, value = self._undo.pop()
            setattr(holder, attr, value)

