"""Child-process entry points of the benchmark.

    worker.py cli [--meter] [--trace | --import-only] -- ARGV...
                                 one CLI command in a fresh interpreter
    worker.py api [options]      the api-sweep client
    worker.py kernels            the kernel micro-timings

A `cli` worker imports ``icosacurves.cli`` and calls ``cli.main(argv)``
in process with standard output captured, which is what
``python -m icosacurves.cli ARGV`` does.  A `cli` worker with --meter
and an untraced `api` worker run a calibration.Speedometer from their
start and report its loop timings, so that run.py can scale their times
to the reference speed.  Every
mode prints one JSON object as its last line of standard output.  The
package is found through PYTHONPATH, which run.py points at the
checkout's ``src`` directory.
"""

import argparse
import contextlib
import hashlib
import io
import json
import random
import signal
import sys
import time
from fractions import Fraction

import calibration
import spans

# smallest genus of cases 1..8; the sweep cycles through them in this order
GENERA = (29, 35, 45, 39, 44, 50, 54, 60)
HEIGHT = 10 ** 6
LAMBDAS_PER_GENUS = 2
OP_TIMEOUT_S = 30.0


class Mismatch(Exception):
    """An operation returned a wrong result."""


class OpTimeout(Exception):
    """An operation ran longer than OP_TIMEOUT_S."""


def _import_cli():
    t0 = time.perf_counter()
    import icosacurves.cli as cli
    return cli, time.perf_counter() - t0


def run_cli(argv, trace=False, import_only=False, meter=False):
    meter = calibration.Speedometer().start() if meter else None
    cli, import_s = _import_cli()
    result = {"import_s": import_s}
    if not import_only:
        rec = spans.Recorder() if trace else None
        if rec:
            rec.install()
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
        except Exception as e:  # what `python -m icosacurves.cli` exits 1 on
            print(f"{type(e).__name__}: {e}", file=sys.stderr)
            rc = 1
        finally:
            if rec:
                rec.uninstall()
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        result.update(rc=rc, sha256=digest)
        if rec:
            result["spans"] = rec.stats
    if meter:
        meter.stop()
        result["loops"] = meter.samples
    return result


def draw_pass(seed):
    """The curves of one pass: (genus, branch value) with LAMBDAS_PER_GENUS
    values per genus, cycling through GENERA.

    A value is +-p/q with p and q drawn from [0.9 * 10^6, 10^6), so every
    seed draws heights near 10^6: over the wider range [10^5, 10^6] the
    time of one curve varied by a third with the draw, and by a tenth
    over this one.  0 and 1728, the branch points of the invariant map
    where the family degenerates, cannot be drawn.
    """
    rng = random.Random(seed)
    curves = []
    lo = HEIGHT - HEIGHT // 10
    for i in range(LAMBDAS_PER_GENUS * len(GENERA)):
        lam = Fraction(rng.choice((-1, 1)) * rng.randrange(lo, HEIGHT),
                       rng.randrange(lo, HEIGHT))
        curves.append((GENERA[i % len(GENERA)], lam))
    return curves


def curve_op(genus, lam, locus):
    """One curve, the way a library user handles it; raises Mismatch."""
    from icosacurves.families import classify_genus, curve_equation, even_model
    from icosacurves.invariants import (check_group_relation,
                                        dihedral_invariants, invariant_set)
    from icosacurves.loci import rational_model, solve_lambda

    inv = invariant_set(curve_equation(genus, [lam], "x5").f, genus)
    u = dihedral_invariants(even_model(curve_equation(genus, [lam], "x2")))
    group = check_group_relation(u)
    if group != classify_genus(genus).group:
        raise Mismatch(f"genus {genus}: group relation {group}")
    model = rational_model(u, group)
    if dihedral_invariants(even_model(model)).values != u.values:
        raise Mismatch(f"genus {genus}: rational model changes u")
    if solve_lambda(inv.i1, inv.i2, locus) != lam:
        raise Mismatch(f"genus {genus}: solve_lambda misses {lam}")


def api_setup():
    """Fill every cache a curve touches: all eight loci and both models."""
    from icosacurves.loci import build_locus

    loci = {g: build_locus(case) for case, g in enumerate(GENERA, start=1)}
    curve_op(GENERA[0], Fraction(7), loci[GENERA[0]])
    return loci


def _on_alarm(signum, frame):
    raise OpTimeout(f"operation exceeded {OP_TIMEOUT_S} s")


def sweep(loci, curves, count=None, deadline=None, meter=None, start=0):
    """[index in the pass, seconds, seconds at the reference speed or
    None, ok] per curve, closed loop, one curve at a time.

    Every pass repeats the same curves.  Runs `count` curves from index
    `start`, or one pass and then curves until time.monotonic() reaches
    `deadline`.  With a
    running Speedometer `meter`, each curve is also timed at the
    reference speed, and the loops timed during it are taken out of
    its seconds.
    """
    signal.signal(signal.SIGALRM, _on_alarm)
    timed = []
    i = start
    while True:
        if count is not None:
            if i >= start + count:
                break
        elif i >= len(curves) and time.monotonic() >= deadline:
            break
        k = i % len(curves)
        genus, lam = curves[k]
        i += 1
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        t0 = time.monotonic()
        try:
            curve_op(genus, lam, loci[genus])
            ok = True
        except Exception as e:
            print(f"genus {genus} lambda {lam}: {type(e).__name__}: {e}",
                  file=sys.stderr)
            ok = False
        finally:
            t1 = time.monotonic()
            signal.setitimer(signal.ITIMER_REAL, 0)
        timed.append((k, t0, t1, ok))
    if meter:
        meter.stop()
    return [[k, *(calibration.timed(t0, t1, meter.samples) if meter
                  else (t1 - t0, None)), ok]
            for k, t0, t1, ok in timed]


def run_api(args):
    meter = None if args.trace else calibration.Speedometer().start()
    _, import_s = _import_cli()
    loci = api_setup()
    result = {"import_s": import_s}
    if meter:
        result["setup"] = calibration.timed(args.spawned_at, time.monotonic(),
                                            meter.samples)
    if args.setup_only:
        if meter:
            meter.stop()
        return result
    curves = draw_pass(args.seed)
    if args.trace:
        # only the swept curves are traced, not the set-up.  A fixed
        # list of curves, so the span counts repeat exactly; each curve
        # runs untraced and traced back to back, in turn first, so that a
        # slow spell of the machine falls on both alike and the
        # difference is the tracing cost
        rec = spans.Recorder()
        plain, traced = [], []
        for k in range(args.count):
            for on in ((False, True) if k % 2 == 0 else (True, False)):
                if on:
                    rec.install()
                got = sweep(loci, curves, count=1, start=k)
                if on:
                    rec.uninstall()
                (traced if on else plain).extend(got)
        result.update(ops=plain, traced_ops=traced, spans=rec.stats)
        return result
    result["ops"] = sweep(loci, curves, count=args.count,
                          deadline=args.deadline, meter=meter)
    return result


def run_kernels():
    import kernels
    return {name: [value, unit]
            for name, (value, unit) in kernels.measure().items()}


def main(argv):
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("cli")
    p.add_argument("--meter", action="store_true",
                   help="time the machine's speed alongside")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--import-only", action="store_true")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("api")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, help="curves to run")
    p.add_argument("--deadline", type=float,
                   help="time.monotonic() after which no pass starts")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before spawn")
    sub.add_parser("kernels")
    args = parser.parse_args(argv)
    if args.mode == "cli":
        cmd = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        result = run_cli(cmd, args.trace, args.import_only, args.meter)
    elif args.mode == "api":
        result = run_api(args)
    else:
        result = run_kernels()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
