#!/usr/bin/env python3
"""Benchmark of the icosacurves command line and library.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --workload NAME --smoke   # one operation only
    python3 benchmark/run.py --record                  # rewrite expected.json

The checkout is the directory above this file; the package is imported
from its ``src`` directory and nowhere else.  Bytecode and other outputs
go to ``.bench_build/`` in the checkout.  Workloads:

    cli-decomp  the quotient map and its x5/x2/x3 decompositions, each
                command in a fresh interpreter
    api-sweep   one warm process calling the library on seeded rational
                branch values of height up to 10^6, one curve per operation

Each run is a closed loop with one client.  With ``--trace 0`` it times
the workload for ``--seconds`` and reports the end-to-end metrics, every
time scaled to the reference speed of calibration.py; with
``--trace 1`` it runs the workload's operations once traced and once
untraced, at a fixed amount of work, and reports the per-layer metrics
and the kernel micro-timings.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import calibration
import spans
from worker import OP_TIMEOUT_S as CURVE_TIMEOUT_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build"
WORKER = HERE / "worker.py"
EXPECTED = HERE / "expected.json"
# children skip site-packages: the package needs only the standard
# library, and .pth hooks of the host interpreter are not its cost
PYTHON = (sys.executable, "-S")

CLI_WORKLOADS = {
    "cli-decomp": (
        ("icosa", "group"),
        ("icosa", "phi"),
        ("decomp", "phi1"),
        ("decomp", "check", "--inner", "x5"),
        ("decomp", "check", "--inner", "x2"),
        ("decomp", "check", "--inner", "x3"),
        ("verify", "--suite", "icosa"),
    ),
}
API = "api-sweep"
WORKLOADS = (*CLI_WORKLOADS, API)

CLI_SETUP_SAMPLES = 11
API_SETUP_SAMPLES = 3
API_TRACE_CURVES = 16        # one pass: two branch values per genus
OP_TIMEOUT_S = 60.0          # a CLI command taking longer has failed
RUN_BUDGET_S = 150.0         # no operation runs past this point of a run
KERNEL_TIMEOUT_S = 20.0


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def child_env():
    env = dict(os.environ)
    env.pop("ICOSA_FIXTURES", None)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
    return env


class Run:
    """One invocation: the child environment, its deadline and its tally."""

    def __init__(self, expected):
        self.env = child_env()
        self.expected = expected
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.loops = []   # (start, seconds) of every loop the workers timed

    def spawn(self, cmd, timeout):
        """((start, end) in time.monotonic(), CompletedProcess or None on
        timeout)."""
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT,
                                  capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            proc = None
        return (t0, time.monotonic()), proc

    def times(self, span):
        """(seconds, seconds at the reference speed) of a worker that ran
        over `span` and reported its loops."""
        return calibration.timed(*span, self.loops)

    def prepare(self):
        """Compile the package and the worker before anything is timed."""
        if not (SRC / "icosacurves" / "cli.py").is_file():
            raise BenchError(f"no icosacurves sources under {SRC}")
        OUT.mkdir(exist_ok=True)
        _, proc = self.spawn([*PYTHON, "-m", "compileall", "-q",
                              str(SRC / "icosacurves"), str(HERE)], 300)
        if proc is None or proc.returncode:
            raise BenchError("compileall failed")

    def import_span(self):
        """The span of a cold interpreter importing the CLI module."""
        span, proc = self.spawn(
            [*PYTHON, str(WORKER), "cli", "--meter", "--import-only"],
            OP_TIMEOUT_S)
        if proc is None or proc.returncode:
            raise BenchError("icosacurves.cli does not import")
        payload = json.loads(proc.stdout.decode().splitlines()[-1])
        self.loops += payload["loops"]
        return span

    def cli_op(self, workload, argv, flag="--meter"):
        """(span, worker payload) of one command in a fresh interpreter
        run with the worker flag `flag` (--meter, --trace or None); the
        span is None if the command failed."""
        self.attempted += 1
        key = " ".join(argv)
        timeout = min(OP_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            return self._fail(key, "run budget exhausted")
        cmd = [*PYTHON, str(WORKER), "cli", *([flag] if flag else []),
               "--", *argv]
        span, proc = self.spawn(cmd, timeout)
        if proc is None:
            return self._fail(key, f"timed out after {timeout:.0f} s")
        if proc.returncode:
            return self._fail(key, proc.stderr.decode()[-2000:])
        payload = json.loads(proc.stdout.decode().splitlines()[-1])
        rc, digest = payload["rc"], payload["sha256"]
        want = self.expected[workload][key]
        if rc != want["rc"] or digest != want["sha256"]:
            return self._fail(key, f"exit {rc}, stdout sha256 {digest}; "
                                   f"expected exit {want['rc']}, "
                                   f"sha256 {want['sha256']}")
        self.loops += payload.get("loops", [])
        return span, payload

    def _fail(self, what, why):
        self.failed += 1
        print(f"FAILED {what}: {why}", file=sys.stderr)
        return None, None

    def worker(self, args, timeout):
        """Parsed last stdout line of a worker process."""
        cmd = [*PYTHON, str(WORKER), *args]
        if args[0] == "api":
            cmd += ["--spawned-at", repr(time.monotonic())]
        _, proc = self.spawn(cmd, timeout)
        if proc is None:
            raise BenchError(f"worker {args[0]} timed out after {timeout} s")
        if proc.returncode:
            raise BenchError(f"worker {args[0]} failed:\n"
                             + proc.stderr.decode()[-4000:])
        sys.stderr.write(proc.stderr.decode())
        return json.loads(proc.stdout.decode().splitlines()[-1])

    def remaining(self):
        return max(1.0, self.deadline - time.monotonic())


# A sample of an operation is (seconds, seconds at the reference speed),
# or None if the operation failed.
RAW, AT_REF = 0, 1


def per_op(samples, which, timeout):
    """key -> the median of figure `which` over the operation's successful
    samples.

    An operation with no successful sample counts at its timeout, so that
    a failure cannot read as a gain.
    """
    out = {}
    for key, got in samples.items():
        ok = [s[which] for s in got if s]
        out[key] = median(ok) if ok else timeout
    return out


def pooled(samples, timeout):
    """Every sample's time at the reference speed, a failed one at its
    timeout."""
    return [s[AT_REF] if s else timeout
            for got in samples.values() for s in got]


def cli_order(workload, seed, smoke):
    """The workload's commands in seeded order, or its first one alone."""
    if smoke:
        return CLI_WORKLOADS[workload][:1]
    order = list(CLI_WORKLOADS[workload])
    random.Random(seed).shuffle(order)
    return order


def api_samples(run, records):
    """Tally a worker's [index, seconds, scaled seconds, ok] records."""
    samples = {}
    for k, dt, at_ref, ok in records:
        run.attempted += 1
        run.failed += not ok
        samples.setdefault(f"curve {k}", []).append(
            (dt, at_ref) if ok else None)
    return samples


# ----------------------------------------------------------------------------
# timed runs: end-to-end metrics
# ----------------------------------------------------------------------------

def timed_cli(run, workload, seed, seconds, smoke):
    """Set-up samples, every command once in seeded order, then more
    samples while the window lasts: always of the command with the fewest
    samples, shortest first, among those whose last time still fits."""
    end = time.monotonic() + seconds
    order = cli_order(workload, seed, smoke)
    setup = [run.import_span()
             for _ in range(1 if smoke else CLI_SETUP_SAMPLES)]
    spans_of, last = {}, {}

    def sample(argv):
        span, _ = run.cli_op(workload, argv)
        spans_of.setdefault(" ".join(argv), []).append(span)
        last[argv] = span[1] - span[0] if span else float("inf")

    for argv in order:
        sample(argv)
    while not smoke:
        now = time.monotonic()
        fits = [a for a in order if now + last[a] <= end]
        if not fits:
            break
        sample(min(fits,
                   key=lambda a: (len(spans_of[" ".join(a)]), last[a])))
    # a command is judged by the loops of the commands around it too, so
    # the times are worked out once all are in
    return ([run.times(span) for span in setup],
            {key: [span and run.times(span) for span in got]
             for key, got in spans_of.items()})


def timed_api(run, seed, seconds, smoke):
    """Set-up samples in fresh workers; the last worker then sweeps one
    pass and more curves until the window ends."""
    end = time.monotonic() + seconds
    setup = []
    for _ in range(0 if smoke else API_SETUP_SAMPLES - 1):
        setup.append(run.worker(["api", "--setup-only"], 120)["setup"])
    args = ["api", "--seed", str(seed)]
    args += ["--count", "1"] if smoke else ["--deadline", repr(end)]
    result = run.worker(args, run.remaining())
    setup.append(result["setup"])
    return setup, api_samples(run, result["ops"])


def end_to_end(setup, samples, timeout):
    """The end-to-end metrics from set-up samples and operation samples."""
    times = list(per_op(samples, AT_REF, timeout).values())
    rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": (median(s[AT_REF] for s in setup), "s"),
        "wall_s": (sum(times), "s"),
        "op_p50_s": (median(pooled(samples, timeout)), "s"),
        "slowest_op_s": (max(times), "s"),
        "peak_rss_mb": (rss_kib / 1024, "MiB"),
    }


# ----------------------------------------------------------------------------
# traced runs: per-layer metrics
# ----------------------------------------------------------------------------

def traced_cli(run, workload, seed, smoke):
    """(plain samples, traced samples, span totals, import seconds).

    Each command runs untraced and traced back to back, in turn first,
    so that a slow spell of the machine falls on both alike.
    """
    order = cli_order(workload, seed, smoke)
    plain, traced, imports = {}, {}, []
    totals = {name: [0, 0.0, 0] for name in spans.NAMES}
    for i, argv in enumerate(order):
        key = " ".join(argv)
        for flag in ((None, "--trace") if i % 2 == 0 else ("--trace", None)):
            span, payload = run.cli_op(workload, argv, flag)
            (traced if flag else plain)[key] = [
                span and (span[1] - span[0], None)]
            if flag and payload:
                merge_spans(totals, payload["spans"])
                imports.append(payload["import_s"])
    return plain, traced, totals, imports


def traced_api(run, seed, smoke):
    count = 1 if smoke else API_TRACE_CURVES
    result = run.worker(["api", "--trace", "--seed", str(seed),
                         "--count", str(count)], run.remaining())
    plain = api_samples(run, result["ops"])
    traced = api_samples(run, result["traced_ops"])
    return plain, traced, result["spans"], [result["import_s"]]


def merge_spans(total, stats):
    for name, row in stats.items():
        acc = total.setdefault(name, [0, 0.0, 0])
        for i, v in enumerate(row):
            acc[i] += v


def per_layer(totals, imports, kernels, overhead):
    out = {}
    for name, (calls, self_s, _) in totals.items():
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
    out["polyring.certified_coprime.inconclusive"] = (
        totals["polyring.certified_coprime"][2], "count")
    out["cli.import_s"] = (median(imports) if imports else 0.0, "s")
    out.update((name, tuple(vu)) for name, vu in kernels.items())
    out["trace.overhead_s"] = (overhead, "s")
    return out


# ----------------------------------------------------------------------------

def record(run):
    """Write the exit code and stdout sha256 of every CLI command."""
    table = {}
    for workload, ops in CLI_WORKLOADS.items():
        table[workload] = {}
        for argv in ops:
            _, proc = run.spawn([*PYTHON, "-m", "icosacurves.cli",
                                 *argv], 600)
            if proc is None:
                raise BenchError(f"{' '.join(argv)} timed out")
            table[workload][" ".join(argv)] = {
                "rc": proc.returncode,
                "sha256": hashlib.sha256(proc.stdout).hexdigest()}
    EXPECTED.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one operation and one set-up sample")
    parser.add_argument("--record", action="store_true",
                        help="record the expected CLI outputs and exit")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    try:
        expected = (None if args.record
                    else json.loads(EXPECTED.read_text()))
        run = Run(expected)
        run.prepare()
        if args.record:
            record(run)
            return 0
        lines = []
        if args.trace:
            if args.workload == API:
                plain, traced, totals, imports = traced_api(run, args.seed,
                                                            args.smoke)
            else:
                plain, traced, totals, imports = traced_cli(
                    run, args.workload, args.seed, args.smoke)
            kernels = run.worker(["kernels"], KERNEL_TIMEOUT_S)
            timeout = CURVE_TIMEOUT_S if args.workload == API else OP_TIMEOUT_S
            wall_plain, wall_traced = (sum(per_op(s, RAW, timeout).values())
                                       for s in (plain, traced))
            lines.append(f"# pass wall_s untraced {wall_plain} traced "
                         f"{wall_traced}")
            metrics = per_layer(totals, imports, kernels,
                                wall_traced - wall_plain)
        else:
            if args.workload == API:
                setup, samples = timed_api(run, args.seed, args.seconds,
                                           args.smoke)
                timeout = CURVE_TIMEOUT_S
            else:
                setup, samples = timed_cli(run, args.workload, args.seed,
                                           args.seconds, args.smoke)
                timeout = OP_TIMEOUT_S
            raw = per_op(samples, RAW, timeout)
            ops = per_op(samples, AT_REF, timeout)
            for key, got in samples.items():
                lines.append(f"# op median {raw[key]:.4f} s, at reference "
                             f"speed {ops[key]:.4f} s, of {len(got)}  {key}")
            lines.append(f"# set-up median {median(s[RAW] for s in setup)} "
                         f"s of {len(setup)}")
            n = sum(len(got) for got in samples.values())
            lines.append(f"# op_p50_s over {n} samples of {len(samples)} "
                         f"operations")
            metrics = end_to_end(setup, samples, timeout)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    lines.append(f"# {run.failed} of {run.attempted} operations failed")
    lines.append(f"fail_ratio {run.failed / max(run.attempted, 1)} ratio")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} {value} {unit}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
