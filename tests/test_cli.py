import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from icosacurves.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def test_group_summary(capsys):
    rc, out, err = run(capsys, "icosa", "group")
    assert rc == 0
    doc = json.loads(out)
    assert doc["order"] == 60
    assert doc["order_profile"] == {"1": 1, "2": 15, "3": 20, "5": 24}
    assert sorted(doc["generator_orders"]) == [2, 5]
    assert doc["generator_product_order"] == 3


def test_locus_equation_has_printed_coefficient(capsys):
    rc, out, err = run(capsys, "locus", "--case", "1", "--emit", "F")
    assert rc == 0
    doc = json.loads(out)
    terms = {(j, k): c for j, k, c in doc["plane_model"]["terms"]}
    assert terms[(0, 4)] == "20104543529222176607891970551365425625"
    assert doc["kappa"] == ["1", "1", "1"]
    assert doc["genus"] == 29


def test_output_is_byte_stable(capsys):
    rc1, out1, _ = run(capsys, "locus", "--case", "1", "--emit", "F")
    rc2, out2, _ = run(capsys, "locus", "--case", "1", "--emit", "F")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_unsupported_genus_is_a_domain_error(capsys):
    rc, out, err = run(capsys, "curve", "--genus", "7")
    assert rc == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "NotInLocus"


@pytest.mark.parametrize("argv", [
    ("curve", "--genus", "29", "--lambda", "1,2"),
    ("curve", "--genus", "59", "--lambda", "2", "--model", "x2"),
    ("model", "--genus", "29"),
])
def test_wrong_branch_value_count_is_a_domain_error(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "InconsistentData"


# the first failing check decides the error: count, then duplicates, then
# the branch points 0 and 1728 in list order
@pytest.mark.parametrize("lams,genus,err", [
    ("0,5,5", "89", {"message": "branch values must be distinct",
                     "type": "DuplicateBranchValue", "value": "5"}),
    ("5,1728,0", "89", {"message": "branch value collides with a branch "
                        "point of the invariant map",
                        "type": "DegenerateBranchValue", "value": "1728"}),
    ("0", "59", {"expected": "2", "got": "1", "message": "wrong number of "
                 "branch values for the genus", "type": "InconsistentData"}),
])
def test_branch_value_errors_keep_their_order(capsys, lams, genus, err):
    rc, out, got = run(capsys, "curve", "--genus", genus, f"--lambda={lams}")
    assert (rc, out) == (1, "")
    assert got == json.dumps({"error": err}, sort_keys=True) + "\n"


@pytest.mark.parametrize("command", ["curve", "invariants", "model"])
@pytest.mark.parametrize("genus,value", [("29", "-3/7"), ("59", "-3/7,2")])
def test_negative_lambda_as_its_own_argument(capsys, command, genus, value):
    rc1, out1, err1 = run(capsys, command, "--genus", genus, "--lambda", value)
    rc2, out2, _ = run(capsys, command, "--genus", genus, f"--lambda={value}")
    assert rc1 == rc2 == 0, err1
    assert out1 == out2


def test_bad_flag_is_a_usage_error(capsys):
    rc, out, err = run(capsys, "--badflag")
    assert rc == 64
    assert "usage error" in err


def test_missing_subcommand_is_a_usage_error(capsys):
    rc, out, err = run(capsys)
    assert rc == 64


def test_missing_required_flag_is_a_usage_error(capsys):
    rc, out, err = run(capsys, "invariants")
    assert rc == 64
    assert "--genus" in err


def test_rationals_are_strings_not_floats(capsys):
    rc, out, err = run(capsys, "curve", "--genus", "29", "--lambda", "3/2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["params"] == ["3/2"]
    for c in doc["f"]["coeffs"]:
        assert isinstance(c, str)
    assert "." not in out  # no floats anywhere in the document


def test_inner_decomposition_report(capsys):
    rc, out, err = run(capsys, "decomp", "check", "--inner", "x2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["found"] is True
    assert doc["outer_degree"] == 30


def test_model_from_invariants(capsys):
    rc, out, err = run(capsys, "model", "--genus", "29", "--lambda", "7")
    assert rc == 0
    doc = json.loads(out)
    assert doc["group"] == "Z2xA5"
    assert doc["model"]["genus"] == 29
    for c in doc["model"]["f"]["coeffs"]:
        assert isinstance(c, str)


def test_dihedral_invariants_output(capsys):
    rc, out, err = run(capsys, "invariants", "--genus", "29",
                       "--lambda", "7", "--dihedral")
    assert rc == 0
    doc = json.loads(out)
    assert doc["dihedral"]["d"] == 30
    assert len(doc["dihedral"]["values"]) == 29
    assert "classical" not in doc


@pytest.mark.parametrize("argv", [("--genus", "5"),
                                  ("--genus", "29", "--lambda", "7")])
def test_x5_invariants_take_the_dihedral_part_from_the_x2_model(capsys, argv):
    rc, out, _ = run(capsys, "invariants", *argv, "--model", "x5")
    assert rc == 0
    doc = json.loads(out)
    assert doc["model"] == "x5" and "classical" in doc
    rc, out, _ = run(capsys, "invariants", *argv, "--model", "x2",
                     "--dihedral")
    assert rc == 0 and doc["dihedral"] == json.loads(out)["dihedral"]


def test_fibers_listing_matches_reference(capsys):
    rc, out, err = run(capsys, "locus", "--case", "1", "--emit", "fibers")
    assert rc == 0
    doc = json.loads(out)
    kinds = [f["kind"] for f in doc["fibers"]]
    assert kinds == ["collision", "zero_locus", "infinity_locus"]
    zero = doc["fibers"][1]
    assert zero["d"] == 127067509222


@pytest.mark.parametrize("suite", ["icosa", "families", "loci", "decomp",
                                   "invariants"])
def test_verify_suites_pass(capsys, suite):
    rc, out, err = run(capsys, "verify", "--suite", suite)
    assert rc == 0
    doc = json.loads(out)
    assert doc["suite"] == suite
    assert all(c["status"] == "pass" for c in doc["checks"])
    assert all("id" in c and "details" in c for c in doc["checks"])
    if suite == "loci":
        # the Table 2 and 3 rows of every case, case 1's first
        assert [c["id"] for c in doc["checks"][2:]] == [
            f"table{t}.case{n}.row{k}"
            for n in range(1, 9) for k in (1, 2, 3) for t in (2, 3)]


def test_verify_text_mode_lines(capsys):
    rc, out, err = run(capsys, "--format", "text", "verify",
                       "--suite", "families")
    assert rc == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 2
    assert all(ln.startswith("pass") for ln in lines)


def test_threads_flag_validated(capsys):
    rc, out, err = run(capsys, "--threads", "0", "icosa", "group")
    assert rc == 64
    rc, out, err = run(capsys, "--threads", "4", "icosa", "group")
    assert rc == 0
    rc, out, err = run(capsys, "icosa", "group", "--threads", "0")
    assert rc == 64


@pytest.mark.parametrize("before, after", [
    (("--format", "text", "verify", "--suite", "families"),
     ("verify", "--suite", "families", "--format", "text")),
    (("--threads", "2", "--format", "text", "icosa", "group"),
     ("icosa", "group", "--format", "text", "--threads", "2")),
    (("--format", "text", "locus", "--case", "1"),
     ("locus", "--format", "text", "--case", "1")),
])
def test_global_flags_on_either_side_of_the_subcommand(capsys, before, after):
    want = run(capsys, *before)
    assert want[0] == 0 and want[1]
    assert run(capsys, *after) == want


# exit code and stdout sha256 of each command of the cli-decomp benchmark
# workload, recorded by benchmark/run.py --record
EXPECTED = json.loads((Path(__file__).resolve().parent.parent / "benchmark"
                       / "expected.json").read_text())["cli-decomp"]


@pytest.mark.parametrize("command", sorted(EXPECTED))
def test_decomp_workload_output_matches_the_record(capsys, command):
    rc, out, _ = run(capsys, *command.split())
    want = EXPECTED[command]
    assert rc == want["rc"]
    assert hashlib.sha256(out.encode()).hexdigest() == want["sha256"]


# exit code and stdout sha256 of commands that print quadratic values:
# Gaussian coefficients (x2 models) and fiber models over Q(sqrt(d)), whose
# family member is evaluated over the tower Q(sqrt(d))(i); recorded before
# QuadraticElement became an integer vector
QUADRATIC_RECORD = {
    "curve --genus 29 --lambda 7 --model x2": (
        0, "fa42e1440d46f9a325bdf09ec2d2e27a38ad430dd7d47df1f5f937c18fb8ea1c"),
    "invariants --genus 29 --lambda 7": (
        0, "1d5feb69fef83fd2f68e4964a8cbc580c32ad69494255ee263e24084884202b1"),
    "model --genus 44 --lambda 5": (
        0, "21f76d765ecb5c093c1fefbfbbd03fa0e5d7b62be53bb8c04dbeeb0ea4d3d0f2"),
    "model --case 1 --fiber 1": (
        0, "f8f225f573224a30f495398c28273b88e5d7ced2076a815a255a6ef067c8aa9e"),
    "model --case 5 --fiber 2": (
        0, "df9bddc9b313c210e88ab1ebe0c39af3bbd61a054c945c0aa08058b44d1e92b2"),
    # big height: u_1 of the genus-60 model is thousands of bits long
    "invariants --genus 60 --lambda 987653/912347 --dihedral": (
        0, "c3f7a3173b400c75022b547cb0a8f2ce181b148fe23c6bd394b631b7e133bcf2"),
    "model --genus 60 --lambda 987653/912347": (
        0, "deeb73f79c4d47f35dd6c5d24a0dd3c3d389033613ebdf60d047c70bf0b6e9c9"),
    # d = 210 over Q(i): 0.87 MB of digits, past the int-to-str limit
    "invariants --genus 209 --lambda 2,3,4,5,6,7,8 --dihedral": (
        0, "95712af7cd93bcf35358224d98ce32f195975cbdfde9640f2100d61760a48b18"),
}


@pytest.mark.parametrize("command", sorted(QUADRATIC_RECORD))
def test_quadratic_output_matches_the_record(capsys, command):
    rc, out, _ = run(capsys, *command.split())
    assert (rc, hashlib.sha256(out.encode()).hexdigest()) == \
        QUADRATIC_RECORD[command]


# exit code and stdout sha256 of each plane model, and of the fields of
# moduli of case 1, whose first generator is i3 and so reads I6star
LOCUS_RECORD = {
    "locus --case 1 --emit F": (
        0, "ed144882a6fcd9a13c75c6a8a0625e01bb8c9151b9ccc68ca572b76d3a59ac87"),
    "locus --case 2 --emit F": (
        0, "78d864ffc0cf108ea308022e95a6f00d0e51cb035c3938128f1645e0b3c15635"),
    "locus --case 3 --emit F": (
        0, "ca67acee8280faeb595d9d8063147f54cd5055e7a2d1305e53c266cdeadb9b23"),
    "locus --case 4 --emit F": (
        0, "11a7073be971abff869b74120434fa6c3d24071630d1253c6dcf2afb913c4afa"),
    "locus --case 5 --emit F": (
        0, "43fca67cc0dd002af30e125b7df94ea2adfce4a18f29b4ad49e6e0f65e8a4edb"),
    "locus --case 6 --emit F": (
        0, "49d6e326bf40c37e619ad3d2a048adbd7d3ee79a610b27ef72d3e316c58fa8c9"),
    "locus --case 7 --emit F": (
        0, "ce22a5420e4a2976140b22dfa8f09890ff707e068cb9b9e36bf33ca6e57e73f4"),
    "locus --case 8 --emit F": (
        0, "a5579a809c6a5491530523e9ef90d45896c9fc7c068a5cc6fac7d14e04c58de8"),
    "locus --case 1 --emit moduli": (
        0, "feab837223af1828b9f91ca47114abc34e171307aaffe22bbc06fd5623a4da0e"),
}


@pytest.mark.parametrize("command", sorted(LOCUS_RECORD))
def test_locus_output_matches_the_record(capsys, command):
    rc, out, _ = run(capsys, *command.split())
    assert (rc, hashlib.sha256(out.encode()).hexdigest()) == \
        LOCUS_RECORD[command]


# exit code and stdout sha256 of the invariants blocks, a null I6star and
# i3 among them, and of the dihedral checks' text report; recorded before
# the blocks were encoded by InvariantSet field name and the checks read
# the dihedral invariants through one route
INVARIANTS_RECORD = {
    "invariants --genus 5": (
        0, "6e50d8cdd3fe1e6d916ed638ab67c5237870e232f06dc15334afebe1e650fd7b"),
    "invariants --genus 29 --lambda 7 --model x5 --absolute": (
        0, "f4181c1aba8ad00978c8ec604a95ff782167d445c4a327c9b84f64be0c6ad163"),
    "--format text verify --suite invariants": (
        0, "297091e26c4680468b9b94e7c0048e28c393c2d1b80b057756be158daad39a72"),
}


@pytest.mark.parametrize("command", sorted(INVARIANTS_RECORD))
def test_invariants_output_matches_the_record(capsys, command):
    rc, out, _ = run(capsys, *command.split())
    assert (rc, hashlib.sha256(out.encode()).hexdigest()) == \
        INVARIANTS_RECORD[command]


class ClosedStdout:
    """A stdout whose reader has gone: the write, or the flush of what the
    writes buffered, raises BrokenPipeError."""

    def __init__(self, failing):
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        if self.failing == "flush":
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize("argv", [("icosa", "group"),
                                  ("--format", "text", "icosa", "group")])
def test_closed_stdout_exits_1_without_a_traceback(capsys, monkeypatch,
                                                    failing, argv):
    monkeypatch.setattr(sys, "stdout", ClosedStdout(failing))
    assert main(list(argv)) == 1
    assert capsys.readouterr().err == ""


def test_closed_pipe_exits_1_without_a_traceback():
    # the read end is closed before the child starts, so every write to
    # its stdout fails, whether in print or in the flush at exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-S", "-m", "icosacurves.cli", "icosa", "group"],
            env={**os.environ, "PYTHONPATH": str(SRC)}, stdout=write_end,
            stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


@pytest.mark.parametrize("argv", [
    ("model", "--genus", "29", "--lambda", "3", "--case", "1", "--fiber", "1"),
    ("model", "--genus", "29", "--lambda", "3", "--fiber", "2"),
    ("model", "--genus", "29", "--case", "1", "--fiber", "1"),
    ("model", "--lambda", "3", "--case", "1", "--fiber", "1"),
    ("model", "--fiber", "1"),
])
def test_model_rejects_flags_of_the_other_path(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 64
    assert out == ""
    assert err.startswith("usage error: ") and "--case" in err


def test_model_prints_coefficients_past_the_int_to_str_limit(capsys):
    # genus 209 is the first genus of case 1 whose model has a coefficient
    # above the 4300 digits CPython caps str(int) at; main lifts the cap for
    # its own output and restores it on exit
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    rc, out, err = run(capsys, "model", "--genus", "209",
                       "--lambda", "2,3,4,5,6,7,8")
    assert (rc, err) == (0, "")
    coeffs = json.loads(out)["model"]["f"]["coeffs"]
    assert max(len(c) for c in coeffs) > 4300
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def python_s(args, env_update=None, drop=()):
    """Run ``python -S`` on the source tree: no site-packages, as the
    benchmark children run."""
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = str(SRC)
    env.update(env_update or {})
    return subprocess.run([sys.executable, "-S", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_imports_only_the_standard_library_it_runs():
    script = (
        "import sys\n"
        "import icosacurves.cli as cli\n"
        "cli._build_parser()\n"
        "assert cli.main(['icosa', 'phi']) == 0\n"
        "heavy = ('dataclasses', 'typing', 'inspect', 'random', 'shutil')\n"
        "print(sorted(m for m in heavy if m in sys.modules),"
        " file=sys.stderr)\n")
    proc = python_s(["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "[]"


# the parser's formatter must wrap exactly as argparse's own, which sizes
# itself through shutil.get_terminal_size; stdout is a pipe here
REFERENCE_MAIN = ("import argparse, sys\n"
                  "import icosacurves.cli as cli\n"
                  "cli._HelpFormatter = argparse.HelpFormatter\n"
                  "sys.exit(cli.main(sys.argv[1:]))\n")


@pytest.mark.parametrize("columns", [None, "120"])
@pytest.mark.parametrize("argv", [
    ("--help",),
    ("model", "--help"),
    ("invariants", "--help"),
    ("locus", "--case", "9"),
])
def test_help_and_usage_errors_match_argparse(columns, argv):
    env = {} if columns is None else {"COLUMNS": columns}
    got = python_s(["-m", "icosacurves.cli", *argv], env, drop=("COLUMNS",))
    want = python_s(["-c", REFERENCE_MAIN, *argv], env, drop=("COLUMNS",))
    assert (got.returncode, got.stdout, got.stderr) == (
        want.returncode, want.stdout, want.stderr)
    assert got.stdout or got.returncode == 64
