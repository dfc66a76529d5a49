"""Command-line interface: formats, determinism, exit codes."""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import capspectra
from capspectra import _linalg, cli, eigensolve, prooflab


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    rc = cli.main(list(argv), out=out, err=err)
    return rc, out.getvalue(), err.getvalue()


def _failing_pencil_solve(kind):
    """A stand-in for the sector pencil solve that raises ``kind``."""

    def fail(A, B, count, seed):
        raise kind(f"{kind.__name__} in the pencil solve")

    return fail


SOLVE_ARGS = ("solve", "--geometry", "flat", "--dim", "2", "--aperture", "1.0",
              "--elements", "48", "--num-eigs", "3")


def test_solve_emits_valid_json_with_expected_layout():
    rc, out, err = _run(*SOLVE_ARGS)
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert set(doc) == {"meta", "spectrum", "bounds"}
    assert doc["meta"]["tool"] == "capspectra"
    assert doc["meta"]["version"] == capspectra.__version__
    cfg = doc["meta"]["config"]
    assert set(cfg) == {"subcommand", "geometry", "dim", "elements", "quad_order", "num_eigs", "aperture"}
    assert cfg["subcommand"] == "solve"
    assert cfg["geometry"] == "flat"
    assert cfg["dim"] == 2
    assert cfg["elements"] == 48
    assert len(doc["spectrum"]) == 3
    for row in doc["spectrum"]:
        assert set(row) == {"lambda", "l", "multiplicity", "index"}
    # index counts copies of one degenerate value, so the disk spectrum
    # (simple, then a double) reads 1, 1, 2
    assert [row["index"] for row in doc["spectrum"]] == [1, 1, 2]
    lambdas = [row["lambda"] for row in doc["spectrum"]]
    assert lambdas == sorted(lambdas)
    for row in doc["bounds"]:
        assert set(row) == {"bound_id", "applicability", "k", "delta", "lhs", "rhs", "satisfied", "slack"}
        assert row["satisfied"] is True


def test_solve_output_is_deterministic():
    rc1, out1, _ = _run(*SOLVE_ARGS)
    rc2, out2, _ = _run(*SOLVE_ARGS)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_solve_reproduces_disk_reference_value():
    rc, out, _ = _run("solve", "--geometry", "flat", "--dim", "2", "--aperture", "1.0",
                      "--elements", "256", "--num-eigs", "2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["spectrum"][0]["lambda"] == pytest.approx(14.6819706, rel=1e-6)


def test_solve_spherical_includes_cap_rows():
    rc, out, _ = _run("solve", "--geometry", "spherical", "--dim", "2", "--aperture", "1.0",
                      "--elements", "48", "--num-eigs", "2")
    assert rc == 0
    doc = json.loads(out)
    ids = [row["bound_id"] for row in doc["bounds"]]
    assert "thm_1_1" in ids and "cor_1_2" in ids and "cor12_vs_hlc_k1" in ids
    assert ids.count("wang_xia") == 3


def test_solve_skipped_rows_stay_out_of_the_output():
    # two computed eigenvalues starve the deeper euclidean inequalities, whose
    # rows would hold NaN sides; the writer drops them instead
    rc, out, _ = _run("solve", "--geometry", "flat", "--dim", "2", "--aperture", "1.0",
                      "--elements", "48", "--num-eigs", "2")
    assert rc == 0
    doc = json.loads(out)
    ids = [row["bound_id"] for row in doc["bounds"]]
    assert "ashbaugh" not in ids
    assert ids.count("cheng_yang") == 1
    for row in doc["bounds"]:
        assert all(not isinstance(v, float) or v == v for v in row.values())


def test_solve_writes_every_row_of_the_bound_report():
    rc, out, _ = _run("solve", "--geometry", "flat", "--dim", "2", "--aperture", "1.0",
                      "--elements", "48", "--num-eigs", "2")
    assert rc == 0
    ids = [row["bound_id"] for row in json.loads(out)["bounds"]]
    spectrum, _ = capspectra.solve_spectrum(capspectra.make_cap("flat", 2, 1.0), m=48, count=2)
    assert ids == [r.bound_id for r in capspectra.bound_report(spectrum)]


def test_small_cap_solve_reports_finite_bounds():
    # lambda1 near 6.6e6 puts the optimal delta of the wang_xia_opt row near 1.5e-7
    rc, out, err = _run("solve", "--geometry", "spherical", "--dim", "2",
                        "--aperture", "0.002", "--elements", "32")
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert "wang_xia_opt" in [row["bound_id"] for row in doc["bounds"]]
    for row in doc["bounds"]:
        assert math.isfinite(row["rhs"]) and math.isfinite(row["slack"])


def test_solve_exit_one_when_a_bound_fails(monkeypatch):
    import dataclasses

    real = cli.bound_report

    def sabotaged(spectrum):
        reports = real(spectrum)
        head = dataclasses.replace(reports[0], satisfied=False, slack=-1.0)
        return [head] + reports[1:]

    monkeypatch.setattr(cli, "bound_report", sabotaged)
    rc, out, _ = _run(*SOLVE_ARGS)
    assert rc == 1
    doc = json.loads(out)
    assert doc["bounds"][0]["satisfied"] is False


def test_sweep_csv_layout_and_monotone_column():
    rc, out, err = _run("sweep", "--geometry", "spherical", "--dim", "2",
                        "--aperture", "0.5:3.0:0.5", "--elements", "48", "--num-eigs", "2")
    assert rc == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == ("aperture,lambda1,lambda2,thm11_rhs,cor12_rhs,"
                        "wang_xia_opt_rhs,hlc_k1_rhs,lambda1_minus_n,monotone_ok")
    assert len(lines) == 7
    prev = None
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 9
        lam1 = float(fields[1])
        assert float(fields[7]) == pytest.approx(lam1 - 2.0, rel=1e-12)
        assert fields[8] == "true"
        if prev is not None:
            assert lam1 < prev
        prev = lam1


def test_sweep_row_below_the_flat_threshold_reads_nan_and_exits_one(monkeypatch):
    import dataclasses

    real = cli.solve_spectrum

    def forced(domain, **kwargs):
        # lambda1 = n - 0.5 at one aperture: no cap inequality applies there
        spectrum, sectors = real(domain, **kwargs)
        if domain.aperture == 1.0:
            head = dataclasses.replace(spectrum.entries[0], value=domain.dim - 0.5)
            spectrum = dataclasses.replace(spectrum, entries=(head,) + spectrum.entries[1:])
        return spectrum, sectors

    monkeypatch.setattr(cli, "solve_spectrum", forced)
    rc, out, err = _run("sweep", "--geometry", "spherical", "--dim", "2",
                        "--aperture", "0.5:1.5:0.5", "--elements", "32", "--num-eigs", "2")
    assert rc == 1 and err == ""
    rows = {line.split(",")[0]: line.split(",") for line in out.strip().splitlines()[1:]}
    assert rows["1"][1] == "1.5"
    assert rows["1"][3:8] == ["nan", "nan", "nan", "nan", "-0.5"]
    assert all(field != "nan" for key in ("0.5", "1.5") for field in rows[key])


def test_small_cap_sweep_has_no_inf():
    rc, out, err = _run("sweep", "--geometry", "spherical", "--dim", "3",
                        "--aperture", "0.001:0.003:0.001", "--elements", "32")
    assert rc == 0 and err == ""
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 3
    for fields in rows:
        assert all(math.isfinite(float(v)) for v in fields[:-1])


def test_sweep_is_deterministic():
    args = ("sweep", "--geometry", "spherical", "--dim", "3",
            "--aperture", "1.0:2.0:0.5", "--elements", "32")
    rc1, out1, _ = _run(*args)
    rc2, out2, _ = _run(*args)
    assert rc1 == rc2 == 0 and out1 == out2


def test_identities_json_layout():
    rc, out, err = _run("identities", "--geometry", "spherical", "--dim", "2",
                        "--aperture", "1.0", "--elements", "32")
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert set(doc) == {"meta", "identities"}
    ids = [row["id"] for row in doc["identities"]]
    assert ids == sorted(ids) and "sum_2_7" in ids and "thm" not in ids
    for row in doc["identities"]:
        assert set(row) == {"id", "computed", "closed_form", "rel_residual", "pass"}
        assert row["pass"] is True


@pytest.mark.parametrize("subcommand", ["solve", "identities"])
def test_l_max_flag_exits_two(capsys, subcommand):
    # the tail bound ends every walk over sectors, so there is no cap to set;
    # argparse reports the flag on the process stderr
    rc, out, _ = _run(subcommand, "--geometry", "spherical", "--dim", "3", "--aperture", "1.0",
                      "--elements", "32", "--l-max", "6")
    assert rc == 2 and out == ""
    assert "unrecognized arguments: --l-max 6" in capsys.readouterr().err


def test_more_eigenvalues_than_a_fixed_sector_range_holds():
    # the 40 lowest disk values reach sector 9, past the sectors 0..6 that
    # the walk was once capped at
    rc, out, err = _run("solve", "--geometry", "flat", "--dim", "2", "--aperture", "1",
                        "--elements", "32", "--num-eigs", "40")
    assert rc == 0 and err == ""
    spectrum = json.loads(out)["spectrum"]
    assert len(spectrum) == 40
    assert max(row["l"] for row in spectrum) > 6


@pytest.fixture
def no_solve(monkeypatch):
    """Make any merged solve fail the test: the run must stop before one."""

    def refuse(*args, **kwargs):
        raise AssertionError("solve_spectrum was called")

    monkeypatch.setattr(cli, "solve_spectrum", refuse)
    monkeypatch.setattr(prooflab, "solve_spectrum", refuse)


@pytest.mark.parametrize(
    "argv,fragment",
    [
        # the first five points are valid caps; the sixth is not
        (("sweep", "--geometry", "spherical", "--dim", "2", "--aperture", "0.5:3.5:0.5",
          "--elements", "256"), "aperture must be < π for spherical caps (got 3.5)"),
        (("solve", "--geometry", "flat", "--dim", "17", "--aperture", "1", "--elements", "64"),
         "dim must be <= 16 (got 17)"),
        (("solve", "--geometry", "flat", "--dim", "40", "--aperture", "1", "--elements", "64"),
         "dim must be <= 16 (got 40)"),
        (("sweep", "--geometry", "spherical", "--dim", "17", "--aperture", "0.5:1.0:0.5"),
         "dim must be <= 16 (got 17)"),
        (("identities", "--geometry", "spherical", "--dim", "17", "--aperture", "1.0"),
         "dim must be <= 16 (got 17)"),
        (("solve", "--geometry", "flat", "--dim", "2", "--aperture", "1", "--num-eigs", "1001"),
         "num_eigs must be <= 1000 (got 1001)"),
        (("solve", "--geometry", "flat", "--dim", "2", "--aperture", "1", "--quad-order", "65"),
         "quad_order must be <= 64 (got 65)"),
        (("solve", "--geometry", "flat", "--dim", "2", "--aperture", "1", "--elements", "1025"),
         "elements must be <= 1024 (got 1025)"),
        (("solve", "--geometry", "flat", "--dim", "2", "--aperture", "1", "--elements", "3"),
         "need at least 4 elements (got 3)"),
        (("sweep", "--geometry", "spherical", "--dim", "2", "--aperture", "0.5:1.0:0.5",
          "--elements", "2048"), "elements must be <= 1024 (got 2048)"),
    ],
    ids=["sweep_aperture", "dim17", "dim40", "sweep_dim17", "identities_dim17", "num_eigs", "quad_order",
         "elements", "elements_below_four", "sweep_elements"],
)
def test_invalid_runs_exit_two_before_any_solve(no_solve, argv, fragment):
    rc, out, err = _run(*argv)
    assert (rc, out) == (2, "")
    assert err == f"error: {fragment}\n"


def test_overflowing_aperture_exits_two():
    # h**2 overflows while the mesh is built: a usage error, not a traceback
    rc, out, err = _run("solve", "--geometry", "flat", "--dim", "2", "--aperture", "1e300",
                        "--elements", "8")
    assert (rc, out) == (2, "")
    assert err == "error: arithmetic overflowed double precision (Numerical result out of range)\n"


def test_underflowing_aperture_exits_two():
    # h**2 underflows, so 1/h**2 would overflow in numpy: the same usage
    # error, with no numpy warning before the one error line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = _run("solve", "--geometry", "flat", "--dim", "2", "--aperture", "1e-300",
                            "--elements", "8")
    assert (rc, out) == (2, "")
    assert err.startswith("error: arithmetic overflowed double precision (1/t**2 out of range")
    assert err.count("\n") == 1


@pytest.mark.parametrize("elements", ["8", "64"])
def test_underflowing_weight_exits_two(elements):
    # the quadrature weight t**4 h w underflows to 0, so A and B would be
    # all zero: the aperture lies below the double range, a usage error with
    # no numpy warning before the one error line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = _run("solve", "--geometry", "flat", "--dim", "5", "--aperture", "1e-70",
                            "--elements", elements)
    assert (rc, out) == (2, "")
    assert err.startswith("error: radial weight underflows to 0 at the Gauss point t = ")
    assert err.count("\n") == 1


def test_sweep_point_limit(monkeypatch):
    # the parser stops at the limit, so a huge range costs no more than it
    rc, out, err = _run("sweep", "--geometry", "spherical", "--dim", "2",
                        "--aperture", "0.5:3.0:1e-6")
    assert rc == 2 and out == ""
    assert err == (f"error: sweep takes at most {cli._MAX_SWEEP_POINTS} aperture points "
                   "(got more from 0.5:3.0:1e-6)\n")
    monkeypatch.setattr(cli, "_MAX_SWEEP_POINTS", 4)
    assert cli._parse_sweep("0.5:2.0:0.5") == (0.5, 1.0, 1.5, 2.0)
    with pytest.raises(ValueError, match="at most 4 aperture points"):
        cli._parse_sweep("0.5:2.5:0.5")


def test_output_flag_writes_file(tmp_path):
    target = tmp_path / "run.json"
    rc, out, _ = _run(*SOLVE_ARGS, "--output", str(target))
    assert rc == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert set(doc) == {"meta", "spectrum", "bounds"}


@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_unopenable_output_exits_two(tmp_path, where):
    target = tmp_path / "absent" / "run.json" if where == "missing_dir" else tmp_path
    rc, out, err = _run(*SOLVE_ARGS, "--output", str(target))
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, code",
    [
        (("solve", "--geometry", "flat", "--dim", "2", "--aperture", "1", "--elements", "32"), 3),
        (("identities", "--geometry", "spherical", "--dim", "2", "--aperture", "1.0",
          "--elements", "8"), 2),
    ],
    ids=["solve", "identities"],
)
def test_failing_run_keeps_the_output_file(tmp_path, monkeypatch, argv, code):
    monkeypatch.setattr(eigensolve, "solve_pencil", _failing_pencil_solve(_linalg.ConvergenceError))
    target = tmp_path / "run.json"
    target.write_text("an earlier report\n")
    rc, out, err = _run(*argv, "--output", str(target))
    assert rc == code
    assert out == "" and err.startswith("error: ")
    assert target.read_text() == "an earlier report\n"


def test_version_flag(capsys):
    # argparse's version action prints to the process stdout before exiting
    rc, out, _ = _run("--version")
    assert rc == 0
    assert capspectra.__version__ in out + capsys.readouterr().out


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (("solve", "--geometry", "spherical", "--dim", "2", "--aperture", "4.0"),
         "aperture must be < π"),
        (("identities", "--geometry", "flat", "--dim", "2", "--aperture", "1.0"),
         "identities require spherical geometry"),
        (("identities", "--geometry", "spherical", "--dim", "2", "--aperture", "1.0",
          "--elements", "8"),
         "identity suite needs m >= 16"),
        (("sweep", "--geometry", "spherical", "--dim", "2", "--aperture", "1.0:1.0:0.5"),
         "sweep needs at least two aperture points"),
        (("solve", "--geometry", "flat", "--dim", "2", "--aperture", "1.0",
          "--num-eigs", "1"),
         "num_eigs must be >= 2"),
        (("sweep", "--geometry", "flat", "--dim", "2", "--aperture", "0.5:1.0:0.5"),
         "sweep requires spherical geometry"),
        # a non-finite bound would leave the point list growing forever
        (("sweep", "--geometry", "spherical", "--dim", "2", "--aperture", "0.5:nan:0.5"),
         "sweep bounds must be finite"),
        (("sweep", "--geometry", "spherical", "--dim", "2", "--aperture", "0.5:inf:0.5"),
         "sweep bounds must be finite"),
        (("sweep", "--geometry", "spherical", "--dim", "2", "--aperture=-inf:1.0:0.5"),
         "sweep bounds must be finite"),
        (("sweep", "--geometry", "spherical", "--dim", "2", "--aperture", "0.5:1.0:nan"),
         "sweep bounds must be finite"),
    ],
)
def test_rejected_configurations_exit_two(argv, fragment):
    rc, out, err = _run(*argv)
    assert rc == 2
    assert fragment in err
    assert out == ""


def test_solver_failure_exits_three(tmp_path, monkeypatch):
    # each kind of solver failure, raised inside the sector solve, is one
    # error line and exit code 3 from every subcommand, never a traceback
    target = tmp_path / "run.json"
    target.write_text("an earlier report\n")
    runs = [
        ("solve", "--geometry", "flat", "--dim", "2", "--aperture", "1", "--elements", "32"),
        ("sweep", "--geometry", "spherical", "--dim", "2", "--aperture", "0.5:1.0:0.5",
         "--elements", "32"),
        ("identities", "--geometry", "spherical", "--dim", "2", "--aperture", "1", "--elements", "32"),
    ]
    for kind in (_linalg.ConvergenceError, _linalg.CholeskyError):
        monkeypatch.setattr(eigensolve, "solve_pencil", _failing_pencil_solve(kind))
        for argv in runs:
            rc, out, err = _run(*argv, "--output", str(target))
            assert (rc, out) == (3, "")
            assert err == f"error: {kind.__name__} in the pencil solve\n"
            assert target.read_text() == "an earlier report\n"


def test_zero_b_norm_exits_three_without_a_warning():
    # at aperture 1e-50 an inverse-iteration vector has B-norm zero; the solve
    # stops before dividing by it, so the one error line is all it prints
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = _run("solve", "--geometry", "flat", "--dim", "5", "--aperture", "1e-50",
                            "--elements", "64")
    assert (rc, out) == (3, "")
    assert err == "error: inverse iteration broke down on a singular shifted pencil\n"


def _sector_spectrum(*argv):
    """(l, k, lambda) of each printed eigenvalue, k its index within sector l."""
    rc, out, err = _run("solve", *argv)
    assert (rc, err) == (0, "")
    rows, seen = [], {}
    for row in json.loads(out)["spectrum"]:
        if row["index"] == 1:
            seen[row["l"]] = seen.get(row["l"], 0) + 1
        rows.append((row["l"], seen[row["l"]], row["lambda"]))
    return rows


# The radial weight t**(n - 1) spans many decades at tiny apertures and at
# n = 16, and so does the pencil's diagonal: inverse iteration must not
# depend on the scale of the DOFs (a pivoted LU, whose row swaps do, exited 3
# on all three).


def test_tiny_cap_matches_the_cap_oracle():
    for l, k, value in _sector_spectrum("--geometry", "spherical", "--dim", "2", "--aperture", "1e-6",
                                        "--elements", "1024"):
        assert value == pytest.approx(eigensolve.cap_eigenvalue(2, l, 1e-6, k), rel=1e-10)


def test_tiny_ball_matches_the_unit_ball():
    # lambda_1 R**2 = j_{5/2,1}**2 for the ball of radius R in R**5
    l, k, value = _sector_spectrum("--geometry", "flat", "--dim", "5", "--aperture", "1e-8",
                                   "--elements", "512")[0]
    assert (l, k) == (0, 1)
    assert value * 1e-16 == pytest.approx(33.2174619142684, rel=1e-10)


def test_sixteen_dimensional_ball_matches_the_bessel_oracle():
    for l, k, value in _sector_spectrum("--geometry", "flat", "--dim", "16", "--aperture", "1",
                                        "--elements", "128"):
        assert value == pytest.approx(eigensolve.bessel_zero(l + 8, k) ** 2, rel=1e-7)


def test_unknown_subcommand_exits_two():
    rc, _, _ = _run("polish")
    assert rc == 2


def test_missing_required_flag_exits_two():
    rc, _, _ = _run("solve", "--geometry", "flat", "--dim", "2")
    assert rc == 2


@pytest.mark.parametrize("module", ["capspectra", "capspectra.cli"])
def test_module_entry_points_run_the_cli(module):
    # python3 -m capspectra runs a checkout without an installed console script
    src = str(Path(capspectra.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", module, *SOLVE_ARGS], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout == _run(*SOLVE_ARGS)[1]
    assert set(json.loads(proc.stdout)) == {"meta", "spectrum", "bounds"}
    failing = subprocess.run([sys.executable, "-m", module, "solve", "--geometry", "flat"],
                             capture_output=True, text=True, env=env, timeout=120)
    assert failing.returncode == 2 and failing.stdout == ""


#: SHA-256 of the standard output of each run, with its exit code
#: (CPython 3.11, numpy 2.4.6, x86-64, where np.longdouble has a 64-bit
#: significand), recorded when the bracket search took regula-falsi steps
#: on det(A - sigma B) and the merged spectrum solved only the pairs below
#: the head's shift: both moved the inverse-iteration shifts, and with them
#: the printed values at the rounding floor of the vectors.  A change that moves
#: any printed digit changes a digest; such a change updates the digest
#: here on purpose and records the move in CHANGES.md.
GOLDEN = [
    ("solve --geometry flat --dim 2 --aperture 1.0 --elements 64", 0,
     "00f99e7bb1ae415063c70cc3699b6064c62a28c26af808dc53a703ebecb73b28"),
    ("solve --geometry flat --dim 5 --aperture 0.7 --elements 32 --num-eigs 10", 0,
     "1a134a16c9affdb4cf05d31e454ccbb354fedaeb268b89208e9810a8938bfeb9"),
    ("solve --geometry spherical --dim 3 --aperture 2.5 --elements 32 --num-eigs 8", 0,
     "bc2a7ca441939960d1ccf58a83569f79a3b82387938167ad644ac057aff90525"),
    ("solve --geometry spherical --dim 2 --aperture 0.002 --elements 32", 0,
     "8eec3de78430681dbf899f5b28f6fdbffa14a704e373775293e61278a09ad9ff"),
    ("sweep --geometry spherical --dim 2 --aperture 0.5:3.0:0.5 --elements 32", 0,
     "58c0287fb6939a37da10976ee3c9ef1ac1cd908fb6b4f04ff9f1a1101e0eebe5"),
    ("sweep --geometry spherical --dim 5 --aperture 0.4:2.8:0.6 --elements 24 --num-eigs 4", 0,
     "4a964e419f64c8b149e2ffc63a255039bf3d0599c3ad98563159ccfec6a732f2"),
    ("identities --geometry spherical --dim 2 --aperture 1.0 --elements 64", 0,
     "f36e3a861b4658bb669a0b1af02c9f1838d060e5c5f7b6f75039400dcc604469"),
    ("identities --geometry spherical --dim 4 --aperture 2.0 --elements 32", 0,
     "97d7e506ac4983c9e80a04c96f60c83bb0e30cc4a9b0ddb20055b189049d8dc6"),
]


@pytest.mark.parametrize("command,code,digest", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_output_matches_the_recorded_digest(command, code, digest):
    rc, out, err = _run(*command.split())
    assert (rc, err) == (code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
