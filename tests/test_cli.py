"""Command-line interface: formats, determinism, exit codes."""

import io
import json

import pytest

import capspectra
from capspectra import cli


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    rc = cli.main(list(argv), out=out, err=err)
    return rc, out.getvalue(), err.getvalue()


SOLVE_ARGS = ("solve", "--geometry", "flat", "--dim", "2", "--aperture", "1.0",
              "--elements", "48", "--l-max", "2", "--num-eigs", "3")


def test_solve_emits_valid_json_with_expected_layout():
    rc, out, err = _run(*SOLVE_ARGS)
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert set(doc) == {"meta", "spectrum", "bounds"}
    assert doc["meta"]["tool"] == "capspectra"
    assert doc["meta"]["version"] == capspectra.__version__
    cfg = doc["meta"]["config"]
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
                      "--elements", "256", "--l-max", "2", "--num-eigs", "2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["spectrum"][0]["lambda"] == pytest.approx(14.6819706, rel=1e-6)


def test_solve_spherical_includes_cap_rows():
    rc, out, _ = _run("solve", "--geometry", "spherical", "--dim", "2", "--aperture", "1.0",
                      "--elements", "48", "--l-max", "2", "--num-eigs", "2")
    assert rc == 0
    doc = json.loads(out)
    ids = [row["bound_id"] for row in doc["bounds"]]
    assert "thm_1_1" in ids and "cor_1_2" in ids and "cor12_vs_hlc_k1" in ids
    assert ids.count("wang_xia") == 3


def test_solve_skipped_rows_stay_out_of_the_output():
    # two computed eigenvalues starve the deeper euclidean inequalities, whose
    # rows would hold NaN sides; the writer drops them instead
    rc, out, _ = _run("solve", "--geometry", "flat", "--dim", "2", "--aperture", "1.0",
                      "--elements", "48", "--l-max", "1", "--num-eigs", "2")
    assert rc == 0
    doc = json.loads(out)
    ids = [row["bound_id"] for row in doc["bounds"]]
    assert "ashbaugh" not in ids
    assert ids.count("cheng_yang") == 1
    for row in doc["bounds"]:
        assert all(not isinstance(v, float) or v == v for v in row.values())


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
                        "--aperture", "0.5:3.0:0.5", "--elements", "48",
                        "--l-max", "3", "--num-eigs", "2")
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


def test_sweep_is_deterministic():
    args = ("sweep", "--geometry", "spherical", "--dim", "3",
            "--aperture", "1.0:2.0:0.5", "--elements", "32", "--l-max", "2")
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


def test_identities_use_and_echo_l_max():
    base = ("identities", "--geometry", "spherical", "--dim", "3", "--aperture", "1.0",
            "--elements", "32")
    rc6, out6, _ = _run(*base)
    rc1, out1, _ = _run(*base, "--l-max", "1")
    assert rc6 == rc1 == 0
    doc6, doc1 = json.loads(out6), json.loads(out1)
    # sectors 0 and 1 already certify lam2, so the rows do not change
    assert doc1["identities"] == doc6["identities"]
    assert doc6["meta"]["config"]["l_max"] == 6
    assert doc1["meta"]["config"]["l_max"] == 1
    # sector 0 alone cannot certify lam2
    rc0, out0, err0 = _run(*base, "--l-max", "0")
    assert rc0 == 3 and out0 == ""
    assert err0.startswith("error: ") and "raise l_max" in err0


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


def test_solver_failure_exits_three():
    # one sector cannot certify four eigenvalues of the disk: the merge
    # refuses the truncation, and the CLI reports it instead of raising
    rc, out, err = _run("solve", "--geometry", "flat", "--dim", "2", "--aperture", "1",
                        "--elements", "32", "--l-max", "0", "--num-eigs", "4")
    assert rc == 3
    assert out == ""
    assert err.startswith("error: ") and "raise l_max" in err
    assert err.count("\n") == 1


def test_unknown_subcommand_exits_two():
    rc, _, _ = _run("polish")
    assert rc == 2


def test_missing_required_flag_exits_two():
    rc, _, _ = _run("solve", "--geometry", "flat", "--dim", "2")
    assert rc == 2
