"""Command-line surface: exit codes, output shapes, usage errors."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eiscomp
from eiscomp.cli import main
from eiscomp.errors import NotLocalError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_basis_37_32(capsys):
    code, out, err = run(capsys, "basis", "--p", "37", "--k", "32")
    assert code == 0
    blob = json.loads(out)
    assert blob["dim"] == 3
    assert len(blob["rows"]) == 3
    assert "dim 3" in err


def test_basis_weight4(capsys):
    code, out, _ = run(capsys, "basis", "--p", "5", "--k", "4")
    assert code == 0
    assert json.loads(out)["dim"] == 1


def test_basis_odd_weight_is_usage_error(capsys):
    code, _, err = run(capsys, "basis", "--p", "5", "--k", "3")
    assert code == 2
    assert "error" in err


def test_basis_cannot_opt_into_unsoundness(capsys):
    # a precision below the weight bound sturm(48) = 5 is the library's PrecisionError,
    # exit 2 with its one error line; 0 is such a precision, not the default
    for prec in ("1", "0"):
        code, out, err = run(capsys, "basis", "--p", "11", "--k", "48", "--prec", prec)
        assert code == 2 and out == ""
        assert err == f"error: precision {prec} below the weight-48 bound 5\n"
    code, out, _ = run(capsys, "basis", "--p", "11", "--k", "48")
    assert code == 0 and json.loads(out)["precision"] == 5


def test_companion_37_32(capsys):
    code, out, _ = run(capsys, "companion", "--p", "37", "--k", "32")
    assert code == 0
    blob = json.loads(out)
    assert blob["c_m_prime"] == 1 and blob["c_m"] == 1
    assert blob["plan"]["bound"] == (32 + 6 * 38) // 12 + 1


def test_companion_regular(capsys):
    code, out, _ = run(capsys, "companion", "--p", "37", "--k", "4")
    assert code == 0
    assert json.loads(out)["c_m"] == 1


def test_companion_out_of_range(capsys):
    code, _, err = run(capsys, "companion", "--p", "7", "--k", "8")
    assert code == 2


def test_structure_command(capsys):
    code, out, _ = run(capsys, "structure", "--p", "37", "--k", "32")
    assert code == 0
    blob = json.loads(out)
    assert blob["gorenstein_full"] is True
    assert blob["eis_ideal_min_gens"] == 1


def test_structure_csv(capsys):
    code, out, _ = run(capsys, "structure", "--p", "37", "--k", "32", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "p,k,dimM_m,dimS_m,c_m_prime,gor_H,gor_h,min_gens"


def test_hecke_command(capsys):
    code, out, _ = run(capsys, "hecke", "--p", "13", "--k", "16")
    assert code == 0
    blob = json.loads(out)
    assert blob["dim"] == 2 and blob["duality_rank"] == 2


def test_hecke_command_reports_degenerate_duality(capsys):
    # k = 0 mod p-1: the pairing drops rank and is reported, not asserted
    code, out, _ = run(capsys, "hecke", "--p", "13", "--k", "12")
    assert code == 0
    blob = json.loads(out)
    assert blob["dim"] == 2 and blob["duality_rank"] == 1


def test_scan_command_csv(capsys, tmp_path):
    out_file = tmp_path / "scan.csv"
    code, _, err = run(
        capsys, "scan", "--min", "5", "--max", "120", "--out", str(out_file)
    )
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("p,irregular_indices,pair_hits,half_index_ok\n")
    assert "37,32,," in text
    assert "scanned" in err


def test_scan_json_format(capsys):
    code, out, _ = run(capsys, "scan", "--min", "5", "--max", "40", "--format", "json")
    assert code == 0
    parsed = json.loads(out)
    assert [r["p"] for r in parsed] == [5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def test_specialize_command(capsys):
    code, out, _ = run(capsys, "specialize", "--p", "7", "--d", "2")
    assert code == 0
    blob = json.loads(out)
    assert blob["ok"] is True and blob["weight"] == 4


def test_specialize_odd_d_rejected(capsys):
    code, _, _ = run(capsys, "specialize", "--p", "7", "--d", "3")
    assert code == 2


SPECIALIZE_PRECISION_ERRORS = {
    "--digits -1": "precision must be at least one digit",
    "--qprec -3": "need a non-negative number of q-coefficients, got -3",
    "--trunc 0 --qprec 1": "need at least the constant coefficient",
    "--digits 0": "precision must be at least one digit",
    "--trunc 0": "need at least the constant coefficient",
}


@pytest.mark.parametrize("flags", SPECIALIZE_PRECISION_ERRORS)
def test_specialize_precision_out_of_scope_exits_2(capsys, flags):
    # checked when the family is built, before any work: one error line, no traceback
    message = SPECIALIZE_PRECISION_ERRORS[flags]
    code, out, err = run(capsys, "specialize", "--p", "7", "--d", "2", *flags.split())
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_selftest_is_not_a_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selftest"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_structure_fault_exits_one(capsys, monkeypatch):
    # a report carrying a broken equivalence must turn into exit code 1
    import eiscomp.cli as cli
    from eiscomp.localstruct import structure_report

    def doctored(p, k):
        rep = structure_report(p, k)
        rep.equivalence_failures = ["injected fault"]
        return rep

    monkeypatch.setattr(cli, "structure_report", doctored)
    code, _, err = run(capsys, "structure", "--p", "37", "--k", "32")
    assert code == 1
    assert "injected fault" in err


@pytest.mark.parametrize(
    "error, code",
    [
        (NotLocalError("a maximal-ideal generator is not nilpotent"), 1),
        (AssertionError("basis corrupt"), 1),
        (ValueError("out of scope"), 2),
    ],
)
def test_structure_internal_errors_exit_codes(capsys, monkeypatch, error, code):
    import eiscomp.cli as cli

    def failing(p, k):
        raise error

    monkeypatch.setattr(cli, "structure_report", failing)
    got, out, err = run(capsys, "structure", "--p", "37", "--k", "32")
    assert got == code
    assert out == ""
    assert err == f"error: {error}\n"


SCOPE_ERRORS = [
    ["basis", "--p", "5", "--k", "3"],
    ["basis", "--p", "5", "--k", "12", "--digits", "0"],
    ["basis", "--p", "5", "--k", "12", "--digits", "-1"],
    ["hecke", "--p", "37", "--k", "2"],
    *[
        [cmd, "--p", str(p), "--k", str(k)]
        for cmd in ("companion", "structure")
        for p, k in ((7, 8), (37, 36), (37, 31), (37, 2))
    ],
    ["specialize", "--p", "7", "--d", "3"],
    ["specialize", "--p", "7", "--d", "6"],
]


@pytest.mark.parametrize("argv", SCOPE_ERRORS, ids=" ".join)
def test_scope_errors_are_library_value_errors_exiting_2(capsys, argv):
    # the commands make no checks of their own: the library's ValueError is exit 2
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_scope_check_survives_python_O():
    # python -O strips assert statements; the one weight check left must still raise
    src = str(Path(eiscomp.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def structure(k):
        argv = [sys.executable, "-O", "-m", "eiscomp.cli", "structure", "--p", "37", "--k", str(k)]
        return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)

    bad = structure(36)
    assert bad.returncode == 2 and bad.stdout == ""
    assert bad.stderr.startswith("error: ") and "Traceback" not in bad.stderr
    good = structure(32)
    assert good.returncode == 0, good.stderr
    assert json.loads(good.stdout)["all_asserted_hold"]


def test_scan_corrupt_checkpoint_is_usage_error(capsys, tmp_path):
    ck = tmp_path / "scan.ck"
    code, _, _ = run(capsys, "scan", "--min", "5", "--max", "60", "--checkpoint", str(ck))
    assert code == 0
    _, payload = ck.read_text().splitlines()[0].split(" ", 1)
    ck.write_text("0" * 64 + " " + payload + "\n")  # digest no longer matches
    code, out, err = run(capsys, "scan", "--min", "5", "--max", "60", "--checkpoint", str(ck))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "content hash mismatch" in err and "Traceback" not in err


def assert_unopenable_path_is_usage_error(capsys, path, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err and "Traceback" not in err
    assert not path.parent.exists()
    return out


def test_basis_out_path_that_cannot_be_opened_exits_2(capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    out = assert_unopenable_path_is_usage_error(capsys, path, "basis", "--p", "7", "--k", "4", "--out", str(path))
    assert out == ""


def test_scan_checkpoint_that_cannot_be_opened_exits_2(capsys, tmp_path):
    path = tmp_path / "missing" / "c"
    out = assert_unopenable_path_is_usage_error(
        capsys, path, "scan", "--min", "5", "--max", "60", "--checkpoint", str(path)
    )
    assert out == ""


def test_witness_csv_path_that_cannot_be_opened_exits_2(capsys, tmp_path):
    # the witness path is checked before the report is written
    path = tmp_path / "missing" / "w.csv"
    out = assert_unopenable_path_is_usage_error(
        capsys, path, "companion", "--p", "37", "--k", "32", "--witness-csv", str(path)
    )
    assert out == ""


def test_unopenable_out_fails_before_the_report_runs(capsys, monkeypatch, tmp_path):
    import eiscomp.cli as cli

    monkeypatch.setattr(cli, "structure_report", lambda p, k: pytest.fail("the report ran"))
    path = tmp_path / "missing" / "x.json"
    out = assert_unopenable_path_is_usage_error(
        capsys, path, "structure", "--p", "491", "--k", "292", "--out", str(path)
    )
    assert out == ""


def test_unopenable_witness_csv_fails_before_the_report_runs(capsys, monkeypatch, tmp_path):
    import eiscomp.cli as cli

    monkeypatch.setattr(cli, "companion_report", lambda p, k: pytest.fail("the report ran"))
    path = tmp_path / "missing" / "w.csv"
    out = assert_unopenable_path_is_usage_error(
        capsys, path, "companion", "--p", "37", "--k", "32", "--witness-csv", str(path)
    )
    assert out == ""


def test_output_check_leaves_the_files_as_they_were_when_the_command_fails(capsys, tmp_path):
    kept, fresh = tmp_path / "kept.json", tmp_path / "fresh.csv"
    kept.write_text("keep")
    code, _, _ = run(capsys, "companion", "--p", "7", "--k", "8", "--out", str(kept), "--witness-csv", str(fresh))
    assert code == 2
    assert kept.read_text() == "keep" and not fresh.exists()


def test_scan_pair_hit_exits_one(capsys, monkeypatch):
    import eiscomp.cli as cli
    from eiscomp.bernoulli import ScanRecord

    def doctored(p_min, p_max, shards=1, checkpoint=None):
        return [ScanRecord(p=37, irregular_indices=(4, 34), pair_hits=((4, 34),), half_index_ok=None)]

    monkeypatch.setattr(cli, "scan_range", doctored)
    code, _, _ = run(capsys, "scan", "--min", "5", "--max", "40")
    assert code == 1


def test_witness_csv_flag(capsys, tmp_path):
    path = tmp_path / "wit.csv"
    code, _, _ = run(
        capsys, "companion", "--p", "37", "--k", "32", "--witness-csv", str(path)
    )
    assert code == 0
    assert path.read_text().startswith("pair,side,weight,a0")


def test_scan_dead_shard_exits_one_with_one_error_line(capsys, monkeypatch):
    import os

    import eiscomp.scan as scan

    real = scan.pair_scan

    def dying(p):
        if p == 7:
            os._exit(3)  # the shard process ends without a Python exception
        return real(p)

    monkeypatch.setattr(scan, "pair_scan", dying)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # a pool even on one core
    code, out, err = run(capsys, "scan", "--min", "5", "--max", "30", "--shards", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_scan_dead_shard_keeps_the_primes_finished_before_it(capsys, monkeypatch, tmp_path):
    import os
    import time

    import eiscomp.scan as scan
    from eiscomp.scan import load_checkpoint, records_to_csv, scan_range

    ck = tmp_path / "scan.ck"
    real = scan.pair_scan

    def dying(p):
        if p == 29:
            # die only once the parent has checkpointed a record, so nothing races
            deadline = time.monotonic() + 30
            while not (ck.exists() and ck.stat().st_size) and time.monotonic() < deadline:
                time.sleep(0.01)
            os._exit(3)
        return real(p)

    monkeypatch.setattr(scan, "pair_scan", dying)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    argv = ["scan", "--min", "5", "--max", "60", "--checkpoint", str(ck)]
    code, out, err = run(capsys, *argv, "--shards", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    kept = load_checkpoint(str(ck))  # every line hash-valid
    assert kept and max(kept) < 29
    monkeypatch.setattr(scan, "pair_scan", real)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == records_to_csv(scan_range(5, 60))
