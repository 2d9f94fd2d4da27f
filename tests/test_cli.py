"""Command-line surface: exit codes, output shapes, usage errors."""

import json

import pytest

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
    code, out, _ = run(capsys, "basis", "--p", "11", "--k", "48", "--prec", "1")
    assert code == 0
    assert json.loads(out)["precision"] >= 5  # floored at the weight bound


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


def test_selftest(capsys):
    code, _, err = run(capsys, "selftest")
    assert code == 0
    assert "PASS" in err and "FAIL " not in err


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
