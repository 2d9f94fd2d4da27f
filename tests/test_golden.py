"""The benchmark's recorded output digests, recomputed in the test suite.

A change that alters a report fails here, not only in a benchmark run.
bench/golden.json and bench/workloads.py are read, never written.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_hecke_reports_match_the_golden_digests(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    golden = workloads.load_golden()
    items = workloads.draw_inputs("hecke", 0, golden)["items"]
    assert len(items) == 5
    digests = golden["hecke"]["digests"]
    for p, k in items:
        text, _ = workloads.hecke_output(p, k)
        assert workloads.digest(text) == digests[workloads.key((p, k))], (p, k)
