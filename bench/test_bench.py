"""Tests of the benchmark's own code: span and speed arithmetic, golden checks, seeds.

Run with: PYTHONPATH=src python -m pytest bench/test_bench.py
"""

import inspect
import os
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_union_of_children():
    # root [0,10]; a [1,4] and b [3,6] overlap, covering [1,6]; a's child [2,3];
    # c [8,12] runs past the root and is clipped to [8,10]
    parent = [-1, 0, 0, 1, 0]
    start = [0.0, 1.0, 3.0, 2.0, 8.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    assert spans.self_times(parent, start, end) == [3.0, 2.0, 3.0, 1.0, 4.0]


def test_tracer_records_nested_spans_and_counts():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1, lambda args, kw: {"work": args[0]})
    outer = tracer.wrap("outer", lambda: inner(2) + inner(3))
    assert outer() == 7
    stats = tracer.layer_stats()
    assert stats["outer.calls"] == 1 and stats["inner.calls"] == 2
    assert stats["inner.work"] == 5
    assert list(tracer.parent) == [-1, 0, 0]
    total = tracer.end[0] - tracer.start[0]
    assert stats["outer.self_s"] + stats["inner.self_s"] == pytest.approx(total)


def test_speed_scale_uses_the_kernel_runs_inside_the_pass():
    start = [0.5, 1.5, 2.5, 3.5]
    wall = [0.002, 0.005, 0.003, 0.1]
    cpu = [0.001, 0.002, 0.002, 0.05]
    handler_wall, handler_cpu, factor = speed.scale(start, wall, cpu, 1.0, 3.0)
    assert handler_wall == pytest.approx(0.008) and handler_cpu == pytest.approx(0.004)
    assert factor == pytest.approx(speed.REF_KERNEL_S / 0.002)
    # a pass with no run inside it takes the factor of all runs and leaves its times whole
    assert speed.scale(start, wall, cpu, 10.0, 11.0) == (0, 0, pytest.approx(speed.REF_KERNEL_S / 0.01375))
    with pytest.raises(ValueError):
        speed.scale([], [], [], 0.0, 1.0)


def test_sampler_runs_the_kernel_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler()
    sampler.start()
    try:
        t_end = time.perf_counter() + 0.3
        while time.perf_counter() < t_end:
            pass
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sampler.start_s) == len(sampler.wall_s) == len(sampler.cpu_s) >= 2
    assert all(0 < c <= w for c, w in zip(sampler.cpu_s, sampler.wall_s))


def test_shards_sample_their_own_speed(tmp_path):
    from eiscomp import bernoulli, scan

    orig = bernoulli.pair_scan
    undo = speed.sample_pair_scans(str(tmp_path))
    try:
        records = scan.scan_range(5, 100, shards=2)
    finally:
        undo()
    assert bernoulli.pair_scan is orig and scan.pair_scan is orig
    assert records == scan.scan_range(5, 100)
    files = sorted(tmp_path.glob("speed-*.tsv"))
    assert files and f"speed-{os.getpid()}.tsv" not in {f.name for f in files}
    sampler = speed.Sampler()
    sampler.read_runs(str(tmp_path / "speed-*.tsv"))
    assert len(sampler.start_s) == len(sampler.cpu_s) >= len(files)


@pytest.fixture(scope="module")
def golden():
    return workloads.load_golden()


def test_golden_check_fails_on_perturbed_output(golden):
    inputs = {"items": [(37, 32)], "derived": [workloads.key(x) for x in golden["survey"]["derived"]]}
    text, ok = workloads.survey_output(37, 32)
    good = {"wall_s": 0.0, "outputs": [("37,32", text, ok)]}
    assert workloads.check_pass("survey", inputs, good, golden) == (1, 0, [])

    perturbed = text.replace('"socle_full":1', '"socle_full":2')
    assert perturbed != text
    bad = {"wall_s": 0.0, "outputs": [("37,32", perturbed, ok)]}
    attempted, failed, reasons = workloads.check_pass("survey", inputs, bad, golden)
    assert (attempted, failed) == (1, 1)
    assert reasons == ["37,32: output differs from golden"]


def test_default_seed_gives_the_named_inputs(golden):
    survey = workloads.draw_inputs("survey", 0, golden)["items"]
    assert len(survey) == 15 and survey[0] == (37, 32) and survey[-1] == (293, 156)
    assert {(37, 32), (59, 44), (67, 58), (101, 68), (103, 24), (131, 22)} <= set(survey)
    hecke = workloads.draw_inputs("hecke", 0, golden)["items"]
    assert hecke == [(7, 300), (11, 240), (13, 180), (37, 180), (101, 96)]
    assert workloads.draw_inputs("scan", 0, golden)["items"] == [(5, 4001)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seeds_draw_held_out_inputs_of_the_same_cost(workload, golden):
    default = workloads.draw_inputs(workload, 0, golden)
    for seed in (1, 2, 3):
        drawn = workloads.draw_inputs(workload, seed, golden)
        assert drawn == workloads.draw_inputs(workload, seed, golden)
        assert set(drawn["items"]) - set(default["items"])
        assert drawn["derived"] == default["derived"]
        if workload != "scan":
            g = golden[workload]
            cost = dict(zip(map(workloads.key, g["items"]), g["cost_s"]))
            total = lambda items: sum(cost[workloads.key(x)] for x in items)
            assert total(drawn["items"]) == pytest.approx(total(default["items"]), rel=2 * workloads.COST_TOLERANCE)


def test_seed_reaches_only_input_generation():
    assert "seed" in inspect.signature(workloads.draw_inputs).parameters
    for fn in (workloads.run_pass, workloads.check_pass):
        assert "seed" not in inspect.signature(fn).parameters
