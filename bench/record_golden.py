"""Write golden.json: digests of every pool item's output, and its cost.

Usage: python3 bench/record_golden.py   (from the repository root)

Run it on a commit whose outputs are trusted.  Every item is computed in
REPEATS fresh processes; the digests must agree, and the recorded cost is
the median of its times, scaled to a fixed host speed as the benchmark's
passes are (speed.py).  Only cost ratios are used, to draw held-out inputs
that cost about as much as the default ones.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time

REPEATS = 3
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import speed  # noqa: E402
import workloads  # noqa: E402
from workloads import digest, key  # noqa: E402


def timed(sampler, fn, *args):
    """fn(*args) and its wall time scaled to the fixed host speed.

    An item shorter than the sampling interval takes the speed of all the
    kernel runs so far.
    """
    t0 = time.perf_counter()
    out = fn(*args)
    t1 = time.perf_counter()
    handler_wall, _, factor = sampler.scale(t0, t1)
    return out, (t1 - t0 - handler_wall) * factor


def record_items(sampler, items, run_one) -> dict:
    costs, digests = [], {}
    for item in items:
        (text, ok), cost = timed(sampler, run_one, *item)
        if not ok:
            raise SystemExit(f"{item}: asserted property fails; not recording")
        digests[key(item)] = digest(text)
        costs.append(round(cost, 4))
    return {"items": [list(x) for x in items], "cost_s": costs, "digests": digests}


def record_once() -> dict:
    sampler = speed.Sampler()
    sampler.start()
    try:
        pairs = workloads.survey_pairs()
        survey = record_items(sampler, pairs, workloads.survey_output)
        survey["derived"] = [list(x) for x in pairs]

        weights = sorted({k for _, k in workloads.HECKE_DEFAULT})
        points = [(p, k) for k in weights for p in workloads.HECKE_POOL_PRIMES]
        points += [workloads.hecke_tp_point(p) for p in workloads.HECKE_TP_PRIMES]
        hecke = record_items(sampler, points, workloads.hecke_output)
        hecke["derived"] = []
    finally:
        sampler.stop()

    primes = workloads.scan_primes()
    records = workloads.scan_outputs(primes[0], primes[-1], 1, None)
    scan = {
        "derived": [[p] for p in primes],
        "digests": {key((r.p,)): digest(workloads.record_csv(r)) for r in records},
    }

    return {"survey": survey, "hecke": hecke, "scan": scan}


def main() -> int:
    runs = []
    for _ in range(REPEATS):
        out = subprocess.run([sys.executable, __file__, "--once"], check=True, capture_output=True, text=True)
        runs.append(json.loads(out.stdout))
    golden = runs[0]
    for name in ("survey", "hecke", "scan"):
        if any(run[name]["digests"] != golden[name]["digests"] for run in runs):
            raise SystemExit(f"{name}: digests differ between repeats; not recording")
    for name in ("survey", "hecke"):
        golden[name]["cost_s"] = [statistics.median(c) for c in zip(*(run[name]["cost_s"] for run in runs))]
    golden["recorded_on"] = {"python": platform.python_version(), "repeats": REPEATS}
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--once"]:
        print(json.dumps(record_once()))
        sys.exit(0)
    sys.exit(main())
