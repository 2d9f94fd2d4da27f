"""eiscomp benchmark: survey, hecke and scan workloads, checked against golden outputs.

Usage (from the repository root):

    python3 bench/run.py --workload survey|hecke|scan --seed N --seconds S --trace 0|1

--trace 0 runs as many cold passes, each in a fresh interpreter, as fit in
S seconds (at least three), and reports the median over them of each
end-to-end metric: setup_s, norm_wall_s, norm_cpu_s and peak_rss_mb.  The
norm_ metrics are the pass's wall and CPU time scaled to a fixed host speed,
measured while the pass runs, in each of scan's shards; setup_s is scaled
alike (speed.py).  The raw times are in the summary line.

--trace 1 runs one untraced pass and two traced passes of the same
configuration (scan: one shard, in process, so the Bernoulli spans
are visible; plus one untraced two-shard pass for the shard metrics), and
reports the per-layer metrics of the first traced pass.  The work counts
of the two traced passes must agree exactly.

Every operation's output is compared with its digest in golden.json; any
difference or exception is a failed operation and makes the exit code 1.
The last line of stdout is the result as one JSON object; a line before
it records the machine, the inputs and the prediction table
(predictions.json), and a human summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_out")
BUDGET_S = 170  # every run must end within 180 s
MIN_PASSES = 3
COUNT_SUFFIXES = (".calls", ".packed_bytes", ".madds", ".field_ops", ".repeats")

sys.path.insert(0, HERE)
from workloads import SCAN_SHARDS, WORKLOADS  # noqa: E402


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_at_start": list(os.getloadavg()),
    }


class Runner:
    """Starts worker passes and keeps every pass's record."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.t0 = time.perf_counter()
        self.passes: list[dict] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def run(self, label: str, shards: int, trace: bool) -> dict:
        workdir = os.path.join(WORK, self.workload, f"{len(self.passes)}-{label}")
        os.makedirs(workdir)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), self.workload, str(self.seed), str(shards), "1" if trace else "0", workdir]
        # a process group of its own, so a timeout also stops the shard processes
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=max(5.0, BUDGET_S - self.elapsed()))
            lines = stdout.strip().splitlines()
            rec = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            error = None if rec else f"worker exited {proc.returncode}: {stderr.strip()[-2000:]}"
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            rec, error = None, "worker timed out"
        if rec is None:
            rec = {"attempted": 1, "failed": 1, "reasons": [error]}
        rec.update(label=label, shards=shards, trace=trace)
        self.passes.append(rec)
        return rec


def untraced_metrics(runner: Runner, seconds: float) -> dict:
    """Median of each end-to-end metric over the cold passes that fit in `seconds`."""
    shards = SCAN_SHARDS if runner.workload == "scan" else 1
    while len(runner.passes) < MIN_PASSES or runner.elapsed() * (1 + 1 / len(runner.passes)) <= seconds:
        runner.run("pass", shards, trace=False)
    ok = [p for p in runner.passes if p.get("norm_wall_s") is not None]
    if not ok:
        return {}
    return {m: statistics.median(p[m] for p in ok) for m in ("setup_s", "norm_wall_s", "norm_cpu_s", "peak_rss_mb")}


def traced_metrics(runner: Runner, names: list[str]) -> tuple[dict, list[str]]:
    """Per-layer metrics of the first traced pass, and self-check failures."""
    base = runner.run("untraced", 1, trace=False)
    shard = runner.run("shards", SCAN_SHARDS, trace=False) if runner.workload == "scan" else None
    a = runner.run("traced", 1, trace=True)
    b = runner.run("traced-again", 1, trace=True)
    if any(rec.get("wall_s") is None for rec in (base, a, b)) or "layers" not in b:
        return {}, ["a pass of the traced run failed"]
    problems = []
    counts = lambda rec: {k: v for k, v in rec["layers"].items() if k.endswith(COUNT_SUFFIXES)}
    if counts(a) != counts(b) or a["checkpoint_bytes"] != b["checkpoint_bytes"]:
        diff = sorted(k for k in set(counts(a)) | set(counts(b)) if counts(a).get(k) != counts(b).get(k))
        problems.append(f"unsteady: work counts differ between two traced passes: {diff}")

    layers = a["layers"]
    calls = layers.get("qexp.miller_basis.calls", 0)
    derived = {
        "qexp.miller_basis.repeat_ratio": layers.get("qexp.miller_basis.repeats", 0) / calls if calls else 0.0,
        "scan.checkpoint_bytes": a["checkpoint_bytes"] or 0,
        "trace.overhead_s": a["wall_s"] - base["wall_s"],
    }
    if shard is not None and shard.get("wall_s"):
        derived["scan.child_cpu_s"] = shard["child_cpu_s"]
        derived["scan.parallel_efficiency"] = shard["child_cpu_s"] / (SCAN_SHARDS * shard["wall_s"])
        derived["scan.resume_s"] = shard["resume_s"]
    values = {name: derived.get(name, layers.get(name, 0)) for name in names}
    return values, problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "eiscomp", "__init__.py")):
        print(f"bench: no eiscomp sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as fh:
        predictions = json.load(fh)

    info = machine()
    shutil.rmtree(os.path.join(WORK, args.workload), ignore_errors=True)
    runner = Runner(args.workload, args.seed)
    if args.trace:
        table = spec["per_layer"]
        values, problems = traced_metrics(runner, [m["name"] for m in table])
    else:
        table = spec["end_to_end"]
        values, problems = untraced_metrics(runner, args.seconds), []

    attempted = sum(p["attempted"] for p in runner.passes)
    failed = sum(p["failed"] for p in runner.passes)
    reasons = problems + [r for p in runner.passes for r in p.get("reasons", [])]
    correct = failed == 0 and not reasons and len(values) == len(table)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in table}

    summary = {
        "machine": info,
        "workload": args.workload,
        "seed": args.seed,
        "inputs": runner.passes[0].get("items"),
        "passes": [{k: p.get(k) for k in ("label", "shards", "raw_setup_s", "setup_s", "wall_s", "cpu_s", "speed", "norm_wall_s", "norm_cpu_s", "peak_rss_mb", "attempted", "failed", "op_s")} for p in runner.passes],
        "predictions": predictions,
    }
    print(json.dumps(summary))
    for r in reasons[:20]:
        print(f"bench: FAIL {r}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"bench: {args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"bench: {args.workload} error_rate = {failed / attempted:.4g} ({failed}/{attempted})", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
