"""One cold pass of one workload in a fresh interpreter; prints one JSON line.

Usage: python3 bench/worker.py WORKLOAD SEED SHARDS TRACE WORKDIR

A fresh process per pass means no form-space basis or Bernoulli table from
an earlier pass is reused, as with one command-line call per pass, without
clearing any of the package's caches.  The pass's setup (imports and input
derivation) is timed from the top of this file.  An untraced pass reports
its setup, wall and CPU time also scaled to a fixed host speed (speed.py).
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> int:
    workload, seed, shards, trace, workdir = argv
    seed, shards, trace = int(seed), int(shards), trace == "1"
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [here, os.path.join(os.path.dirname(here), "src")]
    import speed

    # traced passes are not scaled, so the sampler stays out of their spans
    sampler = None if trace else speed.Sampler()
    if sampler is not None:
        sampler.start()
    import eiscomp  # noqa: F401  (imports are part of setup)
    import spans
    import workloads

    golden = workloads.load_golden()
    tracer = None
    if trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    inputs = workloads.draw_inputs(workload, seed, golden)
    t_setup = time.perf_counter()
    setup_s = raw_setup_s = t_setup - T_START
    if sampler is not None:
        sampler.stop()
        handler_wall, _, factor = sampler.scale(T_START, t_setup)
        setup_s = (setup_s - handler_wall) * factor

    try:
        # a sharded pass is sampled by its shards, not here (speed.py)
        stop = None
        if sampler is not None and shards == 1:
            sampler.start()
            stop = sampler.stop
        elif sampler is not None:
            stop = speed.sample_pair_scans(workdir)
        try:
            result = workloads.run_pass(workload, inputs, shards=shards, workdir=workdir, tracer=tracer)
        finally:
            if stop is not None:
                stop()
        attempted, failed, reasons = workloads.check_pass(workload, inputs, result, golden)
    except Exception as exc:  # the whole pass failed: every operation counts
        result = {"wall_s": None, "cpu_s": None, "child_cpu_s": None}
        attempted, failed = max(1, len(inputs["items"])), max(1, len(inputs["items"]))
        reasons = [f"pass raised {type(exc).__name__}: {exc}"]
    wall_s, cpu_s, child_cpu_s, factor = result["wall_s"], result["cpu_s"], result["child_cpu_s"], None
    if wall_s is not None and sampler is not None:
        sampler.read_runs(os.path.join(workdir, "speed-*.tsv"))
        handler_wall, handler_cpu, factor = sampler.scale(*result["span"])
        # the shards' handlers ran side by side: each delayed its own shard
        wall_s, cpu_s = wall_s - handler_wall / shards, cpu_s - handler_cpu
        if shards > 1:
            child_cpu_s -= handler_cpu
    out = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "speed": factor,
        "norm_wall_s": wall_s * factor if factor else None,
        "norm_cpu_s": cpu_s * factor if factor else None,
        "child_cpu_s": child_cpu_s,
        "peak_rss_mb": max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons,
        "items": [list(x) for x in inputs["items"]],
        "op_s": result.get("op_s"),
        "resume_s": result.get("resume_s"),
        "checkpoint_bytes": result.get("checkpoint_bytes"),
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.layer_stats()
        tracer.save(os.path.join(workdir, "spans.tsv"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
