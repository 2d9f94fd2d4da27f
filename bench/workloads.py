"""The benchmark's workloads: inputs from a seed, one pass, golden checks.

survey  structure_report(p, k) over irregular pairs as the scanner finds them.
hecke   hecke_report(p, k) at small p and large weight, plus one point
        where t_p_redundancy_check runs.
scan    scan_range over a window of 549 primes, two shards, fresh checkpoint.

Seed 0 gives the default inputs.  Any other seed draws held-out inputs of
the same shape and about the same cost, so that seeds differ in inputs and
not in run time: survey draws irregular pairs p < 360, no one larger than
the default's largest, and hecke keeps the default's weights and picks
other small primes and another t_p point, until the recorded cost of the
default set is matched within COST_TOLERANCE; scan moves its window up by
a few primes.  The seed reaches `draw_inputs` only; `run_pass` gets the
inputs alone.

Every output of every pool item is recorded in golden.json as a digest of
its canonical text (record_golden.py writes the file).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import time

WORKLOADS = ("survey", "hecke", "scan")
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# survey: pairs are derived for every prime below SURVEY_POOL_P; the default
# set is the pairs with p < SURVEY_DEFAULT_P
SURVEY_POOL_P = 360
SURVEY_DEFAULT_P = 300
# a held-out survey takes no pair costing more than this share of the default
# pass, about the share of the default's largest pair, (293,156); the larger
# pairs above p = 300 would change the pass's shape and its peak memory
SURVEY_MAX_SHARE = 0.25
HECKE_DEFAULT = [(7, 300), (11, 240), (13, 180), (37, 180)]
HECKE_TP_DEFAULT = (101, 96)
HECKE_POOL_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
HECKE_TP_PRIMES = (97, 101, 103, 107, 109, 113)
SCAN_COUNT = 549
SCAN_MAX_OFFSET = 6
SCAN_SHARDS = 2
COST_TOLERANCE = 0.015


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def key(item) -> str:
    return ",".join(str(x) for x in item)


# ---------------------------------------------------------------------------
# inputs


def survey_pairs() -> list[tuple[int, int]]:
    """Irregular pairs (p, k), p < SURVEY_POOL_P, as the scanner derives them."""
    from eiscomp.bernoulli import irregular_indices
    from eiscomp.scan import primes_in

    return [(p, k) for p in primes_in(5, SURVEY_POOL_P - 1) for k in irregular_indices(p)]


def hecke_tp_point(p: int) -> tuple[int, int]:
    """A point where t_p_redundancy_check runs: weight p-5 <= p-2."""
    return (p, p - 5)


def scan_primes() -> list[int]:
    from eiscomp.scan import primes_in

    primes = primes_in(5, 5000)
    return primes[: SCAN_COUNT + SCAN_MAX_OFFSET]


def cost_matched(pool: dict[str, float], target: float, rng: random.Random, default: set[str]) -> list[str]:
    """Items of `pool` whose costs add up to `target` within COST_TOLERANCE.

    Items are taken in a seeded random order and skipped when they would
    overshoot; the draw repeats until it lands in the window and holds an
    item outside `default`.
    """
    lo, hi = target * (1 - COST_TOLERANCE), target * (1 + COST_TOLERANCE)
    items = sorted(pool)
    for _ in range(10000):
        rng.shuffle(items)
        chosen, total = [], 0.0
        for item in items:
            if total + pool[item] <= hi:
                chosen.append(item)
                total += pool[item]
            if total >= lo:
                break
        if total >= lo and not set(chosen) <= default:
            return chosen
    raise RuntimeError("no cost-matched draw found")


def hecke_held_out(costs: dict[str, float], rng: random.Random) -> list[tuple[int, int]]:
    """The default's weights with other small primes, and another t_p point,
    of the same total recorded cost within COST_TOLERANCE."""
    default = HECKE_DEFAULT + [HECKE_TP_DEFAULT]
    target = sum(costs[key(x)] for x in default)
    for _ in range(100000):
        primes = rng.sample(HECKE_POOL_PRIMES, len(HECKE_DEFAULT))
        items = [(p, k) for p, (_, k) in zip(primes, HECKE_DEFAULT)]
        items.append(hecke_tp_point(rng.choice(HECKE_TP_PRIMES)))
        total = sum(costs[key(x)] for x in items)
        if abs(total - target) <= COST_TOLERANCE * target and items != default:
            return items
    raise RuntimeError("no cost-matched draw found")


def draw_inputs(workload: str, seed: int, golden: dict) -> dict:
    """The inputs of one workload for one seed; seed 0 is the default set.

    Also returns `derived`, the scanner-derived pair or prime list, which
    the pass checks against golden.json: a wrong derivation is a failure
    of the program, not a different input.
    """
    rng = random.Random(f"{workload}:{seed}")
    g = golden[workload]
    if workload == "survey":
        costs = {key(x): c for x, c in zip(g["items"], g["cost_s"])}
        default = [key(x) for x in g["items"] if x[0] < SURVEY_DEFAULT_P]
        if seed == 0:
            chosen = default
        else:
            target = sum(costs[c] for c in default)
            pool = {c: v for c, v in costs.items() if v <= SURVEY_MAX_SHARE * target}
            chosen = cost_matched(pool, target, rng, set(default))
        items = sorted(tuple(map(int, c.split(","))) for c in chosen)
        return {"items": items, "derived": [key(x) for x in survey_pairs()]}
    if workload == "hecke":
        costs = {key(x): c for x, c in zip(g["items"], g["cost_s"])}
        default = HECKE_DEFAULT + [HECKE_TP_DEFAULT]
        items = default if seed == 0 else hecke_held_out(costs, rng)
        return {"items": list(items), "derived": []}
    if workload == "scan":
        primes = scan_primes()
        offset = 0 if seed == 0 else rng.randint(1, SCAN_MAX_OFFSET)
        window = primes[offset : offset + SCAN_COUNT]
        return {"items": [(window[0], window[-1])], "derived": [key((p,)) for p in primes]}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# one pass


def survey_output(p: int, k: int) -> tuple[str, bool]:
    from eiscomp.localstruct import structure_report

    report = structure_report(p, k)
    return canonical(report.to_json()), report.all_asserted_hold


def hecke_output(p: int, k: int) -> tuple[str, bool]:
    from eiscomp.hecke import hecke_report

    return canonical(hecke_report(p, k)), True


def scan_outputs(lo: int, hi: int, shards: int, checkpoint: str) -> list:
    from eiscomp.scan import scan_range

    return scan_range(lo, hi, shards=shards, checkpoint=checkpoint)


def record_csv(record) -> str:
    from eiscomp.scan import records_to_csv

    return records_to_csv([record])


def cpu_times() -> tuple[float, float]:
    """CPU seconds of this process and of its reaped children (the shards)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def run_pass(workload: str, inputs: dict, *, shards: int, workdir: str, tracer=None) -> dict:
    """Run one pass over the inputs; time it; return outputs for checking.

    The returned dict holds `wall_s`, `span` (its perf_counter start and
    end), `cpu_s` (this process and the shard processes), `child_cpu_s`
    (the shards alone), `outputs` (one (key, text, ok) per
    operation; text None when the operation raised), `op_s` (seconds per
    operation, survey and hecke) and, for scan,
    `records`, `resumed_equal`, `resume_s` and `checkpoint_bytes`.
    """
    outputs: list[tuple[str, str | None, bool]] = []
    op_s: list[float] = []
    result: dict = {"op_s": op_s}
    cpu0, child0 = cpu_times()
    t0 = time.perf_counter()
    if workload in ("survey", "hecke"):
        run_one = survey_output if workload == "survey" else hecke_output
        for i, (p, k) in enumerate(inputs["items"]):
            if tracer is not None:
                tracer.current_op = i
            t_op = time.perf_counter()
            try:
                text, ok = run_one(p, k)
            except Exception as exc:  # a failed operation is counted, not fatal
                text, ok = None, False
                result.setdefault("errors", []).append(f"{p},{k}: {type(exc).__name__}: {exc}")
            op_s.append(time.perf_counter() - t_op)
            outputs.append((key((p, k)), text, ok))
        t1 = time.perf_counter()
        cpu1, child1 = cpu_times()
    else:
        (lo, hi), = inputs["items"]
        checkpoint = os.path.join(workdir, "scan.ck")
        if tracer is not None:
            tracer.current_op = 0
        records = scan_outputs(lo, hi, shards, checkpoint)
        t1 = time.perf_counter()
        cpu1, child1 = cpu_times()
        if tracer is not None:
            tracer.current_op = 1
        t1 = time.perf_counter()
        resumed = scan_outputs(lo, hi, shards, checkpoint)
        result["resume_s"] = time.perf_counter() - t1
        result["checkpoint_bytes"] = os.path.getsize(checkpoint)
        for rec in records:
            outputs.append((key((rec.p,)), record_csv(rec), not rec.pair_hits))
        result["records"] = [rec.p for rec in records]
        result["resumed_equal"] = resumed == records
    result["wall_s"] = t1 - t0
    result["span"] = (t0, t1)
    result["cpu_s"] = cpu1 - cpu0 + child1 - child0
    result["child_cpu_s"] = child1 - child0
    result["outputs"] = outputs
    return result


def check_pass(workload: str, inputs: dict, result: dict, golden: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons): every operation against its golden digest."""
    g = golden[workload]
    reasons: list[str] = list(result.get("errors", []))
    expected = g["digests"]
    if inputs["derived"] != [key(x) for x in g["derived"]]:
        reasons.append("derived input list differs from golden")
    if workload == "scan":
        (lo, hi), = inputs["items"]
        window = [x[0] for x in g["derived"] if lo <= x[0] <= hi]
        attempted = len(window)
        if result["records"] != window:
            reasons.append("merged records are not the window's primes in order")
        if not result["resumed_equal"]:
            reasons.append("resumed records differ from fresh ones")
    else:
        attempted = len(inputs["items"])
    failed = attempted - sum(
        1 for k, text, ok in result["outputs"] if ok and text is not None and expected.get(k) == digest(text)
    )
    for k, text, ok in result["outputs"]:
        if text is not None and expected.get(k) != digest(text):
            reasons.append(f"{k}: output differs from golden")
        elif not ok:
            reasons.append(f"{k}: asserted property fails")
    if reasons:
        failed = max(failed, 1)
    return attempted, failed, reasons
