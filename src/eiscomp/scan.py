"""Batch scanning of primes: worker processes, checkpointing, ordered merge.

Work is embarrassingly parallel: with more than one shard, the primes go
one at a time, in ascending order, to a pool of at most `shards` worker
processes (and no more than the usable cores), and their records come
back in the same order, so the CSV/JSON output is byte-identical for any
shard count.  The checkpoint file holds one line per completed prime,
`<sha256-of-payload> <payload-json>`, sorted by p, and each record is
appended and flushed as it arrives, so a killed run or a dead worker
keeps every prime finished before it.  A resumed run recomputes nothing
that already checkpointed; any hash mismatch aborts loudly.  A final line
without its newline is what a run killed mid-append leaves behind: it is
ignored, and cut off before the next append.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from collections.abc import Iterable, Iterator

from .bernoulli import SCAN_CSV_HEADER, ScanRecord, pair_scan
from .errors import CheckpointError


def primes_in(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi] by a plain sieve; only p >= 5 are of interest."""
    lo = max(lo, 5)
    if hi < lo:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(hi**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, hi + 1, i)))
    return [n for n in range(lo, hi + 1) if sieve[n]]


def _canonical(record: ScanRecord) -> str:
    return json.dumps(record.to_dict(), sort_keys=True, separators=(",", ":"))


def _checkpoint_line(record: ScanRecord) -> str:
    payload = _canonical(record)
    digest = hashlib.sha256(payload.encode()).hexdigest()
    return f"{digest} {payload}\n"


def _complete_lines(data: bytes) -> bytes:
    """data up to and including its last newline, dropping a torn final line."""
    return data[: data.rfind(b"\n") + 1]


def load_checkpoint(path: str) -> dict[int, ScanRecord]:
    """Completed records from a checkpoint file, hash-verified per line."""
    done: dict[int, ScanRecord] = {}
    if not os.path.exists(path):
        return done
    with open(path, "rb") as fh:
        text = _complete_lines(fh.read()).decode("utf-8")
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        try:
            digest, payload = line.split(" ", 1)
        except ValueError:
            raise CheckpointError(f"{path}:{lineno}: malformed line") from None
        if hashlib.sha256(payload.encode()).hexdigest() != digest:
            raise CheckpointError(f"{path}:{lineno}: content hash mismatch")
        record = ScanRecord.from_dict(json.loads(payload))
        done[record.p] = record
    return done


def _scan_one(p: int) -> dict:
    # the module-level name, so a wrapped pair_scan also runs in workers
    return pair_scan(p).to_dict()


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def scan_range(
    p_min: int,
    p_max: int,
    shards: int = 1,
    checkpoint: str | None = None,
) -> list[ScanRecord]:
    """Scan every prime in [p_min, p_max]; resumable and shard-invariant.

    With shards > 1 the primes run in worker processes (falling back to
    in-process execution where process pools are unavailable).  Each
    record is checkpointed as soon as it and every smaller prime are done.
    The returned list is sorted by p regardless of scheduling.
    """
    if p_max < p_min:
        return []
    if shards < 1:
        raise ValueError("shard count must be positive")
    primes = primes_in(p_min, p_max)
    done = load_checkpoint(checkpoint) if checkpoint else {}
    todo = [p for p in primes if p not in done]

    fresh: list[ScanRecord] = []
    with contextlib.ExitStack() as stack:
        fh = None
        if checkpoint and todo:
            fh = stack.enter_context(open(checkpoint, "a+b"))
            fh.seek(0)
            fh.truncate(len(_complete_lines(fh.read())))
        for rec in _scan_in_order(todo, min(shards, len(todo), _usable_cores()), stack):
            fresh.append(rec)
            if fh is not None:
                fh.write(_checkpoint_line(rec).encode())
                fh.flush()

    wanted = set(primes)
    merged = {p: r for p, r in done.items() if p in wanted}
    merged.update({r.p: r for r in fresh})
    return [merged[p] for p in sorted(merged)]


def _scan_in_order(
    primes: list[int], workers: int, stack: contextlib.ExitStack
) -> Iterator[ScanRecord]:
    """The record of each prime, in input order; a pool lives on `stack`."""
    if workers > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=workers)
            # on an early exit, queued primes are dropped, not computed
            stack.callback(pool.shutdown, cancel_futures=True)
            dicts = pool.map(_scan_one, primes)
        except (OSError, ImportError, NotImplementedError):
            pass  # restricted environments: the same primes, in this process
        else:
            return (ScanRecord.from_dict(d) for d in dicts)
    return (pair_scan(p) for p in primes)


def records_to_csv(records: Iterable[ScanRecord]) -> str:
    lines = [SCAN_CSV_HEADER]
    lines.extend(r.csv_row() for r in records)
    return "\n".join(lines) + "\n"


def records_to_json(records: Iterable[ScanRecord]) -> str:
    return json.dumps([r.to_dict() for r in records], indent=2, sort_keys=True) + "\n"


def total_pair_hits(records: Iterable[ScanRecord]) -> int:
    return sum(len(r.pair_hits) for r in records)
