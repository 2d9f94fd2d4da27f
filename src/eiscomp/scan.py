"""Batch scanning of primes: sharding, checkpointing, deterministic merge.

Work is embarrassingly parallel: each shard owns the primes whose index in
the sorted prime list is congruent to the shard number.  Results are merged
by sorting on p, so the merged CSV/JSON output is byte-identical for any
shard count.  The checkpoint file holds one line per completed prime,
`<sha256-of-payload> <payload-json>`, and a resumed run recomputes nothing
that already checkpointed; any hash mismatch aborts loudly.  A final line
without its newline is what a run killed mid-append leaves behind: it is
ignored, and cut off before the next append.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterable, Sequence

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


def _scan_chunk(primes: Sequence[int]) -> list[dict]:
    return [pair_scan(p).to_dict() for p in primes]


def scan_range(
    p_min: int,
    p_max: int,
    shards: int = 1,
    checkpoint: str | None = None,
) -> list[ScanRecord]:
    """Scan every prime in [p_min, p_max]; resumable and shard-invariant.

    Shards run in separate processes when shards > 1 (falling back to
    in-process execution where process pools are unavailable).  The
    returned list is sorted by p regardless of scheduling.
    """
    if p_max < p_min:
        return []
    if shards < 1:
        raise ValueError("shard count must be positive")
    primes = primes_in(p_min, p_max)
    done = load_checkpoint(checkpoint) if checkpoint else {}
    todo = [p for p in primes if p not in done]

    chunks = [todo[s::shards] for s in range(shards)]
    chunks = [c for c in chunks if c]
    fresh: list[ScanRecord] = []
    if len(chunks) <= 1:
        for chunk in chunks:
            fresh.extend(pair_scan(p) for p in chunk)
    else:
        fresh.extend(_run_sharded(chunks))

    if checkpoint and fresh:
        with open(checkpoint, "a+b") as fh:
            fh.seek(0)
            fh.truncate(len(_complete_lines(fh.read())))
            for rec in sorted(fresh, key=lambda r: r.p):
                fh.write(_checkpoint_line(rec).encode())

    wanted = set(primes)
    merged = {p: r for p, r in done.items() if p in wanted}
    merged.update({r.p: r for r in fresh})
    return [merged[p] for p in sorted(merged)]


def _run_sharded(chunks: list[list[int]]) -> list[ScanRecord]:
    try:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            results = list(pool.map(_scan_chunk, chunks))
    except (OSError, PermissionError, ImportError):
        # restricted environments: same chunks, same merge, one process
        results = [_scan_chunk(c) for c in chunks]
    out: list[ScanRecord] = []
    for dicts in results:
        out.extend(ScanRecord.from_dict(d) for d in dicts)
    return out


def records_to_csv(records: Iterable[ScanRecord]) -> str:
    lines = [SCAN_CSV_HEADER]
    lines.extend(r.csv_row() for r in records)
    return "\n".join(lines) + "\n"


def records_to_json(records: Iterable[ScanRecord]) -> str:
    return json.dumps([r.to_dict() for r in records], indent=2, sort_keys=True) + "\n"


def total_pair_hits(records: Iterable[ScanRecord]) -> int:
    return sum(len(r.pair_hits) for r in records)
