"""The host's speed, sampled during a pass, to scale pass times to a fixed speed.

A shared host gives this benchmark a few cores whose throughput changes by up
to twofold from one second to the next, with no steal time visible inside the
guest, so a raw pass time says as much about the neighbours as about the
program.  A `Sampler` runs a fixed kernel (a 40000-bit product, converted to
bytes and partly unpacked, as the q-expansion products do) when started and
then on a SIGALRM timer every INTERVAL_S seconds, and records the CPU time of
each run.  A pass time times REF_KERNEL_S over the kernel's mean time during
the pass is the pass time on a host where the kernel takes REF_KERNEL_S: it
follows the program and hardly the neighbours.  The runs are evenly spaced in
time, so the mean weighs each stretch of the pass by its length; a mean of
times, not of speeds, keeps one run the clock mismeasured as near zero from
dominating.

The kernel's CPU time, not its wall time, is taken, so that time the process
waits for a core does not count as a slow host; the host's slowness shows in
CPU time as well.  The kernel is code of the benchmark, not of eiscomp, so a
change to eiscomp does not change it.  The timer's handler is left out of
the pass's wall and CPU time.

A sharded pass keeps every core busy with its own shards, so a sampler in
this process would take a core from a shard and measure that contention
instead of the host.  The shards sample themselves instead: forked processes
inherit no timer, so `sample_pair_scans` wraps eiscomp's pair_scan, which
every shard calls once per prime, to start a sampler in each process on its
first call and to append the process's new runs to a file after each call.
If no shard samples (say, the shards stop calling pair_scan), the pass takes
the speed of the runs sampled before it.
"""

from __future__ import annotations

import functools
import glob
import os
import signal
import statistics
import sys
from array import array
from time import perf_counter, thread_time

INTERVAL_S = 0.05
# about the kernel's mean CPU time over a pass on the recorded machine
# (nproc 2, "Intel(R) Xeon(R) Processor", Python 3.11), so that scaled
# seconds read close to raw ones there
REF_KERNEL_S = 0.0017
_BIG = (1 << 40000) - 12345


def kernel() -> int:
    x = _BIG * (_BIG + 1)
    raw = x.to_bytes(10000, "little")
    return sum(int.from_bytes(raw[i : i + 3], "little") for i in range(0, 3000, 3))


def scale(start, wall, cpu, t0: float, t1: float) -> tuple[float, float, float]:
    """(handler wall seconds and CPU seconds within [t0, t1], speed factor).

    Samples are kernel runs that began at start[i] and took wall[i] seconds,
    cpu[i] of them on the CPU.  The speed factor is REF_KERNEL_S over the
    mean cpu[i] of the runs that began in [t0, t1], or of all runs if none
    did.
    """
    inside = [i for i, s in enumerate(start) if t0 <= s < t1]
    runs = [cpu[i] for i in inside] or list(cpu)
    if not runs:
        raise ValueError("no kernel run was sampled")
    return sum(wall[i] for i in inside), sum(cpu[i] for i in inside), REF_KERNEL_S / statistics.fmean(runs)


class Sampler:
    """Times `kernel` on a SIGALRM timer between `start` and `stop`."""

    def __init__(self):
        self.start_s = array("d")
        self.wall_s = array("d")
        self.cpu_s = array("d")
        self._old_handler = None

    def _tick(self, signum, frame):
        t, c = perf_counter(), thread_time()
        kernel()
        c, w = thread_time() - c, perf_counter() - t
        self.start_s.append(t)
        self.wall_s.append(w)
        self.cpu_s.append(c)

    def start(self) -> None:
        self._tick(None, None)
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def scale(self, t0: float, t1: float) -> tuple[float, float, float]:
        return scale(self.start_s, self.wall_s, self.cpu_s, t0, t1)

    def append_to(self, path: str, first: int) -> int:
        """Append runs first.. to `path` as tab-separated lines; return the run count."""
        n = len(self.start_s)
        if n > first:
            with open(path, "a", encoding="utf-8") as fh:
                fh.writelines(f"{self.start_s[i]!r}\t{self.wall_s[i]!r}\t{self.cpu_s[i]!r}\n" for i in range(first, n))
        return n

    def read_runs(self, pattern: str) -> None:
        """Add the runs in every file matching `pattern` to this sampler's."""
        for path in sorted(glob.glob(pattern)):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    start, wall, cpu = map(float, line.split("\t"))
                    self.start_s.append(start)
                    self.wall_s.append(wall)
                    self.cpu_s.append(cpu)


def sample_pair_scans(workdir: str):
    """Make each process that calls eiscomp's pair_scan sample its speed.

    Runs go to workdir/speed-<pid>.tsv.  Returns a function that removes
    the wrapper; call it once the pass is over.
    """
    from eiscomp import bernoulli

    orig = bernoulli.pair_scan
    state: dict[int, list] = {}  # pid -> [sampler, runs written]

    @functools.wraps(orig)
    def pair_scan(*args, **kwargs):
        pid = os.getpid()
        if pid not in state:
            sampler = Sampler()
            sampler.start()
            state[pid] = [sampler, 0]
        try:
            return orig(*args, **kwargs)
        finally:
            sampler, written = state[pid]
            state[pid][1] = sampler.append_to(os.path.join(workdir, f"speed-{pid}.tsv"), written)

    patched = [
        (mod, key)
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "eiscomp" or name.startswith("eiscomp."))
        for key, val in list(vars(mod).items())
        if val is orig
    ]
    for mod, key in patched:
        setattr(mod, key, pair_scan)

    def undo() -> None:
        for mod, key in patched:
            setattr(mod, key, orig)
        own = state.pop(os.getpid(), None)
        if own is not None:
            own[0].stop()

    return undo
