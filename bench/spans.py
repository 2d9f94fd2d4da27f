"""In-memory span tracing of eiscomp's public functions, from outside the package.

A `Tracer` replaces each traced function by a wrapper in every `eiscomp`
module namespace that binds it (methods are replaced on their class), so
calls made inside the package are seen as well as calls made by the
benchmark.  Each call records one span: name id, parent span, the
top-level operation it belongs to, start and end.  Spans stay in memory
until `save` writes them out; `layer_stats` turns them into per-function
calls, self time and work counts.

Self time of a span is its duration minus the part of it covered by its
direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter


def self_times(parent, start, end) -> list[float]:
    """Per-span duration minus the union of its direct children's intervals."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, par in enumerate(parent):
        if par >= 0:
            children[par].append(i)
    out = [end[i] - start[i] for i in range(len(start))]
    for par, kids in children.items():
        lo, hi = start[par], end[par]
        covered = 0.0
        cur_lo = cur_hi = None
        for i in sorted(kids, key=start.__getitem__):
            a, b = max(start[i], lo), min(end[i], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[par] -= covered
    return out


class Tracer:
    """Span recorder plus per-function work counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self.current_op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, count=None):
        """A wrapper of fn that records a span named `name` per call.

        `count(args, kwargs)`, called after fn returns and outside the
        span, gives a dict of work counts for the call, added to `counts`
        under `<name>.<key>`.
        """
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op.append(tracer.current_op)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer._stack.pop()
            if count is not None:
                for key, val in count(args, kwargs).items():
                    tracer.counts[f"{name}.{key}"] += val
            return result

        return traced

    # -- installation ------------------------------------------------------

    def patch_function(self, module, attr: str, name: str, count=None) -> None:
        """Wrap module.attr in every loaded eiscomp namespace that binds it."""
        orig = getattr(module, attr)
        wrapper = self.wrap(name, orig, count)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "eiscomp" or modname.startswith("eiscomp.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((mod, key, orig))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name: str, count=None) -> None:
        orig = cls.__dict__[attr]
        self._undo.append((cls, attr, orig))
        setattr(cls, attr, self.wrap(name, orig, count))

    def uninstall(self) -> None:
        while self._undo:
            target, key, orig = self._undo.pop()
            setattr(target, key, orig)

    # -- results -----------------------------------------------------------

    def layer_stats(self) -> dict[str, float]:
        """`<name>.calls` and `<name>.self_s` per traced name, plus counts."""
        selfs = self_times(self.parent, self.start, self.end)
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for nid, s in zip(self.name_id, selfs):
            calls[nid] += 1
            own[nid] += s
        stats: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            stats[f"{name}.calls"] = calls[nid]
            stats[f"{name}.self_s"] = own[nid]
        stats.update(self.counts)
        return stats

    def save(self, path: str) -> None:
        """Write every span as one tab-separated line, names first."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# id\tname\tparent\top\tstart\tend\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{names[self.name_id[i]]}\t{self.parent[i]}\t{self.op[i]}"
                    f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )


# ---------------------------------------------------------------------------
# the eiscomp layers and their work counts


def _packed_bytes(args, kwargs) -> dict:
    """slot * (la + lb), the bytes convolve_mod packs, from its operands."""
    a, b, modulus = args[0], args[1], args[2]
    out_len = args[3] if len(args) > 3 else kwargs.get("out_len")
    if out_len is None:
        out_len = min(len(a), len(b))
    la, lb = min(len(a), out_len), min(len(b), out_len)
    if out_len <= 0 or la == 0 or lb == 0:
        return {"packed_bytes": 0}
    bound = min(la, lb) * (modulus - 1) ** 2
    slot = max(1, (bound.bit_length() + 7) // 8)
    return {"packed_bytes": slot * (la + lb)}


def _madds(args, kwargs) -> dict:
    """n * m * k multiply-adds of an (n x m) by (m x k) product."""
    a, b = args
    return {"madds": a.nrows * a.ncols * b.ncols}


def field_ops(p: int) -> int:
    """Field operations of the Bernoulli recurrence for one prime.

    Per index m in [2, p-3]: m + 2 Pascal-row entries are formed and
    reduced; for even m the dot product has len(range(2, m, 2)) terms.
    Counted from the loop bounds of the recurrence, not by instrumenting it.
    """
    ops = 0
    for m in range(2, p - 2):
        ops += m + 2
        if m % 2 == 0:
            ops += len(range(2, m, 2))
    return ops


def install(tracer: Tracer) -> None:
    """Wrap every traced eiscomp function; the package must be imported."""
    from eiscomp import bernoulli, companions, hecke, linalg, localstruct, qexp, scan

    tracer.patch_function(qexp, "convolve_mod", "qexp.convolve_mod", _packed_bytes)

    seen: set[tuple] = set()
    sig = inspect.signature(qexp.miller_basis)

    def basis_key(args, kwargs) -> dict:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        p, k, prec, digits = (bound.arguments[n] for n in ("p", "k", "prec", "digits"))
        key = (p, k, qexp.sturm(k) if prec is None else prec, digits)
        repeat = key in seen
        seen.add(key)
        return {"repeats": int(repeat)}

    tracer.patch_function(qexp, "miller_basis", "qexp.miller_basis", basis_key)
    tracer.patch_function(qexp, "membership", "qexp.membership")
    tracer.patch_function(qexp, "delta_q", "qexp.delta_q")

    tracer.patch_method(linalg.MatFp, "__mul__", "linalg.matmul", _madds)
    tracer.patch_method(linalg.EchelonSpace, "reduce", "linalg.echelon_reduce")
    for fn in ("rref", "generalized_eigenspace", "algebra_closure", "stable_idempotent"):
        tracer.patch_function(linalg, fn, f"linalg.{fn}")

    for fn in (
        "hecke_matrix",
        "hecke_action",
        "eisenstein_localize",
        "full_hecke_algebra",
        "t_p_redundancy_check",
    ):
        tracer.patch_function(hecke, fn, f"hecke.{fn}")

    for fn in ("companion_space", "localized_pieces"):
        tracer.patch_function(companions, fn, f"companions.{fn}")

    for fn in ("restrict_algebra", "socle_dim", "eis_ideal_min_gens", "structure_report"):
        tracer.patch_function(localstruct, fn, f"localstruct.{fn}")

    table = bernoulli.bernoulli_table_mod
    misses = [table.cache_info().misses]

    def table_work(args, kwargs) -> dict:
        # the table is cached per prime; only a cache miss ran the recurrence
        now = table.cache_info().misses
        computed, misses[0] = now > misses[0], now
        p = args[0] if args else kwargs["p"]
        return {"field_ops": field_ops(p) if computed else 0}

    tracer.patch_function(bernoulli, "bernoulli_table_mod", "bernoulli.table", table_work)
    tracer.patch_function(bernoulli, "pair_scan", "bernoulli.pair_scan")
    tracer.patch_function(scan, "load_checkpoint", "scan.load_checkpoint")
