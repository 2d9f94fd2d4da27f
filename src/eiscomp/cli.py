"""Command-line surface.

Machine-readable JSON (or CSV) goes to stdout or --out; a short human
summary goes to stderr.  Exit codes: 0 all good, 1 a mathematically
asserted statement or an internal invariant failed (never expected), a
scan found a mirror pair, or a scan shard process died (the run is not
repeated in-process; its checkpoint keeps every prime below the first one
left unfinished), 2 usage or scope error, or a corrupt scan checkpoint.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures.process import BrokenProcessPool

from .bernoulli import irregular_indices
from .companions import companion_report
from .errors import CheckpointError, NonInvertibleError, NotLocalError, PrecisionError
from .hecke import hecke_report
from .lambda_eis import build_lambda_eisenstein, specialize_and_compare
from .localstruct import CSV_HEADER, structure_report
from .qexp import miller_basis, space_dim, sturm
from .scan import records_to_csv, records_to_json, scan_range, total_pair_hits

USAGE_ERROR = 2
ASSERTION_ERROR = 1


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _require_weight(p: int, k: int) -> None:
    if k % 2 == 1 or k < 4:
        raise UsageError(f"weight {k} is empty at level one (need even k >= 4)")
    if space_dim(k) == 0:
        raise UsageError(f"weight {k} has no forms")


class UsageError(Exception):
    """Invalid command combination; maps to exit code 2."""


def cmd_basis(args) -> int:
    _require_weight(args.p, args.k)
    prec = args.prec if args.prec else sturm(args.k)
    prec = max(prec, sturm(args.k))  # cannot opt into unsoundness
    space = miller_basis(args.p, args.k, prec, args.digits)
    _emit(json.dumps(space.to_json(), indent=2) + "\n", args.out)
    _note(f"M_{args.k} over Z/{args.p}^{args.digits}: dim {space.dim}, precision {prec}")
    return 0


def cmd_hecke(args) -> int:
    _require_weight(args.p, args.k)
    report = hecke_report(args.p, args.k)
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    _note(
        f"(p, k) = ({args.p}, {args.k}): dim {report['dim']}, local dim "
        f"{report['eis_local_dim']}, ordinary dim {report['ordinary_dim']}"
    )
    return 0


def cmd_companion(args) -> int:
    p, k = args.p, args.k
    _require_weight(p, k)
    if not (4 <= k <= p - 3):
        raise UsageError(f"weight {k} outside [4, {p - 3}] for p = {p}")
    report = companion_report(p, k)
    _emit(json.dumps(report.to_json(), indent=2) + "\n", args.out)
    if args.witness_csv:
        from .companions import witness_csv

        with open(args.witness_csv, "w", encoding="utf-8") as fh:
            fh.write(witness_csv(report))
        _note(f"witness expansions written to {args.witness_csv}")
    _note(f"c(m) = {report.c_m}, c(m') = {report.c_m_prime} at (p, k) = ({p}, {k})")
    return 0


def cmd_structure(args) -> int:
    p, k = args.p, args.k
    _require_weight(p, k)
    if not (4 <= k <= p - 3):
        raise UsageError(f"weight {k} outside [4, {p - 3}] for p = {p}")
    report = structure_report(p, k)
    if args.format == "csv":
        _emit(CSV_HEADER + "\n" + report.csv_row() + "\n", args.out)
    else:
        _emit(json.dumps(report.to_json(), indent=2) + "\n", args.out)
    if not report.all_asserted_hold:
        _note("STRUCTURE ASSERTION FAILED: " + "; ".join(report.equivalence_failures))
        return ASSERTION_ERROR
    _note(
        f"(p, k) = ({p}, {k}): gor_H {report.gorenstein_full}, "
        f"min_gens {report.min_gens}, c(m') {report.c_m_prime}"
    )
    return 0


def cmd_scan(args) -> int:
    records = scan_range(args.min, args.max, shards=args.shards, checkpoint=args.checkpoint)
    text = records_to_csv(records) if args.format == "csv" else records_to_json(records)
    _emit(text, args.out)
    hits = total_pair_hits(records)
    irregular = sum(1 for r in records if r.irregular_indices)
    _note(
        f"scanned {len(records)} primes in [{args.min}, {args.max}]: "
        f"{irregular} irregular, {hits} mirror pair hits"
    )
    return ASSERTION_ERROR if hits else 0


def cmd_specialize(args) -> int:
    p, d = args.p, args.d
    if d % 2 == 1 or not (0 <= d <= p - 3):
        raise UsageError(f"exponent {d} must be even in [0, {p - 3}]")
    family = build_lambda_eisenstein(p, d, args.qprec, args.trunc, args.digits)
    report = specialize_and_compare(family)
    _emit(json.dumps(report.to_json(), indent=2) + "\n", args.out)
    if not report.ok:
        _note(f"SPECIALIZATION MISMATCH at q-indices {report.mismatches}")
        return ASSERTION_ERROR
    _note(
        f"family (p, d) = ({p}, {d}) specializes to weight {report.weight} "
        f"correctly mod {p}^{report.digits_checked}"
    )
    return 0


def cmd_selftest(args) -> int:
    checks: list[tuple[str, bool]] = []

    from .companions import theta_series
    from .hecke import hecke_action
    from .padic import a_t_poly, eval_lambda, gamma_generator, teichmuller
    from .padic import PadicInt
    from .qexp import eisenstein_q

    t = teichmuller(2, 5, 2)
    checks.append(("teichmuller(2, 5, 2) = 7", t.value == 7))

    at = a_t_poly(3, 7, 5, 4)
    x = PadicInt(pow(8, 2, 7**4) - 1, 7, 4)
    lhs = eval_lambda(at, x).value
    om = teichmuller(3, 7, 4)
    rhs = pow(3, 3, 7**4) * pow(om.unit_inverse().value, 2, 7**4) % 7**4
    checks.append(("A_t specialization closed form", lhs == rhs % 7 ** min(4, 5)))

    e = eisenstein_q(11, 16, 48)
    te = hecke_action(e, 3)
    lam = sum(d**15 for d in (1, 3)) % 11
    checks.append(
        ("E_16 | T(3) = sigma_15(3) E_16 over F_11", (te - e.scale(lam)).is_zero())
    )

    f = eisenstein_q(13, 6, 60)
    lhs_series = hecke_action(theta_series(f), 5)
    rhs_series = theta_series(hecke_action(f, 5)).scale(5)
    checks.append(("T(5) theta = 5 theta T(5)", (lhs_series - rhs_series).is_zero()))

    checks.append(("irregular indices of 37 are [32]", irregular_indices(37) == [32]))

    failures = [name for name, ok in checks if not ok]
    for name, ok in checks:
        _note(("PASS " if ok else "FAIL ") + name)
    return ASSERTION_ERROR if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eiscomp",
        description="Level-one mod-p modular forms, Eisenstein-local structure, Bernoulli scans",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, weight=True):
        sp.add_argument("--p", type=int, required=True, help="prime >= 5")
        if weight:
            sp.add_argument("--k", type=int, required=True, help="even weight")
        sp.add_argument("--out", type=str, default=None, help="write output here")

    sp = sub.add_parser("basis", help="echelon basis of M_k as JSON")
    add_common(sp)
    sp.add_argument("--prec", type=int, default=None, help="coefficient count")
    sp.add_argument("--digits", type=int, default=1, help="p-adic digits M")
    sp.set_defaults(func=cmd_basis)

    sp = sub.add_parser("hecke", help="Hecke/localization summary for (p, k)")
    add_common(sp)
    sp.set_defaults(func=cmd_hecke)

    sp = sub.add_parser("companion", help="companion dimensions c(m), c(m')")
    add_common(sp)
    sp.add_argument("--witness-csv", type=str, default=None, help="dump witness q-expansions here")
    sp.set_defaults(func=cmd_companion)

    sp = sub.add_parser("structure", help="local-algebra structure suite")
    add_common(sp)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=cmd_structure)

    sp = sub.add_parser("scan", help="Bernoulli mirror-pair scan over a prime range")
    sp.add_argument("--min", type=int, required=True)
    sp.add_argument("--max", type=int, required=True)
    sp.add_argument("--shards", type=int, default=1)
    sp.add_argument("--checkpoint", type=str, default=None)
    sp.add_argument("--out", type=str, default=None)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("specialize", help="compare a family's specialization with its classical series")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--d", type=int, required=True, help="even character exponent")
    sp.add_argument("--digits", type=int, default=3, help="p-adic digits M")
    sp.add_argument("--trunc", type=int, default=8, help="T-truncation degree")
    sp.add_argument("--qprec", type=int, default=30, help="q-coefficients to compare")
    sp.add_argument("--out", type=str, default=None)
    sp.set_defaults(func=cmd_specialize)

    sp = sub.add_parser("selftest", help="quick internal consistency battery")
    sp.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        _note(f"error: {e}")
        return USAGE_ERROR
    except (NotLocalError, AssertionError, BrokenProcessPool) as e:
        _note(f"error: {e}")
        return ASSERTION_ERROR
    except (PrecisionError, NonInvertibleError, ValueError, CheckpointError) as e:
        _note(f"error: {e}")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
