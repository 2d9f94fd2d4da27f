"""Command-line surface.

Machine-readable JSON (or CSV) goes to stdout or --out; a short human
summary goes to stderr.  Exit codes: 0 all good, 1 a mathematically
asserted statement or an internal invariant failed (never expected), a
scan found a mirror pair, or a scan shard process died (the run is not
repeated in-process; its checkpoint keeps every prime below the first one
left unfinished), 2 a usage error that argparse rejects, a ValueError from
the library (a weight or exponent out of scope, a precision below its
bound), a non-invertible denominator, a corrupt scan checkpoint, or an
output or checkpoint file that cannot be opened.  Each scope is checked
once, in the library, and the --out and --witness-csv paths once, in
`main`, all before any work; the commands add no checks of their own.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .companions import companion_report, witness_csv
from .errors import CheckpointError, NonInvertibleError, NotLocalError, PrecisionError, ShardError
from .hecke import hecke_report
from .lambda_eis import build_lambda_eisenstein, specialize_and_compare
from .localstruct import CSV_HEADER, structure_report
from .qexp import miller_basis, sturm
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


def cmd_basis(args) -> int:
    prec = sturm(args.k) if args.prec is None else args.prec
    basis = miller_basis(args.p, args.k, prec, args.digits)
    header = {"p": args.p, "digits": args.digits, "k": args.k, "precision": prec, "dim": len(basis)}
    _emit(json.dumps({**header, "rows": basis.tolist()}, indent=2) + "\n", args.out)
    _note(f"M_{args.k} over Z/{args.p}^{args.digits}: dim {len(basis)}, precision {prec}")
    return 0


def cmd_hecke(args) -> int:
    report = hecke_report(args.p, args.k)
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    _note(
        f"(p, k) = ({args.p}, {args.k}): dim {report['dim']}, local dim "
        f"{report['eis_local_dim']}, ordinary dim {report['ordinary_dim']}"
    )
    return 0


def cmd_companion(args) -> int:
    p, k = args.p, args.k
    report = companion_report(p, k)
    _emit(json.dumps(report.to_json(), indent=2) + "\n", args.out)
    if args.witness_csv:
        with open(args.witness_csv, "w", encoding="utf-8") as fh:
            fh.write(witness_csv(report))
        _note(f"witness expansions written to {args.witness_csv}")
    _note(f"c(m) = {report.c_m}, c(m') = {report.c_m_prime} at (p, k) = ({p}, {k})")
    return 0


def cmd_structure(args) -> int:
    p, k = args.p, args.k
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eiscomp",
        description="Level-one mod-p modular forms, Eisenstein-local structure, Bernoulli scans",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--p", type=int, required=True, help="prime >= 5")
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

    return parser


def _check_outputs(args) -> None:
    """Fail before any work if --out or --witness-csv cannot be opened for writing.

    Appending leaves an existing file's contents as they are; a file that
    the check itself creates is removed again.
    """
    for path in (args.out, getattr(args, "witness_csv", None)):
        if path:
            existed = os.path.lexists(path)
            open(path, "a", encoding="utf-8").close()
            if not existed:
                os.remove(path)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except (NotLocalError, AssertionError, ShardError) as e:
        _note(f"error: {e}")
        return ASSERTION_ERROR
    except (PrecisionError, NonInvertibleError, ValueError, CheckpointError, OSError) as e:
        _note(f"error: {e}")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
