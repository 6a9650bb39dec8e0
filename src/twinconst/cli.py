"""Command-line front end.

Exit codes: 0 success/verified, 1 mismatch/counterexample, 2 argument error,
3 search bound exhausted.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import primes, verify
from .bfile import SequenceRecord, get_fixture
from .hseq import DEFAULT_BOUND, DEFAULT_THRESHOLD, check_walk, h_sequence
from .sweeps import (merge_walks, pair_report, prime_pair_merges, scan_c_sequence,
                     scan_m_sequence)
# unused here; perfbench/child.py traces the name cli.scan_twin_range
from .sweeps import scan_twin_range  # noqa: F401

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_ARG = 2
EXIT_BOUND = 3
_PRINT_SLICE = 4096  # terms formatted per write of a printed sequence


def _default_workers() -> int:
    try:
        return max(1, int(os.environ.get("TWINCONST_WORKERS", "1")))
    except ValueError:
        return 1


def _print_record(record: SequenceRecord, fmt: str) -> None:
    """Write the terms space-separated on one line, or as a b-file, a slice
    of _PRINT_SLICE terms at a time, so that only one slice's text is held."""
    terms = record.terms
    for i in range(0, len(terms), _PRINT_SLICE):
        part = terms[i : i + _PRINT_SLICE]
        if fmt == "bfile":
            sys.stdout.write(SequenceRecord(record.name, record.offset + i, part).emit())
        else:
            sys.stdout.write((" " if i else "") + " ".join(map(str, part)))
    if fmt != "bfile":
        sys.stdout.write("\n")


def _cmd_hseq(args) -> int:
    try:
        terms = h_sequence(args.start, args.n)
    except ValueError as exc:  # also a start outside is_prime's range
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARG
    _print_record(SequenceRecord("hseq", 2, terms), args.format)
    return EXIT_OK


def _cmd_trace(args) -> int:
    try:
        report = pair_report(args.a, args.b, args.threshold, args.bound)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARG
    if report.merged:
        merge = str(report.merge_index)
    else:
        merge = f"none(bound={args.bound})"
    print(
        f"merge={merge} max_diff={report.max_diff}"
        f" max_diff_at={report.max_diff_first_index} m={report.first_excess}"
    )
    return EXIT_OK if report.merged else EXIT_BOUND


def _merge_sequence_terms(count: int, bound: int):
    """Flattened merge positions for pairs (a, b), grouped by a ascending."""
    return [pos for _, _, pos in prime_pair_merges(count, bound)]


def _maxdiff_terms(count: int, bound: int = DEFAULT_BOUND):
    """Max differences of the first count twin pairs over indices 2..bound
    (exact for a pair that merges within bound), and whether any did not;
    a bound below 2 is refused before the twin pairs are sieved."""
    check_walk(DEFAULT_THRESHOLD, bound)
    ps = primes.first_twin_lessers(count)
    reports = merge_walks([p + 2 for p in ps], ps, bound)
    return tuple(r.max_diff for r in reports), not all(r.merged for r in reports)


def _cmd_scan(args) -> int:
    if args.kind == "c" and args.limit is None:
        print("error: scan c requires --limit", file=sys.stderr)
        return EXIT_ARG
    if args.kind != "c" and args.count is None:
        print(f"error: scan {args.kind} requires --count", file=sys.stderr)
        return EXIT_ARG
    if args.kind != "c" and args.count < 1:
        print(f"error: --count must be >= 1, got {args.count}", file=sys.stderr)
        return EXIT_ARG
    unmerged = False  # only maxdiff and merge walk pairs to a bound
    try:  # a sweep limit past the range, or a walk bound below 2
        if args.kind == "c":
            name, terms = "c-sequence", scan_c_sequence(args.limit, workers=args.workers)
        elif args.kind == "m":
            name, terms = "m-sequence", scan_m_sequence(args.count, workers=args.workers)
        elif args.kind == "maxdiff":
            name, note = "max-diffs", "their terms are lower bounds"
            terms, unmerged = _maxdiff_terms(args.count, args.bound)
        else:  # merge: the positions of the pairs that merge within the bound
            name, note = "merge-positions", "partial output"
            merges = _merge_sequence_terms(args.count, args.bound)
            terms = [t for t in merges if t is not None]
            unmerged = len(terms) < len(merges)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARG
    _print_record(SequenceRecord(name, 1, tuple(terms)), args.format)
    if unmerged:
        print(f"warning: some pairs did not merge within bound {args.bound}; {note}",
              file=sys.stderr)
        return EXIT_BOUND
    return EXIT_OK


def _cmd_verify(args) -> int:
    # refuse a report that cannot be written before the campaign, not after it
    report_path = args.report or f"twinconst-{args.target}.report"
    report_dir = os.path.dirname(report_path) or "."
    if os.path.isdir(report_path) or not (
            os.path.isdir(report_dir) and os.access(report_dir, os.W_OK)):
        print(f"error: cannot write the report to {report_path}", file=sys.stderr)
        return EXIT_ARG
    try:
        if args.target == "conj1":
            report = verify.probe_conjecture1(args.primes, args.bound)
        else:  # t1, t2 and cor: one sweep checks every claim
            report = verify.partitioned_scan(args.limit, args.workers,
                                             checkpoint=args.checkpoint)
    except ValueError as exc:  # e.g. a file at --checkpoint that is no checkpoint
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARG
    report.write(report_path)
    print(report.to_text(), end="")
    print(f"report: {report_path}")
    if report.counterexamples:
        print(f"counterexample replay data in {report_path}", file=sys.stderr)
        return EXIT_MISMATCH
    if report.details.get("unmerged"):  # conj1: an adjacent pair is still open
        print(f"warning: some adjacent pairs did not merge within bound {args.bound}",
              file=sys.stderr)
        return EXIT_BOUND
    return EXIT_OK if not report.aborted else EXIT_MISMATCH


def _recompute_fixture(fixture: SequenceRecord) -> tuple[int, ...]:
    count = len(fixture.terms)
    if fixture.name == "merge-positions":
        terms = _merge_sequence_terms(count, DEFAULT_BOUND)
        return tuple(-1 if t is None else t for t in terms)
    if fixture.name == "max-diffs":
        return _maxdiff_terms(count)[0]
    if fixture.name == "c-sequence":
        return tuple(scan_c_sequence(max(fixture.terms)))
    # m-sequence
    return tuple(scan_m_sequence(count))


def _cmd_compare(args) -> int:
    try:
        fixture = get_fixture(args.fixture)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_ARG
    computed = _recompute_fixture(fixture)
    if computed == fixture.terms:
        print(f"{fixture.name}: {len(fixture.terms)} terms match")
        return EXIT_OK
    for i, (got, want) in enumerate(zip(computed, fixture.terms)):
        if got != want:
            print(f"{fixture.name}: first divergence at index {fixture.offset + i}: "
                  f"computed {got}, fixture {want}")
            return EXIT_MISMATCH
    print(f"{fixture.name}: length mismatch "
          f"(computed {len(computed)}, fixture {len(fixture.terms)})")
    return EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinconst",
        description="Greedy prime-index-constrained sequences, twin-pair "
                    "statistics, and constellation verification campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hseq", help="print one sequence prefix")
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="last index (origin 2)")
    p.add_argument("--format", choices=("terms", "bfile"), default="terms")
    p.set_defaults(func=_cmd_hseq)

    p = sub.add_parser("trace", help="pair statistics: merge, max diff, first excess")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--threshold", type=int, default=DEFAULT_THRESHOLD)
    p.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("scan", help="bulk sequence scans")
    p.add_argument("kind", choices=("c", "m", "maxdiff", "merge"))
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    p.add_argument("--format", choices=("terms", "bfile"), default="terms")
    p.add_argument("--workers", type=int, default=_default_workers())
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("verify", help="verification campaigns")
    p.add_argument("target", choices=("t1", "t2", "cor", "conj1"))
    p.add_argument("--limit", type=int, default=10**6)
    p.add_argument("--primes", type=int, default=10, help="conj1: pair pool size")
    p.add_argument("--bound", type=int, default=DEFAULT_BOUND, help="conj1: merge bound")
    p.add_argument("--workers", type=int, default=_default_workers())
    p.add_argument("--report", type=str, default=None)
    p.add_argument("--checkpoint", type=str, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("compare", help="recompute and diff an embedded fixture")
    p.add_argument("fixture")
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", 1) < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return EXIT_ARG
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
