"""Command-line front end.

Exit codes: 0 success/verified, 1 mismatch/counterexample, 2 argument error,
3 search bound exhausted.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import primes, verify
from .bfile import get_fixture
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


def _int_arg(text: str) -> int:
    """A decimal integer, or <int>e<int> when that is an exact integer: 1e8 is
    10^8 and 12e-1 is refused. Anything else is an argument error (exit 2)."""
    mant, e, exp = text.lower().partition("e")
    try:
        value, scale = int(mant), int(exp) if e else 0
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
    if abs(scale) > 100:  # every limit past 2^63 is refused anyway; 10^scale stays cheap
        raise argparse.ArgumentTypeError(f"exponent out of range: {text!r}")
    value, rest = divmod(value * 10**max(scale, 0), 10**max(-scale, 0))
    if rest:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return value


def _print_terms(terms, offset: int, fmt: str) -> None:
    """Write the terms space-separated on one line, or as an OEIS b-file, one
    'index term' line per term from index offset, a slice of _PRINT_SLICE
    terms at a time, so that only one slice's text is held."""
    for i in range(0, len(terms), _PRINT_SLICE):
        part = terms[i : i + _PRINT_SLICE]
        if fmt == "bfile":
            sys.stdout.write("".join(f"{offset + i + k} {t}\n" for k, t in enumerate(part)))
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
    _print_terms(terms, 2, args.format)
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


def _maxdiff_terms(count: int, bound: int = DEFAULT_BOUND):
    """Max differences of the first count twin pairs over indices 2..bound
    (exact for a pair that merges within bound), and whether any did not;
    a bound below 2 is refused before the twin pairs are sieved."""
    check_walk(DEFAULT_THRESHOLD, bound)
    ps = primes.first_twin_lessers(count)
    reports = merge_walks([p + 2 for p in ps], ps, bound)
    return tuple(r.max_diff for r in reports), not all(r.merged for r in reports)


def _sequence(kind: str, n: int, bound: int, workers: int):
    """(terms, unmerged) of a scan kind: the c-sequence up to n, or the first
    n terms of the m-sequence, the max differences or the merge positions,
    each walk to bound. unmerged says that some pair did not merge within it:
    its max difference is then a lower bound, and its merge position is left
    out. A sweep limit past the range, or a bound below 2, raises ValueError."""
    if kind == "c":
        return scan_c_sequence(n, workers=workers), False
    if kind == "m":
        return scan_m_sequence(n, workers=workers), False
    if kind == "maxdiff":
        return _maxdiff_terms(n, bound)
    # merge positions for pairs (a, b), grouped by a ascending
    merges = [pos for _, _, pos in prime_pair_merges(n, bound)]
    terms = [t for t in merges if t is not None]
    return terms, len(terms) < len(merges)


def _cmd_scan(args) -> int:
    option, n = ("--limit", args.limit) if args.kind == "c" else ("--count", args.count)
    if n is None:
        print(f"error: scan {args.kind} requires {option}", file=sys.stderr)
        return EXIT_ARG
    if args.kind != "c" and n < 1:
        print(f"error: --count must be >= 1, got {n}", file=sys.stderr)
        return EXIT_ARG
    try:
        terms, unmerged = _sequence(args.kind, n, args.bound, args.workers)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARG
    _print_terms(terms, 1, args.format)
    if unmerged:
        note = "their terms are lower bounds" if args.kind == "maxdiff" else "partial output"
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


# the scan kind that recomputes each fixture
_FIXTURE_KINDS = {"merge-positions": "merge", "max-diffs": "maxdiff",
                  "c-sequence": "c", "m-sequence": "m"}


def _cmd_compare(args) -> int:
    try:
        name, want = get_fixture(args.fixture)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_ARG
    kind = _FIXTURE_KINDS[name]
    # the c-sequence is swept up to its largest term, the others to their length
    terms, _ = _sequence(kind, max(want) if kind == "c" else len(want), DEFAULT_BOUND, 1)
    got = tuple(terms)
    if got == want:
        print(f"{name}: {len(want)} terms match")
        return EXIT_OK
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            print(f"{name}: first divergence at index {1 + i}: computed {a}, fixture {b}")
            return EXIT_MISMATCH
    print(f"{name}: length mismatch (computed {len(got)}, fixture {len(want)})")
    return EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinconst",
        description="Greedy prime-index-constrained sequences, twin-pair "
                    "statistics, and constellation verification campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hseq", help="print one sequence prefix")
    p.add_argument("--start", type=_int_arg, required=True)
    p.add_argument("--n", type=_int_arg, required=True, help="last index (origin 2)")
    p.add_argument("--format", choices=("terms", "bfile"), default="terms")
    p.set_defaults(func=_cmd_hseq)

    p = sub.add_parser("trace", help="pair statistics: merge, max diff, first excess")
    p.add_argument("a", type=_int_arg)
    p.add_argument("b", type=_int_arg)
    p.add_argument("--threshold", type=_int_arg, default=DEFAULT_THRESHOLD)
    p.add_argument("--bound", type=_int_arg, default=DEFAULT_BOUND, help="merge bound")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("scan", help="bulk sequence scans")
    p.add_argument("kind", choices=("c", "m", "maxdiff", "merge"))
    p.add_argument("--limit", type=_int_arg, default=None)
    p.add_argument("--count", type=_int_arg, default=None)
    p.add_argument("--bound", type=_int_arg, default=DEFAULT_BOUND,
                   help="maxdiff and merge: merge bound")
    p.add_argument("--format", choices=("terms", "bfile"), default="terms")
    p.add_argument("--workers", type=_int_arg, default=1, help="c and m: worker processes")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("verify", help="verification campaigns")
    p.add_argument("target", choices=("t1", "t2", "cor", "conj1"))
    p.add_argument("--limit", type=_int_arg, default=10**6)
    p.add_argument("--primes", type=_int_arg, default=10, help="conj1: pair pool size")
    p.add_argument("--bound", type=_int_arg, default=DEFAULT_BOUND, help="conj1: merge bound")
    p.add_argument("--workers", type=_int_arg, default=1, help="t1, t2 and cor: worker processes")
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
