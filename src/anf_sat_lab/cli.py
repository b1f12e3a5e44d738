"""Command-line pipeline over the library.

Subcommands: parse, build, enumerate, indicator, coeff, decide, profile,
falsify.  DIMACS comes from a path or '-' (stdin); outputs are JSON, CSV or
DIMACS-style 'v' lines and are byte-identical for identical inputs, flags
and seeds.  Exit codes: 0 success, 1 soft failure (UNSAT build, parse
error, unsupported flag pair), 2 falsifier findings, 10 SAT,
20 UNSAT-under-assumption, 30 resource cap, 64 usage error (also falsify
parameters no instance can meet), 70 engine bug (InvariantViolation),
74 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from .anf import MODES, AnfPoly, bits_of_mask, mask_of_bits
from .cnf import Formula, parse_dimacs, formula_to_json, sort_clauses, to_dimacs
from .coeffs import DEFAULT_FRONTIER_CAP, CoefficientQuery, decide_sat_bounded
from .descriptor import DEFAULT_LEN_CAP, Descriptor, build, profile_csv
from .errors import AnfSatError, GenerationError, ResourceCap
from .falsify import CLAIM_IDS, check_campaign, falsify, write_reports
from .indicator import (
    DEFAULT_TERM_CAP,
    factor_sequence,
    indicator_from_clauses,
    indicator_from_descriptor,
    indicator_from_factors,
)
from .solutions import SolutionSet, list_solutions

EXIT_OK = 0
EXIT_SOFT_FAIL = 1
EXIT_FINDINGS = 2
EXIT_SAT = 10
EXIT_UNSAT_ASSUMED = 20
EXIT_CAPPED = 30
EXIT_USAGE = 64
EXIT_SOFTWARE = 70
EXIT_IO = 74


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; we use 64
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < float("inf"):  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _read_input(path: str) -> str:
    if path == "-":
        # Strict UTF-8 as for a path, whatever the locale; an in-memory stdin holds text.
        buffer = getattr(sys.stdin, "buffer", None)
        return sys.stdin.read() if buffer is None else buffer.read().decode("utf-8")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        sys.stderr.write(f"cannot read {path}: {exc}\n")
        sys.exit(EXIT_IO)


def _write_output(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        sys.stderr.write(f"cannot write {path}: {exc}\n")
        sys.exit(EXIT_IO)


def _load_formula(path: str) -> Formula:
    try:
        return parse_dimacs(_read_input(path))
    except (AnfSatError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        sys.exit(EXIT_SOFT_FAIL)


def _cmd_parse(args: argparse.Namespace) -> int:
    f = _load_formula(args.input)
    if args.emit == "json":
        _write_output(args.output, formula_to_json(f) + "\n")
    else:
        _write_output(args.output, to_dimacs(f))
    return EXIT_OK


def _cmd_build(args: argparse.Namespace) -> int:
    f = _load_formula(args.input)
    result = build(sort_clauses(f), cap=args.cap)
    if args.trace:
        _write_output(args.trace, profile_csv(result.trace))
    payload = {"status": result.status}
    if result.ok:
        assert result.descriptor is not None
        payload["descriptor"] = result.descriptor.to_json()
    if result.capped:
        payload["capped_at"] = list(result.capped_at or ())
    _write_output(args.output, json.dumps(payload, sort_keys=True) + "\n")
    if result.capped:
        return EXIT_CAPPED
    return EXIT_OK if result.ok else EXIT_SOFT_FAIL


def _descriptor_within_cap(f: Formula, cap: int) -> Optional[Descriptor]:
    """The descriptor, or None when the build proves UNSAT; a cap raises."""
    result = build(sort_clauses(f), cap=cap)
    if result.capped:
        raise ResourceCap("build hit the length cap")
    return result.descriptor


def _cmd_enumerate(args: argparse.Namespace) -> int:
    f = _load_formula(args.input)
    h = _descriptor_within_cap(f, args.cap)
    if h is None:
        _write_output(args.output, "s UNSATISFIABLE\n")
        return EXIT_OK
    points = list_solutions(
        h, solution_cap=args.max_solutions, node_cap=args.max_nodes
    )
    # A built descriptor's fixed points are the solutions (``descriptor``
    # docstring); each is still checked against the CNF, to catch an engine fault.
    sols = SolutionSet(
        f.n,
        tuple(
            sol
            for sol in points.solutions
            if f.eval_mask(mask_of_bits(sol))
        ),
        points.truncated,
    )
    dropped = points.sigma - sols.sigma
    if args.emit == "json":
        payload = {
            "count": sols.sigma,
            "dropped": dropped,
            "truncated": sols.truncated,
            "solutions": sols.to_json(),
        }
        _write_output(args.output, json.dumps(payload, sort_keys=True) + "\n")
    else:
        text = sols.to_dimacs_v_lines()
        text += f"c {sols.sigma} solutions" + (" (truncated)\n" if sols.truncated else "\n")
        if dropped:
            text += f"c {dropped} fixed points dropped: not solutions\n"
        _write_output(args.output, text)
    return EXIT_OK


def _cmd_indicator(args: argparse.Namespace) -> int:
    if args.form == "descriptor" and args.mode != "gf2":
        sys.stderr.write("descriptor form is GF(2) only\n")
        return EXIT_SOFT_FAIL
    f = _load_formula(args.input)
    if args.form == "clauses":
        poly = indicator_from_clauses(f, args.mode, cap=args.cap)
    elif args.form == "descriptor":
        h = _descriptor_within_cap(f, args.cap)
        poly = AnfPoly.zero() if h is None else indicator_from_descriptor(h, cap=args.cap)
    else:
        fs = factor_sequence(sort_clauses(f))
        poly = indicator_from_factors(fs, args.mode, cap=args.cap)
    _write_output(args.output, poly.to_text("x") + "\n")
    return EXIT_OK


def _cmd_coeff(args: argparse.Namespace) -> int:
    f = _load_formula(args.input)
    if args.delta == "top":
        mask = ((1 << (f.n + 1)) - 1) & ~1
    else:
        bits = [b.strip() for b in args.delta.split(",")]
        if len(bits) != f.n or any(b not in ("0", "1") for b in bits):
            sys.stderr.write(
                f"--delta needs {f.n} comma-separated 0/1 entries or 'top'\n"
            )
            return EXIT_USAGE
        mask = mask_of_bits(b == "1" for b in bits)
    fs = factor_sequence(sort_clauses(f))
    query = CoefficientQuery.from_factor_sequence(
        fs, args.mode, frontier_cap=args.frontier_cap
    )
    value = query.coefficient(mask)
    payload = {
        "delta": list(bits_of_mask(mask, f.n)),
        "coefficient": value,
        "mode": args.mode,
        "work": {
            "queries": query.queries,
            "max_frontier": query.max_frontier(),
        },
    }
    _write_output(args.output, json.dumps(payload, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_decide(args: argparse.Namespace) -> int:
    f = _load_formula(args.input)
    decision = decide_sat_bounded(
        f, args.k, args.mode, frontier_cap=args.frontier_cap
    )
    verdict = decision.verdict
    if verdict.capped:
        headline, code = "s UNKNOWN (resource cap)", EXIT_CAPPED
    elif verdict.satisfiable:
        headline, code = "s SATISFIABLE", EXIT_SAT
    else:
        headline = f"s UNSATISFIABLE (under #S<=2^{args.k} assumption)"
        code = EXIT_UNSAT_ASSUMED
    report = json.dumps(decision.to_json(), sort_keys=True)
    _write_output(args.output, f"{headline}\n{report}\n")
    return code


def _cmd_profile(args: argparse.Namespace) -> int:
    f = _load_formula(args.input)
    result = build(sort_clauses(f), cap=args.cap)
    _write_output(args.output, profile_csv(result.trace))
    if result.capped:
        return EXIT_CAPPED
    return EXIT_OK


def _cmd_falsify(args: argparse.Namespace) -> int:
    claims = CLAIM_IDS if args.claims == "all" else tuple(args.claims.split(","))
    try:  # a ValueError from the campaign itself is no usage error
        check_campaign(claims, args.ratio)
    except ValueError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_USAGE
    reports, stats = falsify(
        claims, count=args.count, n=args.n, ratio=args.ratio, seed=args.seed
    )
    if args.report_dir is not None and reports:
        try:  # only the report files map to EXIT_IO; an OSError of the campaign propagates
            write_reports(reports, args.report_dir)
        except OSError as exc:
            sys.stderr.write(f"cannot write {args.report_dir}: {exc}\n")
            return EXIT_IO
    payload = {
        "instances": stats.instances,
        "divergences": stats.divergences,
        "skipped": sum(stats.skipped_by_cause.values()),
        "skipped_by_cause": stats.skipped_by_cause,
        "per_claim": stats.per_claim,
        "reports": [r.to_json() for r in reports],
    }
    _write_output(args.output, json.dumps(payload, sort_keys=True) + "\n")
    return EXIT_FINDINGS if reports else EXIT_OK


@functools.cache  # one per process: parse_args leaves it as it was, and callers only read it
def _build_parser() -> _Parser:
    parser = _Parser(prog="anf-sat-lab", description=__doc__)
    parser.add_argument("--threads", type=int, default=1, help="accepted for interface compatibility; computation is deterministic and single-threaded")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, needs_input: bool = True) -> None:
        if needs_input:
            p.add_argument("input", help="DIMACS CNF path, or '-' for stdin")
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")

    p = sub.add_parser("parse", help="validate DIMACS and emit JSON or normalized DIMACS")
    add_common(p)
    p.add_argument("--emit", choices=("json", "dimacs"), default="json", help="output form: JSON, or normalized DIMACS (comments dropped, each clause's literals in ascending variable order)")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("build", help="build the descriptor of a formula")
    add_common(p)
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_LEN_CAP, help="length cap of every descriptor entry; when hit, the JSON has status 'capped' and 'capped_at' [level, len], and the exit code is 30")
    p.add_argument("--trace", default=None, help="write the profile CSV here")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("enumerate", help="list solutions via the prefix tree")
    add_common(p)
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_LEN_CAP, help="length cap of the descriptor build; exit 30 when hit")
    p.add_argument("--max-solutions", type=_positive_int, default=None, help="cap on the fixed points visited; those that are not solutions are dropped and counted ('c' line, JSON key 'dropped')")
    p.add_argument("--max-nodes", type=_positive_int, default=None, help="cap on the prefix-tree nodes visited; when hit, the solutions found so far are printed as truncated ('c N solutions (truncated)', JSON key 'truncated') and the exit code is still 0")
    p.add_argument("--emit", choices=("v", "json"), default="v", help="output form: DIMACS-style 'v' lines with a 'c' count line, or JSON")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("indicator", help="expand an indicator polynomial")
    add_common(p)
    p.add_argument("--mode", choices=MODES, default="gf2", help="coefficient ring: GF(2), or the integers")
    p.add_argument("--form", choices=("clauses", "descriptor", "factors"), default="clauses", help="'descriptor' expands the indicator of the built descriptor's fixed points, which are the solutions (GF(2) only)")
    p.add_argument(
        "--cap",
        type=_positive_int,
        default=DEFAULT_TERM_CAP,
        help="term cap of the expansion, and length cap of the descriptor-form "
        "build; exit 30 when hit (the build cannot reach the default over at "
        "most 20 variables, since len(h_l) <= 2**l)",
    )
    p.set_defaults(func=_cmd_indicator)

    p = sub.add_parser("coeff", help="query one product coefficient")
    add_common(p)
    p.add_argument("--delta", default="top", help="comma-separated 0/1 vector or 'top'")
    p.add_argument("--mode", choices=MODES, default="gf2", help="coefficient ring of the product: GF(2), or the integers")
    p.add_argument("--frontier-cap", type=_positive_int, default=DEFAULT_FRONTIER_CAP, help="cap on the masks memoized at one level of the coefficient recursion; exit 30 when hit")
    p.set_defaults(func=_cmd_coeff)

    p = sub.add_parser("decide", help="bounded-solution satisfiability verdict")
    add_common(p)
    p.add_argument("--k", type=_nonnegative_int, required=True, help="assume #solutions <= 2^k")
    p.add_argument("--mode", choices=MODES, default="gf2", help="coefficient ring of the product: GF(2), or the integers; both decide by the coefficient's parity, so the verdict is the same")
    p.add_argument("--frontier-cap", type=_positive_int, default=DEFAULT_FRONTIER_CAP, help="cap on the masks memoized at one level of the coefficient recursion; exit 30 when hit")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("profile", help="build and emit the merge profile CSV")
    add_common(p)
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_LEN_CAP, help="length cap of the build; when hit, the CSV holds the steps before the cap and the exit code is 30")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("falsify", help="hunt for counterexamples to monitored claims")
    add_common(p, needs_input=False)
    p.add_argument("--claims", default="all", help="'all' or comma-separated claim ids")
    p.add_argument("--count", type=_positive_int, default=500, help="number of random instances")
    p.add_argument("--n", type=_positive_int, default=12, help="variables per instance")
    p.add_argument("--ratio", type=_positive_float, default=4.26, help="clauses per variable; each instance has max(1, round(ratio * n)) clauses")
    p.add_argument("--seed", type=int, default=0, help="seed of the first instance; instance i uses seed + i")
    p.add_argument("--report-dir", default=None, help="when there are findings, write reports.jsonl and each finding's minimized DIMACS here")
    p.set_defaults(func=_cmd_falsify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceCap as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_CAPPED
    except GenerationError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_USAGE
    except AnfSatError as exc:
        sys.stderr.write(f"engine bug: {type(exc).__name__}: {exc}\n")
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
