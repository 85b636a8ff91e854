"""Command-line interface.

Exit codes: 0 when every requested check passes, 1 when at least one check
fails, 2 for usage, parse, or evaluation errors, an order too large to
allocate, or output errors (stdout closed early, as by `qcong scan ... | head`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice
from typing import Optional

from .catalogue import all_passed, build_suite_context, run_catalogue, suite_json
from .engine import (
    check_progression,
    check_relation,
    scan_progressions,
    series_c,
    series_ck,
    verify_congruent,
    verify_identity,
)
from .oracle import oracle_table
from .qexpr import ParseError, evaluate, parse
from .series import (
    EXACT,
    MOD64,
    NonUnitError,
    OrderError,
    RingMismatchError,
    dump_json_dict,
    dump_text,
)


def _ring_for(name: str):
    return MOD64 if name == "mod64" else EXACT


def _divides_2_64(m: int) -> bool:
    return 2 <= m <= 1 << MOD64.width and not (m & (m - 1))


def _pair(text: str) -> tuple[int, int]:
    try:
        a, b = (int(x) for x in text.split(","))
    except ValueError:
        a = b = -1
    if a < 1 or b < 0:
        raise argparse.ArgumentTypeError(
            f"expected A,B with integers A >= 1 and B >= 0, got {text!r}")
    return a, b


def _int_at_least(low: int):
    """An argparse type: an integer >= low, so a bad value names its flag."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


def _moduli(text: str) -> list[int]:
    """An argparse type: comma-separated moduli, each an integer >= 2."""
    return [_int_at_least(2)(x) for x in text.split(",")]


def _series_spec(text: str) -> tuple[str, Optional[int]]:
    if text == "C":
        return "C", None
    if text.startswith("Ck:"):
        try:
            k = int(text[3:])
        except ValueError:
            k = 0
        if k >= 1:
            return "Ck", k
    raise argparse.ArgumentTypeError(
        f"expected C or Ck:K with K >= 1, got {text!r}")


def _k_spec(text: str):
    if text == "limit":
        return "limit"
    try:
        k = int(text)
    except ValueError:
        k = 0
    if k < 1:
        raise argparse.ArgumentTypeError(f"expected a k >= 1 or 'limit', got {text!r}")
    return k


def _print_report(report) -> int:
    line = report.status
    if report.witness is not None:
        line += f"  witness: {json.dumps(report.witness)}"
    print(line)
    return 0 if report.status == "pass" else 1


def _cmd_expand(args) -> int:
    series = evaluate(parse(args.expr), args.order, _ring_for(args.ring))
    if args.json:
        print(json.dumps(dump_json_dict(series)))
    else:
        print(dump_text(series))
    return 0


def _cmd_verify(args, parser: argparse.ArgumentParser) -> int:
    if args.ring == "mod64" and args.mod is None:
        parser.error("--ring mod64 needs --mod (exact equality needs the exact ring)")
    ring = _ring_for(args.ring)
    lhs = evaluate(parse(args.lhs), args.order, ring)
    rhs = evaluate(parse(args.rhs), args.order, ring)
    if args.mod is None:
        report = verify_identity(lhs, rhs, args.order)
    else:
        report = verify_congruent(lhs, rhs, args.mod, args.order)
    return _print_report(report)


def _build_series(kind: str, k: Optional[int], order: int, modulus: int):
    ring = MOD64 if _divides_2_64(modulus) else EXACT
    if kind == "C":
        return series_c(order, ring)
    return series_ck(k, order, ring)


def _cmd_check(args) -> int:
    a, b = args.progression
    order = a * args.nmax + b + 1
    series = _build_series(*args.series, order, args.mod)
    report = check_progression(series, a, b, args.mod, n_max=args.nmax)
    return _print_report(report)


def _cmd_relation(args) -> int:
    a1, b1 = args.lhs
    a2, b2 = args.rhs
    sign = 1 if args.sign == "+" else -1
    order = max(a1 * args.nmax + b1, a2 * args.nmax + b2) + 1
    series = _build_series(*args.series, order, args.mod)
    report = check_relation(series, a1, b1, sign, a2, b2, args.mod,
                            n_max=args.nmax)
    return _print_report(report)


def _cmd_suite(args) -> int:
    ctx = build_suite_context(args.order_identity, args.order_scan, args.kmax)
    reports = run_catalogue(ctx)
    for report in reports:
        line = f"{report.claim_id:<22} {report.status}"
        if report.witness is not None:
            line += f"  witness: {json.dumps(report.witness)}"
        print(line)
    counts = {status: sum(r.status == status for r in reports)
              for status in ("pass", "fail", "order-too-small")}
    print(f"{len(reports)} claims: {counts['pass']} pass, "
          f"{counts['fail']} fail, {counts['order-too-small']} order-too-small")
    if args.json is not None:
        doc = suite_json(reports, args.order_identity, args.order_scan,
                         args.kmax)
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return 0 if all_passed(reports) else 1


def _cmd_oracle(args) -> int:
    for row in oracle_table(args.k, args.nmax):
        print(f"{row.n}\t{row.count}")
    return 0


def _cmd_scan(args) -> int:
    order = args.amax * (args.nmax + 1)
    ring = MOD64 if all(_divides_2_64(m) for m in args.mods) else EXACT
    series = series_c(order, ring)
    for claim in scan_progressions(series, args.amax, args.mods, args.nmax):
        print(claim)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcong",
        description="Truncated q-series arithmetic and congruence checking "
                    "for two-color partition counting functions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="evaluate an expression and dump "
                                             "its coefficients")
    p_expand.add_argument("expr")
    p_expand.add_argument("--order", type=_int_at_least(1), required=True)
    p_expand.add_argument("--ring", choices=("exact", "mod64"), default="exact")
    p_expand.add_argument("--json", action="store_true")
    p_expand.set_defaults(func=_cmd_expand)

    p_verify = sub.add_parser("verify", help="compare two expressions "
                                             "coefficientwise")
    p_verify.add_argument("lhs")
    p_verify.add_argument("rhs")
    p_verify.add_argument("--order", type=_int_at_least(1), required=True)
    p_verify.add_argument("--mod", type=_int_at_least(2))
    p_verify.add_argument("--ring", choices=("exact", "mod64"), default="exact")
    p_verify.set_defaults(func=lambda args: _cmd_verify(args, p_verify))

    p_check = sub.add_parser("check", help="check a single congruence "
                                           "progression")
    p_check.add_argument("--series", type=_series_spec, required=True,
                         metavar="C|Ck:K")
    p_check.add_argument("--progression", type=_pair, required=True,
                         metavar="A,B")
    p_check.add_argument("--mod", type=_int_at_least(2), required=True)
    p_check.add_argument("--nmax", type=_int_at_least(0), required=True)
    p_check.set_defaults(func=_cmd_check)

    p_rel = sub.add_parser("relation", help="check a two-progression relation")
    p_rel.add_argument("--series", type=_series_spec, required=True,
                       metavar="C|Ck:K")
    p_rel.add_argument("--lhs", type=_pair, required=True, metavar="A1,B1")
    p_rel.add_argument("--rhs", type=_pair, required=True, metavar="A2,B2")
    p_rel.add_argument("--sign", choices=("+", "-"), required=True)
    p_rel.add_argument("--mod", type=_int_at_least(2), required=True)
    p_rel.add_argument("--nmax", type=_int_at_least(0), required=True)
    p_rel.set_defaults(func=_cmd_relation)

    p_suite = sub.add_parser("suite", help="run the full claim catalogue")
    p_suite.add_argument("--order-identity", type=_int_at_least(1), default=400)
    p_suite.add_argument("--order-scan", type=_int_at_least(1), default=40000)
    p_suite.add_argument("--kmax", type=_int_at_least(0), default=2)
    p_suite.add_argument("--json", metavar="PATH")
    p_suite.set_defaults(func=_cmd_suite)

    p_oracle = sub.add_parser("oracle", help="count partitions by direct "
                                             "enumeration")
    p_oracle.add_argument("--k", type=_k_spec, required=True, metavar="K|limit")
    p_oracle.add_argument("--nmax", type=_int_at_least(0), required=True)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_scan = sub.add_parser("scan", help="search for vanishing progressions")
    p_scan.add_argument("--amax", type=_int_at_least(1), required=True)
    p_scan.add_argument("--mods", type=_moduli, required=True,
                        metavar="M1,M2,...")
    p_scan.add_argument("--nmax", type=_int_at_least(0), required=True)
    p_scan.set_defaults(func=_cmd_scan)

    return parser


# the options of `verify` and `expand` that take a value
_VALUE_OPTIONS = ("--order", "--mod", "--ring")


def _sources_last(argv: list[str]) -> list[str]:
    """Move the expression sources of `verify` and `expand` behind a `--`,
    so that argparse reads a source such as "-D[2,0](C)" as a source, not
    as an unknown option. Every token that is not a `--option`, its value,
    or `-h` is a source; an argv that already has a `--` is left alone."""
    if not argv or argv[0] not in ("verify", "expand") or "--" in argv:
        return argv
    options, sources = [], []
    rest = iter(argv[1:])
    for tok in rest:
        if not (tok.startswith("--") or tok == "-h"):
            sources.append(tok)
            continue
        options.append(tok)
        # argparse accepts any unambiguous prefix of an option
        if "=" not in tok and any(o.startswith(tok) for o in _VALUE_OPTIONS):
            options.extend(islice(rest, 1))  # its value, even "-4"
    return [argv[0], *options, "--", *sources]


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_sources_last(sys.argv[1:] if argv is None
                                           else argv))
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe is caught here, not at exit
        return code
    except BrokenPipeError:
        # Python's SIGPIPE recipe: the interpreter flushes stdout again at
        # exit, so point it at devnull first
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except MemoryError as exc:
        print(f"error: order too large to allocate: {exc}", file=sys.stderr)
        return 2
    except (ParseError, NonUnitError, OrderError, RingMismatchError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # parse and evaluate recurse once per nesting level or chained term
        print("error: expression is nested or chained too deeply to evaluate",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
