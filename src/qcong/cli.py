"""Command-line interface.

`check`, `relation` and `scan` build their series in the narrowest ring
that resolves every modulus they check (`series.narrowest_ring`): mod 2^8
up to modulus 2^8, mod the largest modulus up to 2^64, else exact. So a
witness's `value` is c(n) mod 2^w, and its residue is exact.

Exit codes: 0 when every requested check passes, 1 when at least one check
fails, 2 for usage, parse, or evaluation errors, an order too large to
allocate, or a failed write (a full disk, or stdout closed early by `| head`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from itertools import islice
from typing import Optional

from .catalogue import (all_passed, build_suite_context, check_row,
                        run_catalogue, suite_json, verify_congruent)
from .oracle import oracle_table
from .qexpr import Dissect, Num, Sub, evaluate, parse, reads
from .series import (EXACT, MOD64, check_modulus, dump_json_dict, dump_text,
                     narrowest_ring, scan_progressions)


def _ring_for(name: str):
    return MOD64 if name == "mod64" else EXACT


def _int(text: str, low: int) -> Optional[int]:
    """The integer `text` spells in ASCII digits, as the grammar's INT, or
    None when it is not one >= low."""
    if not (text.isascii() and text.isdigit()):
        return None
    value = int(text)
    return value if value >= low else None


def _checked(value, expected: str, text: str):
    """`value`, or the argparse error when it is None: a bad flag value
    exits 2 with "argument FLAG: expected ..., got TEXT"."""
    if value is None:
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return value


def _pair(text: str) -> tuple[int, int]:
    a, _, b = text.partition(",")
    pair = (_int(a, 1), _int(b, 0))  # a second comma leaves b no integer
    return _checked(None if None in pair else pair, "A,B with integers A >= 1 and B >= 0", text)


def _int_at_least(low: int):
    """An argparse type: an integer >= low, so a bad value names its flag."""
    return lambda text: _checked(_int(text, low), f"an integer >= {low}", text)


def _moduli(text: str) -> list[int]:
    """An argparse type: comma-separated moduli, each an integer >= 2."""
    moduli = [_int(x, 2) for x in text.split(",")]
    return _checked(None if None in moduli else moduli,
                    "comma-separated integers >= 2", text)


def _series_spec(text: str):
    """An argparse type: C or Ck:K, as the qexpr leaf of its series."""
    if text == "C":
        return parse("C")
    k = _int(text[3:], 1) if text.startswith("Ck:") else None
    return parse(f"Ck[{_checked(k, 'C or Ck:K with K >= 1', text)}]")


def _k_spec(text: str):
    return "limit" if text == "limit" else _checked(_int(text, 1), "a k >= 1 or 'limit'", text)


def _print_report(report, prefix: str = "") -> int:
    line = prefix + report.status
    if report.witness is not None:
        line += f"  witness: {json.dumps(report.witness)}"
    print(line)
    return 0 if report.passed() else 1


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
    # refuse a bad source or modulus before either side is built
    sides = [parse(args.lhs), parse(args.rhs)]
    if args.mod is not None:
        check_modulus(ring, args.mod)
    lhs, rhs = (evaluate(e, args.order, ring) for e in sides)
    return _print_report(verify_congruent(lhs, rhs, args.mod, args.order))


def _check_sides(leaf, lhs, rhs, modulus: int, n_max: int) -> int:
    """lhs == rhs mod `modulus` to n_max, `leaf` built once as deep as read."""
    n = n_max + 1
    ring = narrowest_ring([modulus])
    order = max(reads(e, n).get(leaf, 0) for e in (lhs, rhs))
    seeds = {leaf: evaluate(leaf, order, ring)}
    return _print_report(check_row((lhs, rhs), modulus, seeds, n))


def _cmd_check(args) -> int:
    return _check_sides(args.series, Dissect(*args.progression, args.series),
                        Num(0), args.mod, args.nmax)


def _cmd_relation(args) -> int:
    rhs = Dissect(*args.rhs, args.series)
    return _check_sides(args.series, Dissect(*args.lhs, args.series),
                        rhs if args.sign == "+" else Sub(Num(0), rhs),
                        args.mod, args.nmax)


def _cmd_suite(args) -> int:
    # open the report first: a path it cannot write must fail before the
    # series are built, not after the whole run
    try:
        report_file = (None if args.json is None
                       else open(args.json, "w", encoding="utf-8"))
    except OSError as exc:
        print(f"error: cannot write --json {args.json}: {exc.strerror}",
              file=sys.stderr)
        return 2
    with report_file or nullcontext():
        ctx = build_suite_context(args.order_identity, args.order_scan,
                                  args.kmax)
        reports = run_catalogue(ctx)
        for report in reports:
            _print_report(report, f"{report.claim_id:<22} ")
        counts = {status: sum(r.status == status for r in reports)
                  for status in ("pass", "fail", "order-too-small")}
        print(f"{len(reports)} claims: {counts['pass']} pass, "
              f"{counts['fail']} fail, {counts['order-too-small']} order-too-small")
        if report_file is not None:
            doc = suite_json(reports, args.order_identity, args.order_scan,
                             args.kmax)
            json.dump(doc, report_file, indent=2)
            report_file.write("\n")
    return 0 if all_passed(reports) else 1


def _cmd_oracle(args) -> int:
    for n, count in enumerate(oracle_table(args.k, args.nmax)):
        print(f"{n}\t{count}")
    return 0


def _cmd_scan(args) -> int:
    order = args.amax * (args.nmax + 1)
    series = evaluate(parse("C"), order, narrowest_ring(args.mods))
    for a, b, m in scan_progressions(series, args.amax, args.mods, args.nmax):
        print(f"c({a}n+{b}) == 0 mod {m} for n <= {args.nmax}")
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

    p_oracle = sub.add_parser("oracle", help="count partitions from their "
                                             "definition, part value by value")
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
    if hasattr(sys, "set_int_max_str_digits"):  # exact integers print in full
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(_sources_last(sys.argv[1:] if argv is None
                                           else argv))
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a failed write is caught here, not at exit
        return code
    except OSError as exc:  # a failed write, on stdout or the --json report
        if not isinstance(exc, BrokenPipeError):  # a closed pipe goes unreported
            print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
        try:
            sys.stdout.flush()  # as the interpreter will again at exit
        except OSError:  # Python's SIGPIPE recipe: point stdout at devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except MemoryError as exc:
        print(f"error: order too large to allocate: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # qcong's own errors all subclass it
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # parse and evaluate recurse once per nesting level or chained term
        print("error: expression is nested or chained too deeply to evaluate",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
