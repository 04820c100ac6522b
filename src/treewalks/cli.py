"""Command-line interface.

Subcommands: triangle, walks, poly, stable, verify.  Exit codes are fixed:
0 success, 1 a failed ``verify`` check or a ``walks --method all``
disagreement, 2 usage/domain error, 3 an exactness fault, 141 the reader
closed stdout.  Output is deterministic; JSON integers are decimal strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Iterable, Iterator

from treewalks import rlseq, verify
from treewalks.triangles import borel_rows, catalan_rows, checked_rows
from treewalks.walks import ROUTES, walks_polynomial

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_EXACTNESS = 3
EXIT_PIPE = 141  # 128 + SIGPIPE: the reader closed stdout

#: The subcommands, in the order ``--help`` lists them.
COMMANDS = ("triangle", "walks", "poly", "stable", "verify")

_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def _invalid_choice(word: str, choices: Iterable[str]) -> str:
    """argparse's invalid-choice text as Python 3.10 to 3.13.0 print it, choices quoted."""
    return f"invalid choice: {word!r} (choose from {', '.join(map(repr, choices))})"


class _Parser(argparse.ArgumentParser):
    """argparse with ``_invalid_choice``'s text on every Python, in its subparsers too."""

    def _check_value(self, action: argparse.Action, value: str) -> None:
        if action.choices is not None and value not in action.choices:
            raise argparse.ArgumentError(action, _invalid_choice(value, action.choices))


def format_rows(rows: Iterable[tuple[int, ...]], fmt: str) -> Iterator[str]:
    """Rows of integers as text, one piece per row, ending in a newline.

    ``fmt`` "json" gives an array of arrays of decimal strings (no
    precision loss); "csv" gives one comma-separated line per row and
    "plain" one space-separated line per row.  The first row is pulled
    before any text is yielded, so a builder that refuses its input
    prints nothing.
    """
    if fmt == "json":
        # decimal strings need no escaping, so this is json.dumps's text
        pieces = ('["' + '", "'.join(map(str, row)) + '"]' for row in rows)
        yield "[" + next(pieces, "")
        for piece in pieces:
            yield ", " + piece
        yield "]\n"
        return
    sep = "," if fmt == "csv" else " "
    for row in rows:
        yield sep.join(map(str, row)) + "\n"


def _render(coefficients: tuple[int, ...], ascii_only: bool) -> str:
    """A walk polynomial, coefficients of degree^n down to degree^1, as text."""
    var = "d" if ascii_only else "δ"
    minus = "-" if ascii_only else "−"
    terms = []
    for l, c in zip(range(len(coefficients), 0, -1), coefficients):
        mag = abs(c)
        if l == 1:
            power = ""
        elif ascii_only:
            power = f"^{l}"
        else:
            power = str(l).translate(_SUPERSCRIPTS)
        term = f"{'' if mag == 1 else mag}{var}{power}"
        if not terms:
            terms.append(term if c > 0 else f"{minus}{term}")
        else:
            terms.append(f" {minus} {term}" if c < 0 else f" + {term}")
    return "".join(terms)


def _cmd_triangle(args: argparse.Namespace) -> int:
    if args.rows < 0:
        raise ValueError(f"--rows must be >= 0, got {args.rows}")
    rows = catalan_rows if args.kind == "catalan" else borel_rows
    sys.stdout.writelines(format_rows(checked_rows(rows(args.rows), args.kind), args.format))
    return EXIT_OK


def _cmd_walks(args: argparse.Namespace) -> int:
    methods = ROUTES if args.method == "all" else [args.method]
    values = {m: ROUTES[m](args.n, args.delta) for m in methods}
    if args.format == "json":
        print(json.dumps({m: str(v) for m, v in values.items()}))
    elif args.format == "csv":
        print("\n".join(f"{m},{v}" for m, v in values.items()))
    elif len(values) == 1:
        print(next(iter(values.values())))
    else:
        width = max(len(m) for m in values)
        print("\n".join(f"{m:<{width}}  {v}" for m, v in values.items()))
    if len(set(values.values())) > 1:
        print(f"method disagreement: {values}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_poly(args: argparse.Namespace) -> int:
    coefficients = walks_polynomial(args.n)
    if args.format == "json":
        print(json.dumps(list(map(str, coefficients))))
    elif args.format == "csv":
        print(",".join(map(str, coefficients)))
    else:
        print(_render(coefficients, args.ascii))
    return EXIT_OK


def _cmd_stable(args: argparse.Namespace) -> int:
    if args.method == "enumerated":
        if args.enum_cap < 0:
            raise ValueError(f"--enum-cap must be >= 0, got {args.enum_cap}")
        rows = rlseq.s_table_enumerated(args.n, cap=args.enum_cap)  # checked there
    elif args.n < 0:
        raise ValueError(f"n must be >= 0, got {args.n}")
    elif args.method == "closed":
        closed = (
            (0, *(rlseq.s_closed_form(m, k) for k in range(1, m + 1))) if m else (1,)
            for m in range(args.n + 1)
        )
        rows = checked_rows(closed, "s")
    else:
        rows = checked_rows((tuple(reversed(row)) for row in rlseq._s_rows(args.n)), "s")
    # rows m >= 1 are printed as S(m, 1..m), without the zero S(m, 0)
    printed = (row[1:] if m else row for m, row in enumerate(rows))
    sys.stdout.writelines(format_rows(printed, args.format))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    # a bound below 1 leaves the checks nothing to check
    bounds = {"--max-n": args.max_n, "--max-delta": args.max_delta, "--enum-cap": args.enum_cap}
    for option, value in bounds.items():
        if value < 1:
            raise ValueError(f"{option} must be >= 1, got {value}")
    results = verify.run_all(max_n=args.max_n, max_delta=args.max_delta, enum_cap=args.enum_cap)
    width = max(len(r.name) for r in results)
    for r in sorted(results, key=lambda r: r.name):
        status = "PASS" if r.passed else "FAIL"
        line = f"{r.name:<{width}}  {status}"
        if r.detail:
            line += f"  ({r.detail})"
        print(line)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call.

    Parsing leaves the parser as it was, so ``main`` reuses it; a caller
    must not modify the returned parser.
    """
    parser = _Parser(
        prog="treewalks",
        description="Exact closed-walk counts on infinite regular trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("plain", "csv", "json"), default="plain")

    p = sub.add_parser("triangle", help="print Catalan's or Borel's triangle")
    p.add_argument("kind", choices=("catalan", "borel"))
    p.add_argument("--rows", type=int, required=True, help="largest row index N")
    add_format(p)
    p.set_defaults(func=_cmd_triangle)

    p = sub.add_parser("walks", help="count closed walks of length 2n")
    p.add_argument("--n", type=int, required=True, help="half-length of the walk")
    p.add_argument("--delta", type=int, required=True, help="tree degree")
    p.add_argument("--method", choices=(*ROUTES, "all"), default="catalan")
    add_format(p)
    p.set_defaults(func=_cmd_walks)

    p = sub.add_parser("poly", help="walk-count polynomial in the tree degree")
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    p.add_argument("--ascii", action="store_true", help="render with 'd' and '^'")
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("stable", help="component-count table S(n, k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--method", choices=("recurrence", "enumerated", "closed"), default="recurrence"
    )
    p.add_argument("--enum-cap", type=int, default=rlseq.ENUM_CAP_DEFAULT)
    add_format(p)
    p.set_defaults(func=_cmd_stable)

    p = sub.add_parser("verify", help="run the cross-method invariant suite")
    p.add_argument("--max-n", type=int, default=12)
    p.add_argument("--max-delta", type=int, default=6)
    p.add_argument("--enum-cap", type=int, default=8)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    # argparse's reading of some words changed within 3.10-3.13, so they
    # are fixed here.  Before the first "--", a word that starts with "-h"
    # ("-hx" and "-h x" included) becomes "-h", so the parser that reads
    # it prints its help.  A "--" before the command and any help word is
    # refused as the command; argparse refuses any other unknown command,
    # in ``_Parser``'s text
    end = argv.index("--") if "--" in argv else len(argv)
    head = ["-h" if word.startswith("-h") else word for word in argv[:end]]
    if end < len(argv) and {*COMMANDS, "-h", "--h", "--he", "--hel", "--help"}.isdisjoint(head):
        parser.error("argument command: " + _invalid_choice("--", COMMANDS))
    args = parser.parse_args([*head, *argv[end:]])
    # an exact answer may run past Python's 4,300-digit int -> str limit;
    # lift it while the command runs (3.10.0-3.10.6 have no limit)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ZeroDivisionError, OverflowError, FloatingPointError):
        raise  # bugs, not a failed identity
    except ArithmeticError as exc:  # ExactnessError, or the oracle's own
        print(f"error: exactness fault: {exc}", file=sys.stderr)
        return EXIT_EXACTNESS
    except BrokenPipeError:
        # the reader closed the pipe: send what is still buffered, and the
        # interpreter's final flush, to devnull so that neither can raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
