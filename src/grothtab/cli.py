"""Command-line front end.

Subcommands: count-svt, count-sst, enumerate, eval-groth, eval-2f1,
eval-holman, verify.  All arithmetic is exact; rationals are written
'p/q'.  Exit codes: 0 success, 1 identity/cross-check failure, 2 usage
error (including non-terminating series refusals).

A call whose first argument names a subcommand builds only that
subcommand's parser (SUBCOMMANDS); help, no arguments, an unknown name or
a leading option build the full parser, so argparse's help, usage and
errors read as they would with every subcommand registered.  csv is
imported by --format csv alone.
"""

import argparse
import json
import sys
from fractions import Fraction

from .arith import exact_count, format_rational, parse_rational
from .grothendieck import (
    BETA,
    _x_names,
    count_svt_formula,
    grothendieck_tableau_sum,
    principal_specialization_q,
    refined_bialternant,
)
from .hypergeom import (
    HolmanInstance,
    gauss_2f1_terminating,
    holman_series,
    ones_value_by_series,
    shape_series,
)
from .identities import CHECKS, Grid, SuiteReport, UnknownCheckError, run_all, run_check
from .partitions import Partition, count_sst_hook, count_sst_product
from .tableaux import enumerate_sst, enumerate_svt


def parse_shape(text: str) -> Partition:
    """Parse a shape: '4,3' or '(4,3)'; repeated parts as '1^3' or '2^2,1'
    (a repeat count is at least 1); '0' or '()' denote the empty shape."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1].strip()
    if text in ("", "0"):
        return Partition()
    parts = []
    for token in text.split(","):
        token = token.strip()
        if "^" in token:
            base, _, count = token.partition("^")
            if int(count) < 1:
                raise ValueError(f"repeat count in {token!r} must be at least 1")
            parts.extend([int(base)] * int(count))
        else:
            parts.append(int(token))
    return Partition(parts)


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_rational_list(option: str, text: str) -> list[Fraction]:
    """A comma list of rationals; an empty item is refused, not skipped."""
    items = text.split(",") if text.strip() else []
    if any(not item.strip() for item in items):
        raise ValueError(f"{option} has an empty item: {text!r}")
    return [parse_rational(item) for item in items]


def _print_csv(rows: list[list], header: list[str]) -> None:
    import csv  # only --format csv needs it

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([str(v) for v in row])


# ----------------------------------------------------------------------
# counting
# ----------------------------------------------------------------------

# Method name -> counter(shape, nvars), in the order `--method all` lists
# them.  The lambdas look each function up when they run, not at import.
SVT_COUNTERS = {
    "enum": lambda shape, n: sum(1 for _ in enumerate_svt(shape, n)),
    "formula": lambda shape, n: count_svt_formula(shape, n),
    "holman": lambda shape, n: exact_count(ones_value_by_series(shape, n, 1),
                                           f"coupled-series count for {shape}, n={n}"),
}
SST_COUNTERS = {
    "enum": lambda shape, n: sum(1 for _ in enumerate_sst(shape, n)),
    "product": lambda shape, n: count_sst_product(shape, n),
    "hook": lambda shape, n: count_sst_hook(shape, n),
}


def _run_count(args, counters: dict) -> int:
    shape = parse_shape(args.shape)
    wanted = list(counters) if args.method == "all" else [args.method]
    # enum runs last, so that an n!-term sum over the limit refuses before it
    got = {m: counters[m](shape, args.vars) for m in sorted(wanted, key=lambda m: m == "enum")}
    counts = {m: got[m] for m in wanted}
    distinct = set(counts.values())
    if args.format == "json":
        print(json.dumps({"shape": list(shape), "vars": args.vars,
                          "counts": counts, "agree": len(distinct) == 1}))
    elif args.format == "csv":
        _print_csv([[str(shape), args.vars, m, c] for m, c in counts.items()],
                   ["shape", "vars", "method", "count"])
    elif len(wanted) == 1:
        print(counts[wanted[0]])
    else:
        for m, c in counts.items():
            print(f"{m}: {c}")
        print("agree" if len(distinct) == 1 else "DISAGREE")
    if len(distinct) > 1:
        print(f"method disagreement for shape {shape}, n={args.vars}: "
              + ", ".join(f"{m}={c}" for m, c in counts.items()), file=sys.stderr)
        return 1
    return 0


def cmd_count_svt(args) -> int:
    return _run_count(args, SVT_COUNTERS)


def cmd_count_sst(args) -> int:
    return _run_count(args, SST_COUNTERS)


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------

def cmd_enumerate(args) -> int:
    shape = parse_shape(args.shape)
    stream = enumerate_sst(shape, args.vars) if args.kind == "sst" else enumerate_svt(shape, args.vars)
    if args.format == "json":
        print(json.dumps([t.to_json() for t in stream]))
    elif args.format == "csv":
        _print_csv([[i, t.compact_str()] for i, t in enumerate(stream)],
                   ["index", "tableau"])
    else:
        for t in stream:
            print(t.compact_str())
    return 0


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

def _print_value(value: Fraction, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps({"value": format_rational(value),
                          "numerator": value.numerator, "denominator": value.denominator}))
    else:
        print(format_rational(value))


def cmd_eval_groth(args) -> int:
    shape = parse_shape(args.shape)
    n = args.vars
    beta = parse_rational(args.beta) if args.beta is not None else BETA
    if args.refined is not None:
        if args.beta is not None:
            raise ValueError("--beta cannot be used with --refined, which gives every beta")
        betas = _parse_rational_list("--refined", args.refined)
        if len(betas) != n - 1:
            raise ValueError(f"--refined needs exactly {n - 1} values")
    else:
        betas = None

    if args.principal_q is not None:
        q = parse_rational(args.principal_q)
        result = principal_specialization_q(
            shape, n, betas if betas is not None else [beta] * (n - 1), q)
    else:
        if betas is not None:
            poly = refined_bialternant(shape, n, betas)
        else:
            poly = grothendieck_tableau_sum(shape, n)
            if args.beta is not None:
                poly = poly.substitute({BETA: beta})
        if args.at is not None or args.ones:
            point = [1] * n if args.ones else _parse_rational_list("--at", args.at)
            if len(point) != n:
                raise ValueError(f"--at needs exactly {n} values")
            poly = poly.substitute(dict(zip(_x_names(n), point)))
        result = poly

    if not isinstance(result, Fraction) and result.is_constant():
        result = result.as_fraction()
    if isinstance(result, Fraction):
        _print_value(result, args.format)
    elif args.format == "json":
        print(json.dumps(result.to_json()))
    else:
        print(result)
    return 0


def cmd_eval_2f1(args) -> int:
    value = gauss_2f1_terminating(
        parse_rational(args.alpha), parse_rational(args.beta),
        parse_rational(args.gamma), parse_rational(args.z))
    _print_value(value, args.format)
    return 0


def cmd_eval_holman(args) -> int:
    if args.fixture is not None:
        for option, value in (("--vars", args.vars), ("--z", args.z)):
            if value is not None:
                raise ValueError(f"{option} cannot be used with --fixture")
        inst = HolmanInstance.load(args.fixture)
        value = holman_series(inst)
    else:
        shape = parse_shape(args.from_shape)
        if args.vars is None:
            raise ValueError("--from-shape needs --vars")
        z = parse_rational(args.z) if args.z is not None else 1
        inst = HolmanInstance.from_shape(shape, args.vars, z)
        value = shape_series(shape, args.vars, z)
    if args.format == "json":
        print(json.dumps({"value": format_rational(value), "instance": inst.to_json()}))
    else:
        print(format_rational(value))
    return 0


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------

def _suite_table(suite: SuiteReport) -> str:
    lines = [f"{'check':<14} {'instances':>9} {'passed':>7} {'failed':>7} {'seconds':>8}"]
    for c in suite.checks:
        lines.append(f"{c.id:<14} {c.instances:>9} {c.passed:>7} {c.failed:>7} {c.seconds:>8.2f}")
        if c.failed:
            check = CHECKS[c.id]
            lines.append(f"    routes: left = {check.left}, right = {check.right}")
        for w in c.witnesses:
            ps = ", ".join(f"{k}={v}" for k, v in w.params.items())
            lines.append(f"    FAIL [{ps}] left={w.left} right={w.right}")
    lines.append(f"{'OK' if suite.ok else 'FAIL'}: {suite.passed} passed, {suite.failed} failed")
    return "\n".join(lines)


def cmd_verify(args) -> int:
    grid = Grid(max_size=args.max_size, max_vars=args.max_vars)
    if args.id is not None:
        try:
            suite = SuiteReport(grid.max_size, grid.max_vars, [run_check(args.id, grid)])
        except UnknownCheckError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        suite = run_all(grid)
    if args.json is not None:
        with open(args.json, "w") as handle:
            json.dump(suite.to_json(), handle, indent=2)
    if args.format == "json":
        print(json.dumps(suite.to_json()))
    elif args.format == "csv":
        _print_csv([[c.id, c.instances, c.passed, c.failed, f"{c.seconds:.3f}"]
                    for c in suite.checks],
                   ["id", "instances", "passed", "failed", "seconds"])
    else:
        print(_suite_table(suite))
    return 0 if suite.ok else 1


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def _add_shape_vars(p) -> None:
    p.add_argument("--shape", required=True,
                   help="partition, e.g. 4,3 or 1^3 (0 for the empty shape)")
    p.add_argument("--vars", required=True, type=_positive_int,
                   help="number of variables / letters (n >= 1)")


def _count_svt_arguments(p) -> None:
    _add_shape_vars(p)
    p.add_argument("--method", choices=[*SVT_COUNTERS, "all"], default="formula")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(func=cmd_count_svt)


def _count_sst_arguments(p) -> None:
    _add_shape_vars(p)
    p.add_argument("--method", choices=[*SST_COUNTERS, "all"], default="product")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(func=cmd_count_sst)


def _enumerate_arguments(p) -> None:
    _add_shape_vars(p)
    p.add_argument("--kind", choices=["svt", "sst"], default="svt")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(func=cmd_enumerate)


def _eval_groth_arguments(p) -> None:
    _add_shape_vars(p)
    p.add_argument("--beta", help="rational value for the parameter b")
    p.add_argument("--refined",
                   help="comma list of n-1 rationals for the refined variant")
    point = p.add_mutually_exclusive_group()
    point.add_argument("--at", help="comma list of n rationals for x")
    point.add_argument("--ones", action="store_true", help="evaluate at x = (1,..,1)")
    point.add_argument("--principal-q", dest="principal_q",
                       help="evaluate at x = (1,q,..,q^(n-1)) via the "
                            "shifted-exponent sum")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_eval_groth)


def _eval_2f1_arguments(p) -> None:
    p.add_argument("alpha")
    p.add_argument("beta")
    p.add_argument("gamma")
    p.add_argument("z")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_eval_2f1)


def _eval_holman_arguments(p) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--fixture", help="JSON instance file")
    source.add_argument("--from-shape", dest="from_shape",
                        help="build the instance attached to a shape")
    p.add_argument("--vars", type=_positive_int,
                   help="number of summation indices (with --from-shape)")
    p.add_argument("--z", help="constant argument (with --from-shape; default 1)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_eval_holman)


def _verify_arguments(p) -> None:
    p.add_argument("--id", help="run a single check by id")
    p.add_argument("--max-size", dest="max_size", type=_positive_int, default=6)
    p.add_argument("--max-vars", dest="max_vars", type=_positive_int, default=4)
    p.add_argument("--json", help="also write the JSON report to this path")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(func=cmd_verify)


# Subcommand name -> (help, add_arguments), in the order the help lists them.
SUBCOMMANDS = {
    "count-svt": ("count set-valued tableaux", _count_svt_arguments),
    "count-sst": ("count semistandard tableaux", _count_sst_arguments),
    "enumerate": ("list the tableaux themselves", _enumerate_arguments),
    "eval-groth": ("Grothendieck polynomial, symbolic or evaluated", _eval_groth_arguments),
    "eval-2f1": ("terminating Gauss series", _eval_2f1_arguments),
    "eval-holman": ("terminating coupled series", _eval_holman_arguments),
    "verify": ("run the identity checks", _verify_arguments),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser with every subcommand, or with only `command`'s.  The
    latter's top-level usage (printed with an unrecognized argument) still
    lists every subcommand; its other messages come from the subparser."""
    parser = argparse.ArgumentParser(
        prog="grothtab",
        description="Exact counting, evaluation, and verification for "
                    "set-valued tableaux and Grothendieck polynomials.")
    sub = parser.add_subparsers(dest="command", required=True)
    if command is not None:
        # a metavar would also rename `command` in the full parser's errors
        sub.metavar = "{" + ",".join(SUBCOMMANDS) + "}"
    for name in SUBCOMMANDS if command is None else [command]:
        summary, add_arguments = SUBCOMMANDS[name]
        add_arguments(sub.add_parser(name, help=summary))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in SUBCOMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
