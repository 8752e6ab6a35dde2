"""Command-line interface: expand, convert and multiply expressions,
apply the standard maps, reproduce the worked examples, and run the batch
verification suites.

Exit codes: 0 success, 1 identity violation found by ``verify`` or an
internal consistency check in ``lr``/``lgv-check`` (the counterexample is
printed), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import sys

# only the index parsers load here: each command imports the modules it runs
# in its own body (ncsym for the NCSym commands, shapes for the shape and
# tableau commands, words only under expand --vars), since a module imported
# here would be loaded, and without cached bytecode compiled, by every command
from .combinat import ParseError, parse_digit_blocks, parse_perm, parse_set_partition

# the size keywords of the verify suites; each suite takes exactly one
SIZE_OPTIONS = ("max_size", "max_n", "max_degree")
# the names of verify.SUITES, spelled out so that building the parser does
# not import verify; a command imports only the modules that it runs
SUITE_NAMES = ("prod", "ncschur-triangular", "transpose", "deltaact", "rsrefines", "rslr",
               "rscoprod", "iota", "lgv", "specht")
# the commands that print counts or ledgers, which have no JSON form
PLAIN_ONLY = ("lr", "kostka", "specht-rank", "lgv-check")


def _index_expr(args) -> NCSymExpr:
    from .ncsym import NCSymExpr

    if args.expr is not None:
        given = [opt for opt, value in (("--index", args.index), ("--basis", args.basis))
                 if value is not None]
        if given:
            raise ValueError(f"{args.command}: --expr cannot be combined with "
                             f"{' or '.join(given)}")
        return NCSymExpr.from_json(args.expr)
    if args.index is None:
        raise ValueError(f"{args.command}: needs --index or --expr")
    return NCSymExpr.single(args.basis or "h", parse_set_partition(args.index))


def _emit(args, expr) -> None:
    print(expr.to_json() if args.format == "json" else str(expr))


def _parse_tableau_rows(text: str):
    from .shapes import SkewShape, tableau

    rows = parse_digit_blocks(text)
    lam = tuple(len(r) for r in rows)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ParseError(text, 0, "row lengths must weakly decrease")
    return tableau(SkewShape(lam, ()), rows)


def cmd_expand(args) -> int:
    from .ncsym import to_m

    expr = _index_expr(args)
    if args.vars is not None:
        from .words import oracle_expand

        try:
            poly = oracle_expand(expr, args.vars)
        except OverflowError as exc:
            print(f"expand: {exc}", file=sys.stderr)
            return 2
        if args.format == "json":
            print(poly.to_json())
        else:
            for word, coeff in sorted(poly.terms.items()):
                print(f"{coeff}\t{''.join(f'x{i}' for i in word)}")
        return 0
    _emit(args, to_m(expr))
    return 0


def cmd_convert(args) -> int:
    from .ncsym import convert

    _emit(args, convert(_index_expr(args), args.to))
    return 0


def cmd_schur(args) -> int:
    from . import schur
    from .shapes import parse_skew

    if args.transpose and args.pi is None:
        raise ValueError("schur: --transpose needs --pi")
    if args.delta is not None and args.shape is None:
        raise ValueError("schur: --delta needs --shape")
    if args.tabloid is not None:
        out = schur.tabloid_schur(_parse_tableau_rows(args.tabloid))
    elif args.pi is not None:
        pi = parse_set_partition(args.pi)
        out = schur.transposed_schur(pi) if args.transpose else schur.standard_schur(pi)
    elif args.delta is not None:
        out = schur.skew_schur_nc(parse_perm(args.delta), parse_skew(args.shape))
    else:
        out = schur.source_skew_schur(parse_skew(args.shape))
    _emit(args, out)
    return 0


def cmd_multiply(args) -> int:
    from .ncsym import NCSymExpr

    f = NCSymExpr.single(args.basis, parse_set_partition(args.index))
    g = NCSymExpr.single(args.basis, parse_set_partition(args.index2))
    _emit(args, f * g)
    return 0


def cmd_rho(args) -> int:
    from .ncsym import rho

    _emit(args, rho(_index_expr(args)))
    return 0


def cmd_omega(args) -> int:
    from .ncsym import omega

    _emit(args, omega(_index_expr(args)))
    return 0


def cmd_act(args) -> int:
    from .ncsym import delta_action

    _emit(args, delta_action(parse_perm(args.delta), _index_expr(args)))
    return 0


def cmd_rs(args) -> int:
    from . import schur
    from .shapes import parse_skew

    _emit(args, schur.rosas_sagan(parse_skew(args.shape)))
    return 0


def cmd_lr(args) -> int:
    from . import sym
    from .shapes import format_partition, parse_skew

    # the pairs of schur.rs_lr_expand, without compiling the Schur module
    for nu, c in sym.lr_coefficients(parse_skew(args.shape)).items():
        print(f"{format_partition(nu)}\t{c}")
    return 0


def cmd_kostka(args) -> int:
    from .shapes import kostka, parse_partition, parse_skew

    print(kostka(parse_skew(args.shape), parse_partition(args.content)))
    return 0


def cmd_specht_rank(args) -> int:
    from . import schur
    from .shapes import parse_partition

    print(schur.specht_rank(parse_partition(args.shape)))
    return 0


def cmd_lgv_check(args) -> int:
    from . import lgv
    from .shapes import parse_skew

    shape = parse_skew(args.shape)
    try:
        lgv.fixed_points_to_ssyt(shape, args.cap)
    except ArithmeticError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    for sign, word, eps, fixed in lgv.signed_ledger(shape, args.cap):
        eps_str = ",".join(map(str, eps))
        word_str = ",".join(map(str, word))
        print(f"{sign:+d}\t{word_str}\t{eps_str}\t{int(fixed)}")
    return 0


def cmd_verify(args) -> int:
    """Run one suite. ``--max-size`` sets the suite's own size keyword
    (max_size, max_n or max_degree); ``--seed`` is only for a suite that
    takes a seed. Anything else is a usage error. With --format json the
    report prints as one object with the SuiteReport fields."""
    import inspect
    import json

    from . import verify

    params = inspect.signature(verify.SUITES[args.suite]).parameters
    options = {}
    if args.max_size is not None:
        if args.max_size < 1:
            print(f"verify {args.suite}: --max-size must be at least 1, not {args.max_size}",
                  file=sys.stderr)
            return 2
        options[next(k for k in SIZE_OPTIONS if k in params)] = args.max_size
    if args.seed is not None:
        if "seed" not in params:
            print(f"verify {args.suite}: this suite takes no --seed", file=sys.stderr)
            return 2
        options["seed"] = args.seed
    report = verify.run_suite(args.suite, **options)
    print(json.dumps(report._asdict()) if args.format == "json" else report)
    return 0 if report.ok else 1


def _add_expr_args(p: argparse.ArgumentParser):
    p.add_argument("--basis", choices=["m", "p", "e", "h", "s", "st"],
                   help="basis of --index (default h)")
    p.add_argument("--index", help="set partition such as 13/2")
    p.add_argument("--expr", help="JSON expression (instead of --basis and --index)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncschur",
        description="Exact computations with Schur functions in noncommuting variables.",
    )
    parser.add_argument("--format", default="plain", choices=["plain", "json"])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expand into the monomial basis or into words")
    _add_expr_args(p)
    p.add_argument("--vars", type=int, help="expand into words over x_1..x_K")
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("convert", help="change basis")
    _add_expr_args(p)
    p.add_argument("--to", required=True, choices=["m", "p", "e", "h", "s"])
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("schur", help="Schur elements in the h- or e-basis")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--pi", help="set partition index")
    which.add_argument("--shape", help="skew shape such as 3.2.2.1/2.1")
    which.add_argument("--tabloid", help="tableau rows such as 12/3")
    p.add_argument("--transpose", action="store_true", help="transposed element (with --pi)")
    p.add_argument("--delta", help="permutation acting on the source function (with --shape)")
    p.set_defaults(fn=cmd_schur)

    p = sub.add_parser("multiply", help="product of two basis elements")
    p.add_argument("--basis", default="h", choices=["m", "p", "e", "h", "s"])
    p.add_argument("--index", required=True)
    p.add_argument("--index2", required=True)
    p.set_defaults(fn=cmd_multiply)

    p = sub.add_parser("rho", help="project onto commuting variables")
    _add_expr_args(p)
    p.set_defaults(fn=cmd_rho)

    p = sub.add_parser("omega", help="apply the h/e involution")
    _add_expr_args(p)
    p.set_defaults(fn=cmd_omega)

    p = sub.add_parser("act", help="relabel by a permutation")
    _add_expr_args(p)
    p.add_argument("--delta", required=True)
    p.set_defaults(fn=cmd_act)

    p = sub.add_parser("rs", help="Rosas-Sagan function in the monomial basis")
    p.add_argument("--shape", required=True)
    p.set_defaults(fn=cmd_rs)

    p = sub.add_parser("lr", help="Littlewood-Richardson expansion of a skew shape")
    p.add_argument("--shape", required=True)
    p.set_defaults(fn=cmd_lr)

    p = sub.add_parser("kostka", help="count semistandard fillings")
    p.add_argument("--shape", required=True)
    p.add_argument("--content", required=True)
    p.set_defaults(fn=cmd_kostka)

    p = sub.add_parser("specht-rank", help="rank of the Specht vector span")
    p.add_argument("--shape", required=True, help="integer partition")
    p.set_defaults(fn=cmd_specht_rank)

    p = sub.add_parser("lgv-check", help="path-tuple ledger and fixed-point count")
    p.add_argument("--shape", required=True)
    p.add_argument("--cap", type=int, default=3, help="height cap")
    p.set_defaults(fn=cmd_lgv_check)

    p = sub.add_parser("verify", help="run a named identity suite")
    p.add_argument("suite", choices=sorted(SUITE_NAMES))
    p.add_argument("--max-size", type=int, dest="max_size",
                   help="the suite's size bound (its max_size, max_n or max_degree)")
    p.add_argument("--seed", type=int, help="random seed, for a seeded suite (deltaact)")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format == "json" and args.command in PLAIN_ONLY:
        print(f"{args.command}: has no --format json output", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except ValueError as exc:  # ParseError included
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
