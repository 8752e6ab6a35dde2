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

from . import lgv, schur, verify
from .combinat import (
    ParseError,
    SkewShape,
    format_partition,
    parse_digit_blocks,
    parse_partition,
    parse_perm,
    parse_set_partition,
    parse_skew,
    tableau,
)
from .ncsym import NCSymExpr, delta_action, from_m, omega, oracle_expand, rho, to_m

# the size keywords of the verify suites; each suite takes exactly one
SIZE_OPTIONS = ("max_size", "max_n", "max_degree")


def _index_expr(args) -> NCSymExpr:
    if getattr(args, "expr", None):
        return NCSymExpr.from_json(args.expr)
    return NCSymExpr.single(args.basis, parse_set_partition(args.index))


def _emit(args, expr) -> None:
    print(expr.to_json() if args.format == "json" else str(expr))


def _parse_tableau_rows(text: str):
    rows = parse_digit_blocks(text)
    lam = tuple(len(r) for r in rows)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ParseError(text, 0, "row lengths must weakly decrease")
    return tableau(SkewShape(lam, ()), rows)


def cmd_expand(args) -> int:
    expr = _index_expr(args)
    if args.vars:
        poly = oracle_expand(expr, args.vars)
        if args.format == "json":
            print(poly.to_json())
        else:
            for word, coeff in sorted(poly.terms.items()):
                print(f"{coeff}\t{''.join(f'x{i}' for i in word)}")
        return 0
    _emit(args, to_m(expr))
    return 0


def cmd_convert(args) -> int:
    expr = _index_expr(args)
    if args.to == "m":
        out = to_m(expr)
    elif args.to == "s":
        out = schur.schur_basis_convert(expr, "s")
    else:
        out = from_m(to_m(expr), args.to)
    _emit(args, out)
    return 0


def cmd_schur(args) -> int:
    if args.tabloid:
        out = schur.tabloid_schur(_parse_tableau_rows(args.tabloid))
    elif args.pi is not None:
        pi = parse_set_partition(args.pi)
        out = schur.transposed_schur(pi) if args.transpose else schur.standard_schur(pi)
    elif args.shape is not None:
        shape = parse_skew(args.shape)
        if args.delta:
            out = schur.skew_schur_nc(parse_perm(args.delta), shape)
        else:
            out = schur.source_skew_schur(shape)
    else:
        print("schur: need one of --pi, --shape, --tabloid", file=sys.stderr)
        return 2
    _emit(args, out)
    return 0


def cmd_multiply(args) -> int:
    f = NCSymExpr.single(args.basis, parse_set_partition(args.index))
    g = NCSymExpr.single(args.basis, parse_set_partition(args.index2))
    _emit(args, f * g)
    return 0


def cmd_rho(args) -> int:
    _emit(args, rho(_index_expr(args)))
    return 0


def cmd_omega(args) -> int:
    _emit(args, omega(_index_expr(args)))
    return 0


def cmd_act(args) -> int:
    _emit(args, delta_action(parse_perm(args.delta), _index_expr(args)))
    return 0


def cmd_rs(args) -> int:
    _emit(args, schur.rosas_sagan(parse_skew(args.shape)))
    return 0


def cmd_lr(args) -> int:
    try:
        pairs = schur.rs_lr_expand(parse_skew(args.shape))
    except ArithmeticError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    for nu, c in pairs:
        print(f"{format_partition(nu)}\t{c}")
    return 0


def cmd_kostka(args) -> int:
    from .combinat import kostka

    print(kostka(parse_skew(args.shape), parse_partition(args.content)))
    return 0


def cmd_specht_rank(args) -> int:
    print(schur.specht_rank(parse_partition(args.shape)))
    return 0


def cmd_lgv_check(args) -> int:
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
    takes a seed. Anything else is a usage error."""
    import inspect

    params = inspect.signature(verify.SUITES[args.suite]).parameters
    options = {}
    if args.max_size is not None:
        options[next(k for k in SIZE_OPTIONS if k in params)] = args.max_size
    if args.seed is not None:
        if "seed" not in params:
            print(f"verify {args.suite}: this suite takes no --seed", file=sys.stderr)
            return 2
        options["seed"] = args.seed
    report = verify.run_suite(args.suite, **options)
    print(report)
    return 0 if report.ok else 1


def _add_expr_args(p: argparse.ArgumentParser):
    p.add_argument("--basis", default="h", choices=["m", "p", "e", "h", "s", "st"])
    p.add_argument("--index", help="set partition such as 13/2")
    p.add_argument("--expr", help="JSON expression (overrides --basis/--index)")


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
    p.add_argument("--pi", help="set partition index")
    p.add_argument("--transpose", action="store_true", help="transposed element")
    p.add_argument("--shape", help="skew shape such as 3.2.2.1/2.1")
    p.add_argument("--delta", help="permutation acting on the source function")
    p.add_argument("--tabloid", help="tableau rows such as 12/3")
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
    p.add_argument("suite", choices=sorted(verify.SUITES))
    p.add_argument("--max-size", type=int, dest="max_size",
                   help="the suite's size bound (its max_size, max_n or max_degree)")
    p.add_argument("--seed", type=int, help="random seed, for a seeded suite (deltaact)")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # ParseError included
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
