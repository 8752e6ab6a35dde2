"""End-to-end acceptance checks. Every check is exact (zero tolerance) and
prints one PASS/FAIL line per criterion."""

import random
from contextlib import contextmanager
from fractions import Fraction

from ncschur.combinat import (
    SkewShape,
    delta_pi,
    format_perm,
    format_set_partition,
    parse_set_partition,
    set_partitions,
    shifted_concat,
    skew,
    slash,
)
from ncschur.lgv import lgv_swap, monomial, path, path_tuple
from ncschur.ncsym import NCSymExpr, basis_order, naive_expand, oracle_expand, rho, to_m
from ncschur.nsym import ribbon_to_H
from ncschur.schur import (
    family_rank,
    permuted_basis,
    set_partition_schur_product,
    source_skew_schur,
    standard_schur,
    transposed_schur,
)
from ncschur.sym import SymExpr, expand, jacobi_trudi
from ncschur.verify import run_suite
from combinat_helpers import partition_stats


@contextmanager
def criterion(capsys, num, label):
    # write the summary line past pytest's output capture
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num} ({label}): FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {num} ({label}): PASS")


def sp(text):
    return parse_set_partition(text)


def run_ok(name, **options):
    report = run_suite(name, **options)
    assert report.ok, f"suite {name}: {report.detail} {report.counterexample}"
    return report


def test_criterion_1_worked_examples(capsys):
    with criterion(capsys, 1, "worked examples"):
        assert partition_stats((3, 2, 2, 1)) == (24, 2, (4, 3, 1))
        assert (
            format_set_partition(slash(sp("134/25"), sp("1/23"))) == "134/25/6/78"
        )
        _, delta = delta_pi(sp("169/2/378/45"))
        assert format_perm(delta) == "169378452"

        assert to_m(NCSymExpr.single("h", sp("13/2"))) == NCSymExpr(
            "m",
            {
                sp("123"): Fraction(2),
                sp("12/3"): Fraction(1),
                sp("1/23"): Fraction(1),
                sp("13/2"): Fraction(2),
                sp("1/2/3"): Fraction(1),
            },
        )

        assert source_skew_schur(skew((2, 1))) == NCSymExpr(
            "h", {sp("12/3"): Fraction(1, 2), sp("123"): Fraction(-1, 6)}
        )
        assert source_skew_schur(skew((2, 2), (1,))) == NCSymExpr(
            "h", {sp("1/23"): Fraction(1, 2), sp("123"): Fraction(-1, 6)}
        )
        assert standard_schur(sp("12/3")) == NCSymExpr(
            "h", {sp("12/3"): Fraction(1, 2), sp("123"): Fraction(-1, 6)}
        )
        assert standard_schur(sp("13/2")) == NCSymExpr(
            "h", {sp("13/2"): Fraction(1, 2), sp("123"): Fraction(-1, 6)}
        )

        _, pairs = set_partition_schur_product(sp("1"), sp("12/3"))
        assert {shape for _, shape in pairs} == {
            skew((2, 2, 1), (1,)),
            skew((3, 1)),
        }
        _, pairs = set_partition_schur_product(sp("12/3"), sp("1"))
        assert {shape for _, shape in pairs} == {
            skew((2, 1, 1)),
            skew((3, 2), (1,)),
        }
        assert format_perm(shifted_concat((1, 3, 4, 2, 5), (1, 2, 3))) == "13425678"

        assert ribbon_to_H((1, 2)) == {(1, 2): Fraction(1), (3,): Fraction(-1)}
        assert jacobi_trudi(skew((2, 1)), "h") == SymExpr(
            "h", {(2, 1): Fraction(1), (3,): Fraction(-1)}
        )

        P = path_tuple(
            SkewShape((3, 3, 2), (1, 1)),
            (2, 1, 3),
            [path(-1, (2, 2, 3)), path(0, (3,)), path(-3, (1, 3))],
        )
        _, xi = lgv_swap(P)
        assert format_perm(xi) == "342156"
        assert monomial((3, 1, 5, 4, 6, 2), P) == (3, 2, 1, 3, 3, 2)


def test_criterion_2_identity_suites(capsys):
    with criterion(capsys, 2, "identity suites"):
        for name in (
            "prod",
            "ncschur-triangular",
            "transpose",
            "deltaact",
            "rsrefines",
            "rslr",
            "iota",
        ):
            run_ok(name)


def test_criterion_3_oracle_cross_validation(capsys):
    with criterion(capsys, 3, "oracle cross-validation"):
        for n in range(1, 5):
            for basis in "mpeh":
                for pi in set_partitions(n):
                    f = NCSymExpr.single(basis, pi)
                    poly = oracle_expand(f, n)
                    assert poly == naive_expand(basis, pi, n)
                    assert poly.commutative_image() == expand(rho(f), n)


def test_criterion_4_lattice_path_suite(capsys):
    with criterion(capsys, 4, "lattice path suite"):
        run_ok("lgv")


def test_criterion_5_specht_suite(capsys):
    with criterion(capsys, 5, "Specht rank suite"):
        report = run_ok("specht")
        assert "rank" in report.detail


def test_criterion_6_coproduct_suite(capsys):
    with criterion(capsys, 6, "coproduct suite"):
        run_ok("rscoprod")


def test_criterion_7_basis_difference_witnesses(capsys):
    with criterion(capsys, 7, "basis-difference witnesses"):
        # the Schur and transposed-Schur bases differ already at degree 3
        schur_set = {
            frozenset(to_m(standard_schur(pi)).terms.items())
            for pi in set_partitions(3)
        }
        transposed_set = {
            frozenset(to_m(transposed_schur(pi)).terms.items())
            for pi in set_partitions(3)
        }
        assert schur_set != transposed_set

        # permuted Schur families at degree 5: every family below is a basis,
        # none equals the standard one, and distinct permutations give
        # distinct bases
        n = 5
        count = len(basis_order(n))
        identity = tuple(range(1, n + 1))
        rng = random.Random(2024)
        deltas = []
        while len(deltas) < 10:
            delta = tuple(rng.sample(range(1, n + 1), n))
            if delta != identity and delta not in deltas:
                deltas.append(delta)
        standard_family = frozenset(
            frozenset(standard_schur(pi).terms.items()) for pi in basis_order(n)
        )
        seen = {}
        for delta in deltas:
            family = permuted_basis(delta, n)
            assert family_rank(family, n) == count
            key = frozenset(frozenset(f.terms.items()) for f in family)
            assert key != standard_family
            assert key not in seen
            seen[key] = delta
