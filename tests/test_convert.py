"""ncsym.convert, the one NCSym basis change into m/p/e/h/s, against the
lattice rules row by row (lattice_rows and the bitmask rows here share no
code with it), its route from p into m, into s against h_to_schur of the
h-image, and the checks of its from_m wrapper."""

from fractions import Fraction
from functools import cache
from math import factorial, lcm, prod

import pytest

from ncschur import combinat, ncsym
from ncschur.combinat import (
    canonical_set_partition,
    parse_set_partition,
    refines,
    set_partitions,
    sp_size,
)
from ncschur.ncsym import NCSymExpr, convert, from_m, to_h, to_h_or_e
from ncschur.schur import h_to_schur
from lattice_rows import rows_to_m

SOURCES = ("m", "p", "e", "h", "s", "st")
TARGETS = ("m", "p", "e", "h")
FACTORIALS = [factorial(k) for k in range(9)]


def block_masks(pi):
    return [sum(1 << (x - 1) for x in b) for b in pi]


@cache
def sigma_masks(n):
    return [(sig, block_masks(sig)) for sig in set_partitions(n)]


def mask_rows_to_m(expr):
    """rows_to_m for an h- or e-expression, each row read off block
    bitmasks instead of one meet per sigma: the blocks of sigma ^ pi are
    the nonempty a & b over the blocks a of sigma and b of pi, so
    lambda(sigma ^ pi)! is the product of |a & b|!, and sigma ^ pi is the
    bottom, e's condition, when no |a & b| passes 1."""
    den = lcm(*(c.denominator for c in expr.terms.values()))
    out = {}
    for pi, c in expr.terms.items():
        k, masks = c.numerator * (den // c.denominator), block_masks(pi)
        for sig, sig_masks in sigma_masks(sp_size(pi)):
            sizes = [(a & b).bit_count() for a in sig_masks for b in masks]
            if expr.basis == "h":
                out[sig] = out.get(sig, 0) + k * prod([FACTORIALS[size] for size in sizes])
            elif max(sizes, default=0) <= 1:
                out[sig] = out.get(sig, 0) + k
    return {sig: Fraction(c, den) for sig, c in out.items() if c}


def m_terms(expr, rows=rows_to_m):
    """The m-expansion by the lattice rules: an m-expression as it is, the
    Schur-type bases expanded into h or e first."""
    if expr.basis in ("s", "st"):
        expr = to_h_or_e(expr)
    return expr.terms if expr.basis == "m" else rows(expr)


def assert_converted(expr, target, rows=rows_to_m):
    # rows expands the converted expression: mask_rows_to_m for a dense h/e one
    got = convert(expr, target)
    assert got.basis == target
    assert all(key == canonical_set_partition(key) for key in got.terms)
    assert all(type(c) is Fraction for c in got.terms.values())
    assert m_terms(got, rows) == m_terms(expr), (expr, target)


@pytest.mark.parametrize("source", SOURCES)
def test_every_index_to_degree_5_keeps_its_monomial_expansion(source):
    for n in range(6):
        for pi in set_partitions(n):
            expr = NCSymExpr.single(source, pi)
            for target in TARGETS:
                assert_converted(expr, target)


@pytest.mark.parametrize("source", "peh")
@pytest.mark.parametrize("target", "peh")
def test_a_sparse_degree_7_index_keeps_its_monomial_expansion(source, target):
    assert_converted(NCSymExpr.single(source, parse_set_partition("1,2/3,4/5,6/7")), target)


def mixed_sum(basis, indices):
    """One expression over degrees 7 and 8, the indices given as strings,
    with coefficients 3/2, -2, 5/3, ... in turn."""
    return NCSymExpr(basis, {parse_set_partition(index): Fraction((-1) ** i * (i + 3), 2 + i % 2)
                             for i, index in enumerate(indices)})


# into m: a sparse index, whose p-terms have small up-sets; the finest one,
# whose one p-term has all of the partition lattice as its up-set; and the
# coarsest one, whose h- and e-rows have a p-term on every set partition
INTO_M = ("1,2/3,4/5,6/7", "1/2/3/4/5/6/7", "1,2,3,4,5,6,7", "1,2,3/4,5/6,7",
          "1,2/3,4/5,6/7,8", "1/2/3/4/5/6/7/8", "1,2,3,4,5,6,7,8", "1,2,3/4,5/6,7,8")
# from m into p: m-terms with up-sets of 15, 5 and 1 p-terms, so that the
# oracle reads few rows of size 877 or 4140
FROM_M = ("1,2/3,4/5,6/7", "1,2,3/4,5/6,7", "1,2,3,4,5,6,7",
          "1,2/3,4/5,6/7,8", "1,2,3/4,5/6,7,8", "1,2,3,4,5,6,7,8")


@pytest.mark.parametrize("source, target, indices", [
    ("p", "m", INTO_M), ("e", "m", INTO_M), ("h", "m", INTO_M), ("m", "p", FROM_M)],
    ids=["p-m", "e-m", "h-m", "m-p"])
def test_mixed_sparse_and_dense_sums_of_degrees_7_and_8_keep_their_monomial_expansion(
        source, target, indices):
    assert_converted(mixed_sum(source, indices), target)


# a sparse, the finest, the coarsest and a mixed index of degree 7: into h
# or e their sum has a term on each of the 877 set partitions of 7
DENSE_7 = ("1,2/3,4/5,6/7", "1/2/3/4/5/6/7", "1,2,3,4,5,6,7", "1,2,3/4,5/6,7")


@pytest.mark.parametrize("source, target", [("p", "h"), ("m", "e")], ids=["p-h", "m-e"])
def test_a_dense_sum_of_degree_7_keeps_its_monomial_expansion_into_h_and_e(source, target):
    assert_converted(mixed_sum(source, DENSE_7), target, mask_rows_to_m)


@pytest.mark.parametrize("basis", ["h", "e"])
def test_the_bitmask_rows_are_the_meet_rows(basis):
    for n in range(6):
        for pi in set_partitions(n):
            expr = NCSymExpr.single(basis, pi)
            assert mask_rows_to_m(expr) == rows_to_m(expr), pi


@pytest.mark.parametrize("source", SOURCES)
def test_into_s_every_index_to_degree_5_is_h_to_schur_of_its_h_image(source):
    for n in range(6):
        for pi in set_partitions(n):
            expr = NCSymExpr.single(source, pi)
            got = convert(expr, "s")
            assert got.basis == "s"
            assert all(type(c) is Fraction for c in got.terms.values())
            assert got == h_to_schur(to_h(expr)), pi
            assert got is expr or source != "s", pi


def test_p_into_m_walks_only_the_up_sets_of_the_p_terms(monkeypatch):
    # p_pi = the sum of m_sigma over sigma >= pi: for six blocks the
    # Bell(6) = 203 coarsenings, reached from the set partitions of six
    # positions, with no walk over the set partitions of 12 and no coded lattice
    good = combinat._set_partitions

    def small(n):
        assert n <= 6, f"set partitions of size {n}"
        return good(n)

    def no_lattice(*args):
        raise AssertionError("a coded lattice was built")

    monkeypatch.setattr(combinat, "_set_partitions", small)
    monkeypatch.setattr(ncsym, "_CodedLattice", no_lattice)
    pi = parse_set_partition("1,2/3,4/5,6/7,8/9,10/11,12")
    got = convert(NCSymExpr.single("p", pi), "m")
    assert got.basis == "m" and len(got.terms) == 203
    assert all(key == canonical_set_partition(key) for key in got.terms)
    assert all(refines(pi, sigma) for sigma in got.terms)
    assert all(type(c) is Fraction and c == 1 for c in got.terms.values())


@pytest.mark.parametrize("basis", ["p", "e", "h", "s", "st"])
def test_from_m_rejects_a_source_outside_the_monomial_basis(basis):
    with pytest.raises(ValueError, match="^from_m needs a monomial-basis expression$"):
        from_m(NCSymExpr.single(basis, ((1,), (2,))), "p")


@pytest.mark.parametrize("target", ["m", "s", "st", "q"])
def test_from_m_rejects_a_target_outside_p_e_and_h(target):
    with pytest.raises(ValueError, match=f"^cannot convert into basis '{target}'$"):
        from_m(NCSymExpr.single("m", ((1,), (2,))), target)


@pytest.mark.parametrize("target", ["st", "q"])
def test_convert_rejects_a_target_outside_m_p_e_h_and_s(target):
    with pytest.raises(ValueError, match=f"^cannot convert into basis '{target}'$"):
        convert(NCSymExpr.single("h", ((1,), (2,))), target)
