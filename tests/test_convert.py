"""ncsym.convert, the one NCSym basis change into m/p/e/h, against the
lattice rules row by row (lattice_rows shares no code with it), its
route from p into m, and the checks of its from_m wrapper."""

from fractions import Fraction

import pytest

from ncschur import combinat, ncsym
from ncschur.combinat import canonical_set_partition, parse_set_partition, refines, set_partitions
from ncschur.ncsym import NCSymExpr, convert, from_m, to_h_or_e
from lattice_rows import rows_to_m

SOURCES = ("m", "p", "e", "h", "s", "st")
TARGETS = ("m", "p", "e", "h")


def m_terms(expr):
    """The m-expansion by the lattice rules: an m-expression as it is, the
    Schur-type bases expanded into h or e first."""
    if expr.basis in ("s", "st"):
        expr = to_h_or_e(expr)
    return expr.terms if expr.basis == "m" else rows_to_m(expr)


def assert_converted(expr, target):
    got = convert(expr, target)
    assert got.basis == target
    assert all(key == canonical_set_partition(key) for key in got.terms)
    assert all(type(c) is Fraction for c in got.terms.values())
    assert m_terms(got) == m_terms(expr), (expr, target)


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


@pytest.mark.parametrize("target", ["s", "st", "q"])
def test_convert_rejects_a_target_outside_m_p_e_and_h(target):
    with pytest.raises(ValueError, match=f"^cannot convert into basis '{target}'$"):
        convert(NCSymExpr.single("h", ((1,), (2,))), target)
