"""ncsym.convert, the one NCSym basis change into m/p/e/h, against the
lattice rules row by row (lattice_rows shares no code with it), its
route between p, e and h, and the checks of its from_m wrapper."""

from fractions import Fraction

import pytest

from ncschur import ncsym
from ncschur.combinat import canonical_set_partition, parse_set_partition, set_partitions
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


def test_changes_between_p_e_and_h_do_not_gather_over_the_whole_lattice(monkeypatch):
    def gather(self):
        raise AssertionError("the gather over every set partition ran")

    monkeypatch.setattr(ncsym._CodedLattice, "down_sets", gather)
    for n in range(5):
        for pi in set_partitions(n):
            for source in ("p", "e", "h", "s", "st"):
                for target in "peh":
                    assert convert(NCSymExpr.single(source, pi), target).basis == target


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
