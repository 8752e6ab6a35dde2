import itertools
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncschur import sym
from ncschur.combinat import format_partition, kostka, partitions, skew, sort_to_partition
from ncschur.expr_format import back_substitute
from ncschur.ncpoly import CPoly
from ncschur.sym import (
    SymExpr,
    expand,
    jacobi_trudi,
    littlewood_richardson,
    lr_coefficients,
    m_to_s,
    skew_schur,
)
from ncschur.verify import skew_shapes


def test_schur_21_in_h_basis():
    assert jacobi_trudi(skew((2, 1)), "h") == SymExpr(
        "h", {(2, 1): Fraction(1), (3,): Fraction(-1)}
    )


def test_h_and_e_expansions_agree():
    for n in range(1, 6):
        for lam in partitions(n):
            assert jacobi_trudi(skew(lam), "h") == jacobi_trudi(skew(lam), "e")


def test_skew_jacobi_trudi_flavors_agree():
    for shape in [skew((2, 2), (1,)), skew((3, 1), (1,)), skew((3, 2, 1), (2, 1))]:
        assert jacobi_trudi(shape, "h") == jacobi_trudi(shape, "e")


def test_schur_to_m_is_kostka():
    s = jacobi_trudi(skew((2, 1)), "h").to_m()
    assert s == SymExpr("m", {(2, 1): Fraction(1), (1, 1, 1): Fraction(2)})


def test_to_m_round_trip_through_s():
    for n in range(1, 6):
        for lam in partitions(n):
            expr = SymExpr.single("s", lam)
            assert m_to_s(expr.to_m()) == expr


def test_multiplicative_bases_products():
    h21 = SymExpr.single("h", (2, 1))
    h1 = SymExpr.single("h", (1,))
    assert h21 * h1 == SymExpr.single("h", (2, 1, 1))
    p2 = SymExpr.single("p", (2,))
    assert p2 * p2 == SymExpr.single("p", (2, 2))


def test_m_product_example():
    m1 = SymExpr.single("m", (1,))
    assert m1 * m1 == SymExpr(
        "m", {(2,): Fraction(1), (1, 1): Fraction(2)}
    )


def test_product_matches_polynomial_product():
    k = 4
    f = SymExpr.single("e", (2,))
    g = SymExpr.single("m", (1, 1))
    assert expand(f * g, k) == expand(f, k) * expand(g, k)


def generator_cpoly(basis: str, r: int, k: int) -> CPoly:
    """The degree-r generator of a multiplicative basis in k variables, as
    a polynomial: the oracle for the monomial expansions, which count."""
    terms: dict[tuple[int, ...], Fraction] = {}
    if basis == "p":
        supports = [[i] * r for i in range(k)]
    elif basis == "e":
        supports = itertools.combinations(range(k), r)
    else:
        supports = itertools.combinations_with_replacement(range(k), r)
    for multi in supports:
        expo = [0] * k
        for i in multi:
            expo[i] += 1
        terms[tuple(expo)] = Fraction(1)
    return CPoly(k, terms)


@pytest.mark.parametrize("basis", "peh")
def test_multiplicative_bases_expand_as_products_of_generator_polynomials(basis):
    for n in range(7):
        for lam in partitions(n):
            poly = CPoly.one(max(n, 1))
            for r in lam:
                poly = poly * generator_cpoly(basis, r, max(n, 1))
            assert expand(SymExpr.single(basis, lam), max(n, 1)) == poly, lam


def test_monomial_products_match_polynomial_products():
    for n in range(7):
        for a in range(n + 1):
            for mu in partitions(a):
                for nu in partitions(n - a):
                    f, g, k = SymExpr.single("m", mu), SymExpr.single("m", nu), max(n, 1)
                    assert expand(f * g, k) == expand(f, k) * expand(g, k), (mu, nu)


def test_newton_identity_degree_2():
    # p_2 = h_1^2 - 2 e_2 compared in the monomial basis
    h1 = SymExpr.single("h", (1,))
    e2 = SymExpr.single("e", (2,))
    p2 = SymExpr.single("p", (2,))
    assert (h1 * h1 - e2.scale(2)).to_m() == p2.to_m()


def test_littlewood_richardson_values():
    assert littlewood_richardson((2, 2), (1,), (2, 1)) == 1
    assert littlewood_richardson((2, 1), (1,), (2,)) == 1
    assert littlewood_richardson((2, 1), (1,), (1, 1)) == 1
    assert littlewood_richardson((4, 2), (2,), (2, 2)) == 1
    assert littlewood_richardson((2, 2), (1,), (3,)) == 0
    assert littlewood_richardson((3,), (1,), (1, 1)) == 0


def test_lr_coefficients_match_the_jacobi_trudi_route():
    # lattice-word fillings against the Schur expansion of the Jacobi-Trudi
    # determinant (h -> m -> s), which shares no code with them; the lists
    # pin the partitions(n) order too
    for shape in skew_shapes(7, 3):
        want = list(skew_schur(shape, "s").terms.items())
        assert list(lr_coefficients(shape).items()) == want, str(shape)


def test_pieri_rule():
    # s_lam * s_(1) adds one box in all valid ways
    for lam in partitions(4):
        prod = (SymExpr.single("s", lam) * SymExpr.single("s", (1,))).to_s()
        expected = {}
        for i in range(len(lam) + 1):
            parts = list(lam) + [0]
            parts[i] += 1
            if all(parts[j] >= parts[j + 1] for j in range(len(parts) - 1)):
                expected[tuple(p for p in parts if p)] = Fraction(1)
        assert prod == SymExpr("s", expected)


def test_skew_schur_is_lr_sum():
    shape = skew((3, 2), (1,))
    total = SymExpr.zero("m")
    for nu in partitions(shape.size):
        c = littlewood_richardson(shape.outer, shape.inner, nu)
        if c:
            total = total + SymExpr.single("s", nu).scale(c)
    assert skew_schur(shape, "m") == total.to_m()


def test_expand_truncation():
    e3 = SymExpr.single("e", (3,))
    assert expand(e3, 2).is_zero()
    assert len(expand(e3, 3).terms) == 1


def test_unknown_basis_rejected():
    with pytest.raises(ValueError):
        SymExpr("q")


def test_m_to_s_rejects_a_bad_kostka_row(monkeypatch):
    import ncschur.sym as sym

    good = sym._index_to_m
    monkeypatch.setattr(
        sym, "_index_to_m", lambda basis, lam: {g: 2 * k for g, k in good(basis, lam).items()}
    )
    with pytest.raises(ArithmeticError, match=r"^matrix not unitriangular: row 2\.1, "
                       r"column 2\.1 holds 2, not 1$"):
        m_to_s(SymExpr.single("m", (2, 1)))
    # s[1.1.1] picking up m[2.1], which comes before it in partitions(3)
    monkeypatch.setattr(
        sym,
        "_index_to_m",
        lambda basis, lam: {**good(basis, lam), (2, 1): Fraction(1)}
        if lam == (1, 1, 1)
        else good(basis, lam),
    )
    with pytest.raises(ArithmeticError, match=r"^matrix not unitriangular: row 2\.1, "
                       r"column 1\.1\.1 holds 1, not 0$"):
        m_to_s(SymExpr.single("m", (1, 1, 1)))


def takes(left, parts):
    """The distinct rearrangements of parts, padded with zeros to
    len(left), that fit under left entry by entry: filled one position at
    a time from the multiset of parts still left over."""
    pool = Counter(parts + (0,) * (len(left) - len(parts)))

    def fill(i):
        if i == len(left):
            yield ()
            return
        for v, c in pool.items():
            if c and v <= left[i]:
                pool[v] -= 1
                yield from ((v,) + rest for rest in fill(i + 1))
                pool[v] += 1

    return fill(0) if len(parts) <= len(left) else iter(())


def m_times_m_oracle(mu, nu):
    """Every rearrangement of mu under lam, kept when lam - a sorts to nu."""
    out = {}
    for lam in partitions(sum(mu) + sum(nu)):
        if k := sum(sort_to_partition(x - y for x, y in zip(lam, a)) == nu
                    for a in takes(lam, mu)):
            out[lam] = Fraction(k)
    return out


def test_m_times_m_matches_the_rearrangement_route():
    pairs = [(mu, nu) for size in range(10) for a in range(size + 1)
             for mu in partitions(a) for nu in partitions(size - a)]
    for mu, nu in pairs:
        got, want = sym._m_times_m(mu, nu), m_times_m_oracle(mu, nu)
        assert list(got.items()) == list(want.items()), (mu, nu)
        assert all(type(c) is Fraction for c in got.values())


@cache
def kostka_column(lam):
    return {gam: Fraction(k) for gam in partitions(sum(lam))
            if (k := kostka(skew(lam), gam))}


def fraction_m_to_s(expr):
    """m_to_s solved in Fractions: back-substitution over Kostka columns
    counted entry by entry, on the unscaled coefficients."""
    rest, out = dict(expr.terms), {}
    for n in sorted({sum(lam) for lam in rest}):
        out.update(back_substitute(rest, partitions(n), kostka_column, format_partition))
    return SymExpr("s", out)


def same_terms(got, want):
    """The same Fraction coefficients in the same order."""
    return got.basis == want.basis and list(got.terms.items()) == list(want.terms.items()) and all(
        type(c) is Fraction for c in got.terms.values()
    )


def test_m_to_s_matches_the_fraction_back_substitution():
    for n in range(9):
        for lam in partitions(n):
            m = SymExpr.single("m", lam)
            assert same_terms(m_to_s(m), fraction_m_to_s(m)), lam


_m_indices = st.integers(min_value=0, max_value=6).flatmap(lambda n: st.sampled_from(list(partitions(n))))
_m_coeffs = st.fractions(max_denominator=12, min_value=Fraction(-7), max_value=Fraction(7))


@given(st.dictionaries(_m_indices, _m_coeffs, max_size=8))
@settings(max_examples=80, deadline=None)
def test_m_to_s_matches_the_fraction_route_on_mixed_degrees(terms):
    m = SymExpr("m", terms)
    assert same_terms(m_to_s(m), fraction_m_to_s(m))
