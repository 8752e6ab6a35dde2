"""Properties of the word expansion, the product, omega and the basis
changes on random m/p/e/h expressions of degree at most 3, expanded over at
most 3 variables."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ncschur.combinat import set_partitions
from ncschur.ncsym import NCSymExpr, from_m, omega, oracle_expand, to_m
from ncschur.schur import schur_basis_convert

indices = st.integers(min_value=0, max_value=3).flatmap(
    lambda n: st.sampled_from(set_partitions(n))
)
coeffs = st.fractions(max_denominator=6, min_value=Fraction(-5), max_value=Fraction(5))
terms = st.dictionaries(indices, coeffs, max_size=3)
exprs = st.builds(NCSymExpr, st.sampled_from("mpeh"), terms)
m_exprs = terms.map(lambda t: NCSymExpr("m", t))
variables = st.integers(min_value=1, max_value=3)


@given(exprs, exprs, variables)
@settings(max_examples=40, deadline=None)
def test_oracle_expansion_is_multiplicative(f, g, k):
    assert oracle_expand(f * g, k) == oracle_expand(f, k) * oracle_expand(g, k)


@given(exprs)
@settings(max_examples=40, deadline=None)
def test_omega_is_an_involution(f):
    assert omega(omega(f)) == f


@given(m_exprs, st.sampled_from("peh"))
@settings(max_examples=40, deadline=None)
def test_monomial_round_trips(f, target):
    assert to_m(from_m(f, target)) == f


@given(exprs, exprs, exprs)
@settings(max_examples=40, deadline=None)
def test_product_is_associative(f, g, h):
    assert (f * g) * h == f * (g * h)


@given(m_exprs)
@settings(max_examples=40, deadline=None)
def test_schur_round_trips(f):
    # m -> s -> m, and m -> s^t -> m through omega, which exchanges s and s^t
    s = schur_basis_convert(f, "s")
    st = omega(schur_basis_convert(omega(f), "s"))
    assert s.basis == "s" and st.basis == "st"
    assert to_m(s) == f
    assert to_m(st) == f
