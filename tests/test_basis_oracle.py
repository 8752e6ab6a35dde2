"""The lattice and back-substitution basis changes against the dense
rational route: the expansion matrix of each basis, inverted by Gaussian
elimination and applied to the coordinate vector in basis order. The
commutative m-to-s change is checked the same way against the Kostka
matrix."""

import random
from fractions import Fraction
from functools import cache

import pytest

from ncschur import ratlin
from ncschur.combinat import SkewShape, kostka, partitions, set_partitions, sp_size
from ncschur.ncsym import _INDEX_TO_M, NCSymExpr, basis_order, from_m, to_m
from ncschur.schur import h_to_schur, schur_transition
from ncschur.sym import SymExpr, m_to_s

MAX_ORACLE_DEGREE = 5


@cache
def dense_from_m_matrix(target, n):
    order = basis_order(n)
    pos = {pi: i for i, pi in enumerate(order)}
    mat = [[Fraction(0)] * len(order) for _ in order]
    for j, pi in enumerate(order):
        for sig, c in _INDEX_TO_M[target](pi).items():
            mat[pos[sig]][j] = c
    return ratlin.inverse(mat)


@cache
def dense_schur_inverse(n):
    return ratlin.inverse(schur_transition(n))


def dense_convert(expr, target, inverse_of_degree):
    by_degree = {}
    for pi, c in expr.terms.items():
        by_degree.setdefault(sp_size(pi), {})[pi] = c
    out = {}
    for n, terms in by_degree.items():
        if n == 0:
            out[()] = terms[()]
            continue
        order = basis_order(n)
        vec = [terms.get(pi, Fraction(0)) for pi in order]
        for pi, c in zip(order, ratlin.mat_vec(inverse_of_degree(n), vec)):
            if c:
                out[pi] = c
    return NCSymExpr(target, out)


def dense_from_m(expr, target):
    return dense_convert(expr, target, lambda n: dense_from_m_matrix(target, n))


def dense_h_to_schur(expr):
    return dense_convert(expr, "s", dense_schur_inverse)


def assert_same(got, want):
    assert got.basis == want.basis
    assert got.terms == want.terms
    assert str(got) == str(want)


def mixed_expressions(basis, count, seed):
    """Seeded sums over several degrees, each with a constant term."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        terms = {(): Fraction(rng.randint(-3, 3), rng.randint(1, 3))}
        for n in rng.sample(range(1, MAX_ORACLE_DEGREE + 1), 3):
            for pi in rng.sample(set_partitions(n), min(3, len(set_partitions(n)))):
                terms[pi] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        out.append(NCSymExpr(basis, terms))
    return out


@pytest.mark.parametrize("target", "peh")
def test_from_m_matches_dense_inverse(target):
    for n in range(MAX_ORACLE_DEGREE + 1):
        for pi in set_partitions(n):
            expr = NCSymExpr.single("m", pi)
            assert_same(from_m(expr, target), dense_from_m(expr, target))


@pytest.mark.parametrize("target", "peh")
def test_from_m_matches_dense_inverse_on_mixed_degrees(target):
    for expr in mixed_expressions("m", 6, seed=11):
        assert_same(from_m(expr, target), dense_from_m(expr, target))


def test_h_to_schur_matches_dense_inverse():
    for n in range(MAX_ORACLE_DEGREE + 1):
        for pi in set_partitions(n):
            expr = NCSymExpr.single("h", pi)
            assert_same(h_to_schur(expr), dense_h_to_schur(expr))
    for expr in mixed_expressions("h", 6, seed=12):
        assert_same(h_to_schur(expr), dense_h_to_schur(expr))


@pytest.mark.parametrize("target", "peh")
def test_from_m_round_trips_at_degree_6(target):
    for pi in random.Random(6).sample(set_partitions(6), 4):
        expr = NCSymExpr.single("m", pi)
        assert to_m(from_m(expr, target)) == expr


@cache
def dense_kostka_inverse(n):
    """The partitions of n and the inverse of the matrix whose column lam
    holds the m-coordinates of s_lam: its column gam is m_gam in the s-basis."""
    lams = list(partitions(n))
    mat = [[Fraction(kostka(SkewShape(lam, ()), gam)) for lam in lams] for gam in lams]
    return lams, ratlin.inverse(mat)


def dense_m_to_s(expr):
    out = {}
    for gam, c in expr.terms.items():
        lams, inv = dense_kostka_inverse(sum(gam))
        j = lams.index(gam)
        for lam, row in zip(lams, inv):
            out[lam] = out.get(lam, Fraction(0)) + c * row[j]
    return SymExpr("s", out)


def test_m_to_s_matches_dense_kostka_inverse():
    for n in range(7):
        for gam in partitions(n):
            expr = SymExpr.single("m", gam)
            assert_same(m_to_s(expr), dense_m_to_s(expr))
    rng = random.Random(13)
    for _ in range(20):
        terms = {}
        for n in rng.sample(range(7), 3):
            pool = list(partitions(n))
            for gam in rng.sample(pool, min(3, len(pool))):
                terms[gam] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        expr = SymExpr("m", terms)
        assert_same(m_to_s(expr), dense_m_to_s(expr))
