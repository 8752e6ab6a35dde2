"""ncsym.from_m against the route it replaced, and at degree 6 against
the lattice rules row by row. The reference merges the blocks of each
index into its upper interval as sorted tuples and decodes every output
code digit by digit; lattice_rows shares no code with the coded lattice."""

import random
from fractions import Fraction
from math import prod

import pytest

from ncschur.combinat import canonical_set_partition, interval_partition, set_partitions, sp_size
from ncschur.ncsym import NCSymExpr, _CodedLattice, _masks, from_m
from lattice_rows import rows_to_m
from test_basis_oracle import mixed_expressions
from test_coded_lattice import decode, tops


def reference_from_m(expr, target):
    """The p/e/h terms of an m-basis expression in Fractions: p_sigma over
    the upper interval of each index, mu(pi, sigma) being mu(0, rho) for
    the set partition rho of the blocks of pi that merges them into sigma;
    then p_sigma / mu(0, sigma), |mu(0, sigma)| for h, scattered over the
    down-set of sigma with the weights mu(tau, sigma)."""
    by_degree = {}
    for pi, c in expr.terms.items():
        by_degree.setdefault(sp_size(pi), {})[pi] = c
    out = {}
    for n, terms in by_degree.items():
        top = tops(n)
        p = {}
        for pi, c in terms.items():
            for rho in set_partitions(len(pi)):
                sigma = tuple(tuple(sorted(x for i in block for x in pi[i - 1])) for block in rho)
                p[sigma] = p.get(sigma, 0) + c * prod(top[len(block)] for block in rho)
        if target == "p":
            out.update((sigma, c) for sigma, c in p.items() if c)
            continue
        lattice, acc = _CodedLattice(n, by_count=top), {}
        for sigma, c in p.items():
            mu = prod(top[len(b)] for b in sigma)
            for code, w in zip(*lattice.down_set(_masks(sigma))):
                acc[code] = acc.get(code, 0) + c * w / (abs(mu) if target == "h" else mu)
        out.update((decode(code, n), c) for code, c in acc.items() if c)
    return out


@pytest.mark.parametrize("target", "peh")
def test_from_m_keys_coefficients_and_terms(target):
    singles = [NCSymExpr.single("m", pi) for n in range(6) for pi in set_partitions(n)]
    for expr in singles + mixed_expressions("m", 6, seed=11):
        got = from_m(expr, target)
        assert got.basis == target
        assert all(key == canonical_set_partition(key) for key in got.terms)
        assert all(type(c) is Fraction for c in got.terms.values())
        assert got.terms == reference_from_m(expr, target), expr


@pytest.mark.parametrize("target", "peh")
def test_from_m_matches_lattice_rows_at_degree_6(target):
    ends = [interval_partition((1,) * 6), interval_partition((6,))]
    for pi in ends + random.Random(18).sample(set_partitions(6), 6):
        expr = NCSymExpr.single("m", pi)
        assert rows_to_m(from_m(expr, target)) == expr.terms, pi
