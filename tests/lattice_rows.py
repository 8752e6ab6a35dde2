"""The m-expansions of the p/e/h basis elements straight from the lattice
rules (Rosas-Sagan), one meet or refinement test per pair of indices:
h_pi = sum of lambda(sigma ^ pi)! m_sigma, p_pi = sum of m_sigma over
sigma >= pi, e_pi = sum of m_sigma over sigma ^ pi = 0. They share no
code with ncsym.to_m and serve as its oracle. Each row is made once."""

from fractions import Fraction
from functools import cache
from math import lcm

from ncschur.combinat import meet, parts_factorial, refines, set_partitions, shape_of, sp_size


@cache
def h_row(pi):
    return {
        sig: Fraction(parts_factorial(shape_of(meet(sig, pi))))
        for sig in set_partitions(sp_size(pi))
    }


@cache
def p_row(pi):
    return {sig: Fraction(1) for sig in set_partitions(sp_size(pi)) if refines(pi, sig)}


@cache
def e_row(pi):
    n = sp_size(pi)
    bottom = tuple((i,) for i in range(1, n + 1))
    return {sig: Fraction(1) for sig in set_partitions(n) if meet(sig, pi) == bottom}


INDEX_TO_M = {"h": h_row, "p": p_row, "e": e_row}


def rows_to_m(expr):
    """The m-basis terms of a p/e/h expression, summed row by row. The rows
    are integral, so the sums run in integers over the lcm of the
    coefficients' denominators."""
    den = lcm(*(c.denominator for c in expr.terms.values()))
    out = {}
    for pi, c in expr.terms.items():
        k = c.numerator * (den // c.denominator)
        for sig, a in INDEX_TO_M[expr.basis](pi).items():
            out[sig] = out.get(sig, 0) + k * a.numerator
    return {sig: Fraction(c, den) for sig, c in out.items() if c}
