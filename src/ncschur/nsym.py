"""Noncommutative symmetric functions indexed by compositions: the
complete homogeneous basis H, the ribbon basis R, and the immaculate basis
S, together with the embedding into symmetric functions in noncommuting
variables and the forgetful map onto classical symmetric functions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .combinat import (
    Composition,
    check_composition,
    coarsenings,
    format_composition,
    interval_partition,
    jacobi_trudi_terms,
    parse_composition,
    parts_factorial,
    sort_to_partition,
)
from .expr_format import LinearCombination
from .ncsym import NCSymExpr
from .sym import SymExpr


class NSymExpr(LinearCombination):
    """A finite rational linear combination of basis elements indexed by
    compositions."""

    __slots__ = ()

    ALGEBRA = "nsym"
    BASES = ("H", "R", "S")
    check_index = staticmethod(check_composition)
    format_index = staticmethod(format_composition)
    parse_index = staticmethod(parse_composition)

    @staticmethod
    def sort_key(alpha: Composition):
        return (sum(alpha), alpha)

    def common(self) -> "NSymExpr":
        return self.to_H()

    def __mul__(self, other: "NSymExpr") -> "NSymExpr":
        return product(self, other)

    def to_H(self) -> "NSymExpr":
        if self.basis == "H":
            return self
        fn = ribbon_to_H if self.basis == "R" else immaculate_to_H
        terms: dict[Composition, Fraction] = {}
        for alpha, coeff in self.terms.items():
            for beta, c in fn(alpha).items():
                terms[beta] = terms.get(beta, Fraction(0)) + coeff * c
        return NSymExpr("H", terms)


@cache
def ribbon_to_H(alpha: Composition) -> dict[Composition, Fraction]:
    """Expand a ribbon basis element over the coarsenings of its index."""
    ell = len(alpha)
    out: dict[Composition, Fraction] = {}
    for beta in coarsenings(alpha):
        sign = -1 if (ell - len(beta)) % 2 else 1
        out[beta] = out.get(beta, Fraction(0)) + sign
    return out


@cache
def immaculate_to_H(alpha: Composition) -> dict[Composition, Fraction]:
    """Expand an immaculate basis element as the Jacobi-Trudi determinant
    on its index, with negative entries skipped and zero parts dropped."""
    out: dict[Composition, Fraction] = {}
    for sign, entries in jacobi_trudi_terms(alpha):
        beta = tuple(c for c in entries if c)
        out[beta] = out.get(beta, Fraction(0)) + sign
    return {b: c for b, c in out.items() if c}


def product(f: NSymExpr, g: NSymExpr) -> NSymExpr:
    """Bilinear product; the H-basis indices multiply by concatenation."""
    if f.basis == "H" and g.basis == "H":
        terms: dict[Composition, Fraction] = {}
        for a, c1 in f.terms.items():
            for b, c2 in g.terms.items():
                idx = a + b
                terms[idx] = terms.get(idx, Fraction(0)) + c1 * c2
        return NSymExpr("H", terms)
    return product(f.to_H(), g.to_H())


def iota(expr: NSymExpr) -> NCSymExpr:
    """The embedding into NCSym: H on a composition maps to the complete
    homogeneous element on the matching interval set partition, scaled by
    the reciprocal of the parts factorial."""
    expr = expr.to_H()
    terms = {}
    for alpha, coeff in expr.terms.items():
        pi = interval_partition(alpha)
        terms[pi] = terms.get(pi, Fraction(0)) + coeff / parts_factorial(alpha)
    return NCSymExpr("h", terms)


def chi(expr: NSymExpr) -> SymExpr:
    """The forgetful map onto classical symmetric functions: H on a
    composition maps to h on the sorted index."""
    expr = expr.to_H()
    terms: dict = {}
    for alpha, coeff in expr.terms.items():
        lam = sort_to_partition(alpha)
        terms[lam] = terms.get(lam, Fraction(0)) + coeff
    return SymExpr("h", terms)
