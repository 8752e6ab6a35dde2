"""Noncommutative symmetric functions indexed by compositions: the
complete homogeneous basis H, the ribbon basis R, and the immaculate basis
S, together with the embedding into symmetric functions in noncommuting
variables and the forgetful map onto classical symmetric functions.
"""

from __future__ import annotations

from fractions import Fraction

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
from .expr_format import LinearCombination, add_up
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
        return self.map_terms(ribbon_to_H if self.basis == "R" else immaculate_to_H, "H")


def ribbon_to_H(alpha: Composition) -> dict[Composition, Fraction]:
    """Expand a ribbon basis element over the (distinct) coarsenings of its index."""
    return {beta: Fraction((-1) ** (len(alpha) - len(beta))) for beta in coarsenings(alpha)}


def immaculate_to_H(alpha: Composition) -> dict[Composition, Fraction]:
    """Expand an immaculate basis element as the Jacobi-Trudi determinant
    on its index, with negative entries skipped and zero parts dropped."""
    out = add_up((tuple(c for c in entries if c), sign)
                 for sign, entries in jacobi_trudi_terms(alpha))
    return {beta: Fraction(c) for beta, c in out.items()}


def product(f: NSymExpr, g: NSymExpr) -> NSymExpr:
    """Bilinear product; the H-basis indices multiply by concatenation."""
    if f.basis == "H" and g.basis == "H":
        return NSymExpr._trusted("H", add_up(
            (a + b, c1 * c2) for a, c1 in f.terms.items() for b, c2 in g.terms.items()
        ))
    return product(f.to_H(), g.to_H())


def iota(expr: NSymExpr) -> NCSymExpr:
    """The embedding into NCSym: H on a composition maps to the complete
    homogeneous element on the matching interval set partition, scaled by
    the reciprocal of the parts factorial."""
    return NCSymExpr._trusted("h", add_up(
        (interval_partition(alpha), coeff / parts_factorial(alpha))
        for alpha, coeff in expr.to_H().terms.items()
    ))


def chi(expr: NSymExpr) -> SymExpr:
    """The forgetful map onto classical symmetric functions: H on a
    composition maps to h on the sorted index."""
    return SymExpr._trusted("h", add_up(
        (sort_to_partition(alpha), coeff) for alpha, coeff in expr.to_H().terms.items()
    ))
