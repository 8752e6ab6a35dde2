"""Classical symmetric functions over integer partitions: the m/p/e/h/s
bases, Jacobi-Trudi determinants, Kostka numbers and Littlewood-Richardson
coefficients.

Basis changes route through the monomial basis. A function in a
multiplicative basis is expanded exactly by multiplying out its generators
as polynomials in deg-many variables, which is faithful for the monomial
functions that can occur.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache

from .combinat import (
    Partition,
    SkewShape,
    check_partition,
    contains,
    format_partition,
    jacobi_trudi_terms,
    kostka,
    parse_partition,
    partitions,
    sort_to_partition,
    transpose,
)
from .expr_format import LinearCombination
from .ncpoly import CPoly


class SymExpr(LinearCombination):
    """A finite rational linear combination of basis elements m/p/e/h/s
    indexed by integer partitions."""

    __slots__ = ()

    ALGEBRA = "sym"
    BASES = ("m", "p", "e", "h", "s")
    check_index = staticmethod(check_partition)
    format_index = staticmethod(format_partition)
    parse_index = staticmethod(parse_partition)

    def common(self) -> "SymExpr":
        return self.to_m()

    def __mul__(self, other: "SymExpr") -> "SymExpr":
        return product(self, other)

    def to_m(self) -> "SymExpr":
        if self.basis == "m":
            return self
        terms: dict[Partition, Fraction] = {}
        for lam, coeff in self.terms.items():
            for gam, k in _index_to_m(self.basis, lam).items():
                terms[gam] = terms.get(gam, Fraction(0)) + coeff * k
        return SymExpr("m", terms)

    def to_s(self) -> "SymExpr":
        if self.basis == "s":
            return self
        return m_to_s(self.to_m())


# ---------------------------------------------------------------------------
# monomial expansions

def _generator_cpoly(basis: str, r: int, k: int) -> CPoly:
    """The degree-r generator of a multiplicative basis in k variables."""
    terms: dict[tuple[int, ...], Fraction] = {}
    if basis == "p":
        for i in range(k):
            expo = [0] * k
            expo[i] = r
            terms[tuple(expo)] = Fraction(1)
    elif basis == "e":
        for support in itertools.combinations(range(k), r):
            expo = [0] * k
            for i in support:
                expo[i] = 1
            terms[tuple(expo)] = Fraction(1)
    elif basis == "h":
        for multi in itertools.combinations_with_replacement(range(k), r):
            expo = [0] * k
            for i in multi:
                expo[i] += 1
            terms[tuple(expo)] = Fraction(1)
    else:
        raise ValueError(basis)
    return CPoly(k, terms)


def _extract_m(poly: CPoly, k: int) -> dict[Partition, Fraction]:
    """Read off monomial-basis coefficients from a symmetric polynomial in
    k variables: the coefficient of m_gam is that of x^gam."""
    out = {}
    for expo, coeff in poly.terms.items():
        gam = sort_to_partition(expo)
        if tuple(gam) + (0,) * (k - len(gam)) == expo:
            out[gam] = coeff
    return out


@cache
def _index_to_m(basis: str, lam: Partition) -> dict[Partition, Fraction]:
    n = sum(lam)
    if n == 0:
        return {(): Fraction(1)}
    if basis == "s":
        return {
            gam: Fraction(k)
            for gam in partitions(n)
            if (k := kostka(SkewShape(lam, ()), gam))
        }
    poly = CPoly.one(n)
    for r in lam:
        poly = poly * _generator_cpoly(basis, r, n)
    return _extract_m(poly, n)


def expand(expr: SymExpr, k: int) -> CPoly:
    """Exact truncation of the expression to k commuting variables."""
    out = CPoly.zero(k)
    for lam, coeff in expr.to_m().terms.items():
        if len(lam) > k:
            continue
        terms = {}
        for perm in set(itertools.permutations(lam + (0,) * (k - len(lam)))):
            terms[perm] = Fraction(1)
        out = out + CPoly(k, terms).scale(coeff)
    return out


# ---------------------------------------------------------------------------
# products

@cache
def _m_times_m(mu: Partition, nu: Partition) -> dict[Partition, Fraction]:
    k = max(sum(mu) + sum(nu), 1)
    prod = expand(SymExpr.single("m", mu), k) * expand(SymExpr.single("m", nu), k)
    return _extract_m(prod, k)


def product(f: SymExpr, g: SymExpr) -> SymExpr:
    if f.basis == g.basis and f.basis in "peh":
        terms: dict[Partition, Fraction] = {}
        for lam, c1 in f.terms.items():
            for mu, c2 in g.terms.items():
                idx = sort_to_partition(lam + mu)
                terms[idx] = terms.get(idx, Fraction(0)) + c1 * c2
        return SymExpr(f.basis, terms)
    fm, gm = f.to_m(), g.to_m()
    terms = {}
    for mu, c1 in fm.terms.items():
        for nu, c2 in gm.terms.items():
            for lam, k in _m_times_m(mu, nu).items():
                terms[lam] = terms.get(lam, Fraction(0)) + c1 * c2 * k
    return SymExpr("m", terms)


# ---------------------------------------------------------------------------
# Schur functions

def jacobi_trudi(shape: SkewShape, flavor: str = "h") -> SymExpr:
    """The (dual) Jacobi-Trudi expansion of a skew Schur function in the
    h-basis (flavor "h") or e-basis (flavor "e")."""
    if flavor == "e":
        outer, inner = transpose(shape.outer), transpose(shape.inner)
    elif flavor == "h":
        outer, inner = shape.outer, shape.inner
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    terms: dict[Partition, Fraction] = {}
    for sign, entries in jacobi_trudi_terms(outer, inner):
        idx = sort_to_partition(entries)
        terms[idx] = terms.get(idx, Fraction(0)) + sign
    return SymExpr(flavor, terms)


def m_to_s(expr: SymExpr) -> SymExpr:
    """Rewrite a monomial-basis expression in the Schur basis by
    back-substitution. s_lam is m_lam plus monomials on partitions that lam
    strictly dominates (the Kostka matrix is unitriangular), and
    partitions(n) comes in lexicographically decreasing order, which
    extends dominance; so, walking it, the remaining coefficient c of m_lam
    is the coefficient of s_lam, and c s_lam is taken away."""
    if expr.basis != "m":
        raise ValueError("m_to_s needs a monomial-basis expression")
    rest = dict(expr.terms)
    out: dict[Partition, Fraction] = {}
    for n in sorted({sum(lam) for lam in rest}):
        for lam in partitions(n):
            c = rest.pop(lam, 0)
            if not c:
                continue
            row = _index_to_m("s", lam)
            if row.get(lam) != 1:
                raise ArithmeticError(f"Kostka number K[{lam}, {lam}] is not 1")
            out[lam] = c
            for gam, k in row.items():
                if gam > lam:  # a row already passed
                    raise ArithmeticError(f"Kostka matrix not triangular at degree {n}")
                if gam != lam:
                    rest[gam] = rest.get(gam, 0) - c * k
    return SymExpr("s", out)


def schur(lam: Partition) -> SymExpr:
    return SymExpr.single("s", lam)


def skew_schur(shape: SkewShape, basis: str = "h") -> SymExpr:
    """A skew Schur function in the requested basis."""
    if basis in ("h", "e"):
        return jacobi_trudi(shape, basis)
    if basis == "m":
        return jacobi_trudi(shape, "h").to_m()
    if basis == "s":
        return jacobi_trudi(shape, "h").to_s()
    raise ValueError(f"cannot produce a skew Schur function in basis {basis!r}")


def lr_coefficients(shape: SkewShape) -> dict[Partition, int]:
    """The Littlewood-Richardson coefficients of a skew shape outer/inner:
    nu -> c^outer_{inner,nu}, read off the Schur expansion of its skew
    Schur function, for the nu where it is not zero."""
    out = {}
    for nu, c in skew_schur(shape, "s").terms.items():
        if c.denominator != 1 or c < 0:
            raise ArithmeticError(
                f"non-integral LR coefficient for {shape.outer}/{shape.inner}, {nu}"
            )
        out[nu] = int(c)
    return out


def littlewood_richardson(lam: Partition, mu: Partition, nu: Partition) -> int:
    """The coefficient of s_nu in the skew Schur function on lam/mu."""
    lam, mu, nu = check_partition(lam), check_partition(mu), check_partition(nu)
    if sum(lam) != sum(mu) + sum(nu) or not contains(lam, mu):
        return 0
    return lr_coefficients(SkewShape(lam, mu)).get(nu, 0)
