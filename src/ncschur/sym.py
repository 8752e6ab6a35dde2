"""Classical symmetric functions over integer partitions: the m/p/e/h/s
bases, Jacobi-Trudi determinants, Kostka numbers and Littlewood-Richardson
coefficients.

Basis changes route through the monomial basis, where every structure
constant is a count: the coefficient of m_lam in m_mu m_nu is the number of
ways to split the exponent vector lam into rearrangements of mu and nu, and
h/e/p_lam is a product of monomial functions. Schur functions expand by
Kostka numbers. No result is computed with polynomial arithmetic; expand
is the bridge to that oracle.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import cache, reduce

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
from .expr_format import LinearCombination, add_up
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
        return self.map_terms(lambda lam: _index_to_m(self.basis, lam), "m")

    def to_s(self) -> "SymExpr":
        if self.basis == "s":
            return self
        return m_to_s(self.to_m())


# ---------------------------------------------------------------------------
# monomial expansions

def _takes(left: tuple[int, ...], parts: Partition):
    """The distinct rearrangements of parts, padded with zeros to
    len(left), that fit under left entry by entry: filled one position at
    a time from the multiset of parts still left over."""
    pool = Counter(parts + (0,) * (len(left) - len(parts)))

    def fill(i: int):
        if i == len(left):
            yield ()
            return
        for v, c in pool.items():
            if c and v <= left[i]:
                pool[v] -= 1
                yield from ((v,) + rest for rest in fill(i + 1))
                pool[v] += 1

    return fill(0) if len(parts) <= len(left) else iter(())


@cache
def _index_to_m(basis: str, lam: Partition) -> dict[Partition, Fraction]:
    """Kostka numbers for s_lam; h/e/p_lam is the product over lam's parts
    r of h_r = the sum of m_mu over mu |- r, e_r = m_(1^r) and p_r = m_(r)."""
    if basis == "s":
        return {gam: Fraction(k) for gam in partitions(sum(lam))
                if (k := kostka(SkewShape(lam, ()), gam))}
    gens = {"h": partitions, "e": lambda r: [(1,) * r], "p": lambda r: [(r,)]}
    return reduce(product, (SymExpr._trusted("m", dict.fromkeys(gens[basis](r), Fraction(1)))
                            for r in lam), SymExpr.one("m")).terms


def expand(expr: SymExpr, k: int) -> CPoly:
    """Exact truncation of the expression to k commuting variables: m_lam
    is the sum of the distinct rearrangements of lam padded to length k."""
    return CPoly(k, {
        expo: coeff
        for lam, coeff in expr.to_m().terms.items() if len(lam) <= k
        for expo in set(itertools.permutations(lam + (0,) * (k - len(lam))))
    })


# ---------------------------------------------------------------------------
# products

@cache
def _m_times_m(mu: Partition, nu: Partition) -> dict[Partition, Fraction]:
    """The coefficient of m_lam in m_mu m_nu is that of x^lam: the number of
    rearrangements a of mu under lam whose rest lam - a rearranges nu."""
    out = {}
    for lam in partitions(sum(mu) + sum(nu)):
        if k := sum(sort_to_partition(x - y for x, y in zip(lam, a)) == nu
                    for a in _takes(lam, mu)):
            out[lam] = Fraction(k)
    return out


def product(f: SymExpr, g: SymExpr) -> SymExpr:
    if f.basis == g.basis and f.basis in "peh":
        return SymExpr._trusted(f.basis, add_up(
            (sort_to_partition(lam + mu), c1 * c2)
            for lam, c1 in f.terms.items() for mu, c2 in g.terms.items()
        ))
    fm, gm = f.to_m(), g.to_m()
    return SymExpr._trusted("m", add_up(
        (lam, c1 * c2 * k)
        for mu, c1 in fm.terms.items() for nu, c2 in gm.terms.items()
        for lam, k in _m_times_m(mu, nu).items()
    ))


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
    terms = add_up((sort_to_partition(entries), sign)
                   for sign, entries in jacobi_trudi_terms(outer, inner))
    return SymExpr._trusted(flavor, {idx: Fraction(c) for idx, c in terms.items()})


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
            name = format_partition(lam)
            if row.get(lam) != 1:
                raise ArithmeticError(f"Kostka number K[{name}, {name}] is not 1")
            out[lam] = c
            for gam, k in row.items():
                if gam > lam:  # a row already passed
                    raise ArithmeticError(f"Kostka matrix not triangular at degree {n}: "
                                          f"K[{name}, {format_partition(gam)}] is not 0")
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
