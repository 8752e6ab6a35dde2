"""Classical symmetric functions over integer partitions: the m/p/e/h/s
bases, Jacobi-Trudi determinants, Kostka numbers and Littlewood-Richardson
coefficients.

Basis changes route through the monomial basis, where every structure
constant is a count: the coefficient of m_lam in m_mu m_nu is the number of
ways to split the exponent vector lam into rearrangements of mu and nu, and
h/e/p_lam is a product of monomial functions. Schur functions expand by
Kostka numbers, a whole row per shape from one branching-rule pass
(combinat.kostka_row). Littlewood-Richardson coefficients count the
fillings of the skew shape whose reverse reading word is a lattice word
(the Littlewood-Richardson rule); skew_schur(shape, "s"), the Jacobi-Trudi
determinant rewritten m -> s, is the independent route the tests compare
them with. No result is computed with polynomial arithmetic; expand is the
bridge to that oracle.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import cache, reduce
from operator import itemgetter

from .combinat import (
    Partition,
    SkewShape,
    check_partition,
    contains,
    format_partition,
    jacobi_trudi_terms,
    kostka_row,
    parse_partition,
    partitions,
    sort_to_partition,
    transpose,
)
from .expr_format import LinearCombination, add_up, back_substitute, integer_degrees


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

@cache
def _index_to_m(basis: str, lam: Partition) -> dict[Partition, Fraction | int]:
    """The m-expansion of one basis element. For s_lam it holds the Kostka
    numbers, as ints, from one kostka_row pass over lam: they are m_to_s's
    integer columns and the straight rows of schur.skew_kostka_check.
    h/e/p_lam is the product over lam's parts r of h_r = the sum of m_mu
    over mu |- r, e_r = m_(1^r) and p_r = m_(r), with Fraction
    coefficients."""
    if basis == "s":
        return kostka_row(SkewShape(lam, ()))
    gens = {"h": partitions, "e": lambda r: [(1,) * r], "p": lambda r: [(r,)]}
    return reduce(product, (SymExpr._trusted("m", dict.fromkeys(gens[basis](r), Fraction(1)))
                            for r in lam), SymExpr.one("m")).terms


def expand(expr: SymExpr, k: int) -> CPoly:
    """Exact truncation of the expression to k commuting variables: m_lam
    is the sum of the distinct rearrangements of lam padded to length k."""
    from .ncpoly import CPoly

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
        if len(mu) <= len(lam) and len(nu) <= len(lam) and (k := _split_count(lam, mu, nu)):
            out[lam] = Fraction(k)
    return out


def _split_count(lam: Partition, mu: Partition, nu: Partition) -> int:
    # backtracking over the positions of lam: position i takes a distinct
    # value a_i <= lam_i from what is left of mu (padded with zeros to
    # len(lam)) only if lam_i - a_i is left in nu's multiset, and takes both
    left_mu = Counter(mu + (0,) * (len(lam) - len(mu)))
    left_nu = Counter(nu + (0,) * (len(lam) - len(nu)))

    def fill(i: int) -> int:
        if i == len(lam):
            return 1
        top, total = lam[i], 0
        for a, c in left_mu.items():
            if c and a <= top and left_nu[top - a]:
                left_mu[a] -= 1
                left_nu[top - a] -= 1
                total += fill(i + 1)
                left_mu[a] += 1
                left_nu[top - a] += 1
        return total

    return fill(0)


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
    extends dominance; so back_substitute walks it, and the remaining
    coefficient of m_lam is the coefficient of s_lam. The Kostka columns
    are ints, one kostka_row pass per shape (_index_to_m), so each degree
    is scaled once by the lcm of its denominators and solved in integers;
    only the solution becomes Fractions, one per output term."""
    if expr.basis != "m":
        raise ValueError("m_to_s needs a monomial-basis expression")
    out: dict[Partition, Fraction] = {}
    for n, ints, den in sorted(integer_degrees(expr.terms, sum), key=itemgetter(0)):
        solved = back_substitute(ints, partitions(n), lambda lam: _index_to_m("s", lam),
                                 format_partition)
        out.update((lam, Fraction(b, den)) for lam, b in solved.items())
    return SymExpr._trusted("s", out)


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
    nu -> c^outer_{inner,nu} for the nu where it is not zero, in
    partitions(n) order. By the Littlewood-Richardson rule (Fulton, Young
    Tableaux 5.2; Macdonald I.9) c^outer_{inner,nu} counts the semistandard
    fillings of the shape with content nu whose reverse reading word (rows
    top to bottom, each row right to left) is a lattice word: every prefix
    holds at least as many v-1 as v. One backtracking pass over the cells
    in that order counts them all; an entry of row r (from 0) is at most
    r + 1, since the first v read lies strictly below the first v - 1."""
    # per cell in reverse reading order: the positions in that order of its
    # right neighbour and of the cell above (-1 where there is none), and
    # the largest entry its row can hold
    cells, where = [], {}
    for r, top in enumerate(shape.outer):
        for c in range(top - 1, shape.inner_at(r) - 1, -1):
            where[r, c] = len(cells)
            cells.append((where.get((r, c + 1), -1), where.get((r - 1, c), -1), r + 1))
    counts: dict[Partition, int] = {}
    # count[v] is how many v are placed; count[0] is a bound no count reaches
    _lr_fill(cells, [len(cells) + 1] + [0] * len(shape.outer), counts)
    # partitions(n) order is lexicographically decreasing
    return dict(sorted(counts.items(), reverse=True))


def _lr_fill(cells, count: list, out: dict):
    # backtracking with an explicit stack, so no recursion limit bounds the
    # number of cells: vals[i] is the entry of cell i, 0 while it is empty
    last = len(cells)
    vals = [0] * last
    i = 0
    while i >= 0:
        if i == last:
            nu = tuple(c for c in count[1:] if c)
            out[nu] = out.get(nu, 0) + 1
            i -= 1
            continue
        right, above, cap = cells[i]
        v = vals[i]
        if v:  # back from cell i + 1: take v away and try the next entry
            count[v] -= 1
        elif above >= 0:
            v = vals[above]
        # weakly increasing along the row, strictly increasing down the column
        high = cap if right < 0 else min(cap, vals[right])
        v += 1
        while v <= high and count[v] >= count[v - 1]:
            v += 1
        if v <= high:
            vals[i] = v
            count[v] += 1
            i += 1
        else:
            vals[i] = 0
            i -= 1


def littlewood_richardson(lam: Partition, mu: Partition, nu: Partition) -> int:
    """The coefficient of s_nu in the skew Schur function on lam/mu."""
    lam, mu, nu = check_partition(lam), check_partition(mu), check_partition(nu)
    if sum(lam) != sum(mu) + sum(nu) or not contains(lam, mu):
        return 0
    return lr_coefficients(SkewShape(lam, mu)).get(nu, 0)
