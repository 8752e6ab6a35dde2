"""Symmetric functions in noncommuting variables: the m/p/e/h bases over
set partitions, exact basis change, products, the omega involution, the
permutation action, the projection to commuting variables, the coproduct,
and the word-expansion bridge to the polynomial oracle.

The Schur-type bases ("s", "st") are carried by the same expression class;
their expansions into the h- and e-bases live in :mod:`ncschur.schur` and
are pulled in lazily to avoid an import cycle.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import cache

from .combinat import (
    Perm,
    SetPartition,
    bottom_mobius,
    canonical_set_partition,
    format_set_partition,
    lower_interval,
    meet,
    parse_set_partition,
    parts_factorial,
    permute_set_partition,
    set_partitions,
    shape_of,
    slash,
    sp_size,
    multiplicity_factorial,
    upper_interval,
)
from .expr_format import LinearCombination
from .ncpoly import NCPoly
from .sym import SymExpr

# expansion into words costs k^n; anything past these is a mistake, not a job
ORACLE_DEGREE_LIMIT = 8
ORACLE_WORD_LIMIT = 10**6


class DegreeGuardError(ValueError):
    pass


def sp_order_key(pi: SetPartition):
    """Basis order: reverse of the block-size partition, zero-padded to the
    degree, in lexicographic order; ties broken by the canonical string
    encoding. This order refines dominance of the shapes."""
    n = sp_size(pi)
    lam = shape_of(pi)
    padded = (0,) * (n - len(lam)) + tuple(reversed(lam))
    return (padded, format_set_partition(pi))


@cache
def basis_order(n: int) -> tuple[SetPartition, ...]:
    return tuple(sorted(set_partitions(n), key=sp_order_key))


class NCSymExpr(LinearCombination):
    """A finite rational linear combination of NCSym basis elements indexed
    by set partitions. Indices of different sizes may coexist; every
    per-degree operation treats the homogeneous components separately."""

    __slots__ = ()

    ALGEBRA = "ncsym"
    BASES = ("m", "p", "e", "h", "s", "st")
    LABELS = {"st": "s^t"}
    format_index = staticmethod(format_set_partition)
    parse_index = staticmethod(parse_set_partition)

    @staticmethod
    def check_index(pi: SetPartition) -> SetPartition:
        # the fast path: keys are taken as given, only made hashable
        return tuple(tuple(b) for b in pi)

    def common(self) -> "NCSymExpr":
        return to_m(self)

    @classmethod
    def single(cls, basis: str, pi: SetPartition, coeff=1) -> "NCSymExpr":
        return cls(basis, {canonical_set_partition(pi): Fraction(coeff)})

    @classmethod
    def one(cls, basis: str = "h") -> "NCSymExpr":
        return cls.single(basis, ())

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted({sp_size(pi) for pi in self.terms}))

    def __mul__(self, other: "NCSymExpr") -> "NCSymExpr":
        return product(self, other)

    def sorted_terms(self):
        # leading indices first: descending basis order within each degree
        by_key = sorted(self.terms.items(), key=lambda item: sp_order_key(item[0]), reverse=True)
        return sorted(by_key, key=lambda item: sp_size(item[0]))


# ---------------------------------------------------------------------------
# basis change

def block_weights(basis: str, pi: SetPartition) -> list[int]:
    """The weight of each subset C of {1..n} (the bitmask with bit x - 1
    for x) as a block of sigma in the m-expansion of the p/e/h element on
    pi: for h the product over the blocks B of pi of |C & B|!, for p 1 if
    C is a union of blocks of pi, for e 1 if C meets each block at most
    once, else 0. The product over the blocks of sigma is then
    lambda(meet(sigma, pi))!, [pi <= sigma] or [meet(sigma, pi) is the
    bottom] (Rosas-Sagan). The table doubles once per element x: C + x
    extends C, with B the block of x."""
    owner = {x: sum(1 << (y - 1) for y in b) for b in pi for x in b}
    w = [1]
    for x in range(1, sp_size(pi) + 1):
        b = owner[x]
        if basis == "h":
            w += [v * ((c & b).bit_count() + 1) for c, v in enumerate(w)]
        elif basis == "e":
            w += [0 if c & b else v for c, v in enumerate(w)]
        else:
            b ^= 1 << (x - 1)
            w += [w[c ^ b] if c & b == b else 0 for c in range(len(w))]
    return w


def _block_products(n: int, columns, vec) -> dict[SetPartition, int]:
    """sigma -> the sum over i of vec[i] times the product over the blocks
    C of sigma of columns[C][i], for every set partition sigma of {1..n}.
    sigma is built block by block, each block holding the least element
    not yet placed, so its prefixes share their partial products; a prefix
    whose products all vanish is cut off."""
    names = [tuple(x + 1 for x in range(n) if c >> x & 1) for c in range(1 << n)]
    out = {}

    def walk(rest, prefix, vec):
        if not rest:
            out[prefix] = sum(vec)
            return
        low = rest & -rest
        others = rest ^ low
        sub = others + 1
        while sub:  # every subset of others, from others itself down to 0
            sub = (sub - 1) & others
            part = list(map(operator.mul, vec, columns[low | sub]))
            if any(part):
                walk(others ^ sub, prefix + (names[low | sub],), part)

    walk((1 << n) - 1, (), vec)
    return out


def to_m(expr: NCSymExpr) -> NCSymExpr:
    """Exact monomial-basis expansion. The p/e/h terms of each degree are
    done together in integers: the coefficients are scaled by the lcm of
    their denominators, and the coefficient of m_sigma is the sum over pi
    of a_pi times the product of block_weights(pi) over the blocks of
    sigma."""
    if expr.basis == "m":
        return expr
    if expr.basis in ("s", "st"):
        return to_m(to_h_or_e(expr))
    by_degree: dict[int, list] = {}
    for pi, c in expr.terms.items():
        by_degree.setdefault(sp_size(pi), []).append((pi, c))
    out = {}
    for n, items in by_degree.items():
        den = math.lcm(*(c.denominator for _, c in items))
        vec = [c.numerator * (den // c.denominator) for _, c in items]
        columns = list(zip(*(block_weights(expr.basis, pi) for pi, _ in items)))
        sums = _block_products(n, columns, vec)
        for sig in set_partitions(n):
            if sums.get(sig):
                out[sig] = Fraction(sums[sig], den)
    return NCSymExpr("m", out)


def from_m(expr: NCSymExpr, target: str) -> NCSymExpr:
    """Rewrite a monomial-basis expression in the p/e/h basis by Moebius
    inversion on the set-partition lattice (Rosas-Sagan). First
    m_pi = sum over sigma >= pi of mu(pi, sigma) p_sigma. Inverting
    h_sigma = sum over tau <= sigma of |mu(0, tau)| p_tau, and the same for
    e_sigma with mu(0, tau), gives
    p_sigma = sum over tau <= sigma of mu(tau, sigma) h_tau / |mu(0, sigma)|,
    and for the e-basis the division is by mu(0, sigma)."""
    if expr.basis != "m":
        raise ValueError("from_m needs a monomial-basis expression")
    if target not in ("p", "e", "h"):
        raise ValueError(f"cannot convert into basis {target!r}")
    p_terms: dict[SetPartition, Fraction] = {}
    for pi, c in expr.terms.items():
        for sigma, mu in upper_interval(pi):
            p_terms[sigma] = p_terms.get(sigma, 0) + c * mu
    if target == "p":
        return NCSymExpr("p", p_terms)
    out: dict[SetPartition, Fraction] = {}
    for sigma, c in p_terms.items():
        if not c:
            continue
        scale = bottom_mobius(sigma)
        c = c / (abs(scale) if target == "h" else scale)
        for tau, mu in lower_interval(sigma):
            out[tau] = out.get(tau, 0) + c * mu
    return NCSymExpr(target, out)


def to_h_or_e(expr: NCSymExpr) -> NCSymExpr:
    """Expand the Schur-type bases: "s" into the h-basis, "st" into the
    e-basis."""
    from .schur import standard_schur, transposed_schur

    fn = standard_schur if expr.basis == "s" else transposed_schur
    return expr.map_terms(fn)


def to_h(expr: NCSymExpr) -> NCSymExpr:
    if expr.basis == "h":
        return expr
    if expr.basis == "s":
        return to_h_or_e(expr)
    return from_m(to_m(expr), "h")


# ---------------------------------------------------------------------------
# product, involution, actions

def product(f: NCSymExpr, g: NCSymExpr) -> NCSymExpr:
    """Bilinear product. On the p/e/h bases the indices multiply by the
    slash product; everything else routes through the h-basis and converts
    back."""
    if f.basis == g.basis and f.basis in ("p", "e", "h"):
        terms: dict[SetPartition, Fraction] = {}
        for pi, c1 in f.terms.items():
            for sig, c2 in g.terms.items():
                idx = slash(pi, sig)
                terms[idx] = terms.get(idx, Fraction(0)) + c1 * c2
        return NCSymExpr(f.basis, terms)
    prod_h = product(to_h(f), to_h(g))
    if f.basis == g.basis == "m":
        return to_m(prod_h)
    if f.basis == g.basis == "s":
        from .schur import h_to_schur

        return h_to_schur(prod_h)
    return prod_h


def sp_sign(pi: SetPartition) -> int:
    """Sign of any permutation with one cycle per block."""
    return -1 if (sp_size(pi) - len(pi)) % 2 else 1


def omega(expr: NCSymExpr) -> NCSymExpr:
    """The involution exchanging the h- and e-type bases."""
    if expr.basis == "h":
        return NCSymExpr("e", expr.terms)
    if expr.basis == "e":
        return NCSymExpr("h", expr.terms)
    if expr.basis == "p":
        return NCSymExpr(
            "p", {pi: c * sp_sign(pi) for pi, c in expr.terms.items()}
        )
    if expr.basis == "m":
        return to_m(omega(from_m(expr, "h")))
    if expr.basis == "s":
        return NCSymExpr("st", expr.terms)
    return NCSymExpr("s", expr.terms)


def delta_action(delta: Perm, expr: NCSymExpr) -> NCSymExpr:
    """Relabel every index by the permutation. Defined on the m/p/e/h bases."""
    if expr.basis not in ("m", "p", "e", "h"):
        raise ValueError("the permutation action needs an m/p/e/h expression")
    terms: dict[SetPartition, Fraction] = {}
    for pi, c in expr.terms.items():
        idx = permute_set_partition(delta, pi)
        terms[idx] = terms.get(idx, Fraction(0)) + c
    return NCSymExpr(expr.basis, terms)


_RHO_SCALE = {
    "m": lambda lam: multiplicity_factorial(lam),
    "p": lambda lam: 1,
    "e": lambda lam: parts_factorial(lam),
    "h": lambda lam: parts_factorial(lam),
}


def rho(expr: NCSymExpr) -> SymExpr:
    """The projection that lets the variables commute."""
    if expr.basis in ("s", "st"):
        return rho(to_h_or_e(expr))
    scale = _RHO_SCALE[expr.basis]
    terms: dict = {}
    for pi, c in expr.terms.items():
        lam = shape_of(pi)
        terms[lam] = terms.get(lam, Fraction(0)) + c * scale(lam)
    return SymExpr(expr.basis, terms)


# ---------------------------------------------------------------------------
# coproduct

def standardize(block_family) -> SetPartition:
    """Renumber the entries of a family of disjoint blocks onto an initial
    interval, preserving relative order."""
    entries = sorted(x for b in block_family for x in b)
    rank = {x: i + 1 for i, x in enumerate(entries)}
    return canonical_set_partition(
        tuple(rank[x] for x in b) for b in block_family
    )


def coproduct(expr: NCSymExpr, i: int | None = None) -> dict:
    """The monomial-basis coproduct: each index splits over all subsets of
    its blocks, both sides standardized. Returns a map
    (left index, right index) -> coefficient, restricted to left degree i
    when i is given."""
    expr_m = to_m(expr)
    out: dict[tuple[SetPartition, SetPartition], Fraction] = {}
    for pi, coeff in expr_m.terms.items():
        ell = len(pi)
        for picks in itertools.product((0, 1), repeat=ell):
            left = tuple(b for b, take in zip(pi, picks) if take)
            right = tuple(b for b, take in zip(pi, picks) if not take)
            if i is not None and sum(len(b) for b in left) != i:
                continue
            key = (standardize(left), standardize(right))
            out[key] = out.get(key, Fraction(0)) + coeff
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# expansion into noncommuting words

def _check_size(basis: str, pi: SetPartition, k: int):
    n, name = sp_size(pi), f"oracle expansion of {basis}[{format_set_partition(pi)}]"
    if n > ORACLE_DEGREE_LIMIT:
        raise DegreeGuardError(f"{name}: degree {n} exceeds the limit {ORACLE_DEGREE_LIMIT}")
    if k**n > ORACLE_WORD_LIMIT:
        raise DegreeGuardError(
            f"{name} over {k} variables: {k**n} words exceed the limit {ORACLE_WORD_LIMIT}"
        )


def _words(pi: SetPartition, k: int, pools) -> dict:
    """The word expansion over the blocks of pi, a word w_1...w_n over
    x_1..x_k being the base-k integer sum over x of (w_x - 1) k^(n - x).
    Each pool maps a tuple of digits (letter - 1) for the next block(s), in
    block order, to its multiplicity and adds them at those letters'
    positions. An empty pool gives no words, and n = 0 the one word 0."""
    n = sp_size(pi)
    weights = iter([k ** (n - x) for b in pi for x in b])
    words = {0: 1}
    for pool in pools:
        place = list(itertools.islice(weights, len(next(iter(pool), ()))))
        digits = {sum(map(operator.mul, t, place)): m for t, m in pool.items()}
        words = {w + d: c * m for w, c in words.items() for d, m in digits.items()}
    return words


def _expand_m(pi: SetPartition, k: int) -> dict:
    # one pool: a digit per block, constant on it, distinct across blocks
    pool = {
        tuple(v for b, v in zip(pi, values) for _ in b): 1
        for values in itertools.permutations(range(k), len(pi))
    }
    return _words(pi, k, [pool])


def _expand_p(pi: SetPartition, k: int) -> dict:
    # one digit per block
    return _words(pi, k, [{(v,) * len(b): 1 for v in range(k)} for b in pi])


def _expand_e(pi: SetPartition, k: int) -> dict:
    # distinct digits within a block
    pools = [{t: 1 for t in itertools.permutations(range(k), len(b))} for b in pi]
    return _words(pi, k, pools)


def _expand_h(pi: SetPartition, k: int) -> dict:
    # the double sum over block-fixing permutations composed with weakly
    # increasing values per block, collapsed: within one block every tuple
    # of values occurs, and the number of (sorted tuple, permutation) pairs
    # producing it is the product of its value-multiplicity factorials
    pools = [
        {
            vals: multiplicity_factorial(sorted(vals))
            for vals in itertools.product(range(k), repeat=len(b))
        }
        for b in pi
    ]
    return _words(pi, k, pools)


_EXPANDERS = {"m": _expand_m, "p": _expand_p, "e": _expand_e, "h": _expand_h}


def oracle_expand(expr: NCSymExpr, k: int) -> NCPoly:
    """Exact truncated expansion into words over x_1..x_k. The expanders
    give base-k integers (see _words), which name a word only with its
    length: they are added up per degree and decoded only here."""
    if k < 1:
        raise ValueError("need at least one variable")
    for pi in expr.terms:
        _check_size(expr.basis, pi, k)
    if expr.basis in ("s", "st"):
        return oracle_expand(to_h_or_e(expr), k)
    by_degree: dict[int, dict] = {}
    for pi, coeff in expr.terms.items():
        words = by_degree.setdefault(sp_size(pi), {})
        for w, c in _EXPANDERS[expr.basis](pi, k).items():
            words[w] = words.get(w, 0) + coeff * c
    return NCPoly(k, {
        tuple(w // k ** (n - x) % k + 1 for x in range(1, n + 1)): c
        for n, words in by_degree.items() for w, c in words.items()
    })


def naive_expand(basis: str, pi: SetPartition, k: int) -> NCPoly:
    """Independent brute-force expansion straight from the tuple-pattern
    definitions: every tuple in {1..k}^n is tested against the membership
    condition. The h-basis goes through its defining monomial expansion."""
    n = sp_size(pi)
    _check_size(basis, pi, k)
    if basis == "h":
        out = NCPoly.zero(k)
        for sig in set_partitions(n):
            c = parts_factorial(shape_of(meet(sig, pi)))
            out = out + naive_expand("m", sig, k).scale(c)
        return out
    where = {x: i for i, b in enumerate(pi) for x in b}
    terms: dict = {}
    for word in itertools.product(range(1, k + 1), repeat=n):
        ok = True
        for j in range(n):
            for l in range(j + 1, n):
                same_block = where[j + 1] == where[l + 1]
                if basis == "m" and (word[j] == word[l]) != same_block:
                    ok = False
                elif basis == "p" and same_block and word[j] != word[l]:
                    ok = False
                elif basis == "e" and same_block and word[j] == word[l]:
                    ok = False
                if not ok:
                    break
            if not ok:
                break
        if ok:
            terms[word] = terms.get(word, Fraction(0)) + 1
    return NCPoly(k, terms)
