"""Symmetric functions in noncommuting variables: the m/p/e/h bases over
set partitions, exact basis change through p, products, the omega
involution, the permutation action, the projection to commuting variables
and the coproduct. The expansion into noncommuting words, the bridge to the
polynomial oracle, lives in :mod:`ncschur.words`.

The Schur-type bases ("s", "st") are carried by the same expression class;
their expansions into the h- and e-bases and the solve into s live in
:mod:`ncschur.schur` and are pulled in lazily to avoid an import cycle.
"""

from __future__ import annotations

import importlib
import itertools
import math
from fractions import Fraction
from functools import cache

from .combinat import (
    Perm,
    SetPartition,
    canonical_set_partition,
    format_set_partition,
    mobius_top,
    parse_set_partition,
    parts_factorial,
    permute_set_partition,
    relabel,
    set_partitions,
    shape_of,
    slash,
    sp_size,
    multiplicity_factorial,
)
from .expr_format import LinearCombination, add_up, integer_degrees


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
    check_index = staticmethod(canonical_set_partition)
    format_index = staticmethod(format_set_partition)
    parse_index = staticmethod(parse_set_partition)

    def common(self) -> "NCSymExpr":
        return to_m(self)

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

def _subsets(mask: int):
    """The subsets of a bitmask, in decreasing order."""
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask
    yield 0


def _names(n: int) -> list[tuple[int, ...]]:
    """Per bitmask over {1..n} (element x is bit x - 1): its elements."""
    names = [()]
    for x in range(1, n + 1):
        names += [t + (x,) for t in names]
    return names


def _masks(pi: SetPartition) -> list[int]:
    """The bitmasks of the blocks of pi: element x is bit x - 1."""
    return [sum(1 << (x - 1) for x in b) for b in pi]


class _CodedLattice:
    """Down-sets in the lattice of set partitions of {1..n} as lists of
    integer codes and weights, for the h and e bases. A code gives element x
    the digit (least element of its block) - 1 at place n^(x - 1): it is the
    sum of its blocks' codes, and the down-set of sigma is the sumset over
    the blocks B of sigma of the codes of the set partitions of B. Those are
    made once per B: for each subset S of B less its least element x (see
    _subsets), the block x + S followed by each set partition of B - x - S.
    A set partition of B weighs by_count[its number of blocks] times the
    product of by_size[size] over its blocks."""

    def __init__(self, n: int, by_size=None, by_count=None):
        self.n = n
        self.by_size, self.by_count = by_size or [1] * (n + 1), by_count or [1] * (n + 1)
        self.place = [0]  # per bitmask: the sum of n^(x - 1) over its x
        for x in range(1, n + 1):
            self.place += [v + n ** (x - 1) for v in self.place]
        self.blocks = [([0], [1])] + [None] * ((1 << n) - 1)  # per bitmask: see block()
        self.shapes, self.weights = {0: [(0, 1)]}, {}

    def block(self, mask: int) -> tuple[list[int], list[int]]:
        """The codes of the set partitions of the block and their weights."""
        if self.blocks[mask] is None:
            low = mask & -mask
            digit, codes = low.bit_length() - 1, []
            for sub in _subsets(mask ^ low):
                rest = (self.blocks[mask ^ low ^ sub] or self.block(mask ^ low ^ sub))[0]
                place = digit * self.place[low | sub]
                codes += [place + c for c in rest] if place else rest
            if (k := mask.bit_count()) not in self.weights:
                self.weights[k] = [self.by_count[c] * v for c, v in self.shape(k)]
            self.blocks[mask] = codes, self.weights[k]
        return self.blocks[mask]

    def shape(self, k: int) -> list[tuple[int, int]]:
        # the number of blocks and the product of by_size, in block() order
        if k not in self.shapes:
            self.shapes[k] = [
                (count + 1, self.by_size[sub.bit_count() + 1] * v)
                for sub in _subsets((1 << k - 1) - 1)
                for count, v in self.shape(k - 1 - sub.bit_count())
            ]
        return self.shapes[k]

    def down_set(self, masks, scale: int = 1):
        """The codes of the tau <= sigma, sigma given by the bitmasks of its
        blocks (see _masks), and scale times the product of the weights of
        tau inside the blocks of sigma. The sumset starts from the first
        block's lists (the lattice's own: read only); a one-code block is a shift."""
        first, *rest = masks or [0]
        codes, weights = self.blocks[first] or self.block(first)
        weights = [scale * w for w in weights] if scale != 1 else weights
        for mask in rest:
            block, block_weights = self.blocks[mask] or self.block(mask)
            if len(block) == 1:
                codes = [c + block[0] for c in codes]
            else:
                codes = [c + d for c in codes for d in block]
            if block_weights != [1]:
                weights = [v * w for v in weights for w in block_weights]
        return codes, weights

    def masks(self, code: int) -> tuple[int, ...]:
        """The block bitmasks of the code's set partition, by least element."""
        blocks: dict[int, int] = {}
        for x in range(self.n):
            code, digit = divmod(code, self.n)
            blocks[digit] = blocks.get(digit, 0) | 1 << x
        return tuple(blocks.values())


def _up_sets(terms, tops=None) -> dict[tuple[int, ...], int]:
    """Scatter each (block bitmasks of pi, int coefficient) over the up-set
    of pi: each set partition rho of pi's blocks ORs their masks into a
    sigma >= pi, weighted mu(pi, sigma) = mu(0, rho), the product of
    tops[size] over the blocks of rho, given tops, and 1 otherwise."""
    out, rhos = {}, {}  # rhos: per number of blocks, the rhos and their weights
    for masks, a in terms:
        if (k := len(masks)) not in rhos:
            rhos[k] = _names(k), [(rho, math.prod([tops[len(b)] for b in rho]) if tops else 1)
                                  for rho in set_partitions(k)]
        names, weighted = rhos[k]
        unions = [0]  # per subset s of the positions of pi's blocks: the OR of their masks
        for mask in masks:
            unions += [u | mask for u in unions]
        union = dict(zip(names, unions))  # keyed by s as a tuple
        for rho, w in weighted:
            sigma = tuple(map(union.__getitem__, rho))
            out[sigma] = out.get(sigma, 0) + a * w
    return out


def convert(expr: NCSymExpr, target: str) -> NCSymExpr:
    """Exact basis change into m, p, e, h or s: into s, h_to_schur of the
    h-image; into the others through p once (Rosas-Sagan): h_pi = sum over
    tau <= pi of |mu(0, tau)| p_tau, e_pi the same with mu(0, tau), m_pi =
    sum over sigma >= pi of mu(pi, sigma) p_sigma, and p_tau = sum over
    sigma >= tau of m_sigma. s/st expand into h/e first. Per degree, in
    integers over the lcm of the denominators, p is keyed by the tuple of
    its block bitmasks (_masks). m and p meet over up-sets (_up_sets); into
    m the terms come out in decreasing order of their mask tuples. h/e and
    p meet over down-sets (_CodedLattice): an h/e-term scatters over its
    coded down-set, each code read back into masks, and into h/e p_sigma /
    mu(0, sigma), |mu| for h, scatters over the down-set of sigma with
    weights mu(tau, sigma), the product over the blocks B of sigma of
    mu(0, top) in the lattice of tau's blocks in B."""
    if target not in ("m", "p", "e", "h", "s"):
        raise ValueError(f"cannot convert into basis {target!r}")
    if expr.basis in ("s", "st") and expr.basis != target:
        expr = to_h_or_e(expr)
    if expr.basis == target:
        return expr
    if target == "s":
        from .schur import h_to_schur

        return h_to_schur(convert(expr, "h"))
    out = {}
    for n, ints, den in integer_degrees(expr.terms, sp_size):
        tops = [mobius_top(k) if k else 1 for k in range(n + 1)]
        names = _names(n)
        if expr.basis == "m":
            p = _up_sets([(tuple(_masks(pi)), a) for pi, a in ints.items()], tops)
        elif expr.basis == "p":
            p = {tuple(_masks(pi)): a for pi, a in ints.items()}
        else:
            lattice = _CodedLattice(n, [abs(v) for v in tops] if expr.basis == "h" else tops)
            p = {lattice.masks(code): c for code, c in add_up(
                pair for pi, a in ints.items() for pair in zip(*lattice.down_set(_masks(pi), a))
            ).items()}
        if target == "m":  # p_tau = sum over sigma >= tau of m_sigma
            p = dict(sorted(_up_sets(p.items()).items(), reverse=True))
        if target in ("m", "p"):
            fractions = {c: Fraction(c, den) for c in set(p.values()) if c}
            out.update((tuple([names[m] for m in sigma]), fractions[c])
                       for sigma, c in p.items() if c)
            continue
        mu0 = [abs(v) for v in tops] if target == "h" else tops
        mus = {sigma: math.prod([mu0[m.bit_count()] for m in sigma]) for sigma, c in p.items() if c}
        scale = math.lcm(*(abs(mu) // math.gcd(p[sigma], mu) for sigma, mu in mus.items()))
        lattice, acc = _CodedLattice(n, by_count=tops), {}
        for sigma, mu in mus.items():
            for code, w in zip(*lattice.down_set(sigma, p[sigma] * scale // mu)):
                acc[code] = acc.get(code, 0) + w
        # a block's share of a code: (its least element - 1) at its places
        share = {c: ((m & -m).bit_length() - 1) * lattice.place[m] for m, c in enumerate(names)}
        fractions = {c: Fraction(c, den * scale) for c in set(acc.values()) if c}
        for tau in set_partitions(n):
            if c := acc.get(sum(map(share.__getitem__, tau))):
                out[tau] = fractions[c]
    return NCSymExpr._trusted(target, out)


def to_m(expr: NCSymExpr) -> NCSymExpr:
    return convert(expr, "m")


def from_m(expr: NCSymExpr, target: str) -> NCSymExpr:
    if expr.basis != "m":
        raise ValueError("from_m needs a monomial-basis expression")
    if target not in ("p", "e", "h"):
        raise ValueError(f"cannot convert into basis {target!r}")
    return convert(expr, target)


def to_h_or_e(expr: NCSymExpr) -> NCSymExpr:
    """Expand the Schur-type bases: "s" into the h-basis, "st" into the
    e-basis with the same coefficients."""
    from .schur import _over_factorials, _schur_columns

    column = _schur_columns()
    return expr.map_terms(lambda pi: _over_factorials(column(pi)),
                          "h" if expr.basis == "s" else "e")


def to_h(expr: NCSymExpr) -> NCSymExpr:
    return convert(expr, "h")


# ---------------------------------------------------------------------------
# product, involution, actions

def product(f: NCSymExpr, g: NCSymExpr) -> NCSymExpr:
    """Bilinear product. On the p/e/h bases the indices multiply by the
    slash product; the rest multiply in h, and two m- or two s-factors
    convert back (st x st and mixed pairs stay in h)."""
    if f.basis == g.basis and f.basis in ("p", "e", "h"):
        return NCSymExpr._trusted(f.basis, add_up(
            (slash(pi, sig), c1 * c2) for pi, c1 in f.terms.items() for sig, c2 in g.terms.items()
        ))
    prod_h = product(to_h(f), to_h(g))
    if f.basis == g.basis in ("m", "s"):
        return convert(prod_h, f.basis)
    return prod_h


def sp_sign(pi: SetPartition) -> int:
    """Sign of any permutation with one cycle per block."""
    return -1 if (sp_size(pi) - len(pi)) % 2 else 1


def omega(expr: NCSymExpr) -> NCSymExpr:
    """The involution exchanging the h- and e-type bases."""
    if expr.basis == "h":
        return NCSymExpr._trusted("e", expr.terms)
    if expr.basis == "e":
        return NCSymExpr._trusted("h", expr.terms)
    if expr.basis == "p":
        return NCSymExpr._trusted(
            "p", {pi: c * sp_sign(pi) for pi, c in expr.terms.items()}
        )
    if expr.basis == "m":
        return convert(omega(convert(expr, "p")), "m")
    if expr.basis == "s":
        return NCSymExpr._trusted("st", expr.terms)
    return NCSymExpr._trusted("s", expr.terms)


def delta_action(delta: Perm, expr: NCSymExpr) -> NCSymExpr:
    """Relabel every index by the permutation. Defined on the m/p/e/h bases;
    the identity returns the (immutable) expression itself."""
    if expr.basis not in ("m", "p", "e", "h"):
        raise ValueError("the permutation action needs an m/p/e/h expression")
    n = len(delta)
    identity = list(range(1, n + 1))
    if sorted(delta) != identity or any(sp_size(pi) != n for pi in expr.terms):
        # the checked relabelling raises the error of the first bad term
        return NCSymExpr._trusted(expr.basis, add_up(
            (permute_set_partition(delta, pi), c) for pi, c in expr.terms.items()
        ))
    if list(delta) == identity:
        return expr
    # a permutation moves distinct set partitions to distinct ones
    return NCSymExpr._trusted(expr.basis, {relabel(delta, pi): c for pi, c in expr.terms.items()})


def symmetrize(expr: NCSymExpr) -> NCSymExpr:
    """The sum of delta_action(delta, expr) over every permutation delta of
    each degree, without walking them: the permutations move each set
    partition onto every one of its block-size type lam, each as often as
    the stabilizer has elements, lam! * m(lam)!. So each type's coefficient
    total, times that size, is spread over the type's set partitions."""
    if expr.basis not in ("m", "p", "e", "h"):
        raise ValueError("the permutation action needs an m/p/e/h expression")
    totals = add_up((shape_of(pi), c) for pi, c in expr.terms.items())
    weight = {lam: c * parts_factorial(lam) * multiplicity_factorial(lam)
              for lam, c in totals.items()}
    return NCSymExpr._trusted(expr.basis, {
        pi: weight[lam] for n in sorted({sum(lam) for lam in weight})
        for pi in set_partitions(n) if (lam := shape_of(pi)) in weight
    })


_RHO_SCALE = {"m": multiplicity_factorial, "p": lambda lam: 1, "e": parts_factorial,
              "h": parts_factorial}


def rho(expr: NCSymExpr) -> SymExpr:
    """The projection that lets the variables commute."""
    from .sym import SymExpr

    if expr.basis in ("s", "st"):
        return rho(to_h_or_e(expr))
    scale = _RHO_SCALE[expr.basis]
    return SymExpr._trusted(expr.basis, add_up(
        (lam, c * scale(lam)) for pi, c in expr.terms.items() for lam in [shape_of(pi)]
    ))


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
    splits = (
        (tuple(b for b, take in zip(pi, picks) if take),
         tuple(b for b, take in zip(pi, picks) if not take), coeff)
        for pi, coeff in to_m(expr).terms.items()
        for picks in itertools.product((0, 1), repeat=len(pi))
    )
    return add_up(
        ((standardize(left), standardize(right)), coeff)
        for left, right, coeff in splits if i is None or sum(map(len, left)) == i
    )


# ---------------------------------------------------------------------------
# the word layer, which moved to words

# public name -> the module that defines it now; the library imports these
# from there. _EXPANDERS is words' own dict, so an entry set through either
# name is seen by both; private helpers such as _spread are not resolved here
_MOVED = dict.fromkeys((
    "DegreeGuardError ORACLE_DEGREE_LIMIT ORACLE_WORD_LIMIT _EXPANDERS naive_expand "
    "oracle_expand word_vectors"
).split(), "words")


def __getattr__(name: str):
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MOVED[name]}", __package__), name)
