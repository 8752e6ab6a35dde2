"""Schur functions in noncommuting variables: source skew Schur functions
via a noncommutative Leibniz determinant, the standard/transposed/tabloid
Schur bases, structured product rules, permuted bases, Specht vectors, and
the Rosas-Sagan functions with their Littlewood-Richardson and coproduct
identities.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import comb
from operator import itemgetter

from . import sym
from .combinat import (
    Composition,
    Partition,
    Perm,
    SetPartition,
    canonical_set_partition,
    format_set_partition,
    interval_partition,
    parts_factorial,
    perm_sign,
    permutations,
    relabel,
    set_partitions,
    shape_of,
    shifted_concat,
    sp_size,
)
from .expr_format import add_up, back_substitute, integer_degrees
from .ncsym import (
    NCSymExpr,
    basis_order,
    convert,
    coproduct,
    delta_action,
    symmetrize,
    to_h,
    to_m,
)
from .shapes import (
    SkewShape,
    YoungTableau,
    check_composition,
    check_partition,
    column_sets,
    column_stabilizer,
    concat,
    contains,
    delta_pi,
    jacobi_trudi_terms,
    kostka_row,
    near_concat,
    partitions,
    ribbon_shape,
    row_equivalence_class,
    skew,
    ssyt,
    tableau,
)
# littlewood_richardson is re-exported: perfbench's tracer test rebinds it here
from .sym import littlewood_richardson, lr_coefficients  # noqa: F401


# ---------------------------------------------------------------------------
# the determinant

def _jacobi_trudi_counts(shape: SkewShape) -> dict[SetPartition, int]:
    """The integer core of the determinant: per interval partition sigma,
    the signed count of the Leibniz terms whose nonzero entries, in row
    order, are the block sizes of sigma. Each such term is h_sigma over
    lambda(sigma)!, so over the basis h_sigma / lambda(sigma)! the
    determinant has these integer coefficients; keys come in the order of
    their first term, and keys whose count is 0 are dropped."""
    return add_up((interval_partition(tuple(c for c in entries if c)), sign)
                  for sign, entries in jacobi_trudi_terms(shape.outer, shape.inner))


def _over_factorials(counts: dict) -> dict:
    """Integer coefficients over h_sigma / lambda(sigma)! as Fraction
    coefficients over h_sigma, in the same order."""
    return {sig: Fraction(c, parts_factorial(map(len, sig))) for sig, c in counts.items()}


def source_skew_schur(shape: SkewShape) -> NCSymExpr:
    """The source skew Schur function on a skew shape, in the h-basis: the
    noncommutative determinant with entries h on single intervals scaled by
    reciprocal factorials, expanded in row order from the top; each
    coefficient is a signed count of terms (_jacobi_trudi_counts) over the
    factorials of its block sizes."""
    return NCSymExpr._trusted("h", _over_factorials(_jacobi_trudi_counts(shape)))


def skew_schur_nc(delta: Perm, shape: SkewShape) -> NCSymExpr:
    """The Schur function attached to a permutation and a skew shape: the
    permutation acting on the source function."""
    if len(delta) != shape.size:
        raise ValueError(
            f"permutation size {len(delta)} does not match shape size {shape.size}"
        )
    return delta_action(delta, source_skew_schur(shape))


def standard_schur(pi: SetPartition) -> NCSymExpr:
    """The Schur basis element on a set partition, in the h-basis: its Schur
    column (_schur_columns), the source function of its shape relabelled."""
    return NCSymExpr._trusted("h", _over_factorials(_schur_columns()(canonical_set_partition(pi))))


def transposed_schur(pi: SetPartition) -> NCSymExpr:
    """The transposed Schur basis element: the same determinant with e in
    place of h."""
    return NCSymExpr._trusted("e", standard_schur(pi).terms)


def tabloid_schur(t: YoungTableau) -> NCSymExpr:
    """The tabloid Schur function: the sum over the row-equivalence class
    of the reading-word actions on the source function of the shape."""
    if not t.shape.is_straight():
        raise ValueError("tabloid Schur functions need a straight shape")
    # checked once here, so every reading word is a permutation of the size
    tableau(t.shape, t.rows)
    base = source_skew_schur(t.shape).terms
    return NCSymExpr._trusted("h", add_up(
        (relabel(word, pi), c)
        for word in map(YoungTableau.reading_word, row_equivalence_class(t))
        for pi, c in base.items()
    ))


# ---------------------------------------------------------------------------
# the Schur basis and its transition matrix

def _schur_columns():
    """A call-local map from a set partition pi to the integer h-terms of
    standard_schur(pi) over the basis h_sigma / lambda(sigma)!: the integer
    core (_jacobi_trudi_counts) of pi's shape, made once per shape,
    relabelled by the reading word of delta_pi, the blocks of pi longest
    first, ties by least entry (relabelling keeps the shape of sigma).
    _over_factorials turns a column into Fraction coefficients over h_sigma."""
    sources: dict[Partition, dict] = {}

    def column(pi: SetPartition) -> dict:
        rows = sorted(pi, key=lambda b: (-len(b), b[0]))
        lam = tuple(map(len, rows))
        base = sources.get(lam)
        if base is None:
            base = sources[lam] = _jacobi_trudi_counts(SkewShape(lam, ()))
        word = tuple(x for b in rows for x in b)
        # a permutation moves distinct set partitions to distinct ones
        return {relabel(word, sig): c for sig, c in base.items()}

    return column


class _Places(dict):
    """The place of each set partition in basis_order(n); looking up one
    that it does not list raises LookupError naming it. It serves
    normalized_schur_transition and the test-only family_rank."""

    def __init__(self, n: int):
        super().__init__((pi, i) for i, pi in enumerate(basis_order(n)))

    def __missing__(self, pi):
        raise LookupError(f"{format_set_partition(pi)} is not in basis_order({sp_size(pi)})")


def normalized_schur_transition(n: int):
    """The degree-n matrix writing each Schur basis element over the basis
    h_sigma / lambda(sigma)!, in the fixed basis order: entry [row sigma]
    [column pi] is the int signed Jacobi-Trudi count of sigma in pi's Schur
    column (_schur_columns). It is upper-unitriangular with determinant 1."""
    order = basis_order(n)
    pos = _Places(n)
    mat = [[0] * len(order) for _ in order]
    column = _schur_columns()
    for j, pi in enumerate(order):
        for sig, c in column(pi).items():
            mat[pos[sig]][j] = c
    return mat


def schur_transition(n: int):
    """The degree-n matrix writing each Schur basis element in the h-basis:
    entry [row sigma][column pi] is the coefficient of h_sigma in the Schur
    element on pi, in the fixed basis order; row sigma of
    normalized_schur_transition over lambda(sigma)!."""
    return [[Fraction(c, parts_factorial(map(len, sig))) for c in row]
            for sig, row in zip(basis_order(n), normalized_schur_transition(n))]


def h_to_schur(expr: NCSymExpr) -> NCSymExpr:
    """Rewrite an h-basis expression in the Schur basis by back-substitution.
    In basis order the Schur element on pi is h_pi / lambda(pi)! plus
    h-terms on earlier indices (schur_transition is upper triangular). Over
    the basis h_sigma / lambda(sigma)! its column is the integer vector of
    signed Jacobi-Trudi counts, relabelled, with a leading 1. So each degree
    is scaled once by the lcm of its denominators and solved in integers by
    back_substitute, walking the degree from its last index down: the
    remaining coefficient of h_pi / lambda(pi)! is that of s_pi. Only the
    solution is turned back into Fractions, one per output term."""
    if expr.basis != "h":
        raise ValueError("h_to_schur needs an h-basis expression")
    column = _schur_columns()
    out: dict[SetPartition, Fraction] = {}
    for n, ints, den in sorted(integer_degrees(expr.terms, sp_size), key=itemgetter(0)):
        rest = {pi: a * parts_factorial(map(len, pi)) for pi, a in ints.items()}
        solved = back_substitute(rest, reversed(basis_order(n)), column, format_set_partition)
        out.update((pi, Fraction(b, den)) for pi, b in solved.items())
    return NCSymExpr._trusted("s", out)


def schur_basis_convert(expr: NCSymExpr, target: str) -> NCSymExpr:
    """Exact conversion between the s- and h-bases: convert into s or h only."""
    if target not in ("s", "h"):
        raise ValueError(f"cannot convert between Schur basis and {target!r}")
    return convert(expr, target)


# ---------------------------------------------------------------------------
# product rules

def schur_product(delta: Perm, lam: Partition, eta: Perm, mu: Partition):
    """The product rule with permutations: the product of the two Schur
    functions equals the shifted concatenation of the permutations acting
    on the source functions of the concatenation and near-concatenation.
    Returns (product expression, structured list of (permutation, shape));
    ``ncschur verify prod`` checks that the two agree."""
    lam, mu = check_partition(lam), check_partition(mu)
    prod = skew_schur_nc(delta, SkewShape(lam, ())) * skew_schur_nc(
        eta, SkewShape(mu, ())
    )
    joined = shifted_concat(delta, eta)
    if not lam or not mu:
        shapes = [SkewShape(lam or mu, ())]
    else:
        shapes = [concat(lam, mu), near_concat(lam, mu)]
    return prod, [(joined, shape) for shape in shapes]


def source_product(lam: Partition, mu: Partition):
    """The product of two straight source functions and its structured
    two-term form: (product expression, list of skew shapes)."""
    prod, pairs = schur_product(_identity(lam), lam, _identity(mu), mu)
    return prod, [shape for _, shape in pairs]


def set_partition_schur_product(pi: SetPartition, sig: SetPartition):
    """The product of two Schur basis elements: the shifted concatenation of
    their reading permutations acting on the two skew shapes. (The reading
    permutation of the slash product itself differs from the shifted
    concatenation whenever block-size sorting reorders blocks across the
    boundary, and then it does not satisfy the rule: already for 1 and 12/3
    the slash product 1/23/4 reads as 2314 while the rule needs 1234.)
    Returns (product, structured list of (permutation, shape))."""
    return schur_product(delta_pi(pi)[1], shape_of(pi), delta_pi(sig)[1], shape_of(sig))


def _identity(lam: Partition) -> Perm:
    return tuple(range(1, sum(lam) + 1))


# ---------------------------------------------------------------------------
# permuted bases and Specht vectors

def permuted_basis(delta: Perm, n: int) -> list[NCSymExpr]:
    """The family of the permutation acting on every degree-n Schur basis
    element, as h-basis expressions."""
    column = _schur_columns()
    return [delta_action(delta, NCSymExpr._trusted("h", _over_factorials(column(pi))))
            for pi in basis_order(n)]


def family_rank(family: list[NCSymExpr], n: int) -> int:
    """Rank of a family of degree-n expressions over their h-coordinates, by
    dense Fraction elimination (only tests call it)."""
    from . import ratlin

    order = basis_order(n)
    pos = _Places(n)
    rows = []
    for f in family:
        f = to_h(f)
        row = [Fraction(0)] * len(order)
        for pi, c in f.terms.items():
            row[pos[pi]] = c
        rows.append(row)
    return ratlin.rank(rows)


def specht_vector(t: YoungTableau) -> NCSymExpr:
    """The signed column-stabilizer sum applied to the tabloid Schur
    function of t."""
    # a term is fixed by the transposition of two entries of one column when
    # they share a block or are both singletons; that transposition is odd,
    # so the term's signed sum over the stabilizer is 0, and with no term
    # left the stabilizer is not walked
    cols = column_sets(t)
    base = {}
    for pi, c in tabloid_schur(t).terms.items():
        where = {x: b if len(b) > 1 else () for b in pi for x in b}
        if all(len({where[x] for x in col}) == len(col) for col in cols):
            base[pi] = c
    return NCSymExpr._trusted("h", add_up(
        (relabel(delta, pi), sign * c)
        for delta in (column_stabilizer(t) if base else ()) for sign in [perm_sign(delta)]
        for pi, c in base.items()
    ))


def _standard_words(lam: Partition):
    """The reading words of the standard tableaux of shape lam: n fills an
    outer corner, the end of its row, and the other entries are a standard
    tableau of lam less that corner."""
    n, end = sum(lam), 0
    if not n:
        yield ()
    for i, p in enumerate(lam):
        end += p
        if i + 1 == len(lam) or lam[i + 1] < p:
            less = lam[:i] + ((p - 1,) if p > 1 else ()) + lam[i + 1:]
            for word in _standard_words(less):
                yield word[:end - 1] + (n,) + word[end - 1:]


def specht_rank(lam: Partition) -> int:
    """Dimension of the span of the Specht vectors of shape lam. The map phi
    from a tabloid to its tabloid Schur function is linear and commutes
    with relabelling, and the Specht vector of t is phi(e_t), the image of
    the polytabloid of t. The polytabloids of the standard tableaux span
    all of them (Garnir relations; James 1978, Sagan 2001 section 2.5), so
    the Specht vectors of the standard tableaux span all Specht vectors. A
    standard tableau is w.t0 for its reading word w and the row-reading
    filling t0, and w applied to the Specht vector v0 of t0 is the vector
    of w.t0 (the row class and the column stabilizer move with the
    entries). So the rank is that of the f^lam vectors w.v0, found by one
    forward elimination of exact h-coordinate rows. The rank does not
    depend on the pivot order, so each pivot is the least set partition of
    its row as a plain tuple, and no basis order is read."""
    lam = check_partition(lam)
    v0 = specht_vector(YoungTableau(SkewShape(lam, ()), interval_partition(lam))).terms
    if not v0:
        return 0
    rows: dict[SetPartition, dict[SetPartition, Fraction]] = {}  # pivot -> row, 1 at the pivot
    for word in _standard_words(lam):
        # a permutation moves distinct set partitions to distinct ones
        terms = {relabel(word, pi): c for pi, c in v0.items()}
        # a row has no term before its pivot, so clearing the pivots in
        # tuple order never brings back one already cleared
        for pivot in sorted(rows):
            if c := terms.get(pivot):
                for pi, x in rows[pivot].items():
                    terms[pi] = terms.get(pi, 0) - c * x
        terms = {pi: c for pi, c in terms.items() if c}
        if terms:
            pivot = min(terms)
            inv = 1 / terms[pivot]
            rows[pivot] = {pi: c * inv for pi, c in terms.items()}
    return len(rows)


# ---------------------------------------------------------------------------
# Rosas-Sagan functions

def rosas_sagan(shape: SkewShape) -> NCSymExpr:
    """The Rosas-Sagan skew Schur function in the m-basis: the sum over
    shapes nu of (parts factorial of nu) times the Kostka number, spread
    over all set partitions of that shape. The Kostka numbers come from one
    branching-rule pass over the shape (shapes.kostka_row)."""
    coeff = {nu: Fraction(parts_factorial(nu) * k) for nu, k in kostka_row(shape).items()}
    terms = {pi: c for pi in set_partitions(shape.size) if (c := coeff.get(shape_of(pi)))}
    return NCSymExpr._trusted("m", terms)


def rosas_sagan_oracle(shape: SkewShape, k: int) -> NCPoly:
    """Independent word expansion straight from the defining double sum:
    over all orderings of the boxes (row reading order composed with a
    permutation) and all semistandard fillings with entries at most k."""
    from .ncpoly import NCPoly

    n = shape.size
    contents = [t.content_word() for t in ssyt(shape, k)]
    # a Counter tallies the words, so this shares no code with add_up
    terms = Counter(
        tuple(content[d - 1] for d in delta) for delta in permutations(n) for content in contents
    )
    if n == 0:
        terms[()] = 1
    return NCPoly(k, terms)


def rs_refinement_check(shape: SkewShape) -> bool:
    """Whether the sum of the permuted skew Schur functions over all box
    orderings equals the Rosas-Sagan function."""
    return to_m(symmetrize(source_skew_schur(shape))) == rosas_sagan(shape)


def rs_lr_expand(shape: SkewShape):
    """The Littlewood-Richardson expansion of a Rosas-Sagan skew function
    into straight Rosas-Sagan functions: the list of (shape, coefficient)
    pairs, in partitions(n) order. ``ncschur verify rslr`` checks that they
    sum back."""
    return list(lr_coefficients(shape).items())


def rs_coproduct_check(lam: Partition, i: int) -> bool:
    """Whether the coproduct of a straight Rosas-Sagan function in bidegree
    (i, n-i) equals the binomial-weighted sum of tensor products over
    contained shapes of size i."""
    lam = check_partition(lam)
    n = sum(lam)
    if not 0 <= i <= n:
        raise ValueError(f"bidegree {i} out of range for size {n}")
    # the coproduct is in m-basis pairs, and rosas_sagan is in the m-basis
    return coproduct(rosas_sagan(SkewShape(lam, ())), i) == add_up(
        ((p1, p2), comb(n, i) * c1 * c2)
        for mu in partitions(i) if contains(lam, mu)
        for (p1, c1), (p2, c2) in itertools.product(rosas_sagan(SkewShape(mu, ())).terms.items(),
                                                    rosas_sagan(skew(lam, mu)).terms.items())
    )


def skew_kostka_check(shape: SkewShape, pairs, rs: NCSymExpr) -> bool:
    """Whether every skew Kostka number splits as the weighted sum of
    straight Kostka numbers over the (shape, coefficient) pairs of the
    Littlewood-Richardson expansion, as rs_lr_expand lists them. The skew
    side is read off rs, the shape's Rosas-Sagan function (rosas_sagan):
    its coefficient of any set partition of type gamma, here the interval
    one, is gamma! times K(shape, gamma). The straight rows are the Kostka
    numbers of the classical Schur functions s_nu as ints, each one
    shapes.kostka_row pass over nu, looked up through sym._index_to_m at
    each call; the weighted sums stay in ints and meet rs's Fractions only
    in the one exact comparison per gamma."""
    rows = [(c, sym._index_to_m("s", nu)) for nu, c in pairs]
    return all(
        rs.terms.get(interval_partition(gam), 0)
        == parts_factorial(gam) * sum(c * row.get(gam, 0) for c, row in rows)
        for gam in partitions(shape.size)
    )


# ---------------------------------------------------------------------------
# ribbons

def ribbon_source(alpha: Composition) -> NCSymExpr:
    """The source function of the ribbon diagram of a composition."""
    return source_skew_schur(ribbon_shape(check_composition(alpha)))
