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
from functools import cache
from math import comb

from .combinat import (
    Composition,
    Partition,
    Perm,
    SetPartition,
    SkewShape,
    YoungTableau,
    check_composition,
    check_partition,
    column_sets,
    column_stabilizer,
    concat,
    contains,
    delta_pi,
    format_set_partition,
    interval_partition,
    jacobi_trudi_terms,
    kostka,
    near_concat,
    parts_factorial,
    partitions,
    perm_sign,
    permute_set_partition,
    permutations,
    relabel,
    ribbon_shape,
    row_equivalence_class,
    set_partitions,
    shape_of,
    shifted_concat,
    skew,
    ssyt,
)
from .expr_format import add_up, back_substitute
from .ncpoly import NCPoly
from .ncsym import (
    NCSymExpr,
    _integer_degrees,
    basis_order,
    coproduct,
    delta_action,
    symmetrize,
    to_h,
    to_m,
)
# littlewood_richardson is re-exported: perfbench's tracer test rebinds it here
from .sym import SymExpr, littlewood_richardson, lr_coefficients  # noqa: F401


# ---------------------------------------------------------------------------
# the determinant

def source_skew_schur(shape: SkewShape) -> NCSymExpr:
    """The source skew Schur function on a skew shape, in the h-basis: the
    noncommutative determinant with entries h on single intervals scaled by
    reciprocal factorials, expanded in row order from the top."""
    return NCSymExpr._trusted("h", add_up(
        (interval_partition(tuple(c for c in entries if c)),
         Fraction(sign, parts_factorial(entries)))
        for sign, entries in jacobi_trudi_terms(shape.outer, shape.inner)
    ))


def skew_schur_nc(delta: Perm, shape: SkewShape) -> NCSymExpr:
    """The Schur function attached to a permutation and a skew shape: the
    permutation acting on the source function."""
    if len(delta) != shape.size:
        raise ValueError(
            f"permutation size {len(delta)} does not match shape size {shape.size}"
        )
    return delta_action(delta, source_skew_schur(shape))


def standard_schur(pi: SetPartition) -> NCSymExpr:
    """The Schur basis element on a set partition, in the h-basis."""
    _, delta = delta_pi(pi)
    return skew_schur_nc(delta, SkewShape(shape_of(pi), ()))


def transposed_schur(pi: SetPartition) -> NCSymExpr:
    """The transposed Schur basis element: the same determinant with e in
    place of h."""
    return NCSymExpr._trusted("e", standard_schur(pi).terms)


def tabloid_schur(t: YoungTableau) -> NCSymExpr:
    """The tabloid Schur function: the sum over the row-equivalence class
    of the reading-word actions on the source function of the shape."""
    if not t.shape.is_straight():
        raise ValueError("tabloid Schur functions need a straight shape")
    base = source_skew_schur(t.shape).terms
    return NCSymExpr._trusted("h", add_up(
        (permute_set_partition(word, pi), c)
        for word in map(YoungTableau.reading_word, row_equivalence_class(t))
        for pi, c in base.items()
    ))


# ---------------------------------------------------------------------------
# the Schur basis and its transition matrix

def _schur_columns(scale=None):
    """A call-local map from a set partition pi to the h-terms of
    standard_schur(pi): the source function of pi's shape, made once per
    shape (and passed through scale, if given), relabelled by the reading
    word of delta_pi, the blocks of pi longest first, ties by least entry."""
    sources: dict[Partition, dict] = {}

    def column(pi: SetPartition) -> dict:
        rows = sorted(pi, key=lambda b: (-len(b), b[0]))
        lam = tuple(map(len, rows))
        base = sources.get(lam)
        if base is None:
            base = source_skew_schur(SkewShape(lam, ())).terms
            base = sources[lam] = scale(base) if scale else base
        word = tuple(x for b in rows for x in b)
        # a permutation moves distinct set partitions to distinct ones
        return {relabel(word, sig): c for sig, c in base.items()}

    return column


def _normalized(terms: dict) -> dict:
    """Coefficients in the basis h_sigma / lambda(sigma)!: integers, as each
    determinant term is sign / lambda(key)!; a non-integer is kept exact."""
    out = {}
    for sig, c in terms.items():
        x = c * parts_factorial(shape_of(sig))
        out[sig] = x.numerator if x.denominator == 1 else x
    return out


@cache
def schur_transition(n: int):
    """The degree-n matrix writing each Schur basis element in the h-basis:
    entry [row sigma][column pi] is the coefficient of h_sigma in the Schur
    element on pi, in the fixed basis order."""
    order = basis_order(n)
    pos = {pi: i for i, pi in enumerate(order)}
    mat = [[Fraction(0)] * len(order) for _ in order]
    column = _schur_columns()
    for j, pi in enumerate(order):
        for sig, c in column(pi).items():
            mat[pos[sig]][j] = c
    return mat


def normalized_schur_transition(n: int):
    """The transition matrix with each row scaled by the parts factorial of
    its index shape; upper-unitriangular with determinant 1."""
    order = basis_order(n)
    mat = schur_transition(n)
    return [
        [parts_factorial(shape_of(sig)) * x for x in row]
        for sig, row in zip(order, mat)
    ]


def h_to_schur(expr: NCSymExpr) -> NCSymExpr:
    """Rewrite an h-basis expression in the Schur basis by back-substitution.
    In basis order the Schur element on pi is h_pi / lambda(pi)! plus
    h-terms on earlier indices (schur_transition is upper triangular). Over
    the basis h_sigma / lambda(sigma)! its column is an integer vector with
    a leading 1, so each degree is scaled once by the lcm of its
    denominators and solved in integers by back_substitute, walking the
    degree from its last index down: the remaining coefficient of
    h_pi / lambda(pi)! is that of s_pi."""
    if expr.basis != "h":
        raise ValueError("h_to_schur needs an h-basis expression")
    column = _schur_columns(_normalized)
    out: dict[SetPartition, Fraction] = {}
    for n, ints, den in sorted(_integer_degrees(expr.terms), key=lambda d: d[0]):
        rest = {pi: a * parts_factorial(shape_of(pi)) for pi, a in ints.items()}
        solved = back_substitute(rest, reversed(basis_order(n)), column, format_set_partition)
        out.update((pi, Fraction(b, den)) for pi, b in solved.items())
    return NCSymExpr._trusted("s", out)


def schur_basis_convert(expr: NCSymExpr, target: str) -> NCSymExpr:
    """Exact conversion between the Schur basis and the h-basis."""
    if target == "s":
        return h_to_schur(to_h(expr))
    if target == "h":
        return to_h(expr)
    raise ValueError(f"cannot convert between Schur basis and {target!r}")


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
    return [delta_action(delta, NCSymExpr._trusted("h", column(pi))) for pi in basis_order(n)]


def family_rank(family: list[NCSymExpr], n: int) -> int:
    """Rank of a family of degree-n expressions over their h-coordinates, by
    dense Fraction elimination (only tests call it)."""
    from . import ratlin

    order = basis_order(n)
    pos = {pi: i for i, pi in enumerate(order)}
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
    # a term with two entries of one column in a block is fixed by their
    # transposition, which is odd, so its signed sum over the stabilizer is 0
    cols = column_sets(t)
    base = {}
    for pi, c in tabloid_schur(t).terms.items():
        where = {x: i for i, b in enumerate(pi) for x in b}
        if all(len({where[x] for x in col}) == len(col) for col in cols):
            base[pi] = c
    return NCSymExpr._trusted("h", add_up(
        (permute_set_partition(delta, pi), sign * c)
        for delta in column_stabilizer(t) for sign in [perm_sign(delta)]
        for pi, c in base.items()
    ))


def specht_rank(lam: Partition) -> int:
    """Dimension of the span of the Specht vectors of shape lam, as an
    orbit closure. Relabelling commutes with the construction, w applied to
    the Specht vector of t is the Specht vector of w.t (both the row class
    and the column stabilizer move with the entries), and every
    column-increasing filling is w.t0 for the row-reading filling t0. So
    the span is the smallest subspace that holds the vector of t0 and is
    closed under the adjacent transpositions s_1..s_(n-1). It is built as
    a reduced echelon basis of h-coordinate rows, pivots taken in
    basis_order(n): each vector that enlarges the span is moved by every
    s_i, and a moved vector is kept if it does not reduce to 0."""
    lam = check_partition(lam)
    n = sum(lam)
    if n == 0:
        return 1
    t0 = YoungTableau(SkewShape(lam, ()), interval_partition(lam))
    pos = {pi: i for i, pi in enumerate(basis_order(n))}
    swaps = [
        tuple(range(1, i)) + (i + 1, i) + tuple(range(i + 2, n + 1)) for i in range(1, n)
    ]
    rows: dict[SetPartition, dict[SetPartition, Fraction]] = {}  # pivot -> row

    def add(vec: NCSymExpr) -> bool:
        # reduce by the basis, whose rows vanish at every other pivot, so
        # one subtraction per pivot present clears it
        terms = dict(vec.terms)
        for pivot in [pi for pi in terms if pi in rows]:
            c = terms[pivot]
            for pi, x in rows[pivot].items():
                terms[pi] = terms.get(pi, 0) - c * x
        terms = {pi: c for pi, c in terms.items() if c}
        if not terms:
            return False
        pivot = min(terms, key=pos.__getitem__)
        inv = 1 / terms[pivot]
        row = {pi: c * inv for pi, c in terms.items()}
        for other in rows.values():
            c = other.get(pivot)
            if c:
                for pi, x in row.items():
                    y = other.get(pi, 0) - c * x
                    if y:
                        other[pi] = y
                    else:
                        del other[pi]
        rows[pivot] = row
        return True

    # the queue holds the Specht vectors w.v0 themselves, not their reduced
    # rows: they are as sparse as v0, the rows fill in, and the accepted
    # ones span what the rows span
    v0 = specht_vector(t0)
    queue = [v0] if add(v0) else []
    while queue:
        vec = queue.pop()
        for s in swaps:
            moved = delta_action(s, vec)
            if add(moved):
                queue.append(moved)
    return len(rows)


# ---------------------------------------------------------------------------
# Rosas-Sagan functions

def rosas_sagan(shape: SkewShape) -> NCSymExpr:
    """The Rosas-Sagan skew Schur function in the m-basis: the sum over
    shapes nu of (parts factorial of nu) times the Kostka number, spread
    over all set partitions of that shape."""
    n = shape.size
    coeff = {nu: Fraction(parts_factorial(nu) * kostka(shape, nu)) for nu in partitions(n)}
    terms = {pi: c for pi in set_partitions(n) if (c := coeff[shape_of(pi)])}
    return NCSymExpr._trusted("m", terms)


def rosas_sagan_oracle(shape: SkewShape, k: int) -> NCPoly:
    """Independent word expansion straight from the defining double sum:
    over all orderings of the boxes (row reading order composed with a
    permutation) and all semistandard fillings with entries at most k."""
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
    pairs. ``ncschur verify rslr`` checks that they sum back."""
    # partitions(n) order, which for one size is lexicographically decreasing
    return sorted(lr_coefficients(shape).items(), reverse=True)


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


def skew_kostka_check(shape: SkewShape, pairs) -> bool:
    """Whether every skew Kostka number splits as the weighted sum of
    straight Kostka numbers over the (shape, coefficient) pairs of the
    Littlewood-Richardson expansion, as rs_lr_expand lists them. The skew
    side counts fillings by the branching rule; the straight rows are the
    m-expansions of the classical Schur functions s_nu."""
    rows = [(c, SymExpr.single("s", nu).to_m().terms) for nu, c in pairs]
    return all(
        kostka(shape, gam) == sum(c * row.get(gam, 0) for c, row in rows)
        for gam in partitions(shape.size)
    )


# ---------------------------------------------------------------------------
# ribbons

def ribbon_source(alpha: Composition) -> NCSymExpr:
    """The source function of the ribbon diagram of a composition."""
    return source_skew_schur(ribbon_shape(check_composition(alpha)))
