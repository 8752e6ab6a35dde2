"""Schur functions in noncommuting variables: source skew Schur functions
via a noncommutative Leibniz determinant, the standard/transposed/tabloid
Schur bases, structured product rules, permuted bases, Specht vectors, and
the Rosas-Sagan functions with their Littlewood-Richardson and coproduct
identities.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from math import comb

from . import ratlin
from .combinat import (
    Composition,
    Partition,
    Perm,
    SetPartition,
    SkewShape,
    YoungTableau,
    check_composition,
    check_partition,
    column_stabilizer,
    concat,
    contains,
    delta_pi,
    interval_partition,
    jacobi_trudi_terms,
    kostka,
    near_concat,
    parts_factorial,
    partitions,
    perm_sign,
    permutations,
    ribbon_shape,
    row_equivalence_class,
    set_partitions,
    shape_of,
    shifted_concat,
    skew,
    sp_size,
    ssyt,
)
from .ncpoly import NCPoly
from .ncsym import NCSymExpr, basis_order, coproduct, delta_action, to_h, to_m
# littlewood_richardson is re-exported: perfbench's tracer test rebinds it here
from .sym import littlewood_richardson, lr_coefficients  # noqa: F401


# ---------------------------------------------------------------------------
# the determinant

def source_skew_schur(shape: SkewShape) -> NCSymExpr:
    """The source skew Schur function on a skew shape, in the h-basis: the
    noncommutative determinant with entries h on single intervals scaled by
    reciprocal factorials, expanded in row order from the top."""
    terms: dict[SetPartition, Fraction] = {}
    for sign, entries in jacobi_trudi_terms(shape.outer, shape.inner):
        pi = interval_partition(tuple(c for c in entries if c))
        terms[pi] = terms.get(pi, Fraction(0)) + Fraction(sign, parts_factorial(entries))
    return NCSymExpr("h", terms)


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
    h_expr = standard_schur(pi)
    return NCSymExpr("e", h_expr.terms)


def tabloid_schur(t: YoungTableau) -> NCSymExpr:
    """The tabloid Schur function: the sum over the row-equivalence class
    of the reading-word actions on the source function of the shape."""
    if not t.shape.is_straight():
        raise ValueError("tabloid Schur functions need a straight shape")
    base = source_skew_schur(t.shape)
    out = NCSymExpr.zero("h")
    for t2 in row_equivalence_class(t):
        out = out + delta_action(t2.reading_word(), base)
    return out


# ---------------------------------------------------------------------------
# the Schur basis and its transition matrix

@cache
def schur_transition(n: int):
    """The degree-n matrix writing each Schur basis element in the h-basis:
    entry [row sigma][column pi] is the coefficient of h_sigma in the Schur
    element on pi, in the fixed basis order."""
    order = basis_order(n)
    pos = {pi: i for i, pi in enumerate(order)}
    mat = [[Fraction(0)] * len(order) for _ in order]
    for j, pi in enumerate(order):
        for sig, c in standard_schur(pi).terms.items():
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
    h-terms on earlier indices (schur_transition is upper triangular), so,
    walking each degree from its last index down, the remaining coefficient
    c of h_pi gives the coefficient lambda(pi)! c of s_pi, and that multiple
    of the Schur element is taken away."""
    if expr.basis != "h":
        raise ValueError("h_to_schur needs an h-basis expression")
    rest = dict(expr.terms)
    out: dict[SetPartition, Fraction] = {}
    for n in sorted({sp_size(pi) for pi in rest}):
        passed: set[SetPartition] = set()
        for pi in reversed(basis_order(n)):
            passed.add(pi)
            c = rest.pop(pi, 0)
            if not c:
                continue
            column = standard_schur(pi).terms
            lead = parts_factorial(shape_of(pi))
            if column.get(pi, 0) * lead != 1:
                raise ArithmeticError(
                    f"unexpected leading coefficient at degree {n}, index {pi}"
                )
            out[pi] = c * lead
            for sig, a in column.items():
                if sig == pi:
                    continue
                if sig in passed:
                    raise ArithmeticError(
                        f"Schur transition matrix not triangular at degree {n}"
                    )
                rest[sig] = rest.get(sig, 0) - out[pi] * a
    return NCSymExpr("s", out)


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
    return [delta_action(delta, standard_schur(pi)) for pi in basis_order(n)]


def family_rank(family: list[NCSymExpr], n: int) -> int:
    """Rank of a family of degree-n expressions over their h-coordinates."""
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
    base = tabloid_schur(t)
    out = NCSymExpr.zero("h")
    for delta in column_stabilizer(t):
        term = delta_action(delta, base)
        if perm_sign(delta) < 0:
            term = -term
        out = out + term
    return out


def _fillings(lam: Partition):
    """All bijective fillings of the straight shape lam whose columns
    increase downwards; the remaining fillings only repeat these vectors up
    to sign, since sorting a column costs the sign of the sorting
    permutation."""
    n = sum(lam)
    shape = SkewShape(lam, ())
    for word in itertools.permutations(range(1, n + 1)):
        rows = []
        start = 0
        for p in lam:
            rows.append(word[start : start + p])
            start += p
        ok = True
        for r in range(1, len(rows)):
            for c in range(len(rows[r])):
                if rows[r - 1][c] > rows[r][c]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield YoungTableau(shape, tuple(rows))


def specht_rank(lam: Partition) -> int:
    """Dimension of the span of the Specht vectors of shape lam."""
    lam = check_partition(lam)
    n = sum(lam)
    if n == 0:
        return 1
    return family_rank([specht_vector(t) for t in _fillings(lam)], n)


# ---------------------------------------------------------------------------
# Rosas-Sagan functions

def rosas_sagan(shape: SkewShape) -> NCSymExpr:
    """The Rosas-Sagan skew Schur function in the m-basis: the sum over
    shapes nu of (parts factorial of nu) times the Kostka number, spread
    over all set partitions of that shape."""
    n = shape.size
    terms: dict[SetPartition, Fraction] = {}
    for nu in partitions(n):
        k = kostka(shape, nu)
        if not k:
            continue
        coeff = Fraction(parts_factorial(nu) * k)
        for pi in set_partitions(n):
            if shape_of(pi) == nu:
                terms[pi] = terms.get(pi, Fraction(0)) + coeff
    if n == 0:
        terms[()] = Fraction(1)
    return NCSymExpr("m", terms)


def rosas_sagan_oracle(shape: SkewShape, k: int) -> NCPoly:
    """Independent word expansion straight from the defining double sum:
    over all orderings of the boxes (row reading order composed with a
    permutation) and all semistandard fillings with entries at most k."""
    n = shape.size
    tableaux = ssyt(shape, k)
    terms: dict = {}
    for delta in permutations(n):
        for t in tableaux:
            content = t.content_word()
            word = tuple(content[delta[j] - 1] for j in range(n))
            terms[word] = terms.get(word, Fraction(0)) + 1
    if n == 0:
        terms[()] = Fraction(1)
    return NCPoly(k, terms)


def rs_refinement_check(shape: SkewShape) -> bool:
    """Whether the sum of the permuted skew Schur functions over all box
    orderings equals the Rosas-Sagan function."""
    n = shape.size
    total = NCSymExpr.zero("h")
    base = source_skew_schur(shape)
    for delta in permutations(n):
        total = total + delta_action(delta, base)
    return to_m(total) == rosas_sagan(shape)


def rs_lr_expand(shape: SkewShape):
    """The Littlewood-Richardson expansion of a Rosas-Sagan skew function
    into straight Rosas-Sagan functions: the list of (shape, coefficient)
    pairs. ``ncschur verify rslr`` checks that they sum back."""
    # partitions(n) order, which for one size is lexicographically decreasing
    return sorted(lr_coefficients(shape).items(), reverse=True)


def _tensor_of(expr_left: NCSymExpr, expr_right: NCSymExpr, scalar=1) -> dict:
    left = to_m(expr_left)
    right = to_m(expr_right)
    out = {}
    for p1, c1 in left.terms.items():
        for p2, c2 in right.terms.items():
            out[(p1, p2)] = out.get((p1, p2), Fraction(0)) + Fraction(scalar) * c1 * c2
    return out


def rs_coproduct_check(lam: Partition, i: int) -> bool:
    """Whether the coproduct of a straight Rosas-Sagan function in bidegree
    (i, n-i) equals the binomial-weighted sum of tensor products over
    contained shapes of size i."""
    lam = check_partition(lam)
    n = sum(lam)
    if not 0 <= i <= n:
        raise ValueError(f"bidegree {i} out of range for size {n}")
    lhs = coproduct(rosas_sagan(SkewShape(lam, ())), i)
    rhs: dict = {}
    for mu in partitions(i):
        if not contains(lam, mu):
            continue
        piece = _tensor_of(
            rosas_sagan(SkewShape(mu, ())),
            rosas_sagan(skew(lam, mu)),
            comb(n, i),
        )
        for key, c in piece.items():
            rhs[key] = rhs.get(key, Fraction(0)) + c
    rhs = {k: v for k, v in rhs.items() if v}
    return lhs == rhs


def skew_kostka_check(shape: SkewShape) -> bool:
    """Whether every skew Kostka number splits as the Littlewood-Richardson
    weighted sum of straight Kostka numbers."""
    coeffs = lr_coefficients(shape)
    return all(
        kostka(shape, gam)
        == sum(c * kostka(SkewShape(nu, ()), gam) for nu, c in coeffs.items())
        for gam in partitions(shape.size)
    )


# ---------------------------------------------------------------------------
# ribbons

def ribbon_source(alpha: Composition) -> NCSymExpr:
    """The source function of the ribbon diagram of a composition."""
    return source_skew_schur(ribbon_shape(check_composition(alpha)))
