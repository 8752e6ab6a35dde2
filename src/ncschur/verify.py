"""Batch verification suites for the identities the package implements.
Each suite runs an exhaustive (or seeded-random) family of instances and
reports the range covered plus the first counterexample, if any.
"""

from __future__ import annotations

import itertools
import random
from array import array
from fractions import Fraction
from functools import partial
from math import factorial
from typing import Callable, NamedTuple

from . import lgv, nsym, schur
from .combinat import (
    SkewShape,
    compositions,
    contains,
    format_partition,
    format_set_partition,
    interval_partition,
    parts_factorial,
    partitions,
    permutations,
    set_partitions,
    shape_of,
    skew,
    transpose,
)
from .ncpoly import NCPoly
from .ncsym import (
    _EXPANDERS,
    NCSymExpr,
    basis_order,
    delta_action,
    omega,
    oracle_expand,
    rho,
    symmetrize,
    to_m,
)
from .nsym import NSymExpr
from .sym import jacobi_trudi


class SuiteReport(NamedTuple):
    name: str
    ok: bool
    detail: str  # parameter range covered
    counterexample: str | None = None

    def __str__(self):
        status = "ok" if self.ok else "FAILED"
        lines = [f"{self.name}: {status} ({self.detail})"]
        if self.counterexample:
            lines.append(f"counterexample: {self.counterexample}")
        return "\n".join(lines)


def skew_shapes(max_size: int, inner_cap: int = 3):
    """All skew shapes of the given sizes with a bounded inner shape."""
    out = []
    for n in range(max_size + 1):
        for m in range(inner_cap + 1):
            for mu in partitions(m):
                for lam in partitions(n + m):
                    if contains(lam, mu):
                        out.append(skew(lam, mu))
    return out


def _is_outer_product(words: array, left: array, right: array) -> bool:
    """Whether len(words) == len(left) * len(right) and words[i * len(right) + j]
    == left[i] * right[j] for all i, j, on array("q") vectors (an array never
    equals a list). Along the shorter factor the other one is scaled once per
    distinct value (by 1: itself; by 0: a zero repeat): row i of words against
    left[i] * right, or column j (stride len(right)) against right[j] * left."""
    zero, width = array("q", [0]), len(right)
    if len(words) != len(left) * width:
        return False
    if len(left) <= width:
        rows = {c1: right if c1 == 1 else zero * width if c1 == 0
                else array("q", map(c1.__mul__, right)) for c1 in set(left)}
        return all(words[i * width:(i + 1) * width] == rows[c1] for i, c1 in enumerate(left))
    columns = {c2: left if c2 == 1 else zero * len(left) if c2 == 0
               else array("q", map(c2.__mul__, left)) for c2 in set(right)}
    return all(words[j::width] == columns[c2] for j, c2 in enumerate(right))


# ---------------------------------------------------------------------------
# suites

def suite_prod(max_size: int = 7) -> SuiteReport:
    """Products of straight source functions split into concatenation and
    near-concatenation; basis products match the slash product and the
    word-level oracle."""
    slash_size = min(max_size, 6)
    detail = (
        f"|lam|+|mu| <= {max_size}; slash/oracle pairs of total size <= {slash_size}"
    )
    fail = partial(SuiteReport, "prod", False, detail)
    sources: dict = {}  # skew shape -> its source function, built once per call

    def source(shape: SkewShape) -> NCSymExpr:
        if shape not in sources:
            sources[shape] = schur.source_skew_schur(shape)
        return sources[shape]

    for total in range(max_size + 1):
        for a in range(total + 1):
            for lam in partitions(a):
                for mu in partitions(total - a):
                    prod, shapes = schur.source_product(lam, mu)
                    rhs = sum(map(source, shapes), NCSymExpr.zero("h"))
                    if prod != rhs:
                        return fail(f"lam={format_partition(lam)} mu={format_partition(mu)}")
    bases = ("h", "e", "p")
    for n in range(2, slash_size + 1):
        factors = {
            pi: {b: _EXPANDERS[b](pi, n) for b in bases}
            for a in range(1, n)
            for pi in set_partitions(a)
        }
        for tau in set_partitions(n):
            # tau = slash(pi, sig) with |pi| = a exactly when no block of tau
            # has elements on both sides of a; each tau is expanded once per
            # basis and compared at every such split
            splits = [a for a in range(1, n) if all(b[0] > a or b[-1] <= a for b in tau)]
            if not splits:
                continue
            for basis in bases:
                lhs = _EXPANDERS[basis](tau, n)
                for a in splits:
                    pi = tuple(b for b in tau if b[-1] <= a)
                    sig = tuple(tuple(x - a for x in b) for b in tau if b[0] > a)
                    # the slash-product rule at word level: the expansion of
                    # tau must equal the outer product of the factors' (the
                    # base-n words of lengths a and n - a concatenate to
                    # w1 * n**(n - a) + w2); the length guard comes first, as
                    # it catches a factor list of the wrong length, which the
                    # outer product would otherwise absorb
                    left, right = factors[pi][basis], factors[sig][basis]
                    lengths = (len(lhs), len(left), len(right))
                    if lengths != (n**n, n**a, n ** (n - a)) or not _is_outer_product(
                            lhs, left, right):
                        return fail(f"{basis}: pi={format_set_partition(pi)} "
                                    f"sig={format_set_partition(sig)}")
    # the structured two-term rules with permutations and on basis elements
    for total in range(2, min(max_size, 5) + 1):
        for a in range(1, total):
            for pi in set_partitions(a):
                for sig in set_partitions(total - a):
                    prod, pairs = schur.set_partition_schur_product(pi, sig)
                    rhs = sum((schur.skew_schur_nc(d, s) for d, s in pairs), NCSymExpr.zero("h"))
                    if prod != rhs:
                        return fail(f"s: pi={format_set_partition(pi)} "
                                    f"sig={format_set_partition(sig)}")
    return SuiteReport("prod", True, detail)


def suite_ncschur_triangular(max_n: int = 5) -> SuiteReport:
    """The Schur elements form a triangular family over the h-basis: the
    factorial-normalized transition matrix has 1 on its diagonal and 0
    below it, so it is upper-unitriangular and its determinant is 1; and
    the commutative image of each element is the classical Schur function
    of its shape."""
    detail = f"degrees n <= {max_n}"
    fail = partial(SuiteReport, "ncschur-triangular", False, detail)
    for n in range(1, max_n + 1):
        order = basis_order(n)
        mat = schur.normalized_schur_transition(n)
        for j in range(len(order)):
            if mat[j][j] != 1:
                return fail(f"n={n}: diagonal entry at {format_set_partition(order[j])}")
            for i in range(j + 1, len(order)):
                if mat[i][j]:
                    return fail(f"n={n}: entry below diagonal at column "
                                f"{format_set_partition(order[j])}")
        for pi in order:
            expected = jacobi_trudi(SkewShape(shape_of(pi), ()), "h")
            if rho(schur.standard_schur(pi)) != expected:
                return fail(f"commutative image wrong at {format_set_partition(pi)}")
    return SuiteReport("ncschur-triangular", True, detail)


def suite_transpose(max_n: int = 5) -> SuiteReport:
    """The transposed Schur elements are the images of the Schur elements
    under the h/e involution, and their commutative images are the Schur
    functions of the transposed shapes."""
    detail = f"degrees n <= {max_n}"
    fail = partial(SuiteReport, "transpose", False, detail)
    for n in range(1, max_n + 1):
        for pi in set_partitions(n):
            st = schur.transposed_schur(pi)
            if omega(schur.standard_schur(pi)) != st:
                return fail(format_set_partition(pi))
            expected = jacobi_trudi(
                SkewShape(transpose(shape_of(pi)), ()), "h"
            )
            if rho(st) != expected:
                return fail(f"commutative image wrong at {format_set_partition(pi)}")
    return SuiteReport("transpose", True, detail)


def _random_h_expr(rng: random.Random, max_degree: int) -> NCSymExpr:
    n = rng.randint(1, max_degree)
    pool = set_partitions(n)
    terms = {}
    for pi in rng.sample(pool, k=min(2, len(pool))):
        terms[pi] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return NCSymExpr("h", terms)


def suite_deltaact(count: int = 200, seed: int = 0, max_degree: int = 3) -> SuiteReport:
    """Acting with two permutations and multiplying equals multiplying and
    acting with their shifted concatenation, on random h-expressions."""
    from .combinat import shifted_concat

    rng = random.Random(seed)
    detail = f"{count} random instances, degrees <= {max_degree}, seed {seed}"
    for _i in range(count):
        f = _random_h_expr(rng, max_degree)
        g = _random_h_expr(rng, max_degree)
        nf = f.degrees()[0] if f.degrees() else 0
        ng = g.degrees()[0] if g.degrees() else 0
        delta = tuple(rng.sample(range(1, nf + 1), nf))
        eta = tuple(rng.sample(range(1, ng + 1), ng))
        lhs = delta_action(delta, f) * delta_action(eta, g)
        rhs = delta_action(shifted_concat(delta, eta), f * g)
        if lhs != rhs:
            return SuiteReport(
                "deltaact",
                False,
                detail,
                f"delta={delta} eta={eta} f={f} g={g}",
            )
    return SuiteReport("deltaact", True, detail)


def suite_rsrefines(max_size: int = 5, inner_cap: int = 3) -> SuiteReport:
    """Summing the permuted skew Schur functions over all box orderings
    gives the Rosas-Sagan function, whose commutative image is n! times
    the classical skew Schur function. The comparison of
    schur.rs_refinement_check is made here, so that each shape's Rosas-Sagan
    function is built once for both checks."""
    detail = f"skew sizes <= {max_size}, inner shapes of size <= {inner_cap}"
    for shape in skew_shapes(max_size, inner_cap):
        rs = schur.rosas_sagan(shape)
        if to_m(symmetrize(schur.source_skew_schur(shape))) != rs:
            return SuiteReport("rsrefines", False, detail, str(shape))
        n = shape.size
        expected = jacobi_trudi(shape, "h").scale(factorial(n))
        if rho(rs) != expected:
            return SuiteReport(
                "rsrefines", False, detail, f"commutative image of {shape}"
            )
    return SuiteReport("rsrefines", True, detail)


def suite_rslr(max_size: int = 6, inner_cap: int = 3) -> SuiteReport:
    """Rosas-Sagan skew functions expand into straight ones with
    Littlewood-Richardson coefficients, and skew Kostka numbers split the
    same way."""
    detail = f"skew sizes <= {max_size}, inner shapes of size <= {inner_cap}"
    straight: dict = {}  # nu -> the straight Rosas-Sagan function, built once per call
    for shape in skew_shapes(max_size, inner_cap):
        # one LR expansion per shape: the Kostka split checks the same pairs
        pairs = schur.rs_lr_expand(shape)
        rhs = NCSymExpr.zero("m")
        for nu, c in pairs:
            if nu not in straight:
                straight[nu] = schur.rosas_sagan(SkewShape(nu, ()))
            rhs = rhs + straight[nu].scale(c)
        if rhs != schur.rosas_sagan(shape):
            return SuiteReport("rslr", False, detail, str(shape))
        if not schur.skew_kostka_check(shape, pairs):
            return SuiteReport("rslr", False, detail, f"Kostka split at {shape}")
    return SuiteReport("rslr", True, detail)


def suite_rscoprod(max_n: int = 4) -> SuiteReport:
    """The coproduct of a straight Rosas-Sagan function in each bidegree
    matches the binomial-weighted sum over contained shapes."""
    detail = f"shapes of size <= {max_n}, all bidegrees"
    for n in range(max_n + 1):
        for lam in partitions(n):
            for i in range(n + 1):
                if not schur.rs_coproduct_check(lam, i):
                    return SuiteReport(
                        "rscoprod",
                        False,
                        detail,
                        f"lam={format_partition(lam)} i={i}",
                    )
    return SuiteReport("rscoprod", True, detail)


def suite_iota(max_n: int = 6) -> SuiteReport:
    """The embedding of compositions-indexed functions into NCSym sends
    ribbons to ribbon source functions and immaculate elements on
    partitions to straight source functions; following it with the
    commutative projection recovers the forgetful map."""
    detail = f"compositions and shapes of size <= {max_n}"
    fail = partial(SuiteReport, "iota", False, detail)
    for n in range(1, max_n + 1):
        for alpha in compositions(n):
            if nsym.iota(NSymExpr.single("R", alpha)) != schur.ribbon_source(alpha):
                return fail(f"ribbon alpha={format_partition(alpha)}")
            h = NSymExpr.single("H", alpha)
            if rho(nsym.iota(h)) != nsym.chi(h):
                return fail(f"H alpha={format_partition(alpha)}")
        for lam in partitions(n):
            immaculate = nsym.iota(NSymExpr.single("S", lam))
            if immaculate != schur.source_skew_schur(SkewShape(lam, ())):
                return fail(f"immaculate lam={format_partition(lam)}")
    return SuiteReport("iota", True, detail)


def suite_lgv(max_size: int = 4, height_cap: int = 3, inner_cap: int = 2) -> SuiteReport:
    """The path swap is a sign-reversing involution whose fixed points are
    the non-intersecting identity-matched tuples; labels preserve heights;
    the signed monomial sum collapses onto the fixed points; and the
    word-level bridge to the h-elements holds. Each tuple is swapped once,
    and the swap of its image is looked up in that table."""
    detail = (
        f"skew sizes <= {max_size}, height cap <= {height_cap}, "
        f"inner shapes of size <= {inner_cap}"
    )
    fail = partial(SuiteReport, "lgv", False, detail)
    for shape in skew_shapes(max_size, inner_cap):
        n = shape.size
        identity = tuple(range(1, len(shape.outer) + 1))
        images = _bridge_images(shape)
        for k in range(1, height_cap + 1):
            tuples = list(lgv.all_path_tuples(shape, k))
            swaps = {P: lgv.lgv_swap(P) for P in tuples}
            # content (sorted label-height word) -> number of tuples, per start
            # matching; the signed sum, the collapsed sum and the bridge all
            # read off these
            contents: dict = {eps: {} for eps in permutations(len(identity))}
            signed: dict = {}
            collapsed: dict = {}
            for P in tuples:
                P2, xi = swaps[P]
                if P2 not in swaps or swaps[P2][0] != P:
                    return fail(f"not an involution: {shape} k={k}\n{P.dump()}")
                fixed = P2 == P
                apart = P.eps == identity and not lgv.is_self_intersecting(P)
                if fixed != apart:
                    return fail(f"fixed-point shape wrong: {shape} k={k}\n{P.dump()}")
                if not fixed and P2.sign() != -P.sign():
                    return fail(f"sign not reversed: {shape} k={k}\n{P.dump()}")
                hp, hp2 = P.label_heights(), P2.label_heights()
                if any(hp[i] != hp2[xi[i] - 1] for i in range(n)):
                    return fail(f"labels change height: {shape} k={k}\n{P.dump()}")
                content = tuple(sorted(hp))
                tally = contents[P.eps]
                tally[content] = tally.get(content, 0) + 1
                signed[content] = signed.get(content, 0) + P.sign()
                if apart:
                    collapsed[content] = collapsed.get(content, 0) + 1
            signed = {w: c for w, c in _relabel_tally(signed).items() if c}
            if signed != _relabel_tally(collapsed):
                return fail(f"signed sum does not collapse: {shape} k={k}")
            if any(oracle_expand(images[eps], k) != NCPoly(k, _relabel_tally(tally))
                   for eps, tally in contents.items()):
                return fail(f"word bridge fails: {shape} k={k}")
        lgv.fixed_points_to_ssyt(shape, height_cap)
    return SuiteReport("lgv", True, detail)


def _relabel_tally(by_content: dict) -> dict:
    """The tally of lgv.monomial(delta, P) over the tuples P and the
    permutations delta, from the tally of the tuples' contents, their sorted
    label-height words: the n! relabellings of a word reach each
    rearrangement of its content as often as itertools.permutations of the
    content lists it, so each distinct content is spread once."""
    out: dict = {}
    for content, c in by_content.items():
        for word in itertools.permutations(content):
            out[word] = out.get(word, 0) + c
    return out


def _bridge_images(shape: SkewShape) -> dict:
    """Per start matching, the normalized sum of the permuted h-elements
    whose word expansion the bridge compares with the path-tuple monomials
    of that matching; zero where some path would need a negative number of
    east steps. The images do not depend on the height cap."""
    ell = len(shape.outer)
    images = {}
    for eps in permutations(ell):
        entries = [
            shape.outer[i] - shape.inner_at(eps[i] - 1) - (i + 1) + eps[i]
            for i in range(ell)
        ]
        if any(c < 0 for c in entries):
            images[eps] = NCSymExpr._trusted("h", {})
            continue
        pi = interval_partition(tuple(c for c in entries if c))
        images[eps] = symmetrize(NCSymExpr.single("h", pi, Fraction(1, parts_factorial(entries))))
    return images


def suite_specht(max_n: int = 5) -> SuiteReport:
    """The span of the Specht vectors of each shape has dimension either 0
    or the number of standard fillings of the shape; the report lists
    which value occurs."""
    from .combinat import syt_count

    detail = f"shapes of size <= {max_n}"
    seen = []
    for n in range(1, max_n + 1):
        for lam in partitions(n):
            r = schur.specht_rank(lam)
            f = syt_count(lam)
            seen.append(f"{format_partition(lam)}:{r}/{f}")
            if r not in (0, f):
                return SuiteReport(
                    "specht",
                    False,
                    detail,
                    f"lam={format_partition(lam)} rank={r} expected 0 or {f}",
                )
    return SuiteReport("specht", True, f"{detail}; rank/standard-count {' '.join(seen)}")


SUITES: dict[str, Callable[..., SuiteReport]] = {
    "prod": suite_prod,
    "ncschur-triangular": suite_ncschur_triangular,
    "transpose": suite_transpose,
    "deltaact": suite_deltaact,
    "rsrefines": suite_rsrefines,
    "rslr": suite_rslr,
    "rscoprod": suite_rscoprod,
    "iota": suite_iota,
    "lgv": suite_lgv,
    "specht": suite_specht,
}


def run_suite(name: str, **options) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](**options)
