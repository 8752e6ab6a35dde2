"""Batch verification suites for the identities the package implements.
Each suite runs an exhaustive (or seeded-random) family of instances and
reports the range covered plus the first counterexample, if any.
"""

from __future__ import annotations

import random
from fractions import Fraction
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
    perm_compose,
    permutations,
    set_partitions,
    shape_of,
    skew,
    transpose,
)
from .ncpoly import NCPoly
from .ncsym import (
    NCSymExpr,
    basis_order,
    delta_action,
    omega,
    oracle_expand,
    rho,
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
    for total in range(max_size + 1):
        for a in range(total + 1):
            for lam in partitions(a):
                for mu in partitions(total - a):
                    prod, shapes = schur.source_product(lam, mu)
                    rhs = NCSymExpr.zero("h")
                    for shape in shapes:
                        rhs = rhs + schur.source_skew_schur(shape)
                    if prod != rhs:
                        return SuiteReport(
                            "prod",
                            False,
                            detail,
                            f"lam={format_partition(lam)} mu={format_partition(mu)}",
                        )
    from .combinat import slash
    from .ncsym import _EXPANDERS

    for total in range(2, slash_size + 1):
        for a in range(1, total):
            n = total
            for pi in set_partitions(a):
                for sig in set_partitions(total - a):
                    for basis in ("h", "e", "p"):
                        expander = _EXPANDERS[basis]
                        # the slash-product rule at word level: the
                        # expansion of the product index must equal the
                        # concatenation convolution of the factors
                        lhs = expander(slash(pi, sig), n)
                        rhs: dict = {}
                        for w1, c1 in expander(pi, n).items():
                            for w2, c2 in expander(sig, n).items():
                                w = w1 + w2
                                rhs[w] = rhs.get(w, 0) + c1 * c2
                        if lhs != rhs:
                            return SuiteReport(
                                "prod",
                                False,
                                detail,
                                f"{basis}: pi={format_set_partition(pi)} "
                                f"sig={format_set_partition(sig)}",
                            )
    # the structured two-term rules with permutations and on basis elements
    for total in range(2, min(max_size, 5) + 1):
        for a in range(1, total):
            for pi in set_partitions(a):
                for sig in set_partitions(total - a):
                    prod, pairs = schur.set_partition_schur_product(pi, sig)
                    rhs = NCSymExpr.zero("h")
                    for delta, shape in pairs:
                        rhs = rhs + schur.skew_schur_nc(delta, shape)
                    if prod != rhs:
                        return SuiteReport(
                            "prod",
                            False,
                            detail,
                            f"s: pi={format_set_partition(pi)} "
                            f"sig={format_set_partition(sig)}",
                        )
    return SuiteReport("prod", True, detail)


def suite_ncschur_triangular(max_n: int = 5) -> SuiteReport:
    """The Schur elements form a triangular family over the h-basis: the
    factorial-normalized transition matrix is upper-unitriangular with
    determinant 1, and the commutative image of each element is the
    classical Schur function of its shape."""
    from . import ratlin

    detail = f"degrees n <= {max_n}"
    for n in range(1, max_n + 1):
        order = basis_order(n)
        mat = schur.normalized_schur_transition(n)
        for j in range(len(order)):
            if mat[j][j] != 1:
                return SuiteReport(
                    "ncschur-triangular",
                    False,
                    detail,
                    f"n={n}: diagonal entry at {format_set_partition(order[j])}",
                )
            for i in range(j + 1, len(order)):
                if mat[i][j]:
                    return SuiteReport(
                        "ncschur-triangular",
                        False,
                        detail,
                        f"n={n}: entry below diagonal at column "
                        f"{format_set_partition(order[j])}",
                    )
        if ratlin.determinant(mat) != 1:
            return SuiteReport(
                "ncschur-triangular", False, detail, f"n={n}: determinant != 1"
            )
        for pi in order:
            expected = jacobi_trudi(SkewShape(shape_of(pi), ()), "h")
            if rho(schur.standard_schur(pi)) != expected:
                return SuiteReport(
                    "ncschur-triangular",
                    False,
                    detail,
                    f"commutative image wrong at {format_set_partition(pi)}",
                )
    return SuiteReport("ncschur-triangular", True, detail)


def suite_transpose(max_n: int = 5) -> SuiteReport:
    """The transposed Schur elements are the images of the Schur elements
    under the h/e involution, and their commutative images are the Schur
    functions of the transposed shapes."""
    detail = f"degrees n <= {max_n}"
    for n in range(1, max_n + 1):
        for pi in set_partitions(n):
            st = schur.transposed_schur(pi)
            if to_m(omega(schur.standard_schur(pi))) != to_m(st):
                return SuiteReport(
                    "transpose", False, detail, format_set_partition(pi)
                )
            expected = jacobi_trudi(
                SkewShape(transpose(shape_of(pi)), ()), "h"
            )
            if rho(st) != expected:
                return SuiteReport(
                    "transpose",
                    False,
                    detail,
                    f"commutative image wrong at {format_set_partition(pi)}",
                )
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
    the classical skew Schur function."""
    detail = f"skew sizes <= {max_size}, inner shapes of size <= {inner_cap}"
    for shape in skew_shapes(max_size, inner_cap):
        if not schur.rs_refinement_check(shape):
            return SuiteReport("rsrefines", False, detail, str(shape))
        n = shape.size
        expected = jacobi_trudi(shape, "h").scale(factorial(n))
        if rho(schur.rosas_sagan(shape)) != expected:
            return SuiteReport(
                "rsrefines", False, detail, f"commutative image of {shape}"
            )
    return SuiteReport("rsrefines", True, detail)


def suite_rslr(max_size: int = 6, inner_cap: int = 3) -> SuiteReport:
    """Rosas-Sagan skew functions expand into straight ones with
    Littlewood-Richardson coefficients, and skew Kostka numbers split the
    same way."""
    detail = f"skew sizes <= {max_size}, inner shapes of size <= {inner_cap}"
    for shape in skew_shapes(max_size, inner_cap):
        rhs = NCSymExpr.zero("m")
        for nu, c in schur.rs_lr_expand(shape):
            rhs = rhs + schur.rosas_sagan(SkewShape(nu, ())).scale(c)
        if rhs != schur.rosas_sagan(shape):
            return SuiteReport("rslr", False, detail, str(shape))
        if not schur.skew_kostka_check(shape):
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
    for n in range(1, max_n + 1):
        for alpha in compositions(n):
            if nsym.iota(NSymExpr.single("R", alpha)) != schur.ribbon_source(alpha):
                return SuiteReport(
                    "iota", False, detail, f"ribbon alpha={format_partition(alpha)}"
                )
            h = NSymExpr.single("H", alpha)
            if rho(nsym.iota(h)) != nsym.chi(h):
                return SuiteReport(
                    "iota", False, detail, f"H alpha={format_partition(alpha)}"
                )
        for lam in partitions(n):
            immaculate = nsym.iota(NSymExpr.single("S", lam))
            if immaculate != schur.source_skew_schur(SkewShape(lam, ())):
                return SuiteReport(
                    "iota", False, detail, f"immaculate lam={format_partition(lam)}"
                )
    return SuiteReport("iota", True, detail)


def suite_lgv(max_size: int = 4, height_cap: int = 3, inner_cap: int = 2) -> SuiteReport:
    """The path swap is a sign-reversing involution whose fixed points are
    the non-intersecting identity-matched tuples; labels preserve heights;
    the signed monomial sum collapses onto the fixed points; and the
    word-level bridge to the h-elements holds."""
    detail = (
        f"skew sizes <= {max_size}, height cap <= {height_cap}, "
        f"inner shapes of size <= {inner_cap}"
    )
    for shape in skew_shapes(max_size, inner_cap):
        n = shape.size
        deltas = list(permutations(n))
        for k in range(1, height_cap + 1):
            signed: dict = {}
            for P in lgv.all_path_tuples(shape, k):
                P2, xi = lgv.lgv_swap(P)
                P3, xi2 = lgv.lgv_swap(P2)
                if P3 != P:
                    return SuiteReport(
                        "lgv", False, detail, f"not an involution: {shape} k={k}\n{P.dump()}"
                    )
                fixed = P2 == P
                if fixed != (
                    P.eps == tuple(range(1, len(P.eps) + 1))
                    and not lgv.is_self_intersecting(P)
                ):
                    return SuiteReport(
                        "lgv", False, detail, f"fixed-point shape wrong: {shape} k={k}\n{P.dump()}"
                    )
                if not fixed and lgv.sign(P2) != -lgv.sign(P):
                    return SuiteReport(
                        "lgv", False, detail, f"sign not reversed: {shape} k={k}\n{P.dump()}"
                    )
                hp, hp2 = P.label_heights(), P2.label_heights()
                if any(hp[i] != hp2[xi[i] - 1] for i in range(n)):
                    return SuiteReport(
                        "lgv", False, detail, f"labels change height: {shape} k={k}\n{P.dump()}"
                    )
                for delta in deltas:
                    if lgv.monomial(delta, P) != lgv.monomial(
                        perm_compose(xi, delta), P2
                    ):
                        return SuiteReport(
                            "lgv", False, detail, f"monomial swap: {shape} k={k}\n{P.dump()}"
                        )
                for delta in deltas:
                    word = lgv.monomial(delta, P)
                    signed[word] = signed.get(word, 0) + lgv.sign(P)
            collapsed: dict = {}
            for P in lgv.enumerate_path_tuples(
                shape, tuple(range(1, len(shape.outer) + 1)), k
            ):
                if lgv.is_self_intersecting(P):
                    continue
                for delta in deltas:
                    word = lgv.monomial(delta, P)
                    collapsed[word] = collapsed.get(word, 0) + 1
            signed = {w: c for w, c in signed.items() if c}
            if signed != collapsed:
                return SuiteReport(
                    "lgv", False, detail, f"signed sum does not collapse: {shape} k={k}"
                )
            if not _check_hmon_bridge(shape, k):
                return SuiteReport(
                    "lgv", False, detail, f"word bridge fails: {shape} k={k}"
                )
        lgv.fixed_points_to_ssyt(shape, height_cap)
    return SuiteReport("lgv", True, detail)


def _check_hmon_bridge(shape: SkewShape, k: int) -> bool:
    """Whether, start-matching by start-matching, the normalized sum of
    permuted h-elements expands into exactly the path-tuple monomials."""
    n = shape.size
    ell = len(shape.outer)
    for eps in permutations(ell):
        entries = [
            shape.outer[i] - shape.inner_at(eps[i] - 1) - (i + 1) + eps[i]
            for i in range(ell)
        ]
        lhs = NCPoly.zero(k)
        if all(c >= 0 for c in entries):
            pi = interval_partition(tuple(c for c in entries if c))
            base = NCSymExpr.single("h", pi, Fraction(1, parts_factorial(entries)))
            for delta in permutations(n):
                lhs = lhs + oracle_expand(delta_action(delta, base), k)
        rhs_terms: dict = {}
        for P in lgv.enumerate_path_tuples(shape, eps, k):
            for delta in permutations(n):
                word = lgv.monomial(delta, P)
                rhs_terms[word] = rhs_terms.get(word, 0) + 1
        rhs = NCPoly(k, {w: Fraction(c) for w, c in rhs_terms.items()})
        if lhs != rhs:
            return False
    return True


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
