import itertools
import math
import operator
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncschur import ncsym
from ncschur.combinat import (
    interval_partition,
    parse_set_partition,
    permutations,
    set_partitions,
    shape_of,
    sp_size,
)
from ncschur.ncpoly import NCPoly
from ncschur.ncsym import (
    DegreeGuardError,
    NCSymExpr,
    basis_order,
    coproduct,
    delta_action,
    from_m,
    naive_expand,
    omega,
    oracle_expand,
    rho,
    symmetrize,
    to_h,
    to_m,
)
from ncschur.schur import source_skew_schur
from ncschur.sym import SymExpr, expand
from ncschur.verify import skew_shapes


def single(basis, text):
    return NCSymExpr.single(basis, parse_set_partition(text))


def test_h_to_m_example():
    assert to_m(single("h", "13/2")) == NCSymExpr(
        "m",
        {
            parse_set_partition("123"): Fraction(2),
            parse_set_partition("12/3"): Fraction(1),
            parse_set_partition("1/23"): Fraction(1),
            parse_set_partition("13/2"): Fraction(2),
            parse_set_partition("1/2/3"): Fraction(1),
        },
    )


def test_p_bottom_is_sum_of_all_m():
    for n in range(1, 5):
        bottom = interval_partition((1,) * n)
        expected = NCSymExpr("m", {pi: Fraction(1) for pi in set_partitions(n)})
        assert to_m(NCSymExpr.single("p", bottom)) == expected


def test_e_top_is_bottom_m():
    assert to_m(single("e", "123")) == single("m", "1/2/3")


def test_from_m_round_trips():
    for n in range(1, 6):
        for basis in "peh":
            for pi in set_partitions(n):
                expr = NCSymExpr.single(basis, pi)
                assert from_m(to_m(expr), basis) == expr


def test_from_m_inverse_of_example():
    expr = to_m(single("h", "13/2"))
    assert from_m(expr, "h") == single("h", "13/2")


def test_from_m_degree_one():
    assert from_m(single("m", "1"), "p") == single("p", "1")


def test_products_are_slash_products():
    assert single("h", "12") * single("h", "1") == single("h", "12/3")
    assert single("e", "1/2") * single("e", "12") == single("e", "1/2/34")
    assert single("p", "1") * single("p", "1") == single("p", "1/2")


def test_product_with_one():
    f = single("h", "13/2")
    assert f * NCSymExpr.one("h") == f
    assert NCSymExpr.one("h") * f == f


def test_m_product_via_h_route():
    m1 = single("m", "1")
    assert m1 * m1 == NCSymExpr(
        "m",
        {
            parse_set_partition("12"): Fraction(1),
            parse_set_partition("1/2"): Fraction(1),
        },
    )


def test_product_matches_oracle():
    f = single("h", "12")
    g = single("e", "1/2")
    k = 4
    assert oracle_expand(f * g, k) == oracle_expand(f, k) * oracle_expand(g, k)


def test_omega_swaps_h_and_e():
    assert omega(single("h", "13/2")) == NCSymExpr.single(
        "e", parse_set_partition("13/2")
    )


def test_omega_sign_on_p():
    assert omega(single("p", "12/3")) == single("p", "12/3").scale(-1)
    assert omega(single("p", "1/2/3")) == single("p", "1/2/3")


def test_omega_is_an_involution():
    for basis in "mpeh":
        f = NCSymExpr(
            basis,
            {
                parse_set_partition("13/2"): Fraction(1, 2),
                parse_set_partition("123"): Fraction(-2),
            },
        )
        assert omega(omega(f)) == f
    for n in range(6):
        for pi in set_partitions(n):
            f = NCSymExpr.single("m", pi)
            assert omega(omega(f)).terms == f.terms


def test_omega_of_an_m_expression_matches_the_h_route():
    # omega is a sign on p; the h-route swaps the h- and e-coefficients
    for n in range(6):
        for pi in set_partitions(n):
            f = NCSymExpr.single("m", pi)
            via_h = to_m(NCSymExpr("e", from_m(f, "h").terms))
            assert omega(f) == via_h
            assert list(omega(f).terms.items()) == list(via_h.terms.items())


def test_to_h_round_trips_through_m():
    for n in range(6):
        for basis in "pe":
            for pi in set_partitions(n):
                f = NCSymExpr.single(basis, pi)
                g = to_h(f)
                assert g.basis == "h"
                assert to_m(g).terms == to_m(f).terms


def test_zero_schur_type_expressions_expand_into_h_and_e():
    # a zero s or s^t expression once kept its basis through the expansion,
    # so to_m and oracle_expand called themselves without end
    for basis, target in (("s", "h"), ("st", "e")):
        zero = NCSymExpr(basis)
        assert ncsym.to_h_or_e(zero).basis == target
        assert to_m(zero) == NCSymExpr("m")
        assert oracle_expand(zero, 2) == NCPoly.zero(2)
    assert to_h(NCSymExpr("s")).basis == "h"


def test_delta_action_example():
    assert delta_action((1, 3, 2), single("h", "12/3")) == single("h", "13/2")


def test_delta_action_identity():
    f = to_m(single("h", "13/2"))
    assert delta_action((1, 2, 3), f) == f


def test_delta_action_preserves_commutative_image_on_p():
    f = single("p", "13/2")
    for delta in permutations(3):
        g = delta_action(delta, f)
        assert oracle_expand(g, 3).commutative_image() == oracle_expand(f, 3).commutative_image()


@pytest.mark.parametrize("delta, texts, why", [
    ((1, 1, 2), ["12/3"], r"^blocks do not partition an initial interval: \(\(1, 1\), \(2,\)\)$"),
    ((1, 2), ["12/3"], "^permutation size must match the set partition$"),
    # the first term fits, the second does not
    ((2, 1), ["1/2", "12/3"], "^permutation size must match the set partition$"),
])
def test_delta_action_rejects_what_the_checked_relabelling_rejects(delta, texts, why):
    f = NCSymExpr("h", {parse_set_partition(text): 1 for text in texts})
    with pytest.raises(ValueError, match=why):
        delta_action(delta, f)


@pytest.mark.parametrize("basis", ["s", "st"])
def test_delta_action_rejects_schur_input(basis):
    with pytest.raises(ValueError, match="^the permutation action needs an m/p/e/h expression$"):
        delta_action((1, 3, 2), single(basis, "12/3"))


def walk_symmetrize(expr: NCSymExpr) -> NCSymExpr:
    """The oracle for symmetrize: delta_action summed over all n!
    permutations of each degree, one permutation at a time, in a plain dict."""
    total = {}
    for n in expr.degrees():
        part = NCSymExpr(expr.basis, {pi: c for pi, c in expr.terms.items() if sp_size(pi) == n})
        for delta in permutations(n):
            for pi, c in delta_action(delta, part).terms.items():
                total[pi] = total.get(pi, 0) + c
    return NCSymExpr(expr.basis, {pi: c for pi, c in total.items() if c})


def test_symmetrize_example():
    # 12/3 is fixed by the 2 permutations that swap 1 and 2 or fix all
    assert symmetrize(single("h", "12/3")) == NCSymExpr("h", {
        parse_set_partition(text): 2 for text in ("12/3", "13/2", "1/23")
    })
    assert symmetrize(single("m", "1/2/3")) == single("m", "1/2/3").scale(6)


def test_symmetrize_equals_the_walk_on_every_source_function():
    shapes = skew_shapes(5, 3)
    assert len(shapes) == 257
    for shape in shapes:
        base = source_skew_schur(shape)
        assert symmetrize(base) == walk_symmetrize(base), shape


_indices = st.integers(min_value=0, max_value=4).flatmap(
    lambda n: st.sampled_from(set_partitions(n))
)
_coeffs = st.fractions(max_denominator=6, min_value=Fraction(-5), max_value=Fraction(5))


@given(st.builds(NCSymExpr, st.sampled_from("mpeh"), st.dictionaries(_indices, _coeffs, max_size=4)))
@settings(max_examples=60, deadline=None)
def test_symmetrize_equals_the_walk_on_random_expressions(f):
    assert symmetrize(f) == walk_symmetrize(f)


@pytest.mark.parametrize("basis", ["s", "st"])
def test_symmetrize_rejects_schur_input(basis):
    with pytest.raises(ValueError, match="m/p/e/h"):
        symmetrize(single(basis, "12/3"))


def test_rho_rules():
    assert rho(single("h", "13/2")) == SymExpr.single("h", (2, 1), 2)
    assert rho(single("p", "13/2")) == SymExpr.single("p", (2, 1))
    assert rho(single("e", "13/2")) == SymExpr.single("e", (2, 1), 2)
    assert rho(single("m", "1/2/3")) == SymExpr.single("m", (1, 1, 1), 6)


def test_rho_matches_commutative_image_of_oracle():
    for n in range(1, 5):
        for basis in "mpeh":
            for pi in set_partitions(n):
                f = NCSymExpr.single(basis, pi)
                assert oracle_expand(f, n).commutative_image() == expand(rho(f), n)


def test_oracle_m_example():
    poly = oracle_expand(single("m", "13/2"), 3)
    expected = NCPoly(
        3,
        {
            (1, 2, 1): Fraction(1),
            (2, 1, 2): Fraction(1),
            (1, 3, 1): Fraction(1),
            (3, 1, 3): Fraction(1),
            (2, 3, 2): Fraction(1),
            (3, 2, 3): Fraction(1),
        },
    )
    assert poly == expected


def test_oracle_p_contains_diagonal_words():
    poly = oracle_expand(single("p", "13/2"), 2)
    assert poly.terms[(1, 1, 1)] == 1
    assert poly.terms[(2, 2, 2)] == 1


def test_oracle_h_degree_one():
    for k in (1, 3):
        assert oracle_expand(single("h", "1"), k) == NCPoly(
            k, {(i,): Fraction(1) for i in range(1, k + 1)}
        )


def test_oracle_matches_naive_expansion():
    # k below, at and above the degree: too few variables for some blocks,
    # exactly enough, and one spare; then larger words, whose pools spread
    # over leading, inner and trailing free letters and whose blocks need
    # not be intervals (h's brute force is too slow there)
    cases = [(n, k, "mpeh") for n in range(5) for k in range(1, n + 2)] + [(5, 2, "mpeh")]
    for n, k, bases in cases + [(5, 3, "mpe"), (6, 2, "mpe")]:
        for basis in bases:
            for pi in set_partitions(n):
                expr = NCSymExpr.single(basis, pi)
                assert oracle_expand(expr, k) == naive_expand(basis, pi, k), (basis, pi, k)


def test_expanders_key_words_by_base_k_integers():
    # the word w_1...w_n is sum over x of (w_x - 1) k^(n - x), which is its
    # position in the lexicographic order of {1..k}^n and so its index in
    # the expander's array("q") of k^n coefficients
    for n in range(5):
        for k in range(1, 5):
            words = list(itertools.product(range(1, k + 1), repeat=n))
            for basis in "mpeh":
                for pi in set_partitions(n):
                    expansion = ncsym._EXPANDERS[basis](pi, k)
                    assert type(expansion) is array and expansion.typecode == "q"
                    assert len(expansion) == k**n
                    assert all(type(c) is int for c in expansion)
                    decoded = NCPoly(k, {words[w]: c for w, c in enumerate(expansion) if c})
                    assert decoded == naive_expand(basis, pi, k), (basis, pi, k)
                    if n == 0:
                        assert expansion == array("q", [1])


def naive_vectors(terms: dict, basis: str, k: int) -> dict:
    """Per degree, the naive expansion of the terms as a list of Fraction
    word coefficients in the lexicographic order of {1..k}^n."""
    out = {}
    for n in sorted({sp_size(pi) for pi in terms}):
        poly = NCPoly.zero(k)
        for pi, c in terms.items():
            if sp_size(pi) == n:
                poly = poly + naive_expand(basis, pi, k).scale(c)
        out[n] = [poly.terms.get(w, 0) for w in itertools.product(range(1, k + 1), repeat=n)]
    return out


def test_word_vectors_match_the_naive_expansion():
    # one array("q") per degree over one common denominator; the sums mix
    # degrees, coefficients that differ and coefficients that repeat
    cycle = [Fraction(1, 2), Fraction(-2, 3), Fraction(1, 2), Fraction(3)]
    for k in range(1, 4):
        for basis in "mpeh":
            exprs = [{pi: Fraction(1)} for n in range(5) for pi in set_partitions(n)]
            exprs.append({pi: cycle[i % 4] for i, pi in enumerate(
                pi for n in range(1, 5) for pi in set_partitions(n))})
            for terms in exprs:
                vectors, den = ncsym.word_vectors(NCSymExpr(basis, terms), k)
                assert den == math.lcm(*(c.denominator for c in terms.values()))
                assert all(type(v) is array and v.typecode == "q" for v in vectors.values())
                expected = {n: [den * c for c in vals]
                            for n, vals in naive_vectors(terms, basis, k).items()}
                assert {n: v.tolist() for n, v in vectors.items()} == expected, (basis, terms, k)


def test_word_vectors_raise_past_int64():
    top = 2**63 - 1
    assert ncsym.word_vectors(single("m", "1").scale(top), 1) == ({1: array("q", [top])}, 1)
    with pytest.raises(OverflowError, match="leaves int64"):
        ncsym.word_vectors(single("m", "1").scale(top + 1), 1)
    # each term's scaled entry fits; their sum, h[12] + h[1/2] = 3 at k = 1, does not
    both = NCSymExpr("h", {parse_set_partition("12"): 2**62, parse_set_partition("1/2"): 2**62})
    with pytest.raises(OverflowError, match="leaves int64"):
        ncsym.word_vectors(both, 1)
    assert ncsym.word_vectors(both.scale(Fraction(1, 2)), 1) == ({2: array("q", [3 * 2**61])}, 1)


@pytest.mark.parametrize("k", [3, 4])
def test_h_words_match_the_words_of_their_monomial_expansion(k):
    # h multiplies one pool per block, three nontrivial and crossing for
    # 14/25/36; to_m goes through the coded lattice and m is one joint pool,
    # so this oracle shares neither route. oracle_expand is linear and only
    # adds up and decodes these vectors, so they are compared directly: the
    # m side adds each m[sigma] vector's nonzero entries, once per sigma
    m_words = {
        sig: [(w, c) for w, c in enumerate(ncsym._EXPANDERS["m"](sig, k)) if c]
        for sig in set_partitions(6)
    }
    for pi in set_partitions(6):
        expected = array("q", [0]) * k**6
        for sig, a in to_m(NCSymExpr.single("h", pi)).terms.items():
            assert a.denominator == 1
            for w, c in m_words[sig]:
                expected[w] += a.numerator * c
        assert ncsym._EXPANDERS["h"](pi, k) == expected, pi


def test_spread_matches_its_index_formula():
    # entry j of the spread, read as base-k digits over target in position
    # order, is vals at j's digits in the places of letters; targets of up
    # to 5 letters reach both the chunk-by-chunk copy (long chunks) and the
    # column-by-column one (many short chunks, such as a trailing free run)
    for size in range(6):
        for target in itertools.combinations(range(1, 7), size):
            for picks in itertools.product((0, 1), repeat=size):
                letters = tuple(x for x, take in zip(target, picks) if take)
                for k in range(1, 4):
                    vals = array("q", [7 * i + 3 for i in range(k ** len(letters))])
                    expected = array("q")
                    for j in range(k**size):
                        digits = [j // k ** (size - 1 - i) % k for i in range(size)]
                        kept = [d for d, take in zip(digits, picks) if take]
                        expected.append(vals[sum(d * k ** (len(kept) - 1 - i)
                                                 for i, d in enumerate(kept))])
                    assert ncsym._spread(vals, letters, target, k) == expected, (
                        letters, target, k)


@pytest.mark.parametrize("n, ks", [(n, range(1, 5)) for n in range(1, 7)] + [(6, [6])])
def test_words_outer_product_route_matches_the_joint_letter_route(n, ks):
    # the pools' product is commutative; in reverse order no pool after the
    # first has its least letter past every covered letter, so every later
    # pool multiplies over the joint letters instead of as an outer product
    weights = (ncsym._h_weights, ncsym._e_weights, ncsym._p_weights)
    for k in ks:
        for pi in set_partitions(n):
            for weight in weights:
                pools = [(b, weight(len(b), k)) for b in pi]
                assert ncsym._words(n, k, pools[::-1]) == ncsym._words(n, k, pools), (
                    pi, k, weight.__name__)
            # _expand_m's one joint pool over 1..n (its own expansion), with
            # a pool on the last letter weighted by its digit put after it
            # (then that pool is the joint one) or before it (then the m pool is)
            m_vals = ncsym._expand_m(pi, k)
            expected = array("q", [c * (w % k + 1) for w, c in enumerate(m_vals)])
            m_pools = [(range(1, n + 1), m_vals), ((n,), array("q", [d + 1 for d in range(k)]))]
            assert ncsym._words(n, k, m_pools) == expected, (pi, k)
            assert ncsym._words(n, k, m_pools[::-1]) == expected, (pi, k)


def reference_words(n: int, k: int, pools) -> array:
    """The reference for ncsym._words (its previous form): every pool
    multiplies into the product over all letters covered so far, as one
    scaled copy of the pool per entry of that product when its least letter
    follows every covered letter, else both spread to their joint letters
    and multiplied entry by entry."""
    out, covered = array("q", [1]), ()
    for letters, vals in pools:
        if vals.count(1) == len(vals):
            continue
        if not covered or covered[-1] < min(letters):
            rows = {c: vals if c == 1 else array("q", [0]) * len(vals) if c == 0
                    else array("q", map(c.__mul__, vals)) for c in set(out)}
            product = array("q")
            for c in out:
                product += rows[c]
            out, covered = product, (*covered, *letters)
        else:
            joint = tuple(sorted({*covered, *letters}))
            out = array("q", map(operator.mul, ncsym._spread(out, covered, joint, k),
                                 ncsym._spread(vals, letters, joint, k)))
            covered = joint
    return ncsym._spread(out, covered, range(1, n + 1), k)


@pytest.mark.parametrize("n, ks", [(n, range(1, 5)) for n in range(1, 7)] + [(6, [6])])
def test_words_match_the_reference_route(n, ks):
    weights = (ncsym._h_weights, ncsym._e_weights, ncsym._p_weights)
    for k in ks:
        for pi in set_partitions(n):
            for weight in weights:
                pools = [(b, weight(len(b), k)) for b in pi]
                assert ncsym._words(n, k, pools) == reference_words(n, k, pools), (
                    pi, k, weight.__name__)


@pytest.mark.parametrize("text", ["12/35/46", "14/23/56", "1/24/35/6", "12/34/56",
                                  "13/2/46/5", "1/23/4/57/68", "12/3/46/5/78"])
def test_words_multiply_an_interleaved_later_component_on_its_own_letters(text):
    # 12/35/46: the (4,6) pool joins the component on 3..6 only, yet the
    # product equals the reference route over every covered letter. In
    # other orders a pool can reach back over several components: for
    # 23, 56, 14 the last pool joins 56 and then 23
    pi, k = parse_set_partition(text), 3
    n = sp_size(pi)
    for weight in (ncsym._h_weights, ncsym._e_weights, ncsym._p_weights):
        pools = [(b, weight(len(b), k)) for b in pi]
        expected = reference_words(n, k, pools)
        for order in itertools.permutations(pools):
            assert ncsym._words(n, k, order) == expected, (text, order, weight.__name__)


def test_joint_steps_stay_inside_their_component(monkeypatch):
    # for 12/35/46 at k = 6 the (4,6) pool and the (3,5) one spread to 3..6
    # (6^4 entries) and no further; only the last spread reaches 1..6
    spread, targets = ncsym._spread, []

    def spy(vals, letters, target, k):
        targets.append(tuple(target))
        return spread(vals, letters, target, k)

    monkeypatch.setattr(ncsym, "_spread", spy)
    ncsym._EXPANDERS["h"](parse_set_partition("12/35/46"), 6)
    assert targets == [(3, 4, 5, 6), (3, 4, 5, 6), (1, 2, 3, 4, 5, 6)]


def test_outer_product_in_both_orientations():
    # the shorter factor is scaled row by row (left) or column by column
    # (right); factors with 0, 1 and repeated entries above 1
    short, long_ = array("q", [0, 1, 3, 3]), array("q", [2, 0, 1, 5, 2, 2, 0, 1, 7])
    for left, right in ((short, long_), (long_, short), (short, short), (long_, long_[:1])):
        expected = array("q", [a * b for a in left for b in right])
        assert ncsym._outer(left, right) == expected, (left, right)
    # the same through _words: a pool on 1..a, then one on the letters after
    for k, a, n in ((3, 2, 3), (3, 1, 3), (2, 2, 4)):
        first = array("q", [(0, 1, 2, 2, 3)[i % 5] for i in range(k**a)])
        second = array("q", [(2, 0, 1, 2)[i % 4] for i in range(k ** (n - a))])
        pools = [(tuple(range(1, a + 1)), first), (tuple(range(a + 1, n + 1)), second)]
        expected = array("q", [c1 * c2 for c1 in first for c2 in second])
        assert ncsym._words(n, k, pools) == expected == reference_words(n, k, pools), (k, a)


def test_largest_coefficient_at_the_oracle_limits_fits_the_word_vector():
    # h of one block of the largest degree, over the most variables that the
    # word limit allows there: a word of one letter repeated eight times
    # weighs 8!, the largest coefficient that any word vector can hold
    expansion = ncsym._EXPANDERS["h"](((1, 2, 3, 4, 5, 6, 7, 8),), 5)
    assert ncsym.ORACLE_DEGREE_LIMIT == 8 and 5**8 <= ncsym.ORACLE_WORD_LIMIT < 6**8
    assert type(expansion) is array and expansion.typecode == "q"
    assert len(expansion) == 5**8
    assert max(expansion) == math.factorial(8) == expansion[0] == expansion[-1]


def test_oracle_degree_guard():
    nine = interval_partition((9,))
    with pytest.raises(DegreeGuardError, match=r"^oracle expansion of h\[123456789\]: "
                       r"degree 9 exceeds the limit 8$"):
        oracle_expand(NCSymExpr.single("h", nine), 2)
    # checked before the Schur-type bases are expanded into h or e
    with pytest.raises(DegreeGuardError, match=r"of st\[123456789\]:"):
        oracle_expand(NCSymExpr.single("st", nine), 2)
    with pytest.raises(DegreeGuardError, match=r"of m\[123456789\]:"):
        naive_expand("m", nine, 2)


def test_oracle_word_guard():
    with pytest.raises(DegreeGuardError, match=r"^oracle expansion of h\[1/2/3/4/5\] over 30 "
                       r"variables: 24300000 words exceed the limit 1000000$"):
        oracle_expand(NCSymExpr.single("h", interval_partition((1,) * 5)), 30)
    with pytest.raises(DegreeGuardError, match=r"of s\[12345678\] over 6 variables:"):
        oracle_expand(NCSymExpr.single("s", interval_partition((8,))), 6)
    with pytest.raises(DegreeGuardError, match=r"of p\[1234567\] over 8 variables:"):
        naive_expand("p", interval_partition((7,)), 8)


def test_oracle_injective_at_degree_cutoff():
    n = 3
    seen = {}
    for pi in set_partitions(n):
        poly = oracle_expand(NCSymExpr.single("m", pi), n)
        key = frozenset(poly.terms.items())
        assert key not in seen
        seen[key] = pi


def test_coproduct_trivial_bidegrees():
    f = single("m", "13/2")
    assert coproduct(f, 0) == {((), parse_set_partition("13/2")): Fraction(1)}
    assert coproduct(f, 3) == {(parse_set_partition("13/2"), ()): Fraction(1)}


def test_coproduct_block_cannot_split():
    assert coproduct(single("m", "12"), 1) == {}


def test_coproduct_two_singletons():
    assert coproduct(single("m", "1/2"), 1) == {
        (parse_set_partition("1"), parse_set_partition("1")): Fraction(2)
    }


def test_coproduct_standardizes():
    out = coproduct(single("m", "13/2"), 1)
    assert out == {(parse_set_partition("1"), parse_set_partition("12")): Fraction(1)}


def test_basis_order_is_dominance_compatible():
    order = basis_order(4)
    shapes = [shape_of(pi) for pi in order]
    assert shapes[0] == (4,)
    assert shapes[-1] == (1, 1, 1, 1)


def test_json_round_trip():
    f = NCSymExpr(
        "h",
        {
            parse_set_partition("13/2"): Fraction(1, 2),
            parse_set_partition("123"): Fraction(-1, 6),
        },
    )
    assert NCSymExpr.from_json(f.to_json()) == f


def test_single_canonicalizes_its_index():
    f = NCSymExpr.single("h", ((2,), (1,)))
    assert str(f) == "h[1/2]"
    assert f == single("h", "1/2")
    assert NCSymExpr.single("m", ((3, 1), (2,))).terms == {((1, 3), (2,)): 1}
    assert NCSymExpr.single("h", [[2], [1]]) == f
    with pytest.raises(ValueError):
        NCSymExpr.single("h", ((1,), (3,)))


def test_constructor_canonicalizes_and_adds_spellings_of_one_index():
    f = NCSymExpr("h", {((2,), (1,)): 1, ((1,), (2,)): 1})
    assert f == NCSymExpr.single("h", ((1,), (2,)), 2)
    assert f.terms == {((1,), (2,)): 2}
    uncanonical = NCSymExpr("m", {((3, 1), (2,)): Fraction(1, 2)})
    assert uncanonical == NCSymExpr.single("m", ((1, 3), (2,)), Fraction(1, 2))
    assert str(uncanonical) == "1/2 m[13/2]"
    assert NCSymExpr("p", {((2,), (1,)): 1, ((1,), (2,)): -1}).is_zero()
    with pytest.raises(ValueError):
        NCSymExpr("h", {((1,), (3,)): 1})


def test_from_json_adds_spellings_of_one_index():
    text = (
        '{"algebra": "ncsym", "basis": "h", "terms": ['
        '{"index": "12/3", "coeff": "1"}, {"index": "3/21", "coeff": "1/2"}]}'
    )
    assert NCSymExpr.from_json(text) == single("h", "12/3").scale(Fraction(3, 2))


def test_str_rendering():
    f = NCSymExpr(
        "h",
        {
            parse_set_partition("13/2"): Fraction(1, 2),
            parse_set_partition("123"): Fraction(-1, 6),
        },
    )
    assert str(f) == "1/2 h[13/2] - 1/6 h[123]"
