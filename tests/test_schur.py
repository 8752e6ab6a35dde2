import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncschur.combinat import (
    SkewShape,
    YoungTableau,
    parse_perm,
    parse_set_partition,
    partitions,
    parts_factorial,
    permutations,
    set_partitions,
    shape_of,
    skew,
    syt_count,
    tableau,
)
from ncschur.ncsym import NCSymExpr, basis_order, delta_action, from_m, sp_sign, to_m
from ncschur.schur import (
    family_rank,
    h_to_schur,
    normalized_schur_transition,
    permuted_basis,
    rosas_sagan,
    rosas_sagan_oracle,
    rs_coproduct_check,
    rs_lr_expand,
    rs_refinement_check,
    schur_basis_convert,
    schur_product,
    schur_transition,
    set_partition_schur_product,
    skew_kostka_check,
    skew_schur_nc,
    source_product,
    source_skew_schur,
    specht_rank,
    specht_vector,
    standard_schur,
    tabloid_schur,
    transposed_schur,
)
from ncschur.sym import SymExpr, jacobi_trudi, littlewood_richardson
from ncschur.verify import skew_shapes
from specht_fillings import fillings, specht_rank_oracle


def sp(text):
    return parse_set_partition(text)


def test_source_schur_21():
    assert source_skew_schur(skew((2, 1))) == NCSymExpr(
        "h",
        {sp("12/3"): Fraction(1, 2), sp("123"): Fraction(-1, 6)},
    )


def test_source_schur_skew_22_1():
    assert source_skew_schur(skew((2, 2), (1,))) == NCSymExpr(
        "h",
        {sp("1/23"): Fraction(1, 2), sp("123"): Fraction(-1, 6)},
    )


def test_standard_schur_examples():
    assert standard_schur(sp("12/3")) == source_skew_schur(skew((2, 1)))
    assert standard_schur(sp("13/2")) == NCSymExpr(
        "h",
        {sp("13/2"): Fraction(1, 2), sp("123"): Fraction(-1, 6)},
    )
    assert str(standard_schur(sp("13/2"))) == "1/2 h[13/2] - 1/6 h[123]"


def test_schur_is_permutation_of_source():
    pi = sp("13/2")
    assert standard_schur(pi) == delta_action(
        (1, 3, 2), source_skew_schur(skew((2, 1)))
    )
    assert skew_schur_nc((1, 3, 2), skew((2, 1))) == standard_schur(pi)


def test_skew_schur_nc_size_check():
    with pytest.raises(ValueError):
        skew_schur_nc((1, 2), skew((2, 1)))


def test_transposed_schur_retags_terms():
    pi = sp("13/2")
    assert transposed_schur(pi) == NCSymExpr("e", standard_schur(pi).terms)


def test_transposed_schur_is_omega_of_schur_in_the_p_basis():
    # omega swaps h with e and fixes p_key up to sp_sign(key); in the p-basis,
    # reached through to_m (which weighs h by |mu| and e by mu) and from_m,
    # that sign is all that may differ, so this does not restate a retagging
    for n in range(1, 6):
        for pi in set_partitions(n):
            s_p = from_m(to_m(standard_schur(pi)), "p").terms
            st_p = from_m(to_m(transposed_schur(pi)), "p").terms
            assert st_p == {key: sp_sign(key) * c for key, c in s_p.items()}, pi


def test_transition_matrix_triangular_with_unit_determinant():
    for n in range(1, 5):
        order = basis_order(n)
        raw = schur_transition(n)
        norm = normalized_schur_transition(n)
        for j, pi in enumerate(order):
            assert raw[j][j] == Fraction(1, parts_factorial(shape_of(pi)))
            assert norm[j][j] == 1
            for i in range(j + 1, len(order)):
                assert raw[i][j] == 0
        det = Fraction(1)
        for j in range(len(order)):
            det *= norm[j][j]
        assert det == 1


def test_h_to_schur_example():
    got = h_to_schur(NCSymExpr.single("h", sp("13/2")))
    assert got == NCSymExpr(
        "s", {sp("13/2"): Fraction(2), sp("123"): Fraction(2)}
    )


def test_h_to_schur_rejects_a_bad_transition_column(monkeypatch):
    import ncschur.schur as schur

    good = schur.source_skew_schur
    h = NCSymExpr.single("h", sp("1/2"))
    monkeypatch.setattr(schur, "source_skew_schur", lambda shape: good(shape).scale(2))
    with pytest.raises(ArithmeticError, match=r"^matrix not unitriangular: row 1/2, "
                       r"column 1/2 holds 2, not 1$"):
        h_to_schur(h)
    # s[12/3] picking up h[1/2/3], which comes after it in basis order
    below = NCSymExpr.single("h", sp("1/2/3"))
    monkeypatch.setattr(
        schur,
        "source_skew_schur",
        lambda shape: good(shape) + below if shape == skew((2, 1)) else good(shape),
    )
    with pytest.raises(ArithmeticError, match=r"^matrix not unitriangular: row 1/2/3, "
                       r"column 12/3 holds 1, not 0$"):
        h_to_schur(NCSymExpr.single("h", sp("12/3")))


def fraction_h_to_schur(expr: NCSymExpr) -> NCSymExpr:
    """The oracle for h_to_schur: back-substitution in Fractions over the
    columns standard_schur(pi), one rebuilt per pivot."""
    rest = dict(expr.terms)
    out = {}
    for n in sorted({sum(map(len, pi)) for pi in rest}):
        passed = set()
        for pi in reversed(basis_order(n)):
            passed.add(pi)
            c = rest.pop(pi, 0)
            if not c:
                continue
            column = standard_schur(pi).terms
            lead = parts_factorial(shape_of(pi))
            assert column[pi] * lead == 1
            out[pi] = c * lead
            for sig, a in column.items():
                if sig != pi:
                    assert sig not in passed
                    rest[sig] = rest.get(sig, 0) - out[pi] * a
    return NCSymExpr("s", out)


def same_terms(got: NCSymExpr, want: NCSymExpr) -> bool:
    """Equal as expressions, with the same Fraction coefficients in the same order."""
    return got.basis == want.basis and list(got.terms.items()) == list(want.terms.items()) and all(
        type(c) is Fraction for c in got.terms.values()
    )


def test_h_to_schur_matches_the_fraction_back_substitution():
    for n in range(7):
        for pi in set_partitions(n):
            h = NCSymExpr.single("h", pi)
            assert same_terms(h_to_schur(h), fraction_h_to_schur(h)), pi


_h_indices = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.sampled_from(set_partitions(n))
)
_h_coeffs = st.fractions(max_denominator=12, min_value=Fraction(-7), max_value=Fraction(7))


@given(st.dictionaries(_h_indices, _h_coeffs, max_size=8))
@settings(max_examples=80, deadline=None)
def test_h_to_schur_matches_the_oracle_on_mixed_degrees(terms):
    h = NCSymExpr("h", terms)
    assert same_terms(h_to_schur(h), fraction_h_to_schur(h))


def counting_sources(monkeypatch):
    import ncschur.schur as schur

    calls = []
    good = schur.source_skew_schur
    monkeypatch.setattr(schur, "source_skew_schur", lambda shape: calls.append(shape) or good(shape))
    return calls


def test_h_to_schur_builds_one_source_function_per_shape(monkeypatch):
    calls = counting_sources(monkeypatch)
    h_to_schur(NCSymExpr.single("h", sp("1/2/3/4/5/6/7")))
    assert len(calls) == len(set(calls)) == 15  # the partitions of 7


def test_a_cold_schur_transition_builds_one_source_function_per_shape(monkeypatch):
    calls = counting_sources(monkeypatch)
    schur_transition.cache_clear()
    try:
        schur_transition(5)
    finally:
        schur_transition.cache_clear()
    assert len(calls) == len(set(calls)) == 7  # the partitions of 5


def test_schur_conversion_round_trip():
    for n in range(1, 5):
        for pi in set_partitions(n):
            expr = NCSymExpr.single("s", pi)
            back = schur_basis_convert(schur_basis_convert(expr, "h"), "s")
            assert back == expr


def test_schur_commutative_image_is_jacobi_trudi():
    from ncschur.ncsym import rho

    for n in range(1, 5):
        for pi in set_partitions(n):
            lam = shape_of(pi)
            assert rho(standard_schur(pi)) == jacobi_trudi(skew(lam), "h")


def test_source_product_example():
    _, shapes = source_product((2, 1), (1,))
    assert set(shapes) == {skew((2, 1, 1)), skew((3, 2), (1,))}


def test_schur_product_examples():
    _, pairs = schur_product(parse_perm("123"), (2, 1), parse_perm("1"), (1,))
    assert {shape for _, shape in pairs} == {skew((2, 1, 1)), skew((3, 2), (1,))}
    prod, pairs = set_partition_schur_product(sp("12/3"), sp("1"))
    total = NCSymExpr.zero("h")
    for delta, shape in pairs:
        total = total + skew_schur_nc(delta, shape)
    assert to_m(total) == to_m(prod)
    assert prod == standard_schur(sp("12/3")) * standard_schur(sp("1"))


def test_tabloid_schur_rows_12_3():
    t = tableau(SkewShape((2, 1), ()), [(1, 2), (3,)])
    assert tabloid_schur(t) == NCSymExpr(
        "h",
        {sp("12/3"): Fraction(1), sp("123"): Fraction(-1, 3)},
    )


def test_tabloid_schur_needs_straight_shape():
    t = tableau(SkewShape((2, 2), (1,)), [(1,), (2, 3)])
    with pytest.raises(ValueError):
        tabloid_schur(t)


def test_tabloids_sum_to_rosas_sagan():
    assert rs_refinement_check(skew((2, 1)))
    assert rs_refinement_check(skew((2, 2), (1,)))


def test_specht_vector_sign_under_column_swap():
    shape = SkewShape((2, 1), ())
    t = tableau(shape, [(1, 2), (3,)])
    t_swapped = tableau(shape, [(3, 2), (1,)])
    assert specht_vector(t_swapped) == -specht_vector(t)


def test_specht_ranks():
    assert specht_rank((2, 1)) == syt_count((2, 1)) == 2
    assert specht_rank((2, 2)) == syt_count((2, 2)) == 2
    assert specht_rank((3, 1)) == syt_count((3, 1)) == 3
    assert specht_rank((2, 1, 1)) == 0
    assert specht_rank((4,)) == 1
    assert specht_rank((1, 1)) in (0, 1)


def test_specht_rank_matches_the_filling_oracle():
    for n in range(6):
        for lam in partitions(n):
            assert specht_rank(lam) == specht_rank_oracle(lam), lam


def _relabel(w, t):
    # the tableau with every entry x replaced by w(x)
    return YoungTableau(t.shape, tuple(tuple(w[x - 1] for x in row) for row in t.rows))


def test_specht_vector_moves_with_its_filling():
    # w applied to the Specht vector of t is the Specht vector of w.t, with
    # sign +1: the orbit closure in specht_rank rests on this
    for n in range(1, 6):
        swaps = [
            tuple(range(1, i)) + (i + 1, i) + tuple(range(i + 2, n + 1)) for i in range(1, n)
        ]
        moves = list(permutations(n)) if n <= 4 else swaps
        for lam in partitions(n):
            for t in fillings(lam):
                v = specht_vector(t)
                for w in moves:
                    assert specht_vector(_relabel(w, t)) == delta_action(w, v), (t, w)


def test_rosas_sagan_degree_2():
    assert rosas_sagan(skew((2,))) == NCSymExpr(
        "m", {sp("12"): Fraction(2), sp("1/2"): Fraction(1)}
    )
    assert rosas_sagan(skew((1, 1))) == NCSymExpr(
        "m", {sp("1/2"): Fraction(1)}
    )


def test_rosas_sagan_matches_tableau_oracle():
    from ncschur.ncsym import oracle_expand

    for shape in [
        skew((2,)),
        skew((1, 1)),
        skew((2, 1)),
        skew((3, 1)),
        skew((2, 2), (1,)),
        skew((3, 1), (1,)),
    ]:
        k = min(shape.size, 3)
        assert oracle_expand(rosas_sagan(shape), k) == rosas_sagan_oracle(shape, k)


def test_rs_lr_expansions():
    assert rs_lr_expand(skew((2, 2), (1,))) == [((2, 1), 1)]
    assert sorted(rs_lr_expand(skew((2, 1), (1,)))) == [((1, 1), 1), ((2,), 1)]


def test_rs_lr_expand_lists_each_nonzero_lr_coefficient_in_partition_order():
    for shape in skew_shapes(5, 3):
        per_nu = [
            (nu, littlewood_richardson(shape.outer, shape.inner, nu))
            for nu in partitions(shape.size)
        ]
        assert rs_lr_expand(shape) == [(nu, c) for nu, c in per_nu if c], str(shape)


def test_skew_kostka_identity():
    for shape in (skew((3, 2), (1,)), skew((2, 2, 1), (1,))):
        assert skew_kostka_check(shape, rs_lr_expand(shape))


def test_rs_coproduct():
    for n in range(1, 5):
        for lam in partitions(n):
            for i in range(n + 1):
                assert rs_coproduct_check(lam, i)


def test_schur_and_transposed_bases_differ_at_degree_3():
    schur_set = {frozenset(to_m(standard_schur(pi)).terms.items()) for pi in set_partitions(3)}
    transposed_set = {
        frozenset(to_m(transposed_schur(pi)).terms.items()) for pi in set_partitions(3)
    }
    assert schur_set != transposed_set


def test_permuted_basis_has_full_rank():
    rng = random.Random(7)
    n = 4
    count = len(basis_order(n))
    for _ in range(3):
        delta = tuple(rng.sample(range(1, n + 1), n))
        family = permuted_basis(delta, n)
        assert family_rank(family, n) == count


def test_permuted_basis_identity_is_standard():
    n = 3
    family = permuted_basis(tuple(range(1, n + 1)), n)
    assert family == [standard_schur(pi) for pi in basis_order(n)]
