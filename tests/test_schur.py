import random
from fractions import Fraction

import pytest

from ncschur.combinat import (
    SkewShape,
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
from ncschur.ncsym import NCSymExpr, basis_order, delta_action, to_m
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

    good = schur.standard_schur
    h = NCSymExpr.single("h", sp("1/2"))
    monkeypatch.setattr(schur, "standard_schur", lambda pi: good(pi).scale(2))
    with pytest.raises(ArithmeticError, match="leading coefficient"):
        h_to_schur(h)
    # s[12/3] picking up h[1/2/3], which comes after it in basis order
    below = NCSymExpr.single("h", sp("1/2/3"))
    monkeypatch.setattr(
        schur,
        "standard_schur",
        lambda pi: good(pi) + below if pi == sp("12/3") else good(pi),
    )
    with pytest.raises(ArithmeticError, match="not triangular"):
        h_to_schur(NCSymExpr.single("h", sp("12/3")))


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
    assert skew_kostka_check(skew((3, 2), (1,)))
    assert skew_kostka_check(skew((2, 2, 1), (1,)))


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
