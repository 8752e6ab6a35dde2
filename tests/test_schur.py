import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncschur.combinat import (
    SkewShape,
    YoungTableau,
    column_stabilizer,
    delta_pi,
    interval_partition,
    jacobi_trudi_terms,
    parse_perm,
    parse_set_partition,
    partitions,
    parts_factorial,
    perm_sign,
    permutations,
    permute_set_partition,
    set_partitions,
    shape_of,
    skew,
    syt_count,
    tableau,
)
from ncschur.expr_format import add_up
from ncschur.ncsym import NCSymExpr, basis_order, delta_action, from_m, sp_sign, to_m
from ncschur.schur import (
    _standard_words,
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
from ncschur.sym import SymExpr, jacobi_trudi, skew_schur
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


def test_standard_schur_is_the_permuted_source_function_to_degree_6():
    # the route standard_schur took before it read the Schur column
    for n in range(7):
        for pi in set_partitions(n):
            want = delta_action(delta_pi(pi)[1], source_skew_schur(skew(shape_of(pi))))
            got = standard_schur(pi)
            assert got == want and list(got.terms) == list(want.terms), pi


def test_standard_schur_rejects_blocks_that_partition_no_initial_interval():
    with pytest.raises(ValueError, match="^blocks do not partition an initial interval"):
        standard_schur(((1,), (3,)))


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


def fraction_source(shape):
    """The determinant summed in Fractions, one sign / lambda! per Leibniz
    term: the route the integer core replaced."""
    return add_up((interval_partition(tuple(c for c in entries if c)),
                   Fraction(sign, parts_factorial(entries)))
                  for sign, entries in jacobi_trudi_terms(shape.outer, shape.inner))


def fraction_column(pi):
    """standard_schur(pi) from the Fraction determinant, by delta_action."""
    source = NCSymExpr._trusted("h", fraction_source(skew(shape_of(pi))))
    return delta_action(delta_pi(pi)[1], source).terms


def test_the_integer_core_is_the_fraction_determinant_times_the_factorials():
    import ncschur.schur as schur

    for n in range(9):
        for lam in partitions(n):
            got = schur._jacobi_trudi_counts(skew(lam))
            want = [(sig, c * parts_factorial(shape_of(sig)))
                    for sig, c in fraction_source(skew(lam)).items()]
            assert list(got.items()) == want, lam
            assert all(type(c) is int for c in got.values())


def test_source_skew_schur_keeps_the_fraction_determinant_order_and_types():
    for shape in skew_shapes(7, 3):
        got = source_skew_schur(shape).terms
        assert list(got.items()) == list(fraction_source(shape).items()), str(shape)
        assert all(type(c) is Fraction for c in got.values())


def test_normalized_schur_columns_are_the_scaled_fraction_columns():
    import ncschur.schur as schur

    column = schur._schur_columns()
    for n in range(7):
        for pi in set_partitions(n):
            got = column(pi)
            want = {sig: c * parts_factorial(shape_of(sig)) for sig, c in fraction_column(pi).items()}
            assert got == want, pi
            assert all(type(c) is int for c in got.values())


def test_transition_matrices_match_the_fraction_columns():
    for n in range(1, 6):
        order = basis_order(n)
        pos = {pi: i for i, pi in enumerate(order)}
        raw = [[Fraction(0)] * len(order) for _ in order]
        for j, pi in enumerate(order):
            for sig, c in fraction_column(pi).items():
                raw[pos[sig]][j] = c
        norm = [[parts_factorial(shape_of(sig)) * x for x in row] for sig, row in zip(order, raw)]
        got = normalized_schur_transition(n)
        assert got == norm
        assert all(type(x) is int for row in got for x in row)
        assert schur_transition(n) == raw
        assert all(type(x) is Fraction for row in schur_transition(n) for x in row)


def test_h_to_schur_example():
    got = h_to_schur(NCSymExpr.single("h", sp("13/2")))
    assert got == NCSymExpr(
        "s", {sp("13/2"): Fraction(2), sp("123"): Fraction(2)}
    )


def test_h_to_schur_rejects_a_bad_transition_column(monkeypatch):
    import ncschur.schur as schur

    good = schur._jacobi_trudi_counts
    h = NCSymExpr.single("h", sp("1/2"))
    monkeypatch.setattr(schur, "_jacobi_trudi_counts",
                        lambda shape: {sig: 2 * c for sig, c in good(shape).items()})
    with pytest.raises(ArithmeticError, match=r"^matrix not unitriangular: row 1/2, "
                       r"column 1/2 holds 2, not 1$"):
        h_to_schur(h)
    # s[12/3] picking up h[1/2/3], which comes after it in basis order
    monkeypatch.setattr(
        schur,
        "_jacobi_trudi_counts",
        lambda shape: {**good(shape), sp("1/2/3"): 1} if shape == skew((2, 1)) else good(shape),
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
    """Record each shape whose Jacobi-Trudi terms are walked and counted."""
    import ncschur.schur as schur

    calls = []
    good = schur._jacobi_trudi_counts
    monkeypatch.setattr(schur, "_jacobi_trudi_counts",
                        lambda shape: calls.append(shape) or good(shape))
    return calls


def test_h_to_schur_builds_one_source_function_per_shape(monkeypatch):
    calls = counting_sources(monkeypatch)
    h_to_schur(NCSymExpr.single("h", sp("1/2/3/4/5/6/7")))
    assert len(calls) == len(set(calls)) == 15  # the partitions of 7


def test_a_cold_schur_transition_builds_one_source_function_per_shape(monkeypatch):
    calls = counting_sources(monkeypatch)
    schur_transition(5)
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
    assert specht_rank((1, 1)) == 0


def test_standard_words_are_the_standard_tableaux():
    for n in range(9):
        for lam in partitions(n):
            words = list(_standard_words(lam))
            assert len(set(words)) == len(words) == syt_count(lam), lam
            for word in words:
                rows = [word[b[0] - 1:b[-1]] for b in interval_partition(lam)]
                assert all(list(row) == sorted(row) for row in rows), (lam, word)
                assert all(rows[r - 1][c] < rows[r][c]
                           for r in range(1, len(rows)) for c in range(len(rows[r]))), (lam, word)


def test_specht_vector_is_the_unfiltered_signed_stabilizer_sum():
    # specht_vector drops the terms that an odd column transposition fixes
    # before it walks the stabilizer; the full sum must cancel them
    for n in range(6):
        for lam in partitions(n):
            for t in fillings(lam):
                tab = tabloid_schur(t).terms
                full = add_up((permute_set_partition(delta, pi), perm_sign(delta) * c)
                              for delta in column_stabilizer(t) for pi, c in tab.items())
                assert specht_vector(t) == NCSymExpr("h", full), t


def test_specht_rank_matches_the_filling_oracle():
    # n = 7 would cost about half a minute, 12 s of it for the shape 4.3
    for n in range(7):
        for lam in partitions(n):
            assert specht_rank(lam) == specht_rank_oracle(lam), lam


def test_specht_rank_reads_no_basis_order_and_no_set_partition_enumeration(monkeypatch):
    # the pivots are the least set partitions of their rows as plain
    # tuples, so neither the basis order nor the enumeration it sorts is read
    from ncschur import combinat, ncsym, schur

    def refused(n):
        raise AssertionError(f"enumerated the set partitions of {n}")

    monkeypatch.setattr(combinat, "_set_partitions", refused)
    monkeypatch.setattr(ncsym, "basis_order", refused)
    monkeypatch.setattr(schur, "basis_order", refused)
    assert specht_rank((4, 4, 2)) == 252


def _relabel(w, t):
    # the tableau with every entry x replaced by w(x)
    return YoungTableau(t.shape, tuple(tuple(w[x - 1] for x in row) for row in t.rows))


def test_specht_vector_moves_with_its_filling():
    # w applied to the Specht vector of t is the Specht vector of w.t, with
    # sign +1: specht_rank rests on this when it takes the vector of each
    # standard tableau as its reading word applied to the vector of the
    # row-reading filling
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
    # the oracle is the Schur expansion of the Jacobi-Trudi determinant
    for shape in skew_shapes(5, 3):
        oracle = skew_schur(shape, "s").terms
        per_nu = [(nu, oracle.get(nu, 0)) for nu in partitions(shape.size)]
        assert rs_lr_expand(shape) == [(nu, c) for nu, c in per_nu if c], str(shape)


def test_skew_kostka_identity():
    for shape in (skew((3, 2), (1,)), skew((2, 2, 1), (1,))):
        assert skew_kostka_check(shape, rs_lr_expand(shape), rosas_sagan(shape))


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
