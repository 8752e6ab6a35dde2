import itertools

import pytest

from ncschur.combinat import (
    ParseError,
    SkewShape,
    canonical_set_partition,
    compositions,
    concat,
    contains,
    delta_pi,
    format_partition,
    format_perm,
    format_set_partition,
    interval_partition,
    jacobi_trudi_terms,
    kostka,
    meet,
    near_concat,
    parse_partition,
    parse_perm,
    parse_set_partition,
    parse_skew,
    partition_stats,
    partitions,
    refines,
    ribbon_shape,
    set_partitions,
    shape_of,
    shifted_concat,
    skew,
    slash,
    ssyt,
    syt_count,
    tableau,
    transpose,
)
from ncschur.verify import skew_shapes


def test_partition_stats_example():
    assert partition_stats((3, 2, 2, 1)) == (24, 2, (4, 3, 1))


def test_transpose_involution():
    for n in range(7):
        for lam in partitions(n):
            assert transpose(transpose(lam)) == lam


def test_partitions_counts():
    assert [sum(1 for _ in partitions(n)) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]


def test_compositions_counts():
    assert [sum(1 for _ in compositions(n)) for n in range(1, 7)] == [1, 2, 4, 8, 16, 32]


def test_set_partition_counts_are_bell_numbers():
    assert [len(set_partitions(n)) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]


def test_slash_example():
    pi = parse_set_partition("134/25")
    sig = parse_set_partition("1/23")
    assert format_set_partition(slash(pi, sig)) == "134/25/6/78"


def test_meet_and_refinement():
    pi = parse_set_partition("134/25")
    assert meet(pi, pi) == pi
    bottom = canonical_set_partition([(1,), (2,), (3,), (4,), (5,)])
    assert meet(pi, bottom) == bottom
    assert refines(bottom, pi)
    assert not refines(pi, bottom)


def test_delta_pi_example():
    _, delta = delta_pi(parse_set_partition("169/2/378/45"))
    assert format_perm(delta) == "169378452"


def test_delta_pi_identity_for_intervals():
    lam = (3, 2, 1)
    _, delta = delta_pi(interval_partition(lam))
    assert delta == tuple(range(1, 7))


def test_concat_and_near_concat_shapes():
    assert concat((2, 1), (1,)) == skew((2, 1, 1))
    assert near_concat((2, 1), (1,)) == skew((3, 2), (1,))
    assert concat((1,), (2, 1)) == skew((2, 2, 1), (1,))
    assert near_concat((1,), (2, 1)) == skew((3, 1))


def test_ribbon_shape():
    assert ribbon_shape((1, 2)) == skew((2, 2), (1,))
    assert ribbon_shape((3,)) == skew((3,))
    assert ribbon_shape((1, 1, 1)) == skew((1, 1, 1))


def test_shifted_concat_example():
    assert format_perm(shifted_concat((1, 3, 4, 2, 5), (1, 2, 3))) == "13425678"


def test_kostka_values():
    assert kostka(skew((2, 1)), (1, 1, 1)) == 2
    assert kostka(skew((2, 1)), (2, 1)) == 1
    assert kostka(skew((3,)), (1, 1, 1)) == 1
    assert kostka(skew((2, 2), (1,)), (2, 1)) == 1


def test_syt_counts():
    assert syt_count((2, 1)) == 2
    assert syt_count((2, 2)) == 2
    assert syt_count((3, 1, 1)) == 6
    assert syt_count((5,)) == 1


def test_ssyt_weakly_increase_rows_strictly_increase_columns():
    for t in ssyt(skew((2, 2), (1,)), 3):
        rows = t.rows
        assert all(rows[r][i] <= rows[r][i + 1] for r in range(2) for i in range(len(rows[r]) - 1))


def test_contains():
    assert contains((3, 2), (2, 2))
    assert not contains((3, 2), (1, 1, 1))


def test_parse_round_trips():
    assert format_partition(parse_partition("3.2.2.1")) == "3.2.2.1"
    assert parse_partition("-") == ()
    assert format_set_partition(parse_set_partition("134/25")) == "134/25"
    assert parse_perm("132") == (1, 3, 2)
    assert parse_perm("1,6,9,3,7,8,4,5,2") == (1, 6, 9, 3, 7, 8, 4, 5, 2)
    assert parse_skew("3.2.2.1/2.1") == skew((3, 2, 2, 1), (2, 1))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_partition("2.3")
    with pytest.raises(ParseError) as err:
        parse_set_partition("12/x3")
    assert err.value.pos == 3
    with pytest.raises(ParseError):
        parse_perm("122")


def test_tableau_validation():
    with pytest.raises(ValueError):
        tableau(SkewShape((2, 1), ()), [(1, 2), (2,)])
    t = tableau(SkewShape((2, 1), ()), [(1, 3), (2,)])
    assert t.reading_word() == (1, 3, 2)


def leibniz_expansion(outer, inner=()):
    """The Jacobi-Trudi determinant by brute force: every one of the ell!
    column permutations in lexicographic order, kept when no entry is
    negative, signed by its inversion count."""
    ell = len(outer)
    for eps in itertools.permutations(range(ell)):
        entries = tuple(
            outer[i] - (inner[eps[i]] if eps[i] < len(inner) else 0) - i + eps[i]
            for i in range(ell)
        )
        if any(c < 0 for c in entries):
            continue
        inversions = sum(eps[i] > eps[j] for i in range(ell) for j in range(i + 1, ell))
        yield (-1) ** inversions, entries


def test_jacobi_trudi_terms_match_the_brute_force_leibniz_expansion():
    for shape in skew_shapes(6, 3):
        got = list(jacobi_trudi_terms(shape.outer, shape.inner))
        assert got == list(leibniz_expansion(shape.outer, shape.inner)), str(shape)
    for n in range(7):
        for alpha in compositions(n):
            assert list(jacobi_trudi_terms(alpha)) == list(leibniz_expansion(alpha)), alpha
