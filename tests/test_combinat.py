import itertools
import random
from fractions import Fraction

import pytest

from ncschur import lgv, schur, shapes, sym
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
    kostka_row,
    meet,
    near_concat,
    parse_partition,
    parse_perm,
    parse_set_partition,
    parse_skew,
    partitions,
    permutations,
    permute_set_partition,
    refines,
    relabel,
    ribbon_shape,
    set_partitions,
    shape_of,
    shifted_concat,
    skew,
    slash,
    sp_size,
    ssyt,
    syt_count,
    tableau,
    transpose,
)
from ncschur.ncsym import NCSymExpr
from ncschur.verify import skew_shapes
from combinat_helpers import partition_stats


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


def test_compositions_order():
    # by subset encoding: bit i of the cut set (first bit most significant)
    # cuts after position i + 1
    assert list(compositions(0)) == [()]
    assert list(compositions(4)) == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 3), (1, 2, 1), (1, 1, 2), (1, 1, 1, 1)
    ]
    for n in range(1, 9):
        expected = []
        for cuts in itertools.product((0, 1), repeat=n - 1):
            ends = [i + 1 for i, cut in enumerate(cuts) if cut] + [n]
            expected.append(tuple(b - a for a, b in zip([0, *ends], ends)))
        assert list(compositions(n)) == expected, n


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


# each of these gave a silent answer (0, {(): 1}, a nonzero h-expression,
# 12 path tuples) before a SkewShape checked itself when it is made
@pytest.mark.parametrize("entry, outer, inner, message", [
    (sym.lr_coefficients, (1,), (2,), r"inner shape \(2,\) not contained in \(1,\)"),
    (schur.source_skew_schur, (1, 2), (), r"partition parts must weakly decrease: \(1, 2\)"),
    (lambda shape: list(lgv.all_path_tuples(shape, 2)), (1, 2), (),
     r"partition parts must weakly decrease: \(1, 2\)"),
    (schur.rosas_sagan, (2,), (3,), r"inner shape \(3,\) not contained in \(2,\)"),
    (lambda shape: kostka(shape, (1,)), (1,), (2,),
     r"inner shape \(2,\) not contained in \(1,\)"),
    (sym.jacobi_trudi, (1, 2), (), r"partition parts must weakly decrease: \(1, 2\)"),
], ids=["lr_coefficients", "source_skew_schur", "all_path_tuples", "rosas_sagan", "kostka",
        "jacobi_trudi"])
def test_every_entry_point_rejects_an_invalid_skew_shape(entry, outer, inner, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        entry(SkewShape(outer, inner))


def test_a_skew_shape_checks_itself_as_skew_does():
    assert SkewShape([3, 2], [1]) == skew((3, 2), (1,)) == ((3, 2), (1,))
    assert SkewShape((2, 1)).inner == ()
    for outer, inner in [((1,), (2,)), ((1, 2), ()), ((2, 0), ()), ((2,), (1, 1))]:
        with pytest.raises(ValueError) as made:
            SkewShape(outer, inner)
        with pytest.raises(ValueError) as checked:
            skew(outer, inner)
        assert str(made.value) == str(checked.value)
    # the Jacobi-Trudi walk itself still takes a composition, as nsym needs
    assert jacobi_trudi_terms((1, 2)) == [(1, (1, 2)), (-1, (2, 1))]


def test_a_skew_shape_made_by_make_or_replace_is_checked_as_skew_does():
    shape = SkewShape((2, 1))
    assert shape._replace(inner=(1,)) == skew((2, 1), (1,))
    assert type(shape._replace(inner=(1,))) is SkewShape
    assert SkewShape._make([(3, 1), (1,)]) == skew((3, 1), (1,))
    for build in (lambda: shape._replace(inner=(3,)), lambda: SkewShape._make([(2, 1), (3,)])):
        with pytest.raises(ValueError, match=r"^inner shape \(3,\) not contained in \(2, 1\)$"):
            build()
    with pytest.raises(ValueError, match=r"^partition parts must weakly decrease: \(1, 2\)$"):
        shape._replace(outer=(1, 2))


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


def test_kostka_matches_the_tableau_enumeration():
    # the branching rule, in kostka and in kostka_row, against counting the
    # enumerated tableaux by content: the one oracle sharing no code with
    # _branch. ssyt keeps no table, so each (shape, k) is enumerated once here
    tableaux = {}
    for shape in skew_shapes(6, 3):
        row = {}
        for nu in partitions(shape.size):
            if nu and (shape, len(nu)) not in tableaux:
                tableaux[shape, len(nu)] = ssyt(shape, len(nu))
            want = sum(1 for t in tableaux[shape, len(nu)] if t.weight() == nu) if nu else 1
            assert kostka(shape, nu) == want, (shape, nu)
            if want:
                row[nu] = want
        assert list(kostka_row(shape).items()) == list(row.items()), str(shape)
    assert kostka(skew((2, 1)), (2,)) == 0
    assert kostka(skew((1,)), (1, 1)) == 0


def test_kostka_row_matches_kostka():
    # one branching pass per shape against one count per content
    for shape in skew_shapes(7, 3):
        want = [(nu, k) for nu in partitions(shape.size) if (k := kostka(shape, nu))]
        assert list(kostka_row(shape).items()) == want, str(shape)


def test_syt_counts():
    assert syt_count((2, 1)) == 2
    assert syt_count((2, 2)) == 2
    assert syt_count((3, 1, 1)) == 6
    assert syt_count((5,)) == 1
    # the hook-length formula against the branching rule with content 1^n
    for n in range(9):
        for lam in partitions(n):
            assert syt_count(lam) == kostka(skew(lam), (1,) * n), lam
    assert syt_count(()) == 1


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


def random_set_partition(rng, n):
    blocks = []
    for x in range(1, n + 1):
        i = rng.randrange(len(blocks) + 1)
        if i == len(blocks):
            blocks.append([])
        blocks[i].append(x)
    return tuple(map(tuple, blocks))


def test_set_partition_text_round_trips_at_every_size():
    rng = random.Random(10)
    seeded = [random_set_partition(rng, n) for n in range(9, 13) for _ in range(50)]
    for pi in [pi for n in range(9) for pi in set_partitions(n)] + seeded:
        text = format_set_partition(pi)
        assert ("," in text) == (sp_size(pi) >= 10 and any(len(b) > 1 for b in pi))
        assert parse_set_partition(text) == pi
        expr = NCSymExpr("e", {pi: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))})
        assert NCSymExpr.from_json(expr.to_json()).terms == expr.terms


def test_set_partition_comma_form():
    ten = parse_set_partition("1,10/2/3/4/5/6/7/8/9")
    assert ten == ((1, 10), (2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,))
    assert format_set_partition(ten) == "1,10/2/3/4/5/6/7/8/9"
    singletons = tuple((x,) for x in range(1, 11))
    assert parse_set_partition("1/2/3/4/5/6/7/8/9/10") == singletons
    assert format_set_partition(singletons) == "1/2/3/4/5/6/7/8/9/10"
    assert parse_set_partition("3,1/2") == parse_set_partition("13/2")
    for bad in ("1,/2", "1,,2", "11", "1,11/2/3/4/5/6/7/8/9", "12//3"):
        with pytest.raises(ParseError):
            parse_set_partition(bad)


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


def test_relabel_matches_permute_set_partition():
    for n in range(6):
        for delta in permutations(n):
            for pi in set_partitions(n):
                assert relabel(delta, pi) == permute_set_partition(delta, pi), (delta, pi)


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


def cofactor_expansion(outer, inner=()):
    """The Jacobi-Trudi determinant by cofactor expansion along the first
    row, each minor on a set of remaining columns expanded once: the
    terms in lexicographic column order, the sign of a cofactor (-1) to
    the position of its column among the remaining ones. Unlike the
    brute-force expansion, it reaches 12 rows."""
    ell = len(outer)
    a = [[outer[i] - (inner[j] if j < len(inner) else 0) - i + j for j in range(ell)]
         for i in range(ell)]
    minors = {(): [(1, ())]}

    def minor(cols):
        if cols not in minors:
            i = ell - len(cols)
            minors[cols] = [((-1) ** pos * sign, (a[i][j],) + entries)
                            for pos, j in enumerate(cols) if a[i][j] >= 0
                            for sign, entries in minor(cols[:pos] + cols[pos + 1:])]
        return minors[cols]

    return minor(tuple(range(ell)))


def test_jacobi_trudi_terms_match_the_brute_force_leibniz_expansion():
    for shape in skew_shapes(6, 3):
        got = list(jacobi_trudi_terms(shape.outer, shape.inner))
        assert got == list(leibniz_expansion(shape.outer, shape.inner)), str(shape)
    # nsym's immaculate elements: the rows' non-negative columns are not nested
    for n in range(8):
        for alpha in compositions(n):
            assert list(jacobi_trudi_terms(alpha)) == list(leibniz_expansion(alpha)), alpha


def test_jacobi_trudi_terms_match_the_cofactor_expansion():
    for shape in skew_shapes(5, 3):
        oracle = cofactor_expansion(shape.outer, shape.inner)
        assert oracle == list(leibniz_expansion(shape.outer, shape.inner)), str(shape)
    # up to 12 rows (1.1.1.1.1.1.1.1.1.1.1.1/1.1.1.1), past the brute force's reach
    for shape in skew_shapes(8, 4):
        got = jacobi_trudi_terms(shape.outer, shape.inner)
        assert got == cofactor_expansion(shape.outer, shape.inner), str(shape)


def test_the_determinant_walk_has_no_dead_ends(monkeypatch):
    # every call of the bottom-up walk places a row on the way to a term:
    # at most one call per row and term, and the first
    calls = 0
    walk = shapes._leibniz

    def counted(*args):
        nonlocal calls
        calls += 1
        return walk(*args)

    monkeypatch.setattr(shapes, "_leibniz", counted)
    total = 0
    for shape in skew_shapes(7, 3):
        calls = 0
        terms = jacobi_trudi_terms(shape.outer, shape.inner)
        assert calls, str(shape)  # the spy is reached: the bound is not met by 0 calls
        assert calls <= shape.rows * len(terms) + 1, str(shape)
        total += len(terms)
    assert total == 3868
