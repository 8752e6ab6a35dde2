import contextlib
import hashlib
import io
import itertools
from bisect import bisect_left, bisect_right

import pytest

from ncschur import cli
from ncschur.combinat import SkewShape, permutations, skew, ssyt
from ncschur.lgv import (
    LatticePath,
    all_path_tuples,
    enumerate_path_tuples,
    fixed_points_to_ssyt,
    is_self_intersecting,
    last_meeting_column,
    lgv_swap,
    monomial,
    path,
    path_tuple,
    signed_ledger,
    tuple_to_tableau,
)
from ncschur.verify import _relabel_tally, skew_shapes
from combinat_helpers import perm_compose

# the range that ``verify lgv`` checks at its defaults
DEFAULT_RANGE = [(shape, k) for shape in skew_shapes(4, 2) for k in (1, 2, 3)]


def worked_example():
    shape = SkewShape((3, 3, 2), (1, 1))
    return path_tuple(
        shape,
        (2, 1, 3),
        [path(-1, (2, 2, 3)), path(0, (3,)), path(-3, (1, 3))],
    )


def test_path_validation():
    with pytest.raises(ValueError):
        path(0, (2, 1))
    with pytest.raises(ValueError):
        path(0, (0, 1))
    assert path(3, ()).end_x == 3


def runs(p):
    """The path's run in each of its columns, left to right."""
    return [p.run(x) for x in range(p.start_x, p.end_x + 1)]


def test_path_geometry():
    p = path(0, (1, 1, 3))
    assert runs(p) == [(1, 1), (1, 1), (1, 3), (3, None)]


def test_x_range_matches_counting_east_steps():
    # height y lies on column x's run exactly when x is between the number
    # of east steps below y and the number at or below y, past the start
    for r in range(5):
        for heights in itertools.combinations_with_replacement(range(1, 5), r):
            for start in (0, 2):
                p = path(start, heights)
                for x in range(start, p.end_x + 1):
                    lo, hi = p.run(x)
                    for y in range(1, max(heights, default=1) + 3):
                        below = start + sum(1 for h in heights if h < y)
                        at_or_below = start + sum(1 for h in heights if h <= y)
                        on_run = lo <= y and (hi is None or y <= hi)
                        assert on_run == (below <= x <= at_or_below), (p, x, y)


def test_path_tuple_start_and_end_validation():
    shape = SkewShape((2, 1), ())
    with pytest.raises(ValueError):
        path_tuple(shape, (1, 2), [path(0, (1,)), path(-2, ())])
    good = path_tuple(shape, (1, 2), [path(-1, (1, 1)), path(-2, (1,))])
    assert good.label_heights() == (1, 1, 1)


@pytest.mark.parametrize("eps", [(1,), (1, 2, 3)])
def test_a_matching_of_the_wrong_length_is_rejected(eps):
    # one start point per row of the outer shape, two here
    shape = skew((3, 2), (1,))
    paths = [path(0, (1, 1)), path(-2, (1,))]
    with pytest.raises(ValueError, match="one path per row"):
        list(enumerate_path_tuples(shape, eps, 2))
    with pytest.raises(ValueError, match="one path per row"):
        path_tuple(shape, eps, paths[:len(eps)])


def test_common_points_ordered_by_coordinate_sum():
    p = path(0, (1, 3))
    q = path(-1, (1, 1, 2))
    pts = bisect_common_points(p, q)
    sums = [x + y for x, y in pts]
    assert sums == sorted(sums)
    # the last common point is the tails' witness (2, 5), above (2, 3) and
    # (2, 4) on the shared end column
    assert pts[-3:] == [(2, 3), (2, 4), (2, 5)]
    assert last_meeting_column(p, q) == last_x(pts) == 2
    assert last_meeting_column(path(0, (1,)), path(2, (3,))) is None


def test_worked_example_swap():
    P = worked_example()
    P2, xi = lgv_swap(P)
    assert xi == (3, 4, 2, 1, 5, 6)
    assert P2 != P
    assert P2.sign() == -P.sign()


def test_worked_example_monomial():
    P = worked_example()
    assert monomial((3, 1, 5, 4, 6, 2), P) == (3, 2, 1, 3, 3, 2)
    assert monomial((1, 2, 3, 4, 5, 6), P) == P.label_heights()


def test_swap_preserves_monomial_through_relabelling():
    P = worked_example()
    P2, xi = lgv_swap(P)
    delta = (3, 1, 5, 4, 6, 2)
    assert monomial(delta, P) == monomial(perm_compose(xi, delta), P2)


def test_swap_is_a_sign_reversing_involution():
    shape = skew((2, 2), (1,))
    for P in all_path_tuples(shape, 3):
        P2, xi = lgv_swap(P)
        if is_self_intersecting(P):
            assert P2 != P
            assert P2.sign() == -P.sign()
            P3, xi2 = lgv_swap(P2)
            assert P3 == P
            assert perm_compose(xi, xi2) == tuple(range(1, len(xi) + 1))
        else:
            assert P2 == P


def test_enumeration_skips_impossible_matchings():
    # with this matching one path would need a negative number of east steps
    shape = skew((3, 1), (2,))
    assert list(enumerate_path_tuples(shape, (2, 1), 2)) == []


def test_fixed_point_counts():
    pairs = fixed_points_to_ssyt(skew((2, 1)), 2)
    assert len(pairs) == len(list(ssyt(skew((2, 1)), 2))) == 2
    for k in (1, 2, 4):
        assert len(fixed_points_to_ssyt(skew((1,)), k)) == k


def test_fixed_points_match_tableaux():
    for shape in [skew((2, 1)), skew((2, 2), (1,)), skew((3, 1))]:
        for cap in (2, 3):
            pairs = fixed_points_to_ssyt(shape, cap)
            for P, t in pairs:
                assert tuple_to_tableau(P).rows == t.rows
                assert not is_self_intersecting(P)


def test_signed_ledger_shape():
    rows = signed_ledger(skew((2,)), 2)
    assert all(len(row) == 4 for row in rows)
    assert {row[0] for row in rows} <= {1, -1}
    fixed = [row for row in rows if row[3]]
    assert len(fixed) == len(list(ssyt(skew((2,)), 2)))


def test_signed_ledger_cancellation():
    # signed monomials of non-fixed tuples cancel in pairs
    for shape in [skew((2, 1)), skew((2, 2), (1,))]:
        totals = {}
        for sgn, word, _, fixed in signed_ledger(shape, 2):
            if not fixed:
                word = tuple(sorted(word))
                totals[word] = totals.get(word, 0) + sgn
        assert all(v == 0 for v in totals.values())


def bisect_common_points(p, q):
    """The per-height reference: the x-extents of both paths at every
    height up to one above the highest east step, by bisection, and a
    witness above that when the tails coincide."""
    def x_range(path, y):
        return (path.start_x + bisect_left(path.heights, y),
                path.start_x + bisect_right(path.heights, y))

    top = max([1, *p.heights, *q.heights]) + 1
    out = []
    for y in range(1, top + 1):
        (p_lo, p_hi), (q_lo, q_hi) = x_range(p, y), x_range(q, y)
        out.extend((x, y) for x in range(max(p_lo, q_lo), min(p_hi, q_hi) + 1))
    if p.end_x == q.end_x:
        out.append((p.end_x, top + 1))
    return sorted(out, key=lambda pt: pt[0] + pt[1])


def last_x(points):
    """The x of the last point, or None when there is none."""
    return points[-1][0] if points else None


def test_a_path_is_its_start_and_heights():
    # the end column's run has no top, even on a path with no east step
    p = path(2, ())
    assert p.end_x == 2 and runs(p) == [(1, None)]
    # the path stores nothing beyond the tuple
    p = path(0, (1, 1, 3))
    assert p == (0, (1, 1, 3)) and hash(p) == hash((0, (1, 1, 3)))
    assert not hasattr(p, "__dict__")


def test_common_points_match_the_bisect_reference_on_the_default_range():
    pairs = {
        (p, q)
        for shape, k in DEFAULT_RANGE
        for P in all_path_tuples(shape, k)
        for p, q in itertools.permutations(P.paths, 2)
    }
    assert len(pairs) == 5312
    bad = [(p, q) for p, q in pairs
           if last_meeting_column(p, q) != last_x(bisect_common_points(p, q))]
    assert bad == []


def test_common_points_match_the_bisect_reference_across_tops():
    # paths of unequal tops meet on the lower one's end column, or not
    paths = [path(start, hs) for start in (-2, 0, 1)
             for r in range(4) for hs in itertools.combinations_with_replacement(range(1, 5), r)]
    assert len(paths) ** 2 == 11025
    for p in paths:
        for q in paths:
            assert last_meeting_column(p, q) == last_x(bisect_common_points(p, q)), (p, q)


def test_every_swap_of_the_default_range_lands_in_the_enumeration():
    count = 0
    for shape, k in DEFAULT_RANGE:
        tuples = list(all_path_tuples(shape, k))
        enumerated = set(tuples)
        for P in tuples:
            assert lgv_swap(P)[0] in enumerated, (shape, k, P.dump())
        count += len(tuples)
    assert count == 6086


def test_every_swap_of_the_default_range_is_a_valid_height_preserving_relabelling():
    # lgv_swap builds its result without path_tuple's checks; they run here
    for shape, k in DEFAULT_RANGE:
        for P in all_path_tuples(shape, k):
            P2, xi = lgv_swap(P)
            assert path_tuple(P2.shape, P2.eps, P2.paths) == P2, P.dump()
            hp, hp2 = P.label_heights(), P2.label_heights()
            assert sorted(xi) == list(range(1, len(hp) + 1)), P.dump()
            assert all(hp[i] == hp2[xi[i] - 1] for i in range(len(hp))), P.dump()


@pytest.mark.parametrize("shape", [skew((2, 1)), skew((2, 2), (1,)), skew((3, 1), (1,))])
def test_height_word_tallies_equal_the_per_permutation_monomial_tallies(shape):
    # the tallies are keyed by content, the sorted label-height word
    n = shape.size
    deltas = list(permutations(n))
    for k in (1, 2, 3):
        by_delta, by_content = {}, {}
        for P in all_path_tuples(shape, k):
            for delta in deltas:
                word = monomial(delta, P)
                by_delta[word] = by_delta.get(word, 0) + P.sign()
            content = tuple(sorted(P.label_heights()))
            by_content[content] = by_content.get(content, 0) + P.sign()
        assert _relabel_tally(by_content) == by_delta


# sha256 of the ``lgv-check`` ledgers of DEFAULT_RANGE, in order, printed by
# the per-height common points, then by per-path point tables, before the
# meeting column came from column runs
LEDGERS_SHA256 = "bfc66847d82c6b1791977579af9194f06668aa9372da41a57899ca7198b5ae9d"


def test_lgv_check_ledgers_are_pinned():
    digest = hashlib.sha256()
    for shape, k in DEFAULT_RANGE:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["lgv-check", "--shape", str(shape), "--cap", str(k)]) == 0
        digest.update(out.getvalue().encode())
    assert digest.hexdigest() == LEDGERS_SHA256
