"""One monkeypatched fault per library layer, each with the suite that must
report it, run at the smallest size that does. A fault that no suite
catches at any size is a layer that ``ncschur verify`` does not check."""

from array import array

import pytest

from ncschur import combinat, lgv, ncsym, schur, sym
from ncschur.combinat import SemistandardTableau, SkewShape
from ncschur.verify import (
    suite_lgv,
    suite_ncschur_triangular,
    suite_prod,
    suite_rslr,
    suite_rsrefines,
    suite_specht,
)

# ---------------------------------------------------------------------------
# set-partition enumeration


@pytest.fixture
def enumeration_without_14_23(monkeypatch):
    """combinat._set_partitions with 14/23 dropped from degree 4. The real
    enumeration and ncsym.basis_order, which sorts it, are cached, so both
    caches are cleared before the fault and again after it."""
    good = combinat._set_partitions
    good.cache_clear()
    ncsym.basis_order.cache_clear()
    monkeypatch.setattr(combinat, "_set_partitions", lambda n: tuple(
        pi for pi in good(n) if pi != ((1, 4), (2, 3))))
    yield
    monkeypatch.undo()
    good.cache_clear()
    ncsym.basis_order.cache_clear()


def test_rsrefines_catches_a_set_partition_missing_from_the_enumeration(
        enumeration_without_14_23):
    # smallest size: 4. rosas_sagan spreads the row 4's Kostka numbers over
    # the enumerated set partitions, so it misses 14/23, which to_m of the
    # symmetrized source function reaches with 2!2!·K(4, 2.2) = 4
    assert suite_rsrefines(max_size=3).ok
    report = suite_rsrefines(max_size=4)
    assert not report.ok
    assert report.counterexample == "4"


def test_prod_reports_a_slash_factor_missing_from_the_enumeration(enumeration_without_14_23):
    # smallest size: 5. 1|14/23 = 1/25/34 splits after 1, and its right
    # factor 14/23 has no expansion among the degree-4 factors: the suite
    # reports the split rather than raising KeyError
    assert suite_prod(max_size=4).ok
    report = suite_prod(max_size=5)
    assert not report.ok
    assert report.counterexample == "h: pi=1 sig=14/23"


def test_ncschur_triangular_reports_a_schur_column_entry_missing_from_the_enumeration(
        enumeration_without_14_23):
    # smallest size: 4. The Schur column of 1/23/4 holds 14/23, which has
    # no row in the transition matrix: the suite names it rather than
    # raising KeyError
    assert suite_ncschur_triangular(max_n=3).ok
    report = suite_ncschur_triangular(max_n=4)
    assert not report.ok
    assert report.counterexample == "n=4: 14/23 is not in basis_order(4)"


# ---------------------------------------------------------------------------
# the Jacobi-Trudi determinant


def walk_with_the_top_down_sign(rows, i, used, sign, entries, out):
    """combinat._leibniz counting the placed columns right of the new one,
    as a walk from the top row would, where the bottom-up walk counts
    those left of it."""
    if i < 0:
        out.append((sign, entries))
        return
    for j, c in rows[i]:
        if not used >> j & 1:
            flip = (used >> (j + 1)).bit_count() & 1
            walk_with_the_top_down_sign(rows, i - 1, used | 1 << j, -sign if flip else sign,
                                        (c,) + entries, out)


def test_rsrefines_catches_a_sign_flip_in_the_determinant_walk(monkeypatch):
    monkeypatch.setattr(combinat, "_leibniz", walk_with_the_top_down_sign)
    # smallest size: 0 cells, with inner shapes of size 2. The first shape
    # with two rows is 1.1/1.1, whose one term, the identity, is placed in
    # column 1, then column 0 with column 1 right of it: its sign turns -1
    assert suite_rsrefines(max_size=0, inner_cap=1).ok
    report = suite_rsrefines(max_size=0, inner_cap=2)
    assert not report.ok
    assert report.counterexample == "1.1/1.1"


# ---------------------------------------------------------------------------
# basis change through p


def test_rsrefines_catches_a_code_read_back_with_the_last_element_moved(monkeypatch):
    good = ncsym._CodedLattice.masks

    def moved(self, code):
        # the block masks of the code, element n moved into the first block
        if not self.n:
            return good(self, code)
        top = 1 << self.n - 1
        masks = [m & ~top for m in good(self, code)]
        masks[0] |= top
        return tuple(m for m in masks if m)

    monkeypatch.setattr(ncsym._CodedLattice, "masks", moved)
    # smallest size: 2. At degree 1 the one element is already in the first
    # block; to_m of the degree-2 h-expression reads p through the fault
    assert suite_rsrefines(max_size=1).ok
    for size in (2, 3):
        report = suite_rsrefines(max_size=size)
        assert not report.ok
        assert report.counterexample == "2"


def test_rsrefines_catches_an_up_set_scatter_that_doubles_the_top(monkeypatch):
    good = ncsym._up_sets

    def doubled(terms, tops=None):
        # p_tau = sum of m_sigma over sigma >= tau, with m of the one-block
        # sigma counted twice once tau has three blocks or more
        terms = list(terms)
        out = good(terms, tops)
        if tops is None:
            for masks, a in terms:
                if len(masks) >= 3:
                    out[(sum(masks),)] += a
        return out

    monkeypatch.setattr(ncsym, "_up_sets", doubled)
    # smallest size: 3. Every source reaches m through the scatter from p;
    # the first shape of size 3 is the row 3, whose source function h_123
    # has the p-term p_1/2/3
    assert suite_rsrefines(max_size=2).ok
    report = suite_rsrefines(max_size=3)
    assert not report.ok
    assert report.counterexample == "3"


# ---------------------------------------------------------------------------
# Littlewood-Richardson coefficients and Kostka numbers


def fill_without_lattice_prune(cells, count, out):
    """sym._lr_fill with its lattice condition dropped: it counts every
    semistandard filling whose entries stay within their row's bound."""
    fill_every(cells, 0, [0] * len(cells), count, out)


def fill_every(cells, i, vals, count, out):
    if i == len(cells):
        nu = tuple(c for c in count[1:] if c)
        out[nu] = out.get(nu, 0) + 1
        return
    right, above, cap = cells[i]
    low = 1 if above < 0 else vals[above] + 1
    high = cap if right < 0 else min(cap, vals[right])
    for v in range(low, high + 1):
        vals[i] = v
        count[v] += 1
        fill_every(cells, i + 1, vals, count, out)
        count[v] -= 1


def test_rslr_catches_lr_fillings_without_the_lattice_prune(monkeypatch):
    monkeypatch.setattr(sym, "_lr_fill", fill_without_lattice_prune)
    # smallest size: 1. The cell of 1.1/1 takes 1 or 2, and both count
    # towards nu = 1 once the lattice word is not required
    report = suite_rslr(max_size=1, inner_cap=3)
    assert not report.ok
    assert report.counterexample == "1.1/1"


def test_rslr_catches_a_raised_kostka_row_entry(monkeypatch):
    orig = schur.kostka_row

    def raised(shape):
        row = orig(shape)
        if shape == SkewShape((2, 1), ()):
            row[1, 1, 1] += 1
        return row

    monkeypatch.setattr(schur, "kostka_row", raised)
    # smallest size: 3, the size of 2.1. Both sides of the Rosas-Sagan
    # expansion of 2.1 read the raised row, so only the Kostka split, whose
    # straight rows are the m-expansions of the Schur functions
    # (sym._index_to_m, through sym's own unpatched kostka_row), tells them
    # apart
    assert suite_rslr(max_size=2, inner_cap=3).ok
    report = suite_rslr(max_size=3, inner_cap=3)
    assert not report.ok
    assert report.counterexample == "Kostka split at 2.1"


def test_rslr_catches_a_doubled_straight_kostka_row(monkeypatch):
    good = sym._index_to_m
    monkeypatch.setattr(sym, "_index_to_m", lambda basis, lam: {
        g: 2 * k for g, k in good(basis, lam).items()} if (basis, lam) == ("s", (1, 1))
        else good(basis, lam))
    # smallest size: 2, the size of 1.1. The LR coefficients and the
    # Rosas-Sagan functions read no m-expansion of a Schur function, so the
    # fault shows only in the Kostka split
    assert suite_rslr(max_size=1, inner_cap=3).ok
    report = suite_rslr(max_size=2, inner_cap=3)
    assert not report.ok
    assert report.counterexample == "Kostka split at 1.1"


def test_rslr_catches_a_straight_function_with_a_non_integer_coefficient(monkeypatch):
    good = schur.rosas_sagan

    def halved(shape):
        rs = good(shape)
        if shape != SkewShape((1, 1), ()):
            return rs
        terms = dict(rs.terms)
        pi = next(iter(terms))
        terms[pi] /= 2
        return ncsym.NCSymExpr._trusted("m", terms)

    assert suite_rslr(max_size=2, inner_cap=3).ok
    monkeypatch.setattr(schur, "rosas_sagan", halved)
    # smallest size: 2, the size of 1.1. Its straight function has the one
    # coefficient 1!1!·K(1.1, 1.1) = 1, at 1/2; halved, it is no integer
    assert suite_rslr(max_size=1, inner_cap=3).ok
    report = suite_rslr(max_size=2, inner_cap=3)
    assert not report.ok
    assert report.counterexample == "non-integer coefficient in the straight function of 1.1"


# ---------------------------------------------------------------------------
# lattice-path meetings and the swap


def first_meeting_column(p, q):
    """lgv.last_meeting_column scanning from the left: it returns the
    first column in which the paths meet."""
    for x in range(max(p.start_x, q.start_x), min(p.end_x, q.end_x) + 1):
        (p_lo, p_hi), (q_lo, q_hi) = p.run(x), q.run(x)
        if (p_hi is None or q_lo <= p_hi) and (q_hi is None or p_lo <= q_hi):
            return x
    return None


def meeting_column_of_strict_overlap(p, q):
    """lgv.last_meeting_column with each run's ends excluded from the
    overlap test, so runs that touch in one point count as apart."""
    for x in range(min(p.end_x, q.end_x), max(p.start_x, q.start_x) - 1, -1):
        (p_lo, p_hi), (q_lo, q_hi) = p.run(x), q.run(x)
        if (p_hi is None or q_lo < p_hi) and (q_hi is None or p_lo < q_hi):
            return x
    return None


# suite_lgv checks the source paper's worked swap after its range, so a
# fault that the range misses is reported as this counterexample
WORKED_EXAMPLE_312456 = ("worked example swap 3.3.2/1.1: xi = 312456, not 342156\n"
                         "-1: 2,2,3\n0: 3\n-3: 1,3")


def test_lgv_catches_runs_that_touch_counted_as_apart(monkeypatch):
    monkeypatch.setattr(lgv, "last_meeting_column", meeting_column_of_strict_overlap)
    # smallest size: 2. On 1.1 at cap 1, with the start points swapped, the
    # first path's run in column -1 is the single point (-1, 1), where the
    # second path starts. The two paths meet there, but the faulty swap
    # leaves the tuple fixed though its matching is not the identity. At
    # size 1 the range passes, and only the worked example fails
    assert suite_lgv(max_size=1).counterexample == WORKED_EXAMPLE_312456
    report = suite_lgv(max_size=2)
    assert not report.ok
    assert report.counterexample == "fixed-point shape wrong: 1.1 k=1\n-2: 1,1\n-1: "


def test_lgv_catches_a_swap_at_the_first_meeting_column(monkeypatch):
    monkeypatch.setattr(lgv, "last_meeting_column", first_meeting_column)
    # exchanging the steps left of the first meeting column is a
    # sign-reversing involution too, with the same fixed points and
    # height-preserving labels: it moves 162 of the 6086 swaps of the
    # default range, and the range passes at its defaults (and at size 5
    # with cap 3 or size 4 with cap 5, inner shapes of size <= 3). Only the
    # source paper's worked example, which the suite checks after its
    # range, tells the two swaps apart
    report = suite_lgv()
    assert not report.ok
    assert report.counterexample == WORKED_EXAMPLE_312456


def test_lgv_catches_a_swap_whose_first_path_starts_one_column_left(monkeypatch):
    good = lgv.lgv_swap

    def shifted(P):
        P2, xi = good(P)
        if not P2.paths:
            return P2, xi
        first = P2.paths[0]
        return P2._replace(paths=(first._replace(start_x=first.start_x - 1),)
                           + P2.paths[1:]), xi

    # lgv_swap builds its result without path_tuple's checks, so a bad
    # splice shows as an image outside the enumeration. Smallest size: 0.
    # The one tuple of 1/1 is a path without east steps, fixed by the swap
    monkeypatch.setattr(lgv, "lgv_swap", shifted)
    report = suite_lgv(max_size=0)
    assert not report.ok
    assert report.counterexample == "not an involution: 1/1 k=1\n0: "


def tableau_with_reversed_rows(P):
    """lgv.tuple_to_tableau reading each path's east-step heights from its
    last step to its first."""
    return SemistandardTableau(P.shape, tuple(p.heights[::-1] for p in P.paths))


def test_lgv_reports_fixed_points_that_miss_the_fillings(monkeypatch):
    monkeypatch.setattr(lgv, "tuple_to_tableau", tableau_with_reversed_rows)
    # smallest size: 2, cap 2, no inner shape. A reversed row differs from
    # the row only when it holds two distinct entries: the row 1,2 of
    # shape 2 reads as 2,1, which is no filling
    assert suite_lgv(max_size=1, height_cap=2, inner_cap=0).ok
    assert suite_lgv(max_size=2, height_cap=1, inner_cap=0).ok
    report = suite_lgv(max_size=2, height_cap=2, inner_cap=0)
    assert not report.ok
    assert report.counterexample == "fixed points do not match fillings: 2 k=2"


# ---------------------------------------------------------------------------
# word expansion


def test_lgv_catches_a_wrong_h_weight_through_the_integer_bridge(monkeypatch):
    good = ncsym._h_weights

    def wrong(size, k):
        vals = good(size, k)
        if (size, k) == (2, 2):
            # the word x1 x2 in a block of two letters: weight 1, here 2
            vals = array("q", vals)
            vals[1] += 1
        return vals

    monkeypatch.setattr(ncsym, "_h_weights", wrong)
    # smallest size: 2, the first with a block of two letters; at k = 1 the
    # block's only word x1 x1 keeps its weight 2
    assert suite_lgv(max_size=1).ok
    report = suite_lgv(max_size=2)
    assert not report.ok
    assert report.counterexample == "word bridge fails: 2 k=2"


# ---------------------------------------------------------------------------
# Specht ranks


def test_specht_catches_a_standard_tableau_dropped_from_one_shape(monkeypatch):
    good = schur._standard_words

    def one_short(lam):
        words = list(good(lam))
        return words[:-1] if lam == (3, 2) else words

    # _standard_words recurses through its module-global name, so the
    # patch reaches every level; dropping a word at each one would leave no
    # word and every rank 0, so only 3.2 loses one, its last
    monkeypatch.setattr(schur, "_standard_words", one_short)
    # smallest size: 5. The other four vectors of 3.2 stay independent
    assert suite_specht(max_n=4).ok
    report = suite_specht()
    assert not report.ok
    assert report.counterexample == "lam=3.2 rank=4 expected 5"
