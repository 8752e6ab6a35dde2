"""The identity checks that live only in the verify suites report a
counterexample when the library breaks the identity. The library calls are
monkeypatched to return wrong answers; the ranges are small."""

import re
import tracemalloc
from array import array

import pytest

from ncschur import ncsym, schur
from ncschur.combinat import (
    format_set_partition,
    parse_set_partition,
    set_partitions,
    slash,
    sp_size,
    syt_count,
)
from ncschur.verify import (
    _is_outer_product,
    suite_iota,
    suite_lgv,
    suite_ncschur_triangular,
    suite_prod,
    suite_rslr,
    suite_rsrefines,
    suite_specht,
    suite_transpose,
)


def test_rslr_catches_a_dropped_pair(monkeypatch):
    orig = schur.rs_lr_expand

    def drop_first(shape):
        pairs = orig(shape)
        return pairs[1:] if len(pairs) > 1 else pairs

    monkeypatch.setattr(schur, "rs_lr_expand", drop_first)
    report = suite_rslr(max_size=3, inner_cap=1)
    assert not report.ok
    assert report.counterexample == "2.1/1"


def test_prod_catches_a_wrong_source_shape_list(monkeypatch):
    orig = schur.source_product
    monkeypatch.setattr(
        schur, "source_product", lambda lam, mu: (orig(lam, mu)[0], orig(lam, mu)[1][:1])
    )
    report = suite_prod(max_size=3)
    assert not report.ok
    assert report.counterexample == "lam=1 mu=1"


def test_prod_catches_a_wrong_schur_shape_list(monkeypatch):
    orig = schur.set_partition_schur_product

    def drop_near_concat(pi, sig):
        prod, pairs = orig(pi, sig)
        return prod, pairs[:1]

    monkeypatch.setattr(schur, "set_partition_schur_product", drop_near_concat)
    # the word-level slash check between the two product-rule loops runs at a
    # fixed size; stub its expanders so that this test stays fast
    for basis in ("h", "e", "p"):
        monkeypatch.setitem(ncsym._EXPANDERS, basis,
                            lambda pi, k: array("q", [0]) * k ** sp_size(pi))
    report = suite_prod(max_size=2)
    assert not report.ok
    assert report.counterexample == "s: pi=1 sig=1"


def test_iota_catches_a_wrong_ribbon_sign(monkeypatch):
    orig = schur.ribbon_source
    monkeypatch.setattr(schur, "ribbon_source", lambda alpha: -orig(alpha))
    report = suite_iota(max_n=2)
    assert not report.ok
    assert report.counterexample == "ribbon alpha=1"


def test_prod_catches_factor_words_that_collide_when_concatenated(monkeypatch):
    # an expansion is an array of coefficients indexed by base-k words, so at
    # k = 2 a factor of degree 1 has 2 entries; with 3 entries the outer
    # product of two such factors has 9, and a "product" of 9 entries
    # equals it, so only the length guard catches the wrong words
    def wrong_length(pi, k):
        return array("q", [1]) * 3 ** sp_size(pi)

    factor, product = wrong_length(((1,),), 2), wrong_length(((1,), (2,)), 2)
    assert array("q", [c1 * c2 for c1 in factor for c2 in factor]) == product
    monkeypatch.setitem(ncsym._EXPANDERS, "h", wrong_length)
    report = suite_prod(max_size=2)
    assert not report.ok
    assert report.counterexample == "h: pi=1 sig=1"


def test_prod_checks_the_slash_product_of_every_pair(monkeypatch):
    # an h expansion that is wrong only on tau = slash(pi, sig) fails the
    # suite at a split of tau, for every pair of total size <= 4
    orig = ncsym._EXPANDERS["h"]
    for n in range(2, 5):
        for a in range(1, n):
            for pi in set_partitions(a):
                for sig in set_partitions(n - a):
                    tau = slash(pi, sig)

                    def wrong_on_tau(p, k, tau=tau):
                        words = orig(p, k)
                        return array("q", [c + 1 for c in words]) if p == tau else words

                    monkeypatch.setitem(ncsym._EXPANDERS, "h", wrong_on_tau)
                    report = suite_prod(max_size=4)
                    assert not report.ok, (pi, sig)
                    found = re.fullmatch(r"h: pi=(\S+) sig=(\S+)", report.counterexample)
                    assert found, report.counterexample
                    assert slash(*map(parse_set_partition, found.groups())) == tau


def test_prod_compares_tau_at_every_split(monkeypatch):
    # an h factor f that is wrong only at k = n first fails at the first tau
    # of set_partitions(n), and its first split, that has f as a factor
    # (found here through slash, not through the suite's split rule); this
    # fails if any split of a tau other than its first goes unchecked
    orig = ncsym._EXPANDERS["h"]
    for n in range(2, 5):
        pairs = [(pi, sig) for a in range(1, n) for pi in set_partitions(a)
                 for sig in set_partitions(n - a)]
        for f in {pi for pi, _ in pairs}:

            def wrong_factor(p, k, f=f, n=n):
                words = orig(p, k)
                return array("q", [c + 1 for c in words]) if (p, k) == (f, n) else words

            monkeypatch.setitem(ncsym._EXPANDERS, "h", wrong_factor)
            first = next((pi, sig) for tau in set_partitions(n) for pi, sig in pairs
                         if slash(pi, sig) == tau and f in (pi, sig))
            report = suite_prod(max_size=4)
            expected = "h: pi={} sig={}".format(*map(format_set_partition, first))
            assert report.counterexample == expected, (f, n)


@pytest.mark.parametrize("tau, a, expected", [
    # first split a = 1 <= n - a: tau's list is compared row by row
    ("1/234", 1, "h: pi=1 sig=123"),
    # first split a = 3 > n - a: tau's list is compared column by column
    ("123/4", 3, "h: pi=123 sig=1"),
])
def test_prod_compares_every_entry_of_the_slash_product(monkeypatch, tau, a, expected):
    # an h expansion of tau (n = 4, k = n) wrong in one entry only: its last
    # word, or the last entry of its first row, k^(n - a) - 1
    orig, tau, n = ncsym._EXPANDERS["h"], parse_set_partition(tau), 4
    for index in (n**n - 1, n ** (n - a) - 1):

        def wrong_once(p, k, index=index):
            words = orig(p, k)
            if p == tau:
                words = array("q", words)
                words[index] += 1
            return words

        monkeypatch.setitem(ncsym._EXPANDERS, "h", wrong_once)
        report = suite_prod(max_size=4)
        assert not report.ok, index
        assert report.counterexample == expected, index


def test_prod_finds_slash_faults_in_h_e_p_order(monkeypatch):
    # the taus of degree 3 that split are 1/2/3, 1/23 and 12/3, in that
    # order; e is wrong on the first and h on the last, so a tau-major walk
    # would name the e fault first, while one basis at a time names h's
    def wrong_on(basis, tau):
        orig = ncsym._EXPANDERS[basis]

        def wrong(p, k):
            words = orig(p, k)
            return array("q", [c + 1 for c in words]) if p == tau else words
        monkeypatch.setitem(ncsym._EXPANDERS, basis, wrong)

    wrong_on("e", parse_set_partition("1/2/3"))
    wrong_on("h", parse_set_partition("12/3"))
    report = suite_prod(max_size=3)
    assert not report.ok
    assert report.counterexample == "h: pi=12 sig=1"


def test_prod_holds_top_degree_factors_one_at_a_time():
    # one basis's factor expansions at n = 6: every set partition of degree
    # a < 6 over 6 letters, 6^a entries each, 52 of them of degree 5 (3.1
    # MiB of 3.2); the check holds those of degree <= 4 and one of degree 5
    # at a time, so its peak stays below half of the full table
    n = 6
    table = sum(len(set_partitions(a)) * n**a for a in range(1, n)) * array("q").itemsize
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert suite_prod(max_size=n).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table / 2, (peak, table)


def outer(left, right):
    return array("q", [c1 * c2 for c1 in left for c2 in right])


def test_outer_product_check_enforces_its_length():
    # rows route (len(left) <= len(right)): one extra trailing entry would
    # pass every row compare, so the length is checked first
    left, right = array("q", [1, 2]), array("q", [3, 4, 5])
    words = outer(left, right)
    assert _is_outer_product(words, left, right)
    assert not _is_outer_product(words + array("q", [99]), left, right)
    assert not _is_outer_product(words[:-1], left, right)
    assert not _is_outer_product(words + array("q", [99]), right, left)
    assert not _is_outer_product(words, left, right + array("q", [0]))


@pytest.mark.parametrize("left, right", [
    ([0, 1, 2, 2], [3, 0, 1, 2, 2, 5, 1]),  # rows: len(left) <= len(right)
    ([3, 0, 1, 2, 2, 5, 1], [0, 1, 2, 2]),  # columns: len(left) > len(right)
])
def test_outer_product_check_rejects_every_single_wrong_entry(left, right):
    left, right = array("q", left), array("q", right)
    words = outer(left, right)
    assert _is_outer_product(words, left, right)
    for index in range(len(words)):
        wrong = array("q", words)
        wrong[index] += 1
        assert not _is_outer_product(wrong, left, right), index


@pytest.mark.parametrize("left, right", [
    ([0, 1, 3], [2, 0, 5, 1, 4]),  # rows
    ([2, 0, 5, 1, 4], [0, 1, 3]),  # columns
])
def test_outer_product_check_rejects_zero_entries_scaled_wrongly(left, right):
    # words made as if a factor's 0 entries were 1s: every row (or column)
    # of a 0 entry then copies the other factor instead of being 0
    left, right = array("q", left), array("q", right)
    as_one = outer([c or 1 for c in left], right)
    assert not _is_outer_product(as_one, left, right)
    assert not _is_outer_product(outer(left, [c or 1 for c in right]), left, right)


def test_specht_catches_a_rank_that_is_neither_0_nor_the_standard_count(monkeypatch):
    orig = schur.specht_rank

    def one_short(lam):
        return syt_count(lam) - 1 if lam == (3, 2) else orig(lam)

    monkeypatch.setattr(schur, "specht_rank", one_short)
    report = suite_specht(5)
    assert not report.ok
    assert report.name == "specht"
    assert report.counterexample == "lam=3.2 rank=4 expected 5"


def test_specht_catches_a_rank_of_0_for_every_shape(monkeypatch):
    # 0 is one of the two ranks an irreducible image can have, so only the
    # repeated-odd-part rule tells it from f^lambda; the first shape, 1,
    # has no repeated part
    monkeypatch.setattr(schur, "specht_rank", lambda lam: 0)
    report = suite_specht(5)
    assert not report.ok
    assert report.counterexample == "lam=1 rank=0 expected 1"


def wrong_stabilizer_of_one_type(monkeypatch):
    # symmetrize weighs the block-size type 1.1 by 4 rather than 2
    orig = ncsym.multiplicity_factorial
    monkeypatch.setattr(
        ncsym, "multiplicity_factorial", lambda lam: orig(lam) * (2 if lam == (1, 1) else 1)
    )


def test_rsrefines_catches_a_wrong_orbit_weight(monkeypatch):
    wrong_stabilizer_of_one_type(monkeypatch)
    report = suite_rsrefines(max_size=3)
    assert not report.ok
    assert report.counterexample == "1.1"


def test_lgv_catches_a_wrong_bridge_image(monkeypatch):
    wrong_stabilizer_of_one_type(monkeypatch)
    report = suite_lgv(max_size=2, height_cap=2)
    assert not report.ok
    assert report.counterexample == "word bridge fails: 1.1 k=1"


def test_transpose_catches_a_negated_transposed_schur(monkeypatch):
    orig = schur.transposed_schur
    monkeypatch.setattr(schur, "transposed_schur", lambda pi: -orig(pi))
    report = suite_transpose(max_n=2)
    assert not report.ok
    assert report.counterexample == "1"


def test_ncschur_triangular_catches_a_diagonal_entry_that_is_not_1(monkeypatch):
    # degree 1's matrix [[1]] becomes [[2]], of determinant 2
    good = schur.normalized_schur_transition

    def doubled(n):
        mat = good(n)
        if n == 1:
            mat[0][0] *= 2
        return mat

    monkeypatch.setattr(schur, "normalized_schur_transition", doubled)
    report = suite_ncschur_triangular(max_n=2)
    assert not report.ok
    assert report.counterexample == "n=1: diagonal entry at 1"


def test_ncschur_triangular_catches_an_entry_below_the_diagonal(monkeypatch):
    # degree 2 is the first with an entry below the diagonal: row 1/2, column 12
    good = schur.normalized_schur_transition

    def filled(n):
        mat = good(n)
        if n == 2:
            mat[1][0] = 1
        return mat

    monkeypatch.setattr(schur, "normalized_schur_transition", filled)
    report = suite_ncschur_triangular(max_n=2)
    assert not report.ok
    assert report.counterexample == "n=2: entry below diagonal at column 12"
