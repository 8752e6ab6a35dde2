"""The refinement lattice behind ncsym.convert, against oracles that share
no code with it: the coded down-sets and the up-set scatter from
combinat.refines, Moebius values from the defining recursion over refines,
and codes decoded here digit by digit."""

from math import factorial, prod

import pytest

from ncschur.combinat import canonical_set_partition, interval_partition, refines, set_partitions
from ncschur.ncsym import NCSymExpr, _CodedLattice, _masks, _up_sets, from_m, to_m

MAX_DEGREE = 6


def tops(n):
    return [1] + [(-1) ** (k - 1) * factorial(k - 1) for k in range(1, n + 1)]


def decode(code, n):
    """Element x has the digit (least element of its block) - 1 at n^(x - 1)."""
    least = [code // n ** (x - 1) % n + 1 for x in range(1, n + 1)]
    blocks = {}
    for x, low in zip(range(1, n + 1), least):
        blocks.setdefault(low, []).append(x)
    return tuple(tuple(blocks[low]) for low in sorted(blocks))


def code_of(tau, n):
    return sum((b[0] - 1) * n ** (x - 1) for b in tau for x in b)


def test_codes_read_back_into_the_masks_of_their_blocks():
    for n in range(8):
        lattice = _CodedLattice(n)
        for tau in set_partitions(n):
            code = code_of(tau, n)
            masks = lattice.masks(code)
            assert masks == tuple(_masks(tau)), tau
            blocks = tuple(tuple(x for x in range(1, n + 1) if m >> (x - 1) & 1) for m in masks)
            assert blocks == (decode(code, n) if n else ()), tau


def mobius_rows(n):
    """mu(tau, sigma) for all tau <= sigma, by mu(sigma, sigma) = 1 and
    mu(tau, sigma) = -(sum of mu(rho, sigma) over tau < rho <= sigma)."""
    parts = sorted(set_partitions(n), key=len)  # coarser partitions first
    mu = {}
    for sigma in parts:
        below = [tau for tau in parts if refines(tau, sigma)]
        for tau in below:  # in decreasing rank, so every rho above tau is done
            mu[tau, sigma] = 1 if tau == sigma else -sum(
                mu[rho, sigma] for rho in below if rho != tau and refines(tau, rho)
            )
    return mu


@pytest.fixture(scope="module")
def mobius():
    return {n: mobius_rows(n) for n in range(MAX_DEGREE + 1)}


def test_down_sets_are_the_refinements(mobius):
    for n in range(MAX_DEGREE + 1):
        lattice = _CodedLattice(n)
        for sigma in set_partitions(n):
            codes, weights = lattice.down_set(_masks(sigma), 3)
            taus = [decode(c, n) if n else () for c in codes]
            assert len(set(taus)) == len(taus), sigma
            assert set(taus) == {tau for tau in set_partitions(n) if refines(tau, sigma)}
            assert set(weights) == {3}


def test_count_weights_are_the_moebius_function(mobius):
    for n in range(MAX_DEGREE + 1):
        lattice = _CodedLattice(n, by_count=tops(n))
        for sigma in set_partitions(n):
            codes, weights = lattice.down_set(_masks(sigma))
            got = {decode(c, n) if n else (): w for c, w in zip(codes, weights)}
            assert got == {tau: mobius[n][tau, sigma] for tau in got}, sigma


def test_size_weights_are_the_moebius_function_from_the_bottom(mobius):
    for n in range(1, MAX_DEGREE + 1):
        bottom = interval_partition((1,) * n)
        lattice = _CodedLattice(n, tops(n))
        for sigma in set_partitions(n):
            codes, weights = lattice.down_set(_masks(sigma))
            got = {decode(c, n): w for c, w in zip(codes, weights)}
            assert got == {tau: mobius[n][bottom, tau] for tau in got}, sigma


@pytest.mark.parametrize("scale", [1, 5])
def test_weights_are_the_products_over_the_blocks(scale):
    # weights where a one-element block weighs by_count[1] * by_size[1] = -6,
    # not 1: tau <= sigma weighs scale times, per block B of sigma,
    # by_count[number of blocks of tau in B] times by_size[size] of each
    by_size, by_count = [1, 2, 3, 5, 7, 11, 13], [1, -3, 4, 6, -8, 9, 10]
    for n in range(MAX_DEGREE + 1):
        lattice = _CodedLattice(n, by_size, by_count)
        for sigma in set_partitions(n):
            expected = {}
            for tau in set_partitions(n):
                if refines(tau, sigma):
                    w = scale
                    for b in sigma:
                        inside = [c for c in tau if set(c) <= set(b)]
                        w *= by_count[len(inside)] * prod(by_size[len(c)] for c in inside)
                    expected[tau] = w
            for _ in range(2):  # a second call sees the same lists
                codes, weights = lattice.down_set(_masks(sigma), scale)
                got = {decode(c, n) if n else (): w for c, w in zip(codes, weights)}
                assert len(got) == len(codes) and got == expected, (sigma, scale)


def blocks_of(masks, n):
    return tuple(tuple(x for x in range(1, n + 1) if m >> (x - 1) & 1) for m in masks)


@pytest.mark.parametrize("weighted", [False, True])
def test_up_sets_are_the_coarsenings(mobius, weighted):
    # tau's up-set with weight 1, or with mu(tau, sigma) given the tops
    for n in range(MAX_DEGREE + 1):
        for tau in set_partitions(n):
            got = {blocks_of(masks, n): w for masks, w in
                   _up_sets([(tuple(_masks(tau)), 1)], tops(n) if weighted else None).items()}
            assert all(sigma == canonical_set_partition(sigma) for sigma in got), tau
            above = [sigma for sigma in set_partitions(n) if refines(tau, sigma)]
            assert got == {sigma: mobius[n][tau, sigma] if weighted else 1 for sigma in above}, tau


@pytest.mark.parametrize("target", "peh")
@pytest.mark.parametrize("index", [((1,), (2,), (3,), (4,), (5,), (6,), (7,), (8,)),
                                   ((1, 2, 3, 4, 5, 6, 7, 8),)])
def test_round_trips_at_degree_8(target, index):
    expr = NCSymExpr.single("m", index)
    assert to_m(from_m(expr, target)) == expr
