"""Small partition and permutation helpers that only the tests call."""

from ncschur.combinat import (
    Partition,
    Perm,
    check_partition,
    multiplicity_factorial,
    parts_factorial,
    transpose,
)


def partition_stats(lam: Partition) -> tuple[int, int, Partition]:
    """Parts factorial, multiplicity factorial and transpose of a partition."""
    lam = check_partition(lam)
    return parts_factorial(lam), multiplicity_factorial(lam), transpose(lam)


def perm_compose(delta: Perm, eta: Perm) -> Perm:
    """delta after eta: i -> delta(eta(i))."""
    return tuple(delta[e - 1] for e in eta)
