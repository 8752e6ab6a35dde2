"""The Specht rank by direct construction: the Specht vector of every
column-increasing filling of the shape, found among all n! fillings, and
the rank of that family. It shares no code with the elimination over the
standard tableaux in schur.specht_rank and serves as its oracle."""

import itertools

from ncschur.combinat import SkewShape, YoungTableau
from ncschur.schur import family_rank, specht_vector


def fillings(lam):
    """All bijective fillings of the straight shape lam whose columns
    increase downwards; the remaining fillings only repeat these vectors up
    to sign, since sorting a column costs the sign of the sorting
    permutation."""
    n = sum(lam)
    shape = SkewShape(lam, ())
    for word in itertools.permutations(range(1, n + 1)):
        rows = []
        start = 0
        for p in lam:
            rows.append(word[start : start + p])
            start += p
        if all(
            rows[r - 1][c] < rows[r][c] for r in range(1, len(rows)) for c in range(len(rows[r]))
        ):
            yield YoungTableau(shape, tuple(rows))


def specht_rank_oracle(lam) -> int:
    n = sum(lam)
    return family_rank([specht_vector(t) for t in fillings(lam)], n) if n else 1
