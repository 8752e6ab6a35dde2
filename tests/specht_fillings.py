"""The Specht rank by direct construction: the Specht vector of every
column-increasing filling of the shape, found among all n! fillings (less
those that repeat a vector, see oracle_fillings), and the rank of that
family. It shares no code with the elimination over the standard tableaux
in schur.specht_rank and serves as its oracle."""

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


def oracle_fillings(lam):
    """The fillings of fillings(lam) whose first row increases over the
    columns of height 1, those from lam[1] on. They give every Specht
    vector of the shape: permuting the entries of those cells within their
    row keeps the tabloid of t, so its tabloid Schur function, and it fixes
    every entry of the other columns, so it commutes with the column
    stabilizer, which is unchanged; the signed stabilizer sum applied to
    the same tabloid function is the same vector. For the shape n this
    leaves one filling of the n! there are."""
    start = lam[1] if len(lam) > 1 else 0
    for t in fillings(lam):
        tail = t.rows[0][start:] if t.rows else ()
        if list(tail) == sorted(tail):
            yield t


def specht_rank_oracle(lam) -> int:
    n = sum(lam)
    return family_rank([specht_vector(t) for t in oracle_fillings(lam)], n) if n else 1
