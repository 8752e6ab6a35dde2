"""Exact dense linear algebra over the rationals: ranks of Specht
families, the determinant of the normalized Schur transition matrix, and
the Kostka inverse behind the commutative m-to-s change. The NCSym basis
changes do not come through here; the tests use the dense inverse as the
oracle they are checked against. Matrices are lists of lists of Fraction;
nothing here mutates its arguments.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]


def _copy(mat) -> Matrix:
    return [[Fraction(x) for x in row] for row in mat]


def rank(mat) -> int:
    a = _copy(mat)
    if not a:
        return 0
    rows, cols = len(a), len(a[0])
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == rows:
            break
    return r


def determinant(mat) -> Fraction:
    a = _copy(mat)
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def inverse(mat) -> Matrix:
    a = _copy(mat)
    n = len(a)
    aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def solve(mat, rhs) -> list[Fraction]:
    """Solve a square nonsingular system mat @ x = rhs."""
    n = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(mat)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [aug[i][n] for i in range(n)]


def mat_vec(mat, vec) -> list[Fraction]:
    return [sum((x * v for x, v in zip(row, vec)), Fraction(0)) for row in mat]
