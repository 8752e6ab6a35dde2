"""Integer partitions, compositions, skew shapes, Young and semistandard
tableaux, Kostka numbers, and the text forms of partitions, compositions
and skew shapes: the classical side that NCSym maps onto. The set
partitions and permutations that index NCSym live in :mod:`ncschur.combinat`.

Conventions: an integer partition is a tuple of positive integers, weakly
decreasing; a composition is a tuple of positive integers. Text encodings
(used by the CLI and JSON dumps): partition ``"3.2.2.1"``, composition
``"2.3.1.2"``, skew shape ``"3.2.2.1/2.1"``.
"""

from __future__ import annotations

import itertools
from math import factorial, prod
from operator import itemgetter, le, lt
from typing import Iterator, NamedTuple

from .combinat import Composition, ParseError, Partition, Perm, SetPartition, _parse_parts


# ---------------------------------------------------------------------------
# integer partitions and compositions

def check_partition(lam: Partition) -> Partition:
    lam = tuple(lam)
    if min(lam, default=1) < 1:
        raise ValueError(f"partition parts must be positive: {lam}")
    if any(map(lt, lam, lam[1:])):
        raise ValueError(f"partition parts must weakly decrease: {lam}")
    return lam


def check_composition(alpha: Composition) -> Composition:
    alpha = tuple(alpha)
    if any(p < 1 for p in alpha):
        raise ValueError(f"composition parts must be positive: {alpha}")
    return alpha


def transpose(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= i) for i in range(1, lam[0] + 1))


def sort_to_partition(parts) -> Partition:
    """Weakly decreasing rearrangement, zero parts removed."""
    return tuple(sorted((p for p in parts if p), reverse=True))


def partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, in lexicographically decreasing order."""

    def rec(rest: int, biggest: int, prefix: tuple[int, ...]):
        if rest == 0:
            yield prefix
            return
        for p in range(min(rest, biggest), 0, -1):
            yield from rec(rest - p, p, prefix + (p,))

    yield from rec(n, n, ())


def compositions(n: int) -> Iterator[Composition]:
    """All compositions of n, ordered by their underlying subset encoding."""
    return coarsenings((1,) * n)


def coarsenings(alpha: Composition) -> Iterator[Composition]:
    """All compositions obtained by adding together adjacent parts of alpha."""
    ell = len(alpha)
    if ell == 0:
        yield ()
        return
    for cuts in itertools.product((0, 1), repeat=ell - 1):
        beta = []
        run = alpha[0]
        for i, cut in enumerate(cuts):
            if cut:
                beta.append(run)
                run = alpha[i + 1]
            else:
                run += alpha[i + 1]
        beta.append(run)
        yield tuple(beta)


def contains(lam: Partition, mu: Partition) -> bool:
    """Containment of diagrams, mu inside lam."""
    return len(mu) <= len(lam) and all(map(le, mu, lam))


# ---------------------------------------------------------------------------
# skew shapes

class SkewShape(NamedTuple("SkewShape", [("outer", Partition), ("inner", Partition)])):
    """outer/inner, checked when made: two partitions, inner inside outer."""

    __slots__ = ()

    def __new__(cls, outer: Partition, inner: Partition = ()):
        outer, inner = check_partition(outer), check_partition(inner)
        if not contains(outer, inner):
            raise ValueError(f"inner shape {inner} not contained in {outer}")
        return super().__new__(cls, outer, inner)

    # the named tuple's own _make and _replace build through tuple.__new__,
    # which would skip the check
    @classmethod
    def _make(cls, iterable) -> SkewShape:
        return cls(*iterable)

    def _replace(self, **fields) -> SkewShape:
        return type(self)(**{**self._asdict(), **fields})

    @property
    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    @property
    def rows(self) -> int:
        return len(self.outer)

    def inner_at(self, i: int) -> int:
        return self.inner[i] if i < len(self.inner) else 0

    def cells(self) -> tuple[tuple[int, int], ...]:
        """Cells (row, col), both 0-based, in row reading order."""
        out = []
        for r, p in enumerate(self.outer):
            out.extend((r, c) for c in range(self.inner_at(r), p))
        return tuple(out)

    def is_straight(self) -> bool:
        return not self.inner

    def __str__(self) -> str:
        s = format_partition(self.outer)
        return s if not self.inner else f"{s}/{format_partition(self.inner)}"


def skew(outer: Partition, inner: Partition = ()) -> SkewShape:
    return SkewShape(outer, inner)


def concat(lam: Partition, mu: Partition) -> SkewShape:
    """Diagram concatenation: the rightmost column of mu sits immediately
    below the leftmost column of lam."""
    lam, mu = check_partition(lam), check_partition(mu)
    if not mu:
        return SkewShape(lam, ())
    if not lam:
        return SkewShape(mu, ())
    shift = mu[0] - 1
    outer = tuple(p + shift for p in lam) + mu
    inner = (shift,) * len(lam) if shift else ()
    return skew(outer, inner)


def near_concat(lam: Partition, mu: Partition) -> SkewShape:
    """Near concatenation: the topmost row of mu sits immediately left of
    the bottommost row of lam, merging the two rows."""
    lam, mu = check_partition(lam), check_partition(mu)
    if not lam or not mu:
        raise ValueError("near concatenation needs two nonempty partitions")
    shift = mu[0]
    outer = tuple(p + shift for p in lam) + mu[1:]
    inner = (shift,) * (len(lam) - 1)
    return skew(outer, inner)


def ribbon_shape(alpha: Composition) -> SkewShape:
    """The ribbon diagram with row lengths alpha, top to bottom; consecutive
    rows overlap in exactly one column."""
    alpha = check_composition(alpha)
    if not alpha:
        return SkewShape((), ())
    end = [0] * len(alpha)
    end[-1] = alpha[-1]
    for i in range(len(alpha) - 2, -1, -1):
        end[i] = end[i + 1] + alpha[i] - 1
    outer = tuple(end)
    inner = tuple(end[i + 1] - 1 for i in range(len(alpha) - 1))
    return skew(outer, sort_to_partition(inner))


def jacobi_trudi_terms(
    outer: Composition, inner: Partition = ()
) -> list[tuple[int, tuple[int, ...]]]:
    """The signed Leibniz expansion of the Jacobi-Trudi determinant with
    entries outer[i] - inner[j] - i + j: for every column permutation eps
    whose entries outer[i] - inner[eps(i)] - i + eps(i) are all
    non-negative, the pair (sign of eps, entries in row order), with eps in
    lexicographic order. ``outer`` may be any composition; missing inner
    parts read 0.

    j - inner[j] strictly increases, so each row's non-negative entries
    fill a suffix of the columns, and an entry strictly increases with its
    column. The rows are walked bottom-up, a negative entry cutting its
    branch. On a skew shape (outer a partition containing inner) the
    suffixes shrink down the rows and row i's holds column i, so the row
    being placed has every column used below it in its suffix and one more
    free: every branch ends in a term, within rows * terms + 1 calls. As
    the entries of a row increase with the column, sorting the terms by
    their entries puts eps in lexicographic order."""
    ell = len(outer)
    inner = tuple(inner) + (0,) * (ell - len(inner))
    # each row's non-negative entries, as (column, entry) in column order
    rows = [[(j, c) for j in range(ell) if (c := outer[i] - inner[j] - i + j) >= 0]
            for i in range(ell)]
    out: list[tuple[int, tuple[int, ...]]] = []
    _leibniz(rows, ell - 1, 0, 1, (), out)
    out.sort(key=itemgetter(1))
    return out


def _leibniz(rows, i: int, used: int, sign: int, entries: tuple[int, ...], out: list):
    # a module-level function, not a closure: a closure that calls itself
    # is a reference cycle, which would keep out alive until the collector runs
    if i < 0:
        out.append((sign, entries))
        return
    for j, c in rows[i]:
        if used >> j & 1:
            continue
        # each row below, already placed in a column left of this one,
        # makes an inversion with it
        _leibniz(rows, i - 1, used | 1 << j, -sign if (used & (1 << j) - 1).bit_count() & 1 else sign,
                 (c,) + entries, out)


# ---------------------------------------------------------------------------
# Young tableaux (bijective fillings)

class YoungTableau(NamedTuple):
    shape: SkewShape
    rows: tuple[tuple[int, ...], ...]  # row r holds outer[r]-inner[r] entries

    @property
    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    def reading_word(self) -> Perm:
        return tuple(x for row in self.rows for x in row)


def tableau(shape: SkewShape, rows) -> YoungTableau:
    rows = tuple(tuple(r) for r in rows)
    if len(rows) != shape.rows or any(
        len(rows[i]) != shape.outer[i] - shape.inner_at(i) for i in range(len(rows))
    ):
        raise ValueError(f"rows {rows} do not fill shape {shape}")
    entries = sorted(x for r in rows for x in r)
    if entries != list(range(1, len(entries) + 1)):
        raise ValueError(f"entries must be a bijection onto an initial interval: {rows}")
    return YoungTableau(shape, rows)


def delta_pi(pi: SetPartition) -> tuple[YoungTableau, Perm]:
    """The row-sorted tableau whose rows are the blocks of pi (longer rows
    first, ties by least entry) and its reading-word permutation."""
    rows = sorted(pi, key=lambda b: (-len(b), b[0]))
    lam = tuple(len(b) for b in rows)
    t = tableau(SkewShape(lam, ()), rows)
    return t, t.reading_word()


def row_equivalence_class(t: YoungTableau) -> tuple[YoungTableau, ...]:
    """All tableaux with the same shape and the same row sets as t."""
    pools = [itertools.permutations(row) for row in t.rows]
    return tuple(
        YoungTableau(t.shape, tuple(rows)) for rows in itertools.product(*pools)
    )


def column_sets(t: YoungTableau) -> tuple[tuple[int, ...], ...]:
    cols: dict[int, list[int]] = {}
    for r, row in enumerate(t.rows):
        for j, x in enumerate(row):
            cols.setdefault(t.shape.inner_at(r) + j, []).append(x)
    return tuple(tuple(cols[c]) for c in sorted(cols))


def column_stabilizer(t: YoungTableau) -> tuple[Perm, ...]:
    """All permutations of the entry values preserving each column setwise.
    Requires a straight shape."""
    if not t.shape.is_straight():
        raise ValueError("column stabilizer needs a straight shape")
    n, cols = t.size, column_sets(t)
    perms = []
    for colperms in itertools.product(*map(itertools.permutations, cols)):
        delta = list(range(1, n + 1))
        for col, image in zip(cols, colperms):
            for src, dst in zip(col, image):
                delta[src - 1] = dst
        perms.append(tuple(delta))
    return tuple(perms)


# ---------------------------------------------------------------------------
# semistandard tableaux

class SemistandardTableau(NamedTuple):
    shape: SkewShape
    rows: tuple[tuple[int, ...], ...]

    def content_word(self) -> tuple[int, ...]:
        """Entries in the fixed box-label order: row by row, top to bottom,
        left to right."""
        return tuple(x for row in self.rows for x in row)

    def weight(self) -> tuple[int, ...]:
        word = self.content_word()
        top = max(word, default=0)
        return tuple(word.count(i) for i in range(1, top + 1))


def ssyt(shape: SkewShape, max_entry: int) -> tuple[SemistandardTableau, ...]:
    """All semistandard tableaux of the given shape with entries <= max_entry."""
    if max_entry < 1:
        raise ValueError("max_entry must be at least 1")
    cells = shape.cells()
    out: list[SemistandardTableau] = []
    filling: dict[tuple[int, int], int] = {}

    def rec(i: int):
        if i == len(cells):
            rows = tuple(
                tuple(
                    filling[(r, c)]
                    for c in range(shape.inner_at(r), shape.outer[r])
                )
                for r in range(shape.rows)
            )
            out.append(SemistandardTableau(shape, rows))
            return
        r, c = cells[i]
        lo = 1
        if (r, c - 1) in filling:
            lo = max(lo, filling[(r, c - 1)])
        if (r - 1, c) in filling:
            lo = max(lo, filling[(r - 1, c)] + 1)
        for v in range(lo, max_entry + 1):
            filling[(r, c)] = v
            rec(i + 1)
        filling.pop((r, c), None)

    rec(0)
    return tuple(out)


def kostka(shape: SkewShape, nu: Partition) -> int:
    """Number of semistandard tableaux of the given shape and content nu, by
    the branching rule (Macdonald I.5): the entries equal to the last letter
    fill a horizontal strip lam/kappa, so K(lam/mu, nu) is the sum of
    K(kappa/mu, nu less its last part) over the kappa containing mu with
    lam/kappa a horizontal strip of that size (_branch)."""
    nu = check_partition(nu)
    if shape.size != sum(nu):
        return 0
    return _branch(shape.outer, nu, tuple(shape.inner_at(i) for i in range(shape.rows)), {})


def kostka_row(shape: SkewShape) -> dict[Partition, int]:
    """Every nonzero Kostka number K(shape, nu), nu |- shape.size, in
    partitions(n) order, from one pass of the branching rule (_branch). The
    counts are kept for the pass by outer shape and the parts of nu still
    to place, so the nu that share a prefix share its count."""
    inner = tuple(shape.inner_at(i) for i in range(shape.rows))
    memo: dict = {}
    return {nu: k for nu in partitions(shape.size)
            if (k := _branch(shape.outer, nu, inner, memo))}


def _branch(lam: Partition, nu: Partition, inner: Partition, memo: dict) -> int:
    # a module-level function, not a closure: see _leibniz
    if not nu:
        return 1
    if (lam, nu) not in memo:
        # kappa_i runs between lam_(i+1) and lam_i (a horizontal strip), above inner_i
        rows = [range(max(low, nxt), top + 1)
                for top, nxt, low in zip(lam, lam[1:] + (0,), inner)]
        size = sum(lam) - nu[-1]
        memo[lam, nu] = sum(_branch(kappa, nu[:-1], inner, memo)
                            for kappa in itertools.product(*rows) if sum(kappa) == size)
    return memo[lam, nu]


def syt_count(lam: Partition) -> int:
    """Number of standard Young tableaux of straight shape lam, by the
    hook-length formula: n! over the product of the hook lengths."""
    cols = transpose(lam)
    return factorial(sum(lam)) // prod(
        row - j + cols[j] - i - 1 for i, row in enumerate(lam) for j in range(row)
    )


# ---------------------------------------------------------------------------
# text encodings

def format_partition(lam: Partition) -> str:
    return ".".join(map(str, lam)) if lam else "-"


def format_composition(alpha: Composition) -> str:
    return format_partition(alpha)


def parse_partition(text: str) -> Partition:
    return _parse_parts(text, check_partition)


def parse_composition(text: str) -> Composition:
    return _parse_parts(text, check_composition)


def parse_skew(text: str) -> SkewShape:
    outer, _, inner = text.partition("/")
    try:
        return skew(parse_partition(outer), parse_partition(inner))
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(text, 0, str(exc)) from None
