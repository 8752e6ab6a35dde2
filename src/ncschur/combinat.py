"""Index combinatorics: integer partitions, compositions, set partitions,
permutations, Young tableaux and semistandard tableaux.

Conventions used throughout the package:

* an integer partition is a tuple of positive integers, weakly decreasing;
* a composition is a tuple of positive integers;
* a set partition of {1,..,n} is a tuple of blocks, each block a sorted
  tuple of integers, with the blocks ordered by least element;
* a permutation is its one-line notation, a tuple of the images of 1..n.

Text encodings (used by the CLI and JSON dumps): partition ``"3.2.2.1"``,
composition ``"2.3.1.2"``, set partition ``"134/25/6/78"`` (with commas
inside the blocks, ``"1,10/2/3/4/5/6/7/8/9"``, when n >= 10), permutation
``"1,6,9,3,7,8,4,5,2"`` (plain digit string allowed when n <= 9), skew
shape ``"3.2.2.1/2.1"``.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import factorial, prod
from operator import itemgetter, le, lt
from typing import Iterator, NamedTuple

Partition = tuple[int, ...]
Composition = tuple[int, ...]
SetPartition = tuple[tuple[int, ...], ...]
Perm = tuple[int, ...]


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


def parts_factorial(lam) -> int:
    """Product of the factorials of the parts."""
    out = 1
    for p in lam:
        out *= factorial(p)
    return out


def multiplicity_factorial(lam: Partition) -> int:
    """Product of the factorials of the part multiplicities."""
    out = 1
    for _, grp in itertools.groupby(lam):
        out *= factorial(sum(1 for _ in grp))
    return out


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
# set partitions

def canonical_set_partition(blocks) -> SetPartition:
    """Canonical form: blocks sorted, block list ordered by least element.
    Validates that the blocks partition an initial interval {1,..,n}."""
    blocks = tuple(sorted((tuple(sorted(b)) for b in blocks if b), key=lambda b: b[0]))
    seen = [x for b in blocks for x in b]
    if sorted(seen) != list(range(1, len(seen) + 1)):
        raise ValueError(f"blocks do not partition an initial interval: {blocks}")
    return blocks


def sp_size(pi: SetPartition) -> int:
    return sum(len(b) for b in pi)


def shape_of(pi: SetPartition) -> Partition:
    """Block sizes, weakly decreasing (a block is never empty)."""
    return tuple(sorted(map(len, pi), reverse=True))


def interval_partition(lam: Partition) -> SetPartition:
    """The set partition with consecutive-interval blocks of sizes lam."""
    blocks, start = [], 1
    for p in lam:
        blocks.append(tuple(range(start, start + p)))
        start += p
    return tuple(blocks)


def slash(pi: SetPartition, sigma: SetPartition) -> SetPartition:
    """Slash product: sigma's blocks shifted past pi and appended."""
    n = sp_size(pi)
    return pi + tuple(tuple(x + n for x in b) for b in sigma)


def meet(pi: SetPartition, sigma: SetPartition) -> SetPartition:
    """Greatest lower bound in the refinement order."""
    if sp_size(pi) != sp_size(sigma):
        raise ValueError("set partitions must have the same size")
    blocks = []
    for b in pi:
        bs = set(b)
        for c in sigma:
            inter = bs.intersection(c)
            if inter:
                blocks.append(tuple(sorted(inter)))
    return canonical_set_partition(blocks)


def refines(pi: SetPartition, sigma: SetPartition) -> bool:
    """Whether pi <= sigma: every block of pi lies inside a block of sigma."""
    if sp_size(pi) != sp_size(sigma):
        raise ValueError("set partitions must have the same size")
    where = {x: i for i, b in enumerate(sigma) for x in b}
    return all(len({where[x] for x in b}) == 1 for b in pi)


def mobius_top(k: int) -> int:
    """mu(bottom, top) in the lattice of set partitions of a k-element set."""
    return (-1) ** (k - 1) * factorial(k - 1)


def permute_set_partition(delta: Perm, pi: SetPartition) -> SetPartition:
    if len(delta) != sp_size(pi):
        raise ValueError("permutation size must match the set partition")
    return canonical_set_partition(tuple(delta[x - 1] for x in b) for b in pi)


def relabel(delta: Perm, pi: SetPartition) -> SetPartition:
    """permute_set_partition without its checks: delta must be a permutation
    of pi's size and pi canonical. Its blocks are disjoint, so sorting them
    as tuples orders them by least element."""
    return tuple(sorted([tuple(sorted([delta[x - 1] for x in b])) for b in pi]))


def set_partitions(n: int) -> tuple[SetPartition, ...]:
    """All set partitions of {1,..,n}, sorted by their string encoding."""
    return _set_partitions(n)


@cache
def _set_partitions(n: int) -> tuple[SetPartition, ...]:
    out: list[SetPartition] = []

    def rec(k: int, blocks: list[list[int]]):
        if k > n:
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(k)
            rec(k + 1, blocks)
            b.pop()
        blocks.append([k])
        rec(k + 1, blocks)
        blocks.pop()

    rec(1, [])
    return tuple(sorted(out, key=format_set_partition))


# ---------------------------------------------------------------------------
# permutations

def check_perm(delta: Perm) -> Perm:
    delta = tuple(delta)
    if sorted(delta) != list(range(1, len(delta) + 1)):
        raise ValueError(f"not a permutation of an initial interval: {delta}")
    return delta


def permutations(n: int) -> Iterator[Perm]:
    return itertools.permutations(range(1, n + 1))


def perm_sign(delta: Perm) -> int:
    sign, seen = 1, [False] * len(delta)
    for i in range(len(delta)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = delta[j] - 1
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def shifted_concat(delta: Perm, eta: Perm) -> Perm:
    """Shifted concatenation of one-line notations."""
    n = len(delta)
    return tuple(delta) + tuple(e + n for e in eta)


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


def format_set_partition(pi: SetPartition) -> str:
    if not pi:
        return "-"
    sep = "" if sp_size(pi) <= 9 else ","
    return "/".join(sep.join(map(str, b)) for b in pi)


def format_perm(delta: Perm) -> str:
    if len(delta) <= 9:
        return "".join(map(str, delta))
    return ",".join(map(str, delta))


class ParseError(ValueError):
    """Malformed index string; carries the offending position."""

    def __init__(self, text: str, pos: int, why: str):
        super().__init__(f"cannot parse {text!r} at position {pos}: {why}")
        self.pos = pos


def _parse_parts(text: str, validate) -> tuple[int, ...]:
    if text in ("", "-"):
        return ()
    parts = []
    pos = 0
    for piece in text.split("."):
        if not piece.isdigit():
            raise ParseError(text, pos, "expected a number")
        parts.append(int(piece))
        pos += len(piece) + 1
    try:
        return validate(parts)
    except ValueError as exc:
        raise ParseError(text, 0, str(exc)) from None


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


def parse_digit_blocks(text: str, sep: str = "") -> list[tuple[int, ...]]:
    """Slash-separated blocks of single digits, such as ``"134/25"``, or
    with sep="," of comma-separated numbers, such as ``"1,10/2"``."""
    blocks = []
    pos = 0
    for piece in text.split("/"):
        numbers = piece.split(sep) if sep else list(piece)
        if not numbers or not all(number.isdigit() for number in numbers):
            raise ParseError(text, pos, "expected a digit block")
        blocks.append(tuple(map(int, numbers)))
        pos += len(piece) + 1
    return blocks


def parse_set_partition(text: str) -> SetPartition:
    """The digit form, such as ``"134/25"``, or the comma form of degree 10
    and more, such as ``"1,10/2/3/4/5/6/7/8/9"``. Text with a comma, or not
    valid in the digit form, is read in the comma form: text valid in both
    forms has only single-digit blocks and means the same in both."""
    if text in ("", "-"):
        return ()
    error = None
    for sep in (",",) if "," in text else ("", ","):
        try:
            return canonical_set_partition(parse_digit_blocks(text, sep))
        except ParseError as exc:
            error = error or exc
        except ValueError as exc:
            error = error or ParseError(text, 0, str(exc))
    raise error


def parse_perm(text: str) -> Perm:
    if "," in text:
        pieces = text.split(",")
    else:
        pieces = list(text)
    pos = 0
    images = []
    for piece in pieces:
        if not piece.isdigit():
            raise ParseError(text, pos, "expected a number")
        images.append(int(piece))
        pos += len(piece) + 1
    try:
        return check_perm(images)
    except ValueError as exc:
        raise ParseError(text, 0, str(exc)) from None
