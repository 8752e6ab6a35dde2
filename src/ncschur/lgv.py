"""Tuples of north/east lattice paths attached to a skew shape, the
sign-reversing swap on intersecting tuples, east-step labels, and the
monomials they generate.

A path starts at (start_x, 1), takes unit north and east steps, and ends
with an infinite north tail. Since the east-step heights weakly increase
along a path, the path is determined by its start and that height
sequence; the tail carries no data.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple

from .combinat import (
    Perm,
    SemistandardTableau,
    SkewShape,
    check_perm,
    perm_sign,
    permutations,
    ssyt,
)


class LatticePath(NamedTuple):
    """A path from (start_x, 1) to its end column x = end_x, stored as its
    weakly increasing east-step heights. In column start_x + j it runs up
    from h_j (1 when j = 0) to h_(j+1); in the end column it runs up
    forever."""

    start_x: int
    heights: tuple[int, ...]

    @property
    def end_x(self) -> int:
        return self.start_x + len(self.heights)

    def run(self, x: int) -> tuple[int, int | None]:
        """The lowest and highest heights of the path in column x, for
        start_x <= x <= end_x; the highest is None in the end column."""
        j = x - self.start_x
        return (self.heights[j - 1] if j else 1,
                self.heights[j] if j < len(self.heights) else None)

    def __str__(self):
        return f"{self.start_x}: {','.join(map(str, self.heights))}"


def path(start_x: int, heights) -> LatticePath:
    heights = tuple(heights)
    if any(h < 1 for h in heights):
        raise ValueError(f"heights must be positive: {heights}")
    if any(heights[i] > heights[i + 1] for i in range(len(heights) - 1)):
        raise ValueError(f"heights must weakly increase: {heights}")
    return LatticePath(start_x, heights)


class PathTuple(NamedTuple):
    shape: SkewShape
    eps: Perm  # which inner row each start point comes from
    paths: tuple[LatticePath, ...]

    def sign(self) -> int:
        return perm_sign(self.eps)

    def label_heights(self) -> tuple[int, ...]:
        """East-step heights in label order: path by path, and along each
        path left to right, bottom to top."""
        return tuple(h for p in self.paths for h in p.heights)

    def dump(self) -> str:
        return "\n".join(str(p) for p in self.paths)


def path_tuple(shape: SkewShape, eps: Perm, paths) -> PathTuple:
    eps = check_perm(eps)
    paths = tuple(paths)
    ell = len(shape.outer)
    if len(eps) != ell or len(paths) != ell:
        raise ValueError("need one path per row of the outer shape")
    for i, p in enumerate(paths):
        if p.start_x != shape.inner_at(eps[i] - 1) - eps[i]:
            raise ValueError(f"path {i + 1} starts at the wrong point")
        if p.end_x != shape.outer[i] - (i + 1):
            raise ValueError(f"path {i + 1} ends at the wrong point")
    return PathTuple(shape, eps, paths)


def enumerate_path_tuples(
    shape: SkewShape, eps: Perm, height_cap: int
) -> Iterator[PathTuple]:
    """All tuples for the given start-point matching whose east-step
    heights are at most the cap; empty when some path would need a
    negative number of east steps."""
    if height_cap < 1:
        raise ValueError("height cap must be at least 1")
    eps = check_perm(eps)
    ell = len(shape.outer)
    counts = []
    for i in range(ell):
        m = (shape.outer[i] - (i + 1)) - (shape.inner_at(eps[i] - 1) - eps[i])
        if m < 0:
            return
        counts.append(m)
    pools = [
        [
            LatticePath(shape.inner_at(eps[i] - 1) - eps[i], hs)
            for hs in itertools.combinations_with_replacement(
                range(1, height_cap + 1), counts[i]
            )
        ]
        for i in range(ell)
    ]
    for choice in itertools.product(*pools):
        yield PathTuple(shape, eps, choice)


def all_path_tuples(shape: SkewShape, height_cap: int) -> Iterator[PathTuple]:
    for eps in permutations(len(shape.outer)):
        yield from enumerate_path_tuples(shape, eps, height_cap)


# ---------------------------------------------------------------------------
# intersections and the swap

def last_meeting_column(p: LatticePath, q: LatticePath) -> int | None:
    """The largest column in which the two paths share a point, or None
    when they never meet. Two paths meet in a column exactly when their
    runs there overlap, and since x + y increases strictly along a path,
    their last common point lies in this column. Paths whose end columns
    coincide meet there, in their infinite tails."""
    for x in range(min(p.end_x, q.end_x), max(p.start_x, q.start_x) - 1, -1):
        (p_lo, p_hi), (q_lo, q_hi) = p.run(x), q.run(x)
        if (p_hi is None or q_lo <= p_hi) and (q_hi is None or p_lo <= q_hi):
            return x
    return None


def _split_labels(paths) -> list[list[int]]:
    """Global labels of the east steps, path by path."""
    out = []
    next_label = 1
    for p in paths:
        out.append(list(range(next_label, next_label + len(p.heights))))
        next_label += len(p.heights)
    return out


def lgv_swap(P: PathTuple) -> tuple[PathTuple, Perm]:
    """The sign-reversing swap: locate the largest index whose path meets
    another, the largest partner index, and the column a of their last
    common point; then exchange the two paths' east steps left of column a.
    Returns the swapped tuple and the label-exchange permutation."""
    paths = P.paths
    ell = len(paths)
    # partners are tried from the largest index down, so the first that
    # meets path i is the largest
    target = next(
        ((i, j, a)
         for i in range(ell - 1, -1, -1)
         for j in range(ell - 1, -1, -1)
         if j != i and (a := last_meeting_column(paths[i], paths[j])) is not None),
        None,
    )
    n = sum(len(p.heights) for p in paths)
    if target is None:
        return P, tuple(range(1, n + 1))
    i, j, a = target
    cut_i = a - paths[i].start_x
    cut_j = a - paths[j].start_x
    new_i = LatticePath(
        paths[j].start_x, paths[j].heights[:cut_j] + paths[i].heights[cut_i:]
    )
    new_j = LatticePath(
        paths[i].start_x, paths[i].heights[:cut_i] + paths[j].heights[cut_j:]
    )
    new_paths = list(paths)
    new_paths[i], new_paths[j] = new_i, new_j
    new_eps = list(P.eps)
    new_eps[i], new_eps[j] = new_eps[j], new_eps[i]
    P2 = path_tuple(P.shape, tuple(new_eps), new_paths)

    # each east step keeps its identity through the splice; read off where
    # every original label lands in the relabelled tuple
    old = _split_labels(paths)
    carried = list(old)
    carried[i] = old[j][:cut_j] + old[i][cut_i:]
    carried[j] = old[i][:cut_i] + old[j][cut_j:]
    xi = [0] * n
    pos = 1
    for labels in carried:
        for lab in labels:
            xi[lab - 1] = pos
            pos += 1
    return P2, tuple(xi)


def monomial(delta: Perm, P: PathTuple) -> tuple[int, ...]:
    """The word of east-step heights read in the order the permutation
    lists the labels."""
    heights = P.label_heights()
    if len(delta) != len(heights):
        raise ValueError("permutation size must match the number of east steps")
    return tuple(heights[delta[j] - 1] for j in range(len(delta)))


def is_self_intersecting(P: PathTuple) -> bool:
    return any(
        last_meeting_column(P.paths[i], P.paths[j]) is not None
        for i in range(len(P.paths))
        for j in range(i + 1, len(P.paths))
    )


# ---------------------------------------------------------------------------
# fixed points and tableaux

def tuple_to_tableau(P: PathTuple) -> SemistandardTableau:
    """Row i of the filling reads off the east-step heights of path i."""
    return SemistandardTableau(P.shape, tuple(p.heights for p in P.paths))


def fixed_points_to_ssyt(shape: SkewShape, height_cap: int):
    """The correspondence between non-intersecting identity-matched tuples
    and semistandard fillings with bounded entries. Returns the list of
    (tuple, filling) pairs after verifying it is a bijection."""
    ell = len(shape.outer)
    identity = tuple(range(1, ell + 1))
    pairs = []
    images = set()
    for P in enumerate_path_tuples(shape, identity, height_cap):
        if is_self_intersecting(P):
            continue
        t = tuple_to_tableau(P)
        if t.rows in images:
            raise ArithmeticError(f"correspondence not injective at {P}")
        images.add(t.rows)
        pairs.append((P, t))
    expected = {t.rows for t in ssyt(shape, height_cap)}
    if images != expected:
        raise ArithmeticError(
            f"fixed points do not match fillings for {shape} at cap {height_cap}"
        )
    return pairs


def signed_ledger(shape: SkewShape, height_cap: int):
    """Rows (sign, monomial word for the identity ordering, start matching,
    fixed-point flag) for every enumerated tuple; the TSV payload of the
    path-checking command."""
    rows = []
    for P in all_path_tuples(shape, height_cap):
        P2, _ = lgv_swap(P)
        n = sum(len(p.heights) for p in P.paths)
        delta = tuple(range(1, n + 1))
        rows.append((P.sign(), monomial(delta, P), P.eps, P2 == P))
    return rows
