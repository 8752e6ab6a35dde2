"""Tuples of north/east lattice paths attached to a skew shape, the
sign-reversing swap on intersecting tuples, east-step labels, and the
monomials they generate.

A path starts at (start_x, 1), takes unit north and east steps, and ends
with an infinite north tail. Since the east-step heights weakly increase
along a path, the path is determined by its start and that height
sequence; the tail carries no data. Path i starts in column
inner_{eps_i} - eps_i and ends in column outer_i - i, a rule that only
`_bounds` writes down. The swap splices two such paths at a common point,
so it builds its result without the re-validation of `path_tuple`.
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


def _bounds(shape: SkewShape, eps: Perm) -> list[tuple[int, int]]:
    """Each path's (start, end) column under the start-point matching."""
    if len(eps) != len(shape.outer):
        raise ValueError("need one path per row of the outer shape")
    return [(shape.inner_at(e - 1) - e, shape.outer[i] - (i + 1))
            for i, e in enumerate(eps)]


def path_tuple(shape: SkewShape, eps: Perm, paths) -> PathTuple:
    eps = check_perm(eps)
    paths = tuple(paths)
    bounds = _bounds(shape, eps)
    if len(paths) != len(bounds):
        raise ValueError("need one path per row of the outer shape")
    for i, (p, (start, end)) in enumerate(zip(paths, bounds), 1):
        if p.start_x != start:
            raise ValueError(f"path {i} starts at the wrong point")
        if p.end_x != end:
            raise ValueError(f"path {i} ends at the wrong point")
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
    bounds = _bounds(shape, eps)
    if any(end < start for start, end in bounds):
        return
    pools = [[LatticePath(start, hs) for hs in itertools.combinations_with_replacement(
        range(1, height_cap + 1), end - start)] for start, end in bounds]
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
    firsts = list(itertools.accumulate((len(p.heights) for p in paths), initial=1))
    if target is None:
        return P, tuple(range(1, firsts[-1]))
    i, j, a = target
    new_paths, new_eps = list(paths), list(P.eps)
    # each east step keeps its label through the splice; xi sends a label
    # to its position in the swapped tuple
    old = [range(firsts[r], firsts[r + 1]) for r in range(ell)]
    labels = list(old)
    for r, s in ((i, j), (j, i)):
        cut_r, cut_s = a - paths[r].start_x, a - paths[s].start_x
        new_paths[r] = LatticePath(
            paths[s].start_x, paths[s].heights[:cut_s] + paths[r].heights[cut_r:])
        new_eps[r] = P.eps[s]
        labels[r] = [*old[s][:cut_s], *old[r][cut_r:]]
    xi = [0] * (firsts[-1] - 1)
    for pos, lab in enumerate(itertools.chain.from_iterable(labels), 1):
        xi[lab - 1] = pos
    return PathTuple(P.shape, tuple(new_eps), tuple(new_paths)), tuple(xi)


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
    return [(P.sign(), P.label_heights(), P.eps, lgv_swap(P)[0] == P)
            for P in all_path_tuples(shape, height_cap)]
