"""Index combinatorics of NCSym: set partitions with the refinement
lattice, permutations, the bridges from a set partition to its block-size
partition, and the text forms of set partitions and permutations. Integer
partitions, skew shapes and tableaux live in :mod:`ncschur.shapes`.

Conventions used throughout the package:

* a set partition of {1,..,n} is a tuple of blocks, each block a sorted
  tuple of integers, with the blocks ordered by least element;
* a permutation is its one-line notation, a tuple of the images of 1..n.

Text encodings (used by the CLI and JSON dumps): set partition
``"134/25/6/78"`` (with commas inside the blocks, ``"1,10/2/3/4/5/6/7/8/9"``,
when n >= 10), permutation ``"1,6,9,3,7,8,4,5,2"`` (plain digit string
allowed when n <= 9).
"""

from __future__ import annotations

import importlib
import itertools
from functools import cache
from math import factorial
from typing import Iterator

Partition = tuple[int, ...]
Composition = tuple[int, ...]
SetPartition = tuple[tuple[int, ...], ...]
Perm = tuple[int, ...]


# ---------------------------------------------------------------------------
# set partitions, and the bridges to their block-size partitions

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
# text encodings

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


# ---------------------------------------------------------------------------
# the integer-partition side, which moved to shapes

# public name -> the module that defines it now; the library imports these
# from there, and private helpers such as _leibniz are not resolved here
_MOVED = dict.fromkeys((
    "SemistandardTableau SkewShape YoungTableau check_composition check_partition coarsenings "
    "column_sets column_stabilizer compositions concat contains delta_pi format_composition "
    "format_partition jacobi_trudi_terms kostka kostka_row near_concat parse_composition "
    "parse_partition parse_skew partitions ribbon_shape row_equivalence_class skew "
    "sort_to_partition ssyt syt_count tableau transpose"
).split(), "shapes")


def __getattr__(name: str):
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MOVED[name]}", __package__), name)
