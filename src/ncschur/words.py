"""The expansion of NCSym expressions into noncommuting words over
x_1..x_k: integer word vectors per degree (word_vectors), their decoding
into an NCPoly (oracle_expand), and the brute-force expansion straight from
the tuple-pattern definitions (naive_expand), the oracles the identity
suites and the tests compare with. Only ``expand --vars`` and ``verify``
load this module.
"""

from __future__ import annotations

import itertools
import math
import operator
from array import array
from fractions import Fraction

from .combinat import (
    SetPartition,
    format_set_partition,
    meet,
    parts_factorial,
    set_partitions,
    shape_of,
    sp_size,
)
from .ncsym import NCSymExpr, to_h_or_e

# expansion into words makes an array("q") of k^n coefficients per index, 8
# bytes a word (8 MB at the word limit); each coefficient of one index is at
# most n!, far inside int64 (an expression's, scaled to one denominator, may
# not be: see word_vectors); anything past these is a mistake, not a job
ORACLE_DEGREE_LIMIT = 8
ORACLE_WORD_LIMIT = 10**6


class DegreeGuardError(ValueError):
    pass


_ZERO = array("q", [0])  # repeated into a zero vector of any length


def _check_size(basis: str, pi: SetPartition, k: int):
    n, name = sp_size(pi), f"oracle expansion of {basis}[{format_set_partition(pi)}]"
    if n > ORACLE_DEGREE_LIMIT:
        raise DegreeGuardError(f"{name}: degree {n} exceeds the limit {ORACLE_DEGREE_LIMIT}")
    if k**n > ORACLE_WORD_LIMIT:
        raise DegreeGuardError(
            f"{name} over {k} variables: {k**n} words exceed the limit {ORACLE_WORD_LIMIT}"
        )


def _spread(vals: array, letters, target, k: int) -> array:
    """Weights over the digits of letters (positions, increasing), indexed
    base k in position order, repeated over the sorted positions target
    that contain them, as an array("q"): run by run from the right, a run
    of free positions repeats each chunk of k^(positions to its right)
    entries k^(run length) times. Where the chunks outnumber the chunk *
    copies entries of one repeated chunk, the copy goes column by column
    instead: the strided column vals[t::chunk] lands at every place
    t + j * chunk of the repeat."""
    inside = {i for i, x in enumerate(target, 1) if x in letters}
    end = len(target)
    while end > 0:
        start = end
        while start and start not in inside:
            start -= 1
        if start < end:  # the positions start + 1..end are free
            chunk, copies = k ** (len(target) - end), k ** (end - start)
            width = chunk * copies
            if len(vals) // chunk > width:
                spread = _ZERO * (len(vals) * copies)
                for t in range(chunk):
                    column = vals[t::chunk]
                    for j in range(t, width, chunk):
                        spread[j::width] = column
            else:
                # grown from its first piece, not from an empty array: when
                # vals is one chunk that piece is the whole result, and an
                # empty start would copy it once more and free the first
                # copy, whose pages glibc hands back to the OS for the next
                # vector of that size to fault in again
                spread = vals[:chunk] * copies
                for i in range(chunk, len(vals), chunk):
                    spread += vals[i:i + chunk] * copies
            vals = spread
        end = start - 1
    return vals


def _outer(left: array, right: array) -> array:
    """Entry i * len(right) + j is left[i] * right[j]: the longer factor is
    scaled once per distinct entry of the shorter (1 reuses it, 0 repeats
    _ZERO) and copied in as rows, or as strided columns if right is shorter."""
    width = len(right)
    short, long_ = (left, right) if len(left) <= width else (right, left)
    scaled = {c: long_ if c == 1 else _ZERO * len(long_) if c == 0
              else array("q", map(c.__mul__, long_)) for c in set(short)}
    if short is left:
        # grown from its first row, not from an empty array, as _spread
        # grows its vectors (see there); that row is copied, since
        # scaled[1] is long_ itself, a factor's own array
        product = scaled[left[0]][:]
        for c in left[1:]:
            product += scaled[c]
        return product
    product = _ZERO * (len(left) * width)
    for j, c in enumerate(right):
        product[j::width] = scaled[c]
    return product


def _words(n: int, k: int, pools) -> array:
    """The word expansion of degree n over x_1..x_k as an array("q") of k^n
    coefficients: the word w_1...w_n sits at the base-k integer sum over x
    of (w_x - 1) k^(n - x). A pool is a tuple of letters (positions, in
    increasing order) and an array("q") of weights over their digits
    (letter - 1), indexed the same way. The pools multiply per interval
    component: a pool whose least letter follows every covered letter
    starts one; any other joins the last one (then each earlier one it
    reaches back to), the two spread to their joint letters and multiplied
    entry by entry over k^(its letters) entries. The components' letters
    follow each other, so their outer product (_outer), spread to 1..n once
    at the end, is the expansion. A pool whose weights are all 1 is
    skipped, and so with no other pool every word has coefficient 1."""
    parts = []  # (letters, weights) per component, in letter order
    for letters, vals in pools:
        if vals.count(1) == len(vals):
            continue
        while parts and parts[-1][0][-1] >= letters[0]:
            covered, out = parts.pop()
            joint = tuple(sorted({*covered, *letters}))
            vals = array("q", list(map(operator.mul, _spread(out, covered, joint, k),
                                       _spread(vals, letters, joint, k))))
            letters = joint
        parts.append((letters, vals))
    out, covered = array("q", [1]), ()
    for letters, vals in parts:
        out, covered = _outer(out, vals), (*covered, *letters)
    return _spread(out, covered, range(1, n + 1), k)


def _by_blocks(pi: SetPartition, k: int, weights) -> array:
    """The expansion with one pool per block of pi, its weights made by
    weights(size, k) once per block size: the p/e/h weights of a block
    depend only on its size, and are symmetric in its letters."""
    by_size: dict[int, array] = {}
    for b in pi:
        if len(b) not in by_size:
            by_size[len(b)] = weights(len(b), k)
    return _words(sp_size(pi), k, [(b, by_size[len(b)]) for b in pi])


def _scatter(size: int, k: int, tuples, place) -> array:
    # weight 1 at each tuple of digits, read at the given place values
    vals = _ZERO * k**size
    for t in tuples:
        vals[sum(map(operator.mul, t, place))] = 1
    return vals


def _expand_m(pi: SetPartition, k: int) -> array:
    # a digit per block, constant on it, distinct across blocks
    n = sp_size(pi)
    place = [sum(k ** (n - x) for x in b) for b in pi]
    return _scatter(n, k, itertools.permutations(range(k), len(pi)), place)


def _p_weights(size: int, k: int) -> array:
    # one digit repeated over the block
    return _scatter(size, k, ((v,) for v in range(k)), [sum(k**i for i in range(size))])


def _e_weights(size: int, k: int) -> array:
    # distinct digits within a block
    place = [k ** (size - 1 - i) for i in range(size)]
    return _scatter(size, k, itertools.permutations(range(k), size), place)


def _h_weights(size: int, k: int) -> array:
    # the double sum over block-fixing permutations composed with weakly
    # increasing values per block, collapsed: within one block every tuple
    # of values occurs, and the number of (sorted tuple, permutation) pairs
    # producing it is the product of its value-multiplicity factorials;
    # appending a digit d multiplies it by the number of d's then in the tuple
    vals = array("q", [1])
    for s in range(size):
        prefixes = itertools.product(range(k), repeat=s)
        vals = array("q", (v * (t.count(d) + 1)
                           for t, v in zip(prefixes, vals) for d in range(k)))
    return vals


def _expand_p(pi: SetPartition, k: int) -> array:
    return _by_blocks(pi, k, _p_weights)


def _expand_e(pi: SetPartition, k: int) -> array:
    return _by_blocks(pi, k, _e_weights)


def _expand_h(pi: SetPartition, k: int) -> array:
    return _by_blocks(pi, k, _h_weights)


_EXPANDERS = {"m": _expand_m, "p": _expand_p, "e": _expand_e, "h": _expand_h}


def word_vectors(expr: NCSymExpr, k: int) -> tuple[dict[int, array], int]:
    """The expansion into words over x_1..x_k in integers: per degree n an
    array("q") of k^n entries, indexed by base-k integers as _words
    indexes them, over one common denominator den, the lcm of the
    coefficients' denominators. Entry w of degree n is den times the
    coefficient of its word. Each term adds its scaled coefficient times
    its expansion at the expansion's nonzero entries only (an m-expansion
    has at most k! of its k^n), in Python integers; an entry past int64
    raises OverflowError when the sums become arrays: none is wrapped. The
    guards run on every term before any vector is made."""
    if k < 1:
        raise ValueError("need at least one variable")
    for pi in expr.terms:
        _check_size(expr.basis, pi, k)
    if expr.basis in ("s", "st"):
        return word_vectors(to_h_or_e(expr), k)
    expand = _EXPANDERS[expr.basis]
    den = math.lcm(*(c.denominator for c in expr.terms.values()))
    sums: dict[int, list[int]] = {}
    for pi, c in expr.terms.items():
        n, a, vals = sp_size(pi), c.numerator * (den // c.denominator), expand(pi, k)
        acc = sums.setdefault(n, [0] * len(vals))
        for w in itertools.compress(range(len(vals)), vals):
            acc[w] += a * vals[w]
    try:
        return {n: array("q", acc) for n, acc in sums.items()}, den
    except OverflowError:
        raise OverflowError(f"word vectors at k = {k}: a coefficient times the common "
                            f"denominator {den} leaves int64") from None


def oracle_expand(expr: NCSymExpr, k: int) -> NCPoly:
    """Exact truncated expansion into words over x_1..x_k: the integer word
    vectors of word_vectors, whose indices name a word only with its
    length, decoded here with their common denominator."""
    from .ncpoly import NCPoly

    vectors, den = word_vectors(expr, k)
    return NCPoly(k, {
        tuple(w // k ** (n - x) % k + 1 for x in range(1, n + 1)): Fraction(c, den)
        for n, vals in vectors.items() for w, c in enumerate(vals) if c
    })


def naive_expand(basis: str, pi: SetPartition, k: int) -> NCPoly:
    """Independent brute-force expansion straight from the tuple-pattern
    definitions: every tuple in {1..k}^n is tested against the membership
    condition. The h-basis goes through its defining monomial expansion."""
    from .ncpoly import NCPoly

    n = sp_size(pi)
    _check_size(basis, pi, k)
    if basis == "h":
        out = NCPoly.zero(k)
        for sig in set_partitions(n):
            c = parts_factorial(shape_of(meet(sig, pi)))
            out = out + naive_expand("m", sig, k).scale(c)
        return out
    where = {x: i for i, b in enumerate(pi) for x in b}
    terms: dict = {}
    for word in itertools.product(range(1, k + 1), repeat=n):
        ok = True
        for j in range(n):
            for l in range(j + 1, n):
                same_block = where[j + 1] == where[l + 1]
                if basis == "m" and (word[j] == word[l]) != same_block:
                    ok = False
                elif basis == "p" and same_block and word[j] != word[l]:
                    ok = False
                elif basis == "e" and same_block and word[j] == word[l]:
                    ok = False
                if not ok:
                    break
            if not ok:
                break
        if ok:
            terms[word] = terms.get(word, Fraction(0)) + 1
    return NCPoly(k, terms)
