"""Text encodings round-trip at every size up to n = 12: set partitions
and permutations switch to the comma form from 10, and partitions and
compositions with parts of 10 or more keep their dot form."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ncschur.combinat import format_perm, format_set_partition, parse_perm, parse_set_partition
from ncschur.ncsym import NCSymExpr
from ncschur.nsym import NSymExpr
from ncschur.sym import SymExpr

sizes = st.integers(min_value=0, max_value=12)


@st.composite
def set_partitions(draw, n=sizes):
    """A set partition of {1..n} in canonical form: each element goes into
    one of the blocks opened so far or opens a new one."""
    blocks: list[list[int]] = []
    for x in range(1, draw(n) + 1):
        i = draw(st.integers(min_value=0, max_value=len(blocks)))
        if i == len(blocks):
            blocks.append([])
        blocks[i].append(x)
    return tuple(map(tuple, blocks))


perms = sizes.flatmap(lambda n: st.permutations(range(1, n + 1))).map(tuple)
coeffs = st.fractions(max_denominator=12, min_value=Fraction(-9), max_value=Fraction(9))
big_parts = st.lists(st.integers(min_value=1, max_value=14), max_size=5).map(tuple)


def same(f, g):
    # basis and terms as stored: == would change basis through the monomials
    return type(f) is type(g) and f.basis == g.basis and f.terms == g.terms


@given(set_partitions())
@settings(max_examples=60, deadline=None)
def test_set_partition_text_round_trips(pi):
    text = format_set_partition(pi)
    assert ("," in text) == (sum(map(len, pi)) >= 10 and any(len(b) > 1 for b in pi))
    assert parse_set_partition(text) == pi


@given(perms)
@settings(max_examples=60, deadline=None)
def test_perm_text_round_trips(delta):
    text = format_perm(delta)
    assert ("," in text) == (len(delta) >= 10)
    assert parse_perm(text) == delta


@given(st.sampled_from(NCSymExpr.BASES), st.dictionaries(set_partitions(), coeffs, max_size=4))
@settings(max_examples=40, deadline=None)
def test_ncsym_json_round_trips(basis, terms):
    f = NCSymExpr(basis, terms)
    assert same(NCSymExpr.from_json(f.to_json()), f)


@given(st.sampled_from(SymExpr.BASES), st.dictionaries(big_parts, coeffs, max_size=4))
@settings(max_examples=40, deadline=None)
def test_sym_json_round_trips_with_large_parts(basis, terms):
    f = SymExpr(basis, {tuple(sorted(lam, reverse=True)): c for lam, c in terms.items()})
    assert same(SymExpr.from_json(f.to_json()), f)


@given(st.sampled_from(NSymExpr.BASES), st.dictionaries(big_parts, coeffs, max_size=4))
@settings(max_examples=40, deadline=None)
def test_nsym_json_round_trips_with_large_parts(basis, terms):
    f = NSymExpr(basis, terms)
    assert same(NSymExpr.from_json(f.to_json()), f)
