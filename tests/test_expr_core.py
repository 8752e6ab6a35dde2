"""The linear-combination core shared by SymExpr, NCSymExpr and NSymExpr:
add_up, equality and hashing across bases, basis validation, and the JSON
boundary."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from ncschur.cli import main
from ncschur.combinat import SkewShape, parse_set_partition, tableau
from ncschur.expr_format import add_up, back_substitute
from ncschur.ncsym import NCSymExpr, delta_action, rho
from ncschur.nsym import NSymExpr, chi, iota
from ncschur.schur import rosas_sagan, source_skew_schur, tabloid_schur
from ncschur.sym import SymExpr, jacobi_trudi


def payload(algebra, basis, *terms):
    return json.dumps(
        {
            "algebra": algebra,
            "basis": basis,
            "terms": [{"index": i, "coeff": c} for i, c in terms],
        }
    )


EQUAL_ACROSS_BASES = [
    (SymExpr.single("h", (1,)), SymExpr.single("m", (1,))),
    (
        SymExpr.single("h", (2,)),
        SymExpr("m", {(2,): Fraction(1), (1, 1): Fraction(1)}),
    ),
    (
        NCSymExpr.single("h", parse_set_partition("1")),
        NCSymExpr.single("m", parse_set_partition("1")),
    ),
    (
        NCSymExpr.single("p", parse_set_partition("12")),
        NCSymExpr.single("m", parse_set_partition("12")),
    ),
    (
        NSymExpr.single("R", (1, 1)),
        NSymExpr("H", {(1, 1): Fraction(1), (2,): Fraction(-1)}),
    ),
    (NSymExpr.single("S", (1,)), NSymExpr.single("H", (1,))),
]


@pytest.mark.parametrize("a, b", EQUAL_ACROSS_BASES, ids=repr)
def test_equal_expressions_in_different_bases_hash_equal(a, b):
    assert a.basis != b.basis
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize(
    "cls, basis",
    [
        (SymExpr, "pe"),
        (SymExpr, ""),
        (SymExpr, "mpehs"),
        (NCSymExpr, ""),
        (NCSymExpr, "s^t"),
        (NSymExpr, "HR"),
        (NSymExpr, ""),
    ],
)
def test_bogus_basis_strings_raise(cls, basis):
    with pytest.raises(ValueError):
        cls(basis)


def test_zero_and_one_defaults():
    assert SymExpr.zero().basis == "m" and SymExpr.one() == SymExpr.single("m", ())
    assert NCSymExpr.zero().basis == "m" and NCSymExpr.one().basis == "h"
    assert NSymExpr.zero().basis == "H" and str(NSymExpr.one()) == "1"


def test_expressions_are_immutable():
    for f in (SymExpr.one(), NCSymExpr.one(), NSymExpr.one()):
        with pytest.raises(AttributeError):
            f.basis = "p"


def test_sym_from_json_adds_repeated_indices():
    text = payload("sym", "h", ("2.1", "1"), ("2.1", "3"))
    assert str(SymExpr.from_json(text)) == "4 h[2.1]"


def test_nsym_from_json_adds_repeated_indices():
    text = payload("nsym", "R", ("1.2", "1/2"), ("3", "1"), ("1.2", "1/3"))
    assert NSymExpr.from_json(text) == NSymExpr(
        "R", {(1, 2): Fraction(5, 6), (3,): Fraction(1)}
    )


@pytest.mark.parametrize(
    "cls, other",
    [(NCSymExpr, "sym"), (NCSymExpr, "nsym"), (SymExpr, "ncsym"), (NSymExpr, "sym")],
)
def test_from_json_rejects_another_algebra(cls, other):
    with pytest.raises(ValueError, match=repr(other)):
        cls.from_json(payload(other, "h", ("1", "1")))


def test_cli_rejects_a_sym_payload(capsys):
    text = payload("sym", "h", ("1", "1"))
    assert main(["convert", "--expr", text, "--to", "m"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'sym'" in captured.err


def test_to_json_bytes():
    assert SymExpr("h", {(1,): 2, (2, 1): Fraction(-1, 3)}).to_json() == (
        '{"algebra": "sym", "basis": "h", "terms": [{"index": "1", "coeff": "2"}, '
        '{"index": "2.1", "coeff": "-1/3"}]}'
    )
    assert NCSymExpr(
        "st", {parse_set_partition("13/2"): 1, parse_set_partition("1"): 2}
    ).to_json() == (
        '{"algebra": "ncsym", "basis": "st", "terms": [{"index": "1", "coeff": "2"}, '
        '{"index": "13/2", "coeff": "1"}]}'
    )
    assert NSymExpr("S", {(3,): 1, (1, 2): Fraction(1, 2)}).to_json() == (
        '{"algebra": "nsym", "basis": "S", "terms": [{"index": "1.2", "coeff": "1/2"}, '
        '{"index": "3", "coeff": "1"}]}'
    )
    assert str(NCSymExpr.single("st", parse_set_partition("12"), -1)) == "-s^t[12]"


PAIRS = [
    ("a", Fraction(1, 2)),
    ("b", Fraction(1)),
    ("a", Fraction(-1, 2)),
    ("c", Fraction(2, 3)),
    ("b", Fraction(1, 3)),
]


def test_add_up_does_not_depend_on_pair_order():
    for order in itertools.permutations(PAIRS):
        assert add_up(iter(order)) == {"b": Fraction(4, 3), "c": Fraction(2, 3)}


def test_add_up_drops_zero_sums():
    assert add_up([("z", Fraction(0))]) == {}
    assert add_up([("z", Fraction(1, 3)), ("y", 2), ("z", Fraction(-1, 3))]) == {"y": 2}


def test_add_up_leaves_keys_as_they_come():
    # two spellings of one set partition stay two keys; __init__ canonicalizes
    pairs = [(((2,), (1,)), Fraction(1)), (((1,), (2,)), Fraction(2))]
    assert add_up(pairs) == dict(pairs)
    assert NCSymExpr("m", dict(pairs)).terms == {((1,), (2,)): Fraction(3)}


def unitriangular_columns(rng, order):
    """Integer columns, each 1 at its own index and random entries (some 0)
    at the indices that come after it in order."""
    return {i: {i: 1, **{j: rng.randint(-3, 3) for j in order[k + 1:]}}
            for k, i in enumerate(order)}


@pytest.mark.parametrize("seed", range(5))
# h_to_schur walks its basis order backwards, m_to_s walks partitions(n) forwards
@pytest.mark.parametrize("walk", [list, lambda r: list(reversed(r))],
                         ids=["forwards", "backwards"])
def test_back_substitute_solves_a_unitriangular_system(seed, walk):
    rng = random.Random(seed)
    order = walk(range(8))
    columns = unitriangular_columns(rng, order)
    x = {i: rng.choice([0, rng.randint(-5, 5)]) for i in order}
    rhs = add_up((j, c * a) for i, c in x.items() for j, a in columns[i].items())
    rest = dict(rhs)
    solved = back_substitute(rest, order, columns.__getitem__, str)
    assert list(solved.items()) == [(i, x[i]) for i in order if x[i]]
    assert add_up((j, c * a) for i, c in solved.items() for j, a in columns[i].items()) == rhs
    assert rest == {}


def test_back_substitute_rejects_a_leading_coefficient_that_is_not_1():
    columns = {0: {0: 2, 1: 1}, 1: {1: 1}}
    with pytest.raises(ArithmeticError, match=r"^matrix not unitriangular: row a, column a "
                       r"holds 2, not 1$"):
        back_substitute({0: 1}, [0, 1], columns.__getitem__, "ab".__getitem__)


def test_back_substitute_rejects_an_entry_at_an_index_already_passed():
    columns = {0: {0: 1}, 1: {1: 1, 0: 3}}
    with pytest.raises(ArithmeticError, match=r"^matrix not unitriangular: row a, column b "
                       r"holds 3, not 0$"):
        back_substitute({1: 1}, [0, 1], columns.__getitem__, "ab".__getitem__)


@pytest.mark.parametrize("cls", [SymExpr, NCSymExpr, NSymExpr])
@pytest.mark.parametrize("flag", ["true", "false"])
def test_from_json_rejects_a_boolean_coeff(cls, flag):
    text = f'{{"basis": "{cls.BASES[0]}", "terms": [{{"index": "1", "coeff": {flag}}}]}}'
    with pytest.raises(ValueError, match=r"terms\[0\] field 'coeff' has the wrong type"):
        cls.from_json(text)


def test_library_results_have_nonzero_fraction_coefficients():
    f = NCSymExpr("h", {parse_set_partition("13/2"): 2, parse_set_partition("1/23"): 1})
    shape = SkewShape((3, 2), (1,))
    results = [
        rho(f),
        rho(NCSymExpr.single("m", parse_set_partition("13/2"))),
        delta_action((2, 1, 3), f),
        f * f,
        jacobi_trudi(shape),
        jacobi_trudi(shape, "e"),
        iota(NSymExpr.single("R", (1, 2))),
        chi(NSymExpr.single("S", (2, 1))),
        source_skew_schur(shape),
        tabloid_schur(tableau(SkewShape((2, 1), ()), [(1, 2), (3,)])),
        rosas_sagan(SkewShape((2, 1), ())),  # K[21, 3] = 0
    ]
    for expr in results:
        assert expr.terms, expr
        assert all(type(c) is Fraction and c for c in expr.terms.values()), expr
    assert f.scale(0).is_zero()
