"""The linear-combination core shared by the expression classes, and the
deterministic plain-text rendering they and the CLI use. Coefficients
print as reduced fractions."""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
from math import lcm


def format_terms(basis: str, items, fmt_index) -> str:
    """Render ordered (index, coeff) pairs as e.g. ``1/2 h[13/2] - 1/6 h[123]``."""
    if not items:
        return "0"
    pieces = []
    for i, (idx, coeff) in enumerate(items):
        sign = "-" if coeff < 0 else "+"
        mag = abs(Fraction(coeff))
        body = f"{basis}[{fmt_index(idx)}]" if idx != () else "1"
        if mag != 1 or idx == ():
            body = f"{mag} {body}" if idx != () else f"{mag}"
        if i == 0:
            pieces.append(body if sign == "+" else f"-{body}")
        else:
            pieces.append(f"{sign} {body}")
    return " ".join(pieces)


def add_up(pairs) -> dict:
    """Sum (key, coeff) pairs per key and drop the keys whose sum is 0. Keys
    and coefficients are used as they come: no zero of another type is added."""
    out: dict = {}
    for key, c in pairs:
        out[key] = out[key] + c if key in out else c
    return {key: c for key, c in out.items() if c}


def integer_degrees(terms: dict, size):
    """Per degree n, size(index) being an index's degree: n, its Fraction
    terms times the lcm of their denominators, as ints, and that lcm."""
    by_degree: dict[int, dict] = {}
    for idx, c in terms.items():
        by_degree.setdefault(size(idx), {})[idx] = c
    for n, part in by_degree.items():
        den = lcm(*(c.denominator for c in part.values()))
        yield n, {idx: c.numerator * (den // c.denominator) for idx, c in part.items()}, den


def back_substitute(rest: dict, order, column, fmt) -> dict:
    """Solve a unitriangular system: column(i) maps row indices to entries,
    with 1 at row i and nothing at an index before i in order. Walking
    order, each index's remaining coefficient is popped from rest as its
    solution, and that multiple of its column is taken away. Returns the
    nonzero solutions in walk order; a column off the pattern raises
    ArithmeticError naming its row and column through fmt."""
    out, passed = {}, set()
    for idx in order:
        passed.add(idx)
        c = rest.pop(idx, 0)
        if not c:
            continue
        col = column(idx)
        if col.get(idx, 0) != 1:
            raise ArithmeticError(f"matrix not unitriangular: row {fmt(idx)}, column "
                                  f"{fmt(idx)} holds {col.get(idx, 0)}, not 1")
        out[idx] = c
        for row, a in col.items():
            if row not in passed:
                rest[row] = rest.get(row, 0) - c * a
            elif row != idx:
                raise ArithmeticError(f"matrix not unitriangular: row {fmt(row)}, column "
                                      f"{fmt(idx)} holds {a}, not 0")
    return out


def _field(obj, name: str, kind, where: str):
    """obj[name]; obj must be a JSON object with a field of type(s) kind.
    A JSON boolean is never of the right type, although bool is an int."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, not {type(obj).__name__}")
    if name not in obj:
        raise ValueError(f"{where} has no {name!r} field")
    if not isinstance(obj[name], kind) or isinstance(obj[name], bool):
        raise ValueError(f"{where} field {name!r} has the wrong type")
    return obj[name]


class LinearCombination:
    """An immutable finite rational linear combination of basis elements,
    with zero coefficients dropped.

    A subclass names its ALGEBRA and BASES (the first basis is the default
    of ``zero`` and ``one``) and supplies the index hooks ``check_index``
    (validate, return the key), ``format_index`` and ``parse_index``, and
    ``common``: the change into the one basis in which equality and hashing
    are decided."""

    __slots__ = ("basis", "terms")

    ALGEBRA = ""
    BASES: tuple[str, ...] = ()
    LABELS: dict[str, str] = {}  # basis names that print differently

    @staticmethod
    def sort_key(idx):
        return idx

    def __init__(self, basis: str, terms: dict | None = None):
        if basis not in self.BASES:
            raise ValueError(f"unknown {self.ALGEBRA} basis {basis!r}")
        # spellings of one index add up under their checked key
        coeffs = add_up((self.check_index(idx), Fraction(c)) for idx, c in (terms or {}).items())
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "terms", coeffs)

    @classmethod
    def _trusted(cls, basis: str, terms: dict):
        """Terms keyed by checked indices (what check_index returns), with
        nonzero Fraction coefficients as add_up leaves them; kept as given."""
        self = object.__new__(cls)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, basis: str | None = None):
        return cls(basis or cls.BASES[0])

    @classmethod
    def single(cls, basis: str, idx, coeff=1):
        return cls(basis, {cls.check_index(idx): Fraction(coeff)})

    @classmethod
    def one(cls, basis: str | None = None):
        return cls.single(basis or cls.BASES[0], ())

    def is_zero(self) -> bool:
        return not self.terms

    def map_terms(self, fn, basis: str):
        """Linear extension of a map fn from an index to a mapping of
        checked indices of the given basis (the result's basis, even when
        it is 0) to Fraction coefficients."""
        return self._trusted(basis, add_up(
            (key, coeff * c) for idx, coeff in self.terms.items() for key, c in fn(idx).items()
        ))

    def __add__(self, other):
        if self.basis != other.basis:
            return self.common() + other.common()
        return self._trusted(self.basis, add_up(chain(self.terms.items(), other.terms.items())))

    def __neg__(self):
        return self._trusted(self.basis, {idx: -c for idx, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        scalar = Fraction(scalar)
        return self._trusted(self.basis, {i: scalar * c for i, c in self.terms.items() if scalar})

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.basis == other.basis:
            return self.terms == other.terms
        return self.common().terms == other.common().terms

    def __hash__(self):
        return hash(frozenset(self.common().terms.items()))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: self.sort_key(item[0]))

    def to_json(self) -> str:
        return json.dumps(
            {
                "algebra": self.ALGEBRA,
                "basis": self.basis,
                "terms": [
                    {"index": self.format_index(idx), "coeff": str(c)}
                    for idx, c in self.sorted_terms()
                ],
            }
        )

    @classmethod
    def from_json(cls, text: str):
        """Read a payload of this algebra: an object with a "basis" and a
        list of "terms", each an object with an "index" string and a
        "coeff", an integer or a string. Parsing canonicalizes, so the
        coefficients of repeated spellings of one index add up. A malformed
        payload raises ValueError naming the field."""
        data = json.loads(text)
        raw_terms = _field(data, "terms", list, "payload")
        algebra = data.get("algebra", cls.ALGEBRA)
        if algebra != cls.ALGEBRA:
            raise ValueError(
                f"{cls.__name__} reads algebra {cls.ALGEBRA!r}, not {algebra!r}"
            )
        pairs = []
        for i, t in enumerate(raw_terms):
            where = f"terms[{i}]"
            idx = cls.parse_index(_field(t, "index", str, where))
            # a JSON float is inexact: take an integer or a string such as "1/3"
            coeff = _field(t, "coeff", (int, str), where)
            try:
                pairs.append((idx, Fraction(coeff)))
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"{where} field 'coeff' is not a rational") from None
        return cls(_field(data, "basis", str, "payload"), add_up(pairs))

    def __str__(self):
        label = self.LABELS.get(self.basis, self.basis)
        return format_terms(label, self.sorted_terms(), self.format_index)

    def __repr__(self):
        return f"{type(self).__name__}({self})"
