"""The linear-combination core shared by the expression classes, and the
deterministic plain-text rendering they and the CLI use. Coefficients
print as reduced fractions."""

from __future__ import annotations

import json
from fractions import Fraction


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


def _field(obj, name: str, kind, where: str):
    """obj[name]; obj must be a JSON object with a field of type(s) kind."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, not {type(obj).__name__}")
    if name not in obj:
        raise ValueError(f"{where} has no {name!r} field")
    if not isinstance(obj[name], kind):
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
        object.__setattr__(self, "basis", basis)
        check = self.check_index
        clean = {}
        for idx, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff:
                clean[check(idx)] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, basis: str | None = None):
        return cls(basis or cls.BASES[0])

    @classmethod
    def single(cls, basis: str, idx, coeff=1):
        return cls(basis, {tuple(idx): Fraction(coeff)})

    @classmethod
    def one(cls, basis: str | None = None):
        return cls.single(basis or cls.BASES[0], ())

    def is_zero(self) -> bool:
        return not self.terms

    def map_terms(self, fn):
        """Linear extension of an index-to-expression map fn."""
        out: dict = {}
        basis = None
        for idx, coeff in self.terms.items():
            image = fn(idx)
            basis = image.basis
            for key, c in image.terms.items():
                out[key] = out.get(key, Fraction(0)) + coeff * c
        return type(self)(basis or self.basis, out)

    def __add__(self, other):
        if self.basis != other.basis:
            return self.common() + other.common()
        terms = dict(self.terms)
        for idx, c in other.terms.items():
            terms[idx] = terms.get(idx, Fraction(0)) + c
        return type(self)(self.basis, terms)

    def __neg__(self):
        return type(self)(self.basis, {idx: -c for idx, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        scalar = Fraction(scalar)
        return type(self)(self.basis, {idx: scalar * c for idx, c in self.terms.items()})

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
        terms: dict = {}
        for i, t in enumerate(raw_terms):
            where = f"terms[{i}]"
            idx = cls.parse_index(_field(t, "index", str, where))
            # a JSON float is inexact: take an integer or a string such as "1/3"
            coeff = _field(t, "coeff", (int, str), where)
            try:
                coeff = Fraction(coeff)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"{where} field 'coeff' is not a rational") from None
            terms[idx] = terms.get(idx, Fraction(0)) + coeff
        return cls(_field(data, "basis", str, "payload"), terms)

    def __str__(self):
        label = self.LABELS.get(self.basis, self.basis)
        return format_terms(label, self.sorted_terms(), self.format_index)

    def __repr__(self):
        return f"{type(self).__name__}({self})"
