"""Span tracing of ncschur from outside the library.

``install`` wraps the public entry points of every ncschur module and
rebinds each alias the package holds to them: module attributes (including
names one module imported from another) and values in module-level dicts,
such as ``ncsym._EXPANDERS`` that ``verify.suite_prod`` calls directly and
``verify.SUITES``. Each call records a span (name, parent, start, end) in
flat arrays kept in memory; ``Tracer.dump`` writes them out at the end.

A span's self time is its duration minus the durations of its direct
children. Calls are synchronous and single-threaded, so children never
overlap one another and lie inside their parent.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from array import array

MODULES = (
    "combinat", "ratlin", "ncpoly", "sym", "ncsym", "schur", "nsym", "lgv",
    "verify", "cli", "expr_format",
)

# Public entry points per module. Tiny helpers that run inside inner loops
# (sp_size, meet, slash, common_points, the formatters and parsers) stay
# unwrapped: their time is charged to the calling layer, and wrapping them
# would multiply the tracing overhead without naming new work.
ENTRY_POINTS = {
    "combinat": ("kostka", "ssyt", "set_partitions", "syt_count", "delta_pi",
                 "row_equivalence_class", "column_stabilizer"),
    "ratlin": ("rank", "determinant", "inverse", "solve", "mat_vec"),
    "ncpoly": ("NCPoly.__add__", "NCPoly.__sub__", "NCPoly.__neg__", "NCPoly.__mul__",
               "NCPoly.scale", "NCPoly.__eq__", "NCPoly.commutative_image",
               "NCPoly.to_json", "CPoly.__add__", "CPoly.__sub__", "CPoly.__neg__",
               "CPoly.__mul__", "CPoly.scale", "CPoly.__eq__"),
    "sym": ("m_to_s", "littlewood_richardson", "jacobi_trudi", "skew_schur", "expand",
            "product", "SymExpr.to_m", "SymExpr.to_s"),
    "ncsym": ("to_m", "from_m", "to_h", "to_h_or_e", "product", "omega", "delta_action",
              "rho", "coproduct", "oracle_expand", "naive_expand", "basis_order"),
    "schur": ("source_skew_schur", "skew_schur_nc", "standard_schur", "transposed_schur",
              "tabloid_schur", "schur_transition", "normalized_schur_transition",
              "h_to_schur", "schur_basis_convert", "source_product", "schur_product",
              "set_partition_schur_product", "permuted_basis", "family_rank",
              "specht_vector", "specht_rank", "rosas_sagan", "rosas_sagan_oracle",
              "rs_refinement_check", "rs_lr_expand", "rs_coproduct_check",
              "skew_kostka_check", "ribbon_source"),
    "nsym": ("iota", "chi", "product", "ribbon_to_H", "immaculate_to_H", "NSymExpr.to_H"),
    "lgv": ("enumerate_path_tuples", "lgv_swap", "is_self_intersecting", "monomial",
            "fixed_points_to_ssyt", "signed_ledger"),
    "cli": ("main", "cmd_expand", "cmd_convert", "cmd_schur", "cmd_multiply", "cmd_rho",
            "cmd_omega", "cmd_act", "cmd_rs", "cmd_lr", "cmd_kostka", "cmd_specht_rank",
            "cmd_lgv_check", "cmd_verify"),
    "expr_format": ("format_terms",),
}


def import_all():
    return {name: importlib.import_module(f"ncschur.{name}") for name in MODULES}


def cache_tables(modules=None) -> dict:
    """Every functools.cache table in ncschur, by function name."""
    modules = modules or import_all()
    tables = {}
    for mod in modules.values():
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", "") == mod.__name__:
                tables[name] = obj
    return tables


def census(tables: dict) -> list[str]:
    """Names of the tables that already hold entries (empty on a cold start)."""
    return sorted(name for name, fn in tables.items() if fn.cache_info().currsize)


def memo_stats(tables: dict) -> dict:
    return {
        name: [info.hits, info.misses, info.currsize]
        for name, fn in tables.items()
        for info in [fn.cache_info()]
    }


def self_times(parents, starts, ends) -> list[float]:
    """Per-span self time: duration minus the durations of direct children."""
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, value: int):
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, counter=None):
        """A function recording one span per call of fn. counter(tracer,
        args, result) may add work counts."""
        nid = self._id(name)
        names, parents, starts, ends = (
            self.span_name, self.span_parent, self.span_start, self.span_end)
        stack, clock = self.stack, time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            starts[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if counter is not None:
                counter(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn, count_key=None):
        """Generators run lazily, so each resumption is its own span."""
        step = self.wrap(name, next)

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                if count_key:
                    self.add(count_key, 1)
                yield item

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        """Per span name: [calls, self seconds, inclusive seconds]."""
        selfs = self_times(self.span_parent, self.span_start, self.span_end)
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for nid, t, s, e in zip(self.span_name, selfs, self.span_start, self.span_end):
            row = out[self.names[nid]]
            row[0] += 1
            row[1] += t
            row[2] += e - s
        return out

    def dump(self, path: str):
        """Write the spans: a JSON header line (names, count), then the
        name, parent, start and end arrays as raw machine values."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.span_start),
                      "arrays": ["name:i", "parent:i", "start:d", "end:d"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def merge(parts: list[dict]) -> dict:
    """Combine the summaries of several processes: calls, self time and
    counts add up, memo hits and misses add up, memo sizes take the largest."""
    spans, counts, memo = {}, {}, {}
    for part in parts:
        for name, values in part["spans"].items():
            row = spans.setdefault(name, [0, 0.0, 0.0])
            for j, v in enumerate(values):
                row[j] += v
        for key, value in part["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for name, (hits, misses, size) in part["memo"].items():
            row = memo.setdefault(name, [0, 0, 0])
            row[0] += hits
            row[1] += misses
            row[2] = max(row[2], size)
    return {"spans": spans, "counts": counts, "memo": memo,
            "import_s": [part["import_s"] for part in parts]}


def _count_inverse(tracer, args, result):
    tracer.add("ratlin.inverse.ops", len(args[0]) ** 3)


def _count_words(tracer, args, result):
    tracer.add("ncsym.expand.words", len(result))


COUNTERS = {"ratlin.inverse": _count_inverse}
GENERATOR_COUNTS = {"lgv.enumerate_path_tuples": "lgv.tuples"}
COUNT_KEYS = ("ratlin.inverse.ops", "ncsym.expand.words", "lgv.tuples")


def _rebind(orig, new):
    """Point every alias of orig inside ncschur at new."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "ncschur" or mod_name.startswith("ncschur.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, new)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is orig:
                        value[k] = new


def install(tracer: Tracer, modules=None):
    """Wrap every entry point in ENTRY_POINTS, the word expanders and the
    verify suites. Returns a function that puts the originals back."""
    modules = modules or import_all()
    swaps = []  # (original, wrapper, class or None, method name)
    for mod_name, names in ENTRY_POINTS.items():
        mod = modules[mod_name]
        for qual in names:
            span = f"{mod_name}.{qual}"
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                orig = vars(cls)[meth]
                swaps.append((orig, tracer.wrap(span, orig), cls, meth))
                continue
            orig = getattr(mod, qual)
            if inspect.isgeneratorfunction(orig):
                new = tracer.wrap_generator(span, orig, GENERATOR_COUNTS.get(span))
            else:
                new = tracer.wrap(span, orig, COUNTERS.get(span))
            swaps.append((orig, new, None, None))
    for orig in modules["ncsym"]._EXPANDERS.values():
        swaps.append((orig, tracer.wrap("ncsym.expand", orig, _count_words), None, None))
    for suite, orig in modules["verify"].SUITES.items():
        swaps.append((orig, tracer.wrap(f"verify.{suite}", orig), None, None))
    for orig, new, cls, meth in swaps:
        if cls is None:
            _rebind(orig, new)
        else:
            setattr(cls, meth, new)

    def undo():
        for orig, new, cls, meth in swaps:
            if cls is None:
                _rebind(new, orig)
            else:
                setattr(cls, meth, orig)

    return undo
