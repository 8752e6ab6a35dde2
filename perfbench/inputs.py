"""Seeded inputs for the benchmark workloads.

Everything here is standard library only and never calls into ncschur, so
generating inputs cannot fill one of the library's memo tables before the
first timed operation. Set partitions use ncschur's canonical form: blocks
sorted, ordered by least element, over {1..n}.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

# Suites in ``verify.SUITES`` order, each with the keywords it really takes
# and the phrase its ``SuiteReport.detail`` must contain for that range.
# rslr, rsrefines and lgv run one size below their defaults, which keeps an
# untraced and a traced pass together well inside three minutes on 2 cores;
# prod's word-level section is fixed at total size 6 whatever its options say.
VERIFY_SUITES = (
    ("prod", {"max_size": 7}, "|lam|+|mu| <= {max_size};"),
    ("ncschur-triangular", {"max_n": 5}, "degrees n <= {max_n}"),
    ("transpose", {"max_n": 5}, "degrees n <= {max_n}"),
    ("deltaact", {"count": 200, "seed": None, "max_degree": 3},
     "{count} random instances, degrees <= {max_degree}, seed {seed}"),
    ("rsrefines", {"max_size": 4, "inner_cap": 3},
     "skew sizes <= {max_size}, inner shapes of size <= {inner_cap}"),
    ("rslr", {"max_size": 5, "inner_cap": 3},
     "skew sizes <= {max_size}, inner shapes of size <= {inner_cap}"),
    ("rscoprod", {"max_n": 4}, "shapes of size <= {max_n}, all bidegrees"),
    ("iota", {"max_n": 6}, "compositions and shapes of size <= {max_n}"),
    ("lgv", {"max_size": 3, "height_cap": 3, "inner_cap": 2},
     "skew sizes <= {max_size}, height cap <= {height_cap}, "
     "inner shapes of size <= {inner_cap}"),
    ("specht", {"max_n": 5}, "shapes of size <= {max_n};"),
)

SWEEP_DEGREE = 5
LADDER_DEGREES = (6, 7, 8, 9)  # index text has one digit per element, so 9 is the cap

# The README commands, minus ``verify prod`` and ``verify lgv`` (the verify
# workload covers those). Their outputs are compared with goldens.json.
README_COMMANDS = (
    "schur --pi 13/2",
    "schur --shape 2.1 --delta 132",
    "expand --basis h --index 13/2",
    "expand --basis m --index 12 --vars 2",
    "convert --basis h --index 13/2 --to s",
    "multiply --basis h --index 12 --index2 1",
    "rho --basis h --index 13/2",
    "omega --basis p --index 12/3",
    "act --basis h --index 12/3 --delta 132",
    "rs --shape 2",
    "lr --shape 2.2/1",
    "kostka --shape 2.1 --content 1.1.1",
    "specht-rank --shape 2.1",
    "lgv-check --shape 2.1 --cap 2",
    "verify ncschur-triangular",
)


def verify_plan(seed: int):
    """(suite, keyword options, expected detail phrase) in SUITES order."""
    plan = []
    for name, options, phrase in VERIFY_SUITES:
        options = {k: (seed if k == "seed" else v) for k, v in options.items()}
        plan.append((name, options, phrase.format(**options)))
    return plan


def suite_degree(options) -> int:
    """The top degree of a suite's checked range."""
    for key in ("max_size", "max_n", "max_degree"):
        if key in options:
            return options[key]
    raise KeyError(f"no size option in {options}")


def set_partitions(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All set partitions of {1..n} in canonical form, via restricted
    growth strings."""
    out = []

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
    return out


def partitions(n: int) -> list[tuple[int, ...]]:
    """Integer partitions of n, parts weakly decreasing."""
    out = []

    def rec(rest: int, biggest: int, prefix: tuple[int, ...]):
        if rest == 0:
            out.append(prefix)
            return
        for p in range(min(rest, biggest), 0, -1):
            rec(rest - p, p, prefix + (p,))

    rec(n, n, ())
    return out


def fmt_sp(pi) -> str:
    return "/".join("".join(map(str, b)) for b in pi) if pi else "-"


def fmt_partition(lam) -> str:
    return ".".join(map(str, lam)) if lam else "-"


def _coeff(rng: random.Random) -> Fraction:
    num = rng.choice([-3, -2, -1, 1, 2, 3])
    return Fraction(num, rng.randint(1, 4))


def random_terms(rng: random.Random, max_degree: int, count: int):
    """A mixed-degree linear combination: set partition -> nonzero Fraction."""
    terms = {}
    while len(terms) < count:
        pi = rng.choice(set_partitions(rng.randint(1, max_degree)))
        terms[pi] = _coeff(rng)
    return terms


def basis_plan(seed: int):
    """The cold basis-change sweep: a list of (kind, payload, degree).

    kind is "from_m" (payload: terms, target), "h_to_s" (payload: terms)
    or "m_to_s" (payload: integer-partition terms). Every set partition of
    degree 1..5 goes m->p, m->e, m->h and h->s; every partition of degree
    1..5 goes through sym.m_to_s; then seeded multi-term mixed-degree
    expressions go both ways.
    """
    rng = random.Random(seed)
    plan = []
    for n in range(1, SWEEP_DEGREE + 1):
        for pi in set_partitions(n):
            for target in "peh":
                plan.append(("from_m", ({pi: Fraction(1)}, target), n))
            plan.append(("h_to_s", {pi: Fraction(1)}, n))
    for n in range(1, SWEEP_DEGREE + 1):
        for lam in partitions(n):
            plan.append(("m_to_s", {lam: Fraction(1)}, n))
    for _ in range(24):
        # one term in each of degrees 5, 4 and 2, so every seed has ops of
        # the same costs and the percentiles compare across seeds
        terms = {rng.choice(set_partitions(n)): _coeff(rng) for n in (SWEEP_DEGREE, 4, 2)}
        if rng.random() < 0.75:
            plan.append(("from_m", (terms, rng.choice("peh")), SWEEP_DEGREE))
        else:
            plan.append(("h_to_s", terms, SWEEP_DEGREE))
    for _ in range(8):
        terms, count = {}, rng.randint(2, 4)
        while len(terms) < count:
            terms[rng.choice(partitions(rng.randint(1, SWEEP_DEGREE)))] = _coeff(rng)
        plan.append(("m_to_s", terms, max(sum(lam) for lam in terms)))
    return plan


def ladder_index(n: int):
    """m[1/2/.../n]: the all-singletons index, whose m->h row is the
    densest of its degree."""
    return tuple((i,) for i in range(1, n + 1))


def expr_json(basis: str, terms) -> str:
    """The JSON form ``ncschur --expr`` reads."""
    items = [{"index": fmt_sp(pi), "coeff": str(c)} for pi, c in terms.items()]
    return json.dumps({"algebra": "ncsym", "basis": basis, "terms": items})


def _skew_shapes(max_size: int):
    out = []
    for n in range(1, max_size + 1):
        for m in range(0, 3):
            for mu in partitions(m):
                for lam in partitions(n + m):
                    if len(mu) <= len(lam) and all(a >= b for a, b in zip(lam, mu)):
                        out.append((lam, mu))
    return out


def cli_plan(seed: int):
    """The CLI queries: a list of (argv, check, degree).

    check is ("golden", i) for README command i, or a tuple naming the
    identity the benchmark verifies on the output. The mix is the same for
    every seed, so percentiles compare across seeds: 15 README commands,
    16 cold degree-5 conversions m->e (the tail: p90 falls inside this
    group, not on the edge between two groups) and 69 light seeded queries
    up to degree 5. The seed picks the indices, shapes and expressions.
    """
    rng = random.Random(seed)
    plan = [(cmd.split(), ("golden", i), 0) for i, cmd in enumerate(README_COMMANDS)]
    seeded = []
    for _ in range(16):
        pi = rng.choice(set_partitions(5))
        seeded.append((["--format", "json", "convert", "--basis", "m", "--index",
                        fmt_sp(pi), "--to", "e"], ("convert", "m", pi), 5))
    for i in range(20):  # light conversions, degree 1..4
        n = 1 + i % 4
        pi = rng.choice(set_partitions(n))
        source = rng.choice("peh")
        target = rng.choice("mpehs" if source == "h" else "mpeh")
        seeded.append((["--format", "json", "convert", "--basis", source, "--index",
                        fmt_sp(pi), "--to", target], ("convert", source, pi), n))
    for i in range(12):
        pi = rng.choice(set_partitions(1 + i % 5))
        argv = ["--format", "json", "schur", "--pi", fmt_sp(pi)]
        if rng.random() < 0.5:
            argv.append("--transpose")
        seeded.append((argv, ("schur", pi, "--transpose" in argv), sum(map(len, pi))))
    shapes = [s for s in _skew_shapes(5) if sum(s[0]) - sum(s[1]) >= 2]
    for _ in range(12):
        lam, mu = rng.choice(shapes)
        text = fmt_partition(lam) + ("/" + fmt_partition(mu) if mu else "")
        seeded.append((["lr", "--shape", text], ("lr", lam, mu), sum(lam) - sum(mu)))
    for i in range(12):
        n = 1 + i % 4
        pi = rng.choice(set_partitions(n))
        basis = rng.choice("mpeh")
        k = rng.randint(1, 3)
        seeded.append((["--format", "json", "expand", "--basis", basis, "--index",
                        fmt_sp(pi), "--vars", str(k)], ("words", basis, pi, k), n))
    for i in range(13):
        basis = rng.choice("peh")
        terms = random_terms(rng, 5, rng.randint(2, 4))
        degree = max(sum(map(len, pi)) for pi in terms)
        op = ("omega", "expand", "rho")[i % 3]
        argv = ["--format", "json", op, "--expr", expr_json(basis, terms)]
        seeded.append((argv, ("expr", op, basis, terms), degree))
    rng.shuffle(seeded)
    plan.extend(seeded)
    return plan
