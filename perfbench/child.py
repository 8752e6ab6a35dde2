"""One fresh interpreter's share of a benchmark run.

    python3 perfbench/child.py MODE WORKLOAD SEED OUT_DIR

MODE is ``warmup`` (import everything, so later processes find compiled
bytecode), ``setup`` (stop at the first timed op), ``run``, ``trace`` (run
with spans recorded) or ``ladder`` (the basis degree ladder). The last
stdout line is one JSON object. Times are ``time.perf_counter`` stamps,
which read CLOCK_MONOTONIC like the parent's, so the parent can measure
set-up from the moment it spawned this process.

A pass runs all its ops back to back, then checks every output outside the
timed interval and with tracing off: a check run in between would fill
memo tables that the next op should find cold.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import os
import resource
import signal
import subprocess
import sys
import time
import traceback

import inputs
import speed
import tracer as tr

clock = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))
LADDER_BUDGET_S = 10.0
CLI_TIMEOUT_S = 60.0


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class Result:
    def __init__(self):
        self.ops: list[list] = []  # [label, degree, start, end, ok]
        self.speed: list[list] = []  # speed.sample() results
        self.problems: list[str] = []
        self.out: dict = {}

    def timed(self, label, degree, fn, *args, **kwargs):
        start = clock()
        try:
            value = fn(*args, **kwargs)
        except Exception:
            self.ops.append([label, degree, start, clock(), False])
            self.problems.append(f"{label}: {traceback.format_exc(limit=3)}")
            return None
        self.ops.append([label, degree, start, clock(), True])
        return value

    def check(self, i, ok, why=""):
        if not ok and self.ops[i][4]:
            self.ops[i][4] = False
            self.problems.append(f"{self.ops[i][0]}: wrong output {why}".rstrip())

    def emit(self, **extra):
        print(json.dumps({"ops": self.ops, "speed": self.speed, "problems": self.problems,
                          **self.out, **extra}))


# ---------------------------------------------------------------------------
# verify

def verify_setup(seed):
    from ncschur import verify

    return verify, inputs.verify_plan(seed)


def verify_ops(res, state):
    verify, plan = state
    return [res.timed(name, inputs.suite_degree(options), verify.run_suite, name, **options)
            for name, options, _ in plan]


def verify_check(res, state, reports):
    verify, plan = state
    for i, ((name, options, phrase), report) in enumerate(zip(plan, reports)):
        if report is None:
            continue
        params = inspect.signature(inspect.unwrap(verify.SUITES[name])).parameters
        unknown = sorted(k for k in options if k not in params)
        res.check(i, not unknown, f"(keywords {unknown} would be swallowed by **_)")
        res.check(i, phrase in report.detail, f"(detail {report.detail!r} lacks {phrase!r})")
        res.check(i, report.ok, f"(counterexample {report.counterexample})")


# ---------------------------------------------------------------------------
# basis

def basis_setup(seed):
    from ncschur import ncsym, schur, sym

    return (ncsym, schur, sym), inputs.basis_plan(seed)


def basis_ops(res, state):
    (ncsym, schur, sym), plan = state
    calls = {
        "from_m": lambda p: ncsym.from_m(ncsym.NCSymExpr("m", p[0]), p[1]),
        "h_to_s": lambda p: schur.h_to_schur(ncsym.NCSymExpr("h", p)),
        "m_to_s": lambda p: sym.m_to_s(sym.SymExpr("m", p)),
    }
    return [res.timed(kind, degree, calls[kind], payload) for kind, payload, degree in plan]


def basis_check(res, state, outs):
    """Each result goes back by a route that shares no code with the
    conversion: the m-expansion formulas, the Schur determinant, Kostka."""
    (ncsym, schur, sym), plan = state
    for i, ((kind, payload, _), out) in enumerate(zip(plan, outs)):
        if out is None:
            continue
        if kind == "from_m":
            terms, target = payload
            ok = out.basis == target and ncsym.to_m(out) == ncsym.NCSymExpr("m", terms)
        elif kind == "h_to_s":
            ok = out.basis == "s" and ncsym.to_h_or_e(out) == ncsym.NCSymExpr("h", payload)
        else:
            ok = out.basis == "s" and out.to_m() == sym.SymExpr("m", payload)
        res.check(i, ok)


class OverBudget(Exception):
    pass


def run_ladder(step, degrees, budget_s):
    """Run step(n) for each degree until one exceeds budget_s; SIGALRM
    stops that step. Returns (finished degrees, stopped degree or None,
    seconds per attempted step)."""

    def alarm(signum, frame):
        raise OverBudget

    previous = signal.signal(signal.SIGALRM, alarm)
    done, times = [], []
    try:
        for n in degrees:
            start = clock()
            signal.setitimer(signal.ITIMER_REAL, budget_s)
            try:
                step(n)
            except OverBudget:
                times.append(clock() - start)
                return done, n, times
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            times.append(clock() - start)
            done.append(n)
        return done, None, times
    finally:
        signal.signal(signal.SIGALRM, previous)


def ladder(res):
    from ncschur import ncsym

    def step(n):
        index = inputs.ladder_index(n)
        out = ncsym.from_m(ncsym.NCSymExpr.single("m", index), "h")
        if ncsym.to_m(out) != ncsym.NCSymExpr.single("m", index):
            raise ArithmeticError(f"m->h of m[{inputs.fmt_sp(index)}] does not round-trip")

    done, stopped, times = run_ladder(step, inputs.LADDER_DEGREES, LADDER_BUDGET_S)
    res.out.update(ladder_done=done, ladder_stopped=stopped, ladder_times=times)


# ---------------------------------------------------------------------------
# cli

def cli_setup(seed):
    return None, inputs.cli_plan(seed)


def cli_ops(res, state, out_dir, traced=False):
    """Sequential ``python -m ncschur.cli`` processes. Traced, each runs
    through cli_traced.py instead and leaves its summary in out_dir."""
    _, plan = state
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(HERE), "src"),
               PYTHONHASHSEED="0")
    outputs = []
    for i, (argv, _, degree) in enumerate(plan):
        # each op is another process, so the speed is sampled here, before
        # every op, over several kernel runs to make up for taking no
        # samples inside the op
        res.speed.append(speed.sample(rounds=4))
        cmd = [sys.executable, "-m", "ncschur.cli", *argv]
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "cli_traced.py"),
                   os.path.join(out_dir, f"cli-op{i}.json"), *argv]
        outputs.append(res.timed(" ".join(argv[:6]), degree, subprocess.run, cmd, env=env,
                                 capture_output=True, timeout=CLI_TIMEOUT_S))
    res.out["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)
    if traced:
        parts = []
        for i in range(len(plan)):
            with open(os.path.join(out_dir, f"cli-op{i}.json")) as fh:
                parts.append(json.load(fh))
        for part in parts:
            if part["warm"]:
                res.problems.append(f"memo tables not empty after import: {part['warm']}")
        res.out["trace"] = tr.merge(parts)
    return outputs


def cli_check(res, state, outputs):
    _, plan = state
    # this process has not imported ncschur yet: a fresh import of the CLI
    # must leave every memo table empty
    modules = tr.import_all()
    warm = tr.census(tr.cache_tables(modules))
    if warm:
        res.problems.append(f"importing ncschur.cli filled memo tables: {warm}")
    with open(os.path.join(HERE, "goldens.json")) as fh:
        goldens = json.load(fh)
    for i, ((argv, check, _), proc) in enumerate(zip(plan, outputs)):
        if proc is None:
            continue
        if check[0] == "golden":
            gold = goldens[check[1]]
            res.check(i, gold["argv"] == argv and proc.returncode == gold["code"]
                      and proc.stdout.decode() == gold["stdout"], "(differs from golden)")
        elif proc.returncode != 0:
            res.check(i, False, f"(exit {proc.returncode}: {proc.stderr.decode()[-200:]})")
        else:
            try:
                ok = check_identity(modules, check, proc.stdout.decode())
            except Exception:
                ok = False
                res.problems.append(traceback.format_exc(limit=3))
            res.check(i, ok)


def check_identity(m, check, stdout: str) -> bool:
    """An exact identity the output of a seeded CLI query must satisfy."""
    ncsym, sym, combinat = m["ncsym"], m["sym"], m["combinat"]
    NCSymExpr = ncsym.NCSymExpr
    kind = check[0]
    if kind == "convert":
        _, source, pi = check
        out = NCSymExpr.from_json(stdout)
        return ncsym.to_m(out) == ncsym.to_m(NCSymExpr.single(source, pi))
    if kind == "schur":
        # the commutative image is the classical Schur function of the
        # shape, or of the transposed shape for the transposed element
        _, pi, transpose = check
        lam = combinat.shape_of(pi)
        if transpose:
            lam = combinat.transpose(lam)
        out = NCSymExpr.from_json(stdout)
        expected = sym.jacobi_trudi(combinat.SkewShape(lam, ()), "h")
        return out.basis == ("e" if transpose else "h") and ncsym.rho(out) == expected
    if kind == "lr":
        # skew Kostka numbers split with the printed coefficients
        _, lam, mu = check
        shape = combinat.skew(lam, mu)
        coeffs = {}
        for line in stdout.splitlines():
            nu, c = line.split("\t")
            coeffs[combinat.parse_partition(nu)] = int(c)
        straight = combinat.SkewShape
        return all(
            combinat.kostka(shape, gam)
            == sum(c * combinat.kostka(straight(nu, ()), gam) for nu, c in coeffs.items())
            for gam in combinat.partitions(shape.size))
    if kind == "words":
        _, basis, pi, k = check
        return m["ncpoly"].NCPoly.from_json(stdout) == ncsym.naive_expand(basis, pi, k)
    if kind == "expr":
        _, op, basis, terms = check
        given = NCSymExpr(basis, terms)
        if op == "omega":
            return ncsym.omega(NCSymExpr.from_json(stdout)) == given
        if op == "expand":
            out = NCSymExpr.from_json(stdout)
            return out.basis == "m" and ncsym.oracle_expand(out, 3) == ncsym.oracle_expand(given, 3)
        out = sym.SymExpr.from_json(stdout)
        return sym.expand(out, 3) == ncsym.oracle_expand(given, 3).commutative_image()
    raise ValueError(f"no check for {kind!r}")


# ---------------------------------------------------------------------------

WORKLOADS = {
    "verify": (verify_setup, verify_ops, verify_check),
    "basis": (basis_setup, basis_ops, basis_check),
    "cli": (cli_setup, cli_ops, cli_check),
}


def main(argv):
    mode, workload, seed, out_dir = argv[0], argv[1], int(argv[2]), argv[3]
    res = Result()
    if mode == "warmup":
        tr.import_all()
        res.emit()
        return 0
    if mode == "ladder":
        ladder(res)
        res.emit(peak_rss_mb=peak_rss_mb())
        return 0
    setup, run_ops, run_check = WORKLOADS[workload]
    state = setup(seed)
    tables = tracer = None
    if workload != "cli":  # the CLI processes are cold by construction
        tables = tr.cache_tables()
        warm = tr.census(tables)
        if warm:
            res.problems.append(f"memo tables not empty before the first op: {warm}")
        if mode == "trace":
            tracer = tr.Tracer()
            undo = tr.install(tracer)
    res.out["setup_end"] = clock()
    res.speed.append(speed.sample())
    if mode == "setup":
        res.emit()
        return 0
    if workload == "cli":
        outputs = cli_ops(res, state, out_dir, traced=mode == "trace")
    else:
        # a traced pass takes no speed samples: they would land in its spans
        with speed.Sampler(res.speed) if tracer is None else contextlib.nullcontext():
            outputs = run_ops(res, state)
        res.out["peak_rss_mb"] = peak_rss_mb()
    res.speed.append(speed.sample())
    if tracer is not None:
        undo()
        res.out["trace"] = {"spans": tracer.summary(), "counts": tracer.counts,
                            "memo": tr.memo_stats(tables), "import_s": []}
        tracer.dump(os.path.join(out_dir, f"spans-{workload}-{seed}.bin"))
    run_check(res, state, outputs)
    res.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
