"""The ncschur benchmark.

    python3 perfbench/run.py --workload {verify,basis,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; ncschur is loaded from ``src`` (nothing
needs installing). Every measured pass is a fresh interpreter started with
``PYTHONPATH=src`` and ``PYTHONHASHSEED=0``, so the library's memo tables
start empty; the benchmark never clears or pre-fills them. Each workload is
a closed loop with one caller, on one core at a time.

Workloads:
  verify  all ten suites in ``verify.SUITES`` order through
          ``verify.run_suite`` at the options in ``inputs.VERIFY_SUITES``
          (deltaact takes the seed); one op per suite.
  basis   a cold sweep: m->p, m->e, m->h and h->s of every set partition of
          degree 1..5, ``sym.m_to_s`` of every partition of degree 1..5,
          then seeded mixed-degree expressions; one op per conversion.
          Then, in its own process, the degree ladder m[1/2/../n] -> h for
          n = 6..9, each step stopped after 10 s.
  cli     100 sequential ``python -m ncschur.cli`` processes: the README
          commands (outputs compared with goldens.json) and seeded
          queries up to degree 5; one op per process.

With ``--trace 0`` the run repeats the workload's pass, each in a fresh
process, until ``--seconds`` have passed (at least once), and prints the
end-to-end metrics. Times are scaled to a reference machine speed measured
between ops (see speed.py); the raw times are printed on the line above.
  setup_s       median, over the pass processes and five set-up-only
                processes, of the time from spawning the process to its
                first op: interpreter start, imports, input generation and
                the memo-table census.
  wall_s        median over passes of first op start to last op end, less
                the speed samples taken in between (the basis ladder is not
                part of it: a ladder step is cut at its budget, so its time
                says nothing once a step finishes).
  peak_rss_mb   median over passes of the pass process's peak RSS; for cli
                the largest peak among its CLI processes.
  op_p50_ms, op_p90_ms
                percentiles of all op latencies of the run; the sample count
                is printed with them (verify has only ten ops per pass).
  reach_degree  the highest degree d such that every op of degree <= d
                finished correctly, ladder steps within their budget.
Failures are counted in ``attempted``/``failed``; ``fail_ratio`` is printed
but is no metric, being 0 whenever the program is right.

With ``--trace 1`` the run makes one untraced and one traced pass and
prints the per-layer metrics (see PER_LAYER). Self times add over the pass;
``cli.import_s`` is the median per CLI process; ``trace.overhead_ratio`` is
the traced pass's raw time in ops over the untraced pass's, less the speed
samples (the traced pass takes none: they would land in its spans), so it
is not speed-scaled. The code is single-threaded
and synchronous: there is no waiting or retrying to record, so no layer
reports any. Layer metrics of a layer a workload does not reach read 0.

The last stdout line is the JSON result. Per-pass details and the traced
spans go to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import inputs
import speed
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("verify", "basis", "cli")
SUITES = tuple(name for name, _, _ in inputs.VERIFY_SUITES)
MEMO_TABLES = ("basis_order", "_set_partitions", "_ssyt", "_to_m_matrix", "_from_m_matrix",
               "schur_transition", "_schur_transition_inverse", "_expand_m", "_expand_p",
               "_expand_e", "_expand_h", "_index_to_m", "_m_times_m", "_kostka_inverse",
               "ribbon_to_H", "immaculate_to_H")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # the whole run, warm-up included, ends well inside 180 s
LADDER_RESERVE_S = 45.0
clock = time.perf_counter

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("op_p50_ms", "ms"), ("op_p90_ms", "ms"), ("reach_degree", "degree"))


def _per_layer():
    rows = [
        ("ratlin.self_s", "s"), ("ratlin.inverse.calls", "count"),
        ("ratlin.inverse.ops", "ops_computed"), ("ratlin.mat_vec.self_s", "s"),
        ("ncsym.from_m.self_s", "s"), ("ncsym.to_m.self_s", "s"),
        ("schur.h_to_schur.self_s", "s"), ("sym.m_to_s.self_s", "s"),
        ("ncsym.expand.calls", "count"), ("ncsym.expand.words", "count"),
        ("ncsym.expand.self_s", "s"), ("ncpoly.calls", "count"), ("ncpoly.self_s", "s"),
        ("sym.littlewood_richardson.calls", "count"),
        ("sym.littlewood_richardson.self_s", "s"),
        ("combinat.kostka.calls", "count"), ("combinat.kostka.self_s", "s"),
        ("combinat.ssyt.calls", "count"),
        ("lgv.self_s", "s"), ("lgv.lgv_swap.calls", "count"), ("lgv.tuples", "count"),
        ("schur.source_skew_schur.calls", "count"), ("schur.self_s", "s"),
        ("schur.rosas_sagan.self_s", "s"), ("sym.self_s", "s"), ("nsym.self_s", "s"),
        ("combinat.self_s", "s"), ("ncsym.self_s", "s"),
        ("cli.import_s", "s"), ("cli.self_s", "s"), ("expr_format.self_s", "s"),
    ]
    rows += [(f"verify.{suite}_s", "s") for suite in SUITES]
    for table in MEMO_TABLES:
        rows += [(f"memo.{table}.hit_ratio", "ratio"), (f"memo.{table}.size", "entries")]
    rows.append(("trace.overhead_ratio", "ratio"))
    return tuple(rows)


PER_LAYER = _per_layer()


class ChildFailed(RuntimeError):
    pass


def quantile(values, q: int) -> float:
    """The q-th percentile by ``statistics.quantiles(n=100)``."""
    return statistics.quantiles(values, n=100)[q - 1]


def supported_percentile(count: int) -> int:
    """The highest of 50, 90, 99 with at least ten samples beyond it; 50
    when there are too few samples for any."""
    best = 50
    for q in (90, 99):
        if count * (100 - q) / 100 >= 10:
            best = q
    return best


def reach_degree(ops) -> int:
    """The highest degree d such that every op of degree <= d is ok.
    ops: (degree, ok) pairs."""
    bad = [d for d, ok in ops if not ok]
    top = max(d for d, _ in ops)
    return min(bad) - 1 if bad else top


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.start = clock()
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                        PYTHONHASHSEED="0")
        self.records: list[dict] = []

    def left(self) -> float:
        return DEADLINE_S - (clock() - self.start)

    def child(self, mode: str) -> dict:
        """Run child.py in its own session; on timeout, kill the session."""
        cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, self.workload,
               str(self.seed), OUT]
        spawn_speed = speed.sample()
        spawn_ref = speed.spawn_sample(self.env)
        spawned = clock()
        proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(self.left(), 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise ChildFailed(f"{mode} pass overran the {DEADLINE_S:.0f} s deadline")
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildFailed(f"{mode} pass exited {proc.returncode}: {err[-2000:]}")
        ended = clock()
        data = json.loads(lines[-1])
        data.update(mode=mode, spawned=spawned, ended=ended,
                    speed=[spawn_speed, *data.get("speed", [])],
                    spawn_ref=[spawn_ref, speed.spawn_sample(self.env)])
        self.records.append(data)
        return data


def wall(data) -> float:
    """Raw first op start to last op end."""
    ops = data["ops"]
    return max(op[3] for op in ops) - min(op[2] for op in ops)


def busy(data) -> float:
    """Raw seconds inside ops, less the speed samples taken inside them."""
    return sum(end - start - sum(d for s, d in data["speed"] if start <= s < end)
               for _, _, start, end, _ in data["ops"])


def scaled_ops(data) -> list[float]:
    """Each op's seconds at reference speed."""
    return [speed.scaled(data["speed"], start, end) for _, _, start, end, _ in data["ops"]]


def scaled_setup(data) -> float:
    """Set-up seconds at the reference interpreter start time."""
    ref = data["spawn_ref"]
    return (data["setup_end"] - data["spawned"]) * speed.SPAWN_REFERENCE_S * len(ref) / sum(ref)


def measure(runner: Runner, seconds: float) -> dict:
    passes = []
    while True:
        data = runner.child("run")
        passes.append(data)
        took = data["ended"] - data["spawned"]
        reserve = LADDER_RESERVE_S if runner.workload == "basis" else 0.0
        if clock() - runner.start >= seconds or runner.left() < 1.5 * took + reserve:
            break
    setups = [runner.child("setup") for _ in range(SETUP_SAMPLES)]
    ops = [op for data in passes for op in data["ops"]]
    degrees = [(op[1], op[4]) for op in ops]
    if runner.workload == "basis":
        ladder = runner.child("ladder")
        degrees += [(n, True) for n in ladder["ladder_done"]]
        if ladder["ladder_stopped"] is not None:
            degrees.append((ladder["ladder_stopped"], False))
        print(f"ladder: finished {ladder['ladder_done']}, stopped at "
              f"{ladder['ladder_stopped']}, step seconds "
              f"{[round(t, 3) for t in ladder['ladder_times']]}")
    latencies = [t * 1000.0 for data in passes for t in scaled_ops(data)]
    metrics = {
        "setup_s": statistics.median(scaled_setup(d) for d in passes + setups),
        "wall_s": statistics.median(sum(scaled_ops(d)) for d in passes),
        "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in passes),
        "op_p50_ms": quantile(latencies, 50),
        "op_p90_ms": quantile(latencies, 90),
        "reach_degree": reach_degree(degrees),
    }
    raw = [(op[3] - op[2]) * 1000.0 for op in ops]
    print(f"passes: {len(passes)}; op samples: {len(latencies)} "
          f"(highest percentile with ten samples beyond it: p"
          f"{supported_percentile(len(latencies))})")
    print(f"raw, before speed scaling: setup_s "
          f"{statistics.median(d['setup_end'] - d['spawned'] for d in passes + setups):.6g}, "
          f"wall_s {statistics.median(wall(d) for d in passes):.6g}, "
          f"op_p50_ms {quantile(raw, 50):.6g}, op_p90_ms {quantile(raw, 90):.6g}; "
          f"kernel median {statistics.median(s for d in passes for _, s in d['speed']):.6g} s "
          f"against {speed.REFERENCE_S} s, interpreter start median "
          f"{statistics.median(s for d in passes + setups for s in d['spawn_ref']):.6g} s "
          f"against {speed.SPAWN_REFERENCE_S} s")
    return metrics


def layer_metrics(runner: Runner) -> dict:
    plain = runner.child("run")
    traced = runner.child("trace")
    trace = traced["trace"]
    spans, counts, memo = trace["spans"], trace["counts"], trace["memo"]

    def self_s(prefix):
        return sum(v[1] for k, v in spans.items() if k == prefix or k.startswith(prefix + "."))

    def calls(prefix):
        return sum(v[0] for k, v in spans.items() if k == prefix or k.startswith(prefix + "."))

    metrics = {}
    for name, _ in PER_LAYER:
        stem, _, last = name.rpartition(".")
        if name.startswith("memo."):
            table = name[len("memo."):].rpartition(".")[0]
            hits, misses, size = memo.get(table, (0, 0, 0))
            if last == "size":
                metrics[name] = size
            else:
                metrics[name] = hits / (hits + misses) if hits + misses else 0.0
        elif name.startswith("verify."):
            metrics[name] = self_s(name[:-len("_s")])
        elif name == "cli.import_s":
            metrics[name] = statistics.median(trace["import_s"]) if trace["import_s"] else 0.0
        elif name == "trace.overhead_ratio":
            metrics[name] = busy(traced) / busy(plain)
        elif name in tracer.COUNT_KEYS:
            metrics[name] = counts.get(name, 0)
        elif last == "calls":
            metrics[name] = calls(stem)
        else:
            metrics[name] = self_s(stem)

    layers = sorted(((self_s(m), m) for m in tracer.MODULES), reverse=True)
    print("layer self time: " + ", ".join(f"{m} {t:.3f} s" for t, m in layers))
    if runner.workload == "verify":
        for (label, _, start, end, _), suite in zip(traced["ops"], SUITES):
            span = spans.get(f"verify.{suite}", [0, 0.0, 0.0])
            print(f"verify.{suite}: self {span[1]:.3f} s + children {span[2] - span[1]:.3f} s"
                  f" = span {span[2]:.3f} s of op wall {end - start:.3f} s")
    for table in sorted(set(memo) - set(MEMO_TABLES)):
        print(f"memo table not in the metric list: {table} {memo[table]}")
    print(f"raw seconds in ops: untraced {busy(plain):.3f}, traced {busy(traced):.3f}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ncschur", "__init__.py")):
        print(f"no ncschur sources under {os.path.join(ROOT, 'src')}; run from a checkout",
              file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed)
    print(f"env: python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"seed {args.seed}, PYTHONHASHSEED 0, workload {args.workload}, trace {args.trace}")
    try:
        runner.child("warmup")  # compiles bytecode; discarded
        runner.records.clear()
        if args.trace:
            metrics, units = layer_metrics(runner), dict(PER_LAYER)
        else:
            metrics, units = measure(runner, args.seconds), dict(END_TO_END)
        failure = None
    except ChildFailed as exc:
        metrics, units, failure = {}, {}, str(exc)

    ops = [op for data in runner.records for op in data.get("ops", [])]
    problems = [p for data in runner.records for p in data.get("problems", [])]
    if failure:
        problems.append(failure)
    attempted = max(len(ops), 1)
    failed = sum(1 for op in ops if not op[4]) or (1 if failure else 0)
    for problem in problems[:20]:
        print(f"problem: {problem}")
    print(f"fail_ratio: {failed / attempted:.6f} ({failed} of {attempted} ops)")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")

    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"{stem}.json"), "w") as fh:
        json.dump({"python": platform.python_version(), "nproc": os.cpu_count(),
                   "seed": args.seed, "metrics": metrics, "passes": runner.records}, fh)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
