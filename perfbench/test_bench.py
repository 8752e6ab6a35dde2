"""Tests of the benchmark's own arithmetic and plumbing.

    python3 -m unittest discover -s perfbench
"""

import json
import os
import signal
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import child  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer as tr  # noqa: E402


class SelfTime(unittest.TestCase):
    def test_synthetic_nested_spans(self):
        # 0 [0, 10] holds 1 [1, 4] and 3 [5, 9]; 1 holds 2 [2, 3]
        parents = [-1, 0, 1, 0]
        starts = [0.0, 1.0, 2.0, 5.0]
        ends = [10.0, 4.0, 3.0, 9.0]
        self.assertEqual(tr.self_times(parents, starts, ends), [3.0, 2.0, 1.0, 4.0])

    def test_self_times_add_up_to_the_root(self):
        parents = [-1, 0, 1, 1, 0, -1]
        starts = [0.0, 0.5, 0.6, 1.0, 3.0, 20.0]
        ends = [8.0, 2.5, 0.9, 2.0, 7.5, 21.0]
        selfs = tr.self_times(parents, starts, ends)
        self.assertAlmostEqual(sum(selfs[:5]), 8.0)
        self.assertAlmostEqual(selfs[5], 1.0)

    def test_wrapped_calls_nest_and_survive_exceptions(self):
        t = tr.Tracer()

        def inner(x):
            if x < 0:
                raise ValueError(x)
            return x

        inner_t = t.wrap("m.inner", inner)
        outer_t = t.wrap("m.outer", lambda x: inner_t(x) + inner_t(x))
        self.assertEqual(outer_t(2), 4)
        with self.assertRaises(ValueError):
            outer_t(-1)
        self.assertEqual(t.stack, [])
        self.assertEqual(list(t.span_parent), [-1, 0, 0, -1, 3])
        summary = t.summary()
        self.assertEqual(summary["m.inner"][0], 3)
        self.assertEqual(summary["m.outer"][0], 2)
        total = sum(e - s for s, e, p in zip(t.span_start, t.span_end, t.span_parent) if p < 0)
        self.assertAlmostEqual(summary["m.inner"][1] + summary["m.outer"][1], total)

    def test_generator_spans_count_items(self):
        t = tr.Tracer()
        gen = t.wrap_generator("m.gen", lambda n: (i for i in range(n)), "m.items")
        self.assertEqual(list(gen(4)), [0, 1, 2, 3])
        self.assertEqual(t.counts["m.items"], 4)
        self.assertEqual(t.summary()["m.gen"][0], 5)  # four items and the final stop

    def test_merge_adds_counts_and_keeps_largest_memo(self):
        a = {"spans": {"x.f": [1, 0.5, 0.5]}, "counts": {"c": 2}, "memo": {"t": [1, 2, 3]},
             "import_s": 0.1}
        b = {"spans": {"x.f": [2, 0.25, 1.0]}, "counts": {"c": 5}, "memo": {"t": [4, 0, 1]},
             "import_s": 0.2}
        merged = tr.merge([a, b])
        self.assertEqual(merged["spans"]["x.f"], [3, 0.75, 1.5])
        self.assertEqual(merged["counts"]["c"], 7)
        self.assertEqual(merged["memo"]["t"], [5, 2, 3])
        self.assertEqual(merged["import_s"], [0.1, 0.2])


class Percentiles(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(run.supported_percentile(9), 50)
        self.assertEqual(run.supported_percentile(99), 50)
        self.assertEqual(run.supported_percentile(100), 90)
        self.assertEqual(run.supported_percentile(999), 90)
        self.assertEqual(run.supported_percentile(1000), 99)

    def test_quantiles(self):
        values = list(range(1, 101))
        self.assertAlmostEqual(run.quantile(values, 50), 50.5)
        self.assertAlmostEqual(run.quantile(values, 90), 90.9)

    def test_p90_of_the_cli_mix_falls_in_the_tail_group(self):
        # 84 fast processes and 16 slow ones: p90 falls inside the slow
        # group, not in the gap between the two
        values = [0.1 + i * 1e-3 for i in range(84)] + [1.0 + i * 1e-2 for i in range(16)]
        self.assertAlmostEqual(run.quantile(values, 90), 1.0 + 5.9e-2)

    def test_reach_degree(self):
        self.assertEqual(run.reach_degree([(1, True), (5, True), (6, False)]), 5)
        self.assertEqual(run.reach_degree([(1, True), (3, False), (5, True)]), 2)
        self.assertEqual(run.reach_degree([(2, True), (7, True)]), 7)


class SpeedScaling(unittest.TestCase):
    def test_samples_inside_are_removed_and_set_the_speed(self):
        ref = speed.REFERENCE_S
        samples = [[0.0, 2 * ref], [1.0, ref], [2.0, 2 * ref]]
        # inside: the sample at 1.0; around: those at 0.0 and 2.0
        got = speed.scaled(samples, 0.5, 1.5)
        self.assertAlmostEqual(got, (1.0 - ref) * 3 / 5)

    def test_interval_between_samples(self):
        ref = speed.REFERENCE_S
        samples = [[0.0, ref], [3.0, 3 * ref]]
        self.assertAlmostEqual(speed.scaled(samples, 1.0, 2.0), 0.5)
        self.assertAlmostEqual(speed.scaled(samples, 4.0, 5.0), 1 / 3)

    def test_sampler_ticks_and_restores_the_handler(self):
        samples = []
        with speed.Sampler(samples):
            deadline = time.perf_counter() + 4 * speed.INTERVAL_S
            while time.perf_counter() < deadline:
                pass
        self.assertGreaterEqual(len(samples), 2)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)


class Ladder(unittest.TestCase):
    def test_step_over_budget_is_stopped(self):
        def step(n):
            time.sleep(0.01 if n == 6 else 30.0)

        start = time.perf_counter()
        done, stopped, times = child.run_ladder(step, (6, 7, 8), budget_s=0.2)
        self.assertLess(time.perf_counter() - start, 5.0)
        self.assertEqual(done, [6])
        self.assertEqual(stopped, 7)
        self.assertEqual(len(times), 2)
        self.assertGreaterEqual(times[1], 0.2)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)

    def test_all_steps_within_budget(self):
        done, stopped, times = child.run_ladder(lambda n: None, (6, 7), budget_s=1.0)
        self.assertEqual((done, stopped, len(times)), ([6, 7], None, 2))


class Inputs(unittest.TestCase):
    def test_set_partitions_are_bell_numbers_in_canonical_form(self):
        self.assertEqual([len(inputs.set_partitions(n)) for n in range(1, 7)],
                         [1, 2, 5, 15, 52, 203])
        for pi in inputs.set_partitions(4):
            self.assertEqual(list(pi), sorted(pi))

    def test_plans_follow_the_seed(self):
        self.assertEqual(inputs.basis_plan(3), inputs.basis_plan(3))
        self.assertNotEqual(inputs.basis_plan(3), inputs.basis_plan(4))
        self.assertEqual(inputs.cli_plan(3), inputs.cli_plan(3))
        self.assertNotEqual(inputs.cli_plan(3), inputs.cli_plan(4))
        plan = dict((name, opts) for name, opts, _ in inputs.verify_plan(11))
        self.assertEqual(plan["deltaact"]["seed"], 11)

    def test_cli_mix_is_fixed(self):
        for seed in (1, 2, 3):
            plan = inputs.cli_plan(seed)
            self.assertEqual(len(plan), 100)
            heavy = [a for a, c, d in plan if c[0] == "convert" and d == 5]
            self.assertEqual(len(heavy), 16)

    def test_goldens_cover_the_readme_commands(self):
        with open(os.path.join(HERE, "goldens.json")) as fh:
            goldens = json.load(fh)
        self.assertEqual([g["argv"] for g in goldens],
                         [c.split() for c in inputs.README_COMMANDS])


class Install(unittest.TestCase):
    def test_every_alias_is_rebound_and_restored(self):
        modules = tr.import_all()
        ncsym, schur, verify, sym = (modules[m] for m in ("ncsym", "schur", "verify", "sym"))
        before = (dict(ncsym._EXPANDERS), dict(verify.SUITES), schur.littlewood_richardson,
                  schur.to_m, ncsym.NCSymExpr.__eq__)
        t = tr.Tracer()
        undo = tr.install(t, modules)
        try:
            self.assertIs(schur.littlewood_richardson, sym.littlewood_richardson)
            self.assertIs(schur.to_m, ncsym.to_m)
            self.assertIsNot(schur.to_m, before[3])
            pi = ((1,), (2,))
            words = ncsym._EXPANDERS["h"](pi, 2)
            self.assertEqual(t.counts["ncsym.expand.words"], len(words))
            self.assertIn("ncsym.expand", t.summary())
            self.assertTrue(all(f is not before[1][k] for k, f in verify.SUITES.items()))
        finally:
            undo()
        self.assertEqual(dict(ncsym._EXPANDERS), before[0])
        self.assertEqual(dict(verify.SUITES), before[1])
        self.assertIs(schur.littlewood_richardson, before[2])
        self.assertIs(schur.to_m, before[3])

    def test_cache_census_names_every_table(self):
        tables = tr.cache_tables()
        self.assertEqual(sorted(tables), sorted(run.MEMO_TABLES))


class Metrics(unittest.TestCase):
    def test_benchmark_json_lists_what_run_prints(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
