#!/usr/bin/env python3
"""Unit tests for the verdict of the CI speed gate (tools/perf_ab.py).

Fixed samples stand in for perfbench results, so the tests pin the
rule itself: a regression must clear both the metric's BENCHMARK.json
bound and the base's IQR, and a run that is wrong fails regardless of
its speed.  The per-workload stats line names the seeds whose
sim.stats_digest moved and never changes the verdict.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tools"))
import perf_ab  # noqa: E402

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
RATE = {"name": "measured_macc_per_s", "unit": "Macc/s", "better": "higher",
        "bound": 0.25}
RSS = {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}
METRICS = [WALL, RATE, RSS]


def result(wall=10.0, rate=4.0, rss=100.0, correct=True, failed=0,
           digest="33da0a9b4f81"):
    return {"correct": correct, "attempted": 40, "failed": failed,
            "stats_digest": digest,
            "metrics": {"wall_s": {"value": wall},
                        "measured_macc_per_s": {"value": rate},
                        "peak_rss_mb": {"value": rss}}}


TIGHT_WALLS = [9.9, 10.0, 10.0, 10.1, 10.05]
WIDE_WALLS = [6.0, 8.0, 10.0, 12.0, 14.0]  # median 10, IQR 4


def verdicts(base, change):
    rows, problems = perf_ab.judge(METRICS, base, change)
    return {r["metric"]: r["verdict"] for r in rows}, problems


class VerdictTest(unittest.TestCase):
    def test_identical_samples_pass(self):
        runs = [result(wall=w) for w in TIGHT_WALLS]
        got, problems = verdicts(runs, runs)
        self.assertEqual(problems, [])
        self.assertEqual(set(got.values()), {"ok"})

    def test_slower_beyond_tight_iqr_fails(self):
        base = [result(wall=w) for w in TIGHT_WALLS]
        change = [result(wall=1.3 * w) for w in TIGHT_WALLS]
        got, problems = verdicts(base, change)
        self.assertEqual(got["wall_s"], "REGRESSION")
        self.assertEqual(len(problems), 1)
        self.assertIn("wall_s +30.0%", problems[0])

    def test_slower_inside_wide_iqr_is_unresolved(self):
        base = [result(wall=w) for w in WIDE_WALLS]
        change = [result(wall=1.3 * w) for w in WIDE_WALLS]
        got, problems = verdicts(base, change)
        self.assertEqual(got["wall_s"], "unresolved")
        self.assertEqual(problems, [])

    def test_spread_wider_than_bound_is_unresolved(self):
        base = [result(wall=w) for w in [4.0, 7.0, 10.0, 13.0, 16.0]]
        change = [result(wall=10.0) for _ in range(5)]
        got, problems = verdicts(base, change)
        self.assertEqual(got["wall_s"], "unresolved")
        self.assertEqual(problems, [])
        faster = [result(wall=3.0) for _ in range(5)]
        self.assertEqual(verdicts(base, faster)[0]["wall_s"], "ok")

    def test_lower_rate_is_worse(self):
        base = [result(rate=4.0 + 0.01 * i) for i in range(5)]
        change = [result(rate=2.0) for _ in range(5)]
        got, problems = verdicts(base, change)
        self.assertEqual(got["measured_macc_per_s"], "REGRESSION")
        self.assertEqual(len(problems), 1)

    def test_faster_passes_and_counts_wins(self):
        base = [result(wall=w) for w in TIGHT_WALLS]
        change = [result(wall=0.5 * w) for w in TIGHT_WALLS]
        rows, problems = perf_ab.judge(METRICS, base, change)
        self.assertEqual(problems, [])
        self.assertEqual(rows[0]["wins"], 5)
        self.assertAlmostEqual(rows[0]["delta_pct"], -50.0)

    def test_rss_growth_beyond_its_bound_fails(self):
        base = [result(rss=100.0) for _ in range(5)]
        change = [result(rss=112.0) for _ in range(5)]
        got, problems = verdicts(base, change)
        self.assertEqual(got["peak_rss_mb"], "REGRESSION")
        self.assertEqual(len(problems), 1)

    def test_incorrect_change_run_fails(self):
        base = [result() for _ in range(5)]
        change = [result() for _ in range(4)] + [result(correct=False)]
        got, problems = verdicts(base, change)
        self.assertEqual(set(got.values()), {"ok"})
        self.assertEqual(problems,
                         ["a run of the change reported correct: false"])

    def test_more_failed_cells_fails(self):
        base = [result() for _ in range(5)]
        change = [result(failed=1)] + [result() for _ in range(4)]
        _, problems = verdicts(base, change)
        self.assertEqual(len(problems), 1)
        self.assertIn("failed/attempted", problems[0])


class StatsLineTest(unittest.TestCase):
    SEEDS = range(100, 105)

    def test_equal_digests_are_identical(self):
        runs = [result() for _ in self.SEEDS]
        self.assertEqual(perf_ab.stats_line(self.SEEDS, runs, runs),
                         "stats identical at all 5 seeds")

    def test_moved_digests_name_their_seeds_and_keep_the_verdict(self):
        base = [result() for _ in self.SEEDS]
        change = [result(digest="47b2680507e5" if i in (1, 3) else
                         "33da0a9b4f81") for i in range(5)]
        self.assertEqual(perf_ab.stats_line(self.SEEDS, base, change),
                         "stats differ at seeds 101, 103")
        got, problems = verdicts(base, change)
        self.assertEqual(problems, [])
        self.assertEqual(set(got.values()), {"ok"})

    def test_digest_is_read_from_perfbench_stdout(self):
        out = ("workload steady seed 100: 12 passes in 24.3 s\n"
               "  wall_s = 1.7 s\n"
               "  sim.stats_digest = 33da0a9b4f81\n"
               '{"correct": true, "attempted": 216, "failed": 0, '
               '"metrics": {}}\n')
        run = perf_ab.parse_run(out)
        self.assertEqual(run["stats_digest"], "33da0a9b4f81")
        self.assertTrue(run["correct"])
        self.assertIsNone(perf_ab.parse_run('{"correct": true}')
                          ["stats_digest"])

    def test_missing_digest_counts_as_differing(self):
        base = [result(digest=None)] + [result() for _ in range(4)]
        change = [result(digest=None)] + [result() for _ in range(4)]
        self.assertEqual(perf_ab.stats_line(self.SEEDS, base, change),
                         "stats differ at seeds 100")


class ArgsTest(unittest.TestCase):
    def test_defaults_are_five_pairs_from_seed_100(self):
        args = perf_ab.parse_args(["HEAD~1"])
        self.assertEqual((args.base_ref, args.pairs, args.seed0),
                         ("HEAD~1", 5, 100))

    def test_pairs_and_seed0(self):
        args = perf_ab.parse_args(["main", "--pairs", "10", "--seed0",
                                   "200"])
        self.assertEqual((args.base_ref, args.pairs, args.seed0),
                         ("main", 10, 200))

    def test_fewer_than_two_pairs_is_refused(self):
        with self.assertRaises(SystemExit):
            perf_ab.parse_args(["main", "--pairs", "1"])


if __name__ == "__main__":
    unittest.main()
