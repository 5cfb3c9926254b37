"""Tests of the benchmark harness itself (no `ipg` build needed).

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v
"""

import json
import os
import re
import sys
import unittest

sys.dont_write_bytecode = True
BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

PY = sys.executable


def sample(stdout, status=0):
    return run.Sample(wall=1.0, setup=0.1, cpu=1.0, rss_mb=10.0, status=status,
                      stdout=stdout, stderr=b"")


class StdoutParserTest(unittest.TestCase):
    def test_reference_outputs_parse(self):
        dense = run.parse_sim_stdout(run.read_reference("sim-codec-dense.stdout").decode())
        self.assertEqual(dense, run.CODEC_DENSE_EXPECT)
        big = run.parse_sim_stdout(run.read_reference("sim-sparse-big.stdout").decode())
        self.assertEqual(big, run.SPARSE_BIG_EXPECT)

    def test_truncated_output_fails_the_check(self):
        text = "injected:   10\ndelivered:  10 (100.0%)\n"
        self.assertEqual(run.check_sim_values(run.parse_sim_stdout(text), {}),
                         ["simulate output lacks injected/delivered/in flight"])


class SetupTimestampTest(unittest.TestCase):
    SCRIPT = ("import time\n"
              "print('network:    x', flush=True)\n"
              "time.sleep(0.4)\n"
              "print('rate:       0.1', flush=True)\n"
              "time.sleep(0.4)\n"
              "print('injected:   1', flush=True)\n")

    def test_rate_line_marks_setup(self):
        s = run.run_command([PY, "-c", self.SCRIPT], is_setup_line=run.setup_line_for(["simulate"]))
        self.assertEqual(s.status, 0)
        self.assertGreater(s.setup, 0.35)
        self.assertLess(s.setup, s.wall - 0.3)
        self.assertEqual(s.stdout.count(b"\n"), 3)

    def test_first_row_marks_compare_setup(self):
        script = self.SCRIPT.replace("'rate:       0.1'", "'Q12  4096'")
        s = run.run_command([PY, "-c", script], is_setup_line=run.setup_line_for(["compare"]))
        self.assertGreater(s.setup, 0.35)
        self.assertLess(s.setup, s.wall - 0.3)

    def test_missing_marker_counts_whole_run(self):
        s = run.run_command([PY, "-c", "print('no marker')"],
                            is_setup_line=run.setup_line_for(["simulate"]))
        self.assertEqual(s.setup, s.wall)

    def test_stop_at_setup_kills_the_child(self):
        script = "import time\nprint('rate:       0.1', flush=True)\ntime.sleep(60)\n"
        s = run.run_command([PY, "-c", script], is_setup_line=run.setup_line_for(["simulate"]),
                            stop_at_setup=True)
        self.assertLess(s.wall, 10)
        self.assertNotEqual(s.status, 0)


class GateTest(unittest.TestCase):
    def test_references_pass(self):
        for workload, spec in run.WORKLOADS.items():
            ref = run.read_reference(spec["reference"])
            self.assertEqual(run.gate(workload, sample(ref), ref), [], workload)

    def test_corrupted_delivered_count_fails(self):
        ref = run.read_reference("sim-sparse-big.stdout")
        bad = ref.replace(b"delivered:  104899", b"delivered:  104898")
        self.assertNotEqual(bad, ref)
        reasons = run.gate("sparse-big", sample(bad), ref)
        self.assertTrue(any(r.startswith("conservation") for r in reasons), reasons)
        self.assertTrue(any(r.startswith("delivered") for r in reasons), reasons)

    def test_one_byte_dist_diff_fails(self):
        ref = run.read_reference("sim-sparse-big.stdout")
        i = ref.index(b"throughput: 0.0002") + len(b"throughput: 0.000")
        bad = ref[:i] + b"3" + ref[i + 1:]
        self.assertEqual(len(bad), len(ref))
        reasons = run.gate("sparse-big-dist2", sample(bad), ref)
        self.assertEqual(reasons, ["stdout differs from reference/sim-sparse-big.stdout"])

    def test_nonzero_exit_fails(self):
        ref = run.read_reference("sim-codec-dense.stdout")
        reasons = run.gate("codec-dense", sample(ref, status=1), ref)
        self.assertEqual(len(reasons), 1)
        self.assertTrue(reasons[0].startswith("exit status 1"))

    def test_fig2_cross_check(self):
        table = run.read_reference("compare-paper-costs.stdout").decode()
        rows = run.load_fig2()
        self.assertEqual(run.check_fig2(table, rows), ([], 9))
        wrong = [dict(r, diameter=r["diameter"] + 1) if r["family"] == "star" else r
                 for r in rows]
        reasons, _ = run.check_fig2(table, wrong)
        self.assertEqual(len(reasons), 1)
        self.assertTrue(reasons[0].startswith("S7"))


class PeakRssTest(unittest.TestCase):
    def test_peak_rss_is_per_child(self):
        big = run.run_command([PY, "-c", "b = bytearray(96 << 20)\n"
                                          "for i in range(0, len(b), 4096): b[i] = 1\n"])
        small = run.run_command([PY, "-c", "pass"])
        self.assertGreater(big.rss_mb, 90)
        self.assertLess(small.rss_mb, big.rss_mb / 2)


class MetricsTest(unittest.TestCase):
    def test_medians_and_post_setup_rate(self):
        samples = [run.Sample(w, 0.5, w, 20.0, 0, b"", b"") for w in (7.0, 6.5, 9.0)]
        m = run.end_to_end_metrics(samples, [0.5, 0.4, 0.5, 0.6, 0.45], run.SIM_CYCLES)
        self.assertEqual(m["wall_s"], {"value": 7.0, "unit": "s"})
        self.assertEqual(m["setup_s"]["value"], 0.5)
        self.assertAlmostEqual(m["sim_cycles_per_s"]["value"], 6500 / 6.5)

    def test_names_match_benchmark_json(self):
        with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([m["name"] for m in bench["end_to_end"]],
                         [n for n, _ in run.END_TO_END])
        layer_names = [n for _, group, _, _ in run.LAYERS for n in group]
        self.assertEqual([m["name"] for m in bench["per_layer"]], layer_names)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, run.LAYER_UNITS)
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]), sorted(run.WORKLOADS))
        with open(os.path.join(BENCH_DIR, "layers", "src", "main.rs")) as f:
            block = re.search(r"const METRICS: &\[&str\] = &\[(.*?)\];", f.read(), re.S).group(1)
        probe = re.findall(r'"([^"]+)"', block)
        self.assertEqual(probe + ["trace.overhead_pct"], layer_names)

    def test_layer_warnings(self):
        self.assertEqual(run.layer_warnings({"engine.self_s": 0.1, "rng.share": 0.4}), [])
        self.assertEqual(len(run.layer_warnings({"engine.self_s": -0.1, "tuple_routing.share": 1.2})), 2)


if __name__ == "__main__":
    unittest.main()
