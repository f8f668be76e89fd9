#!/usr/bin/env python3
"""Tests of the benchmark itself, at tiny input sizes.

    python3 perfbench/test_perfbench.py

Builds the binary through run.py (same build directory), then checks:
the metric names and units printed equal BENCHMARK.json; traced self
times plus bench.unattributed_s sum to the traced wall time; the trace
file is Chrome trace-event JSON whose serve spans carry request ids;
simulated values repeat exactly for one seed; the benchmark's serve
loop reproduces CcServer::run; the CC and baseline kernels are correct
at full size; bad arguments are refused.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
EXE = None

# Per-layer metrics that are self times of spans; with
# bench.unattributed_s they partition the traced wall time.
SELF_TIMES = ["workload.gen_s", "sim.init_s", "sim.load_s", "sim.warm_s",
              "sim.dump_s", "sim.engine_s", "serve.build_s",
              "serve.offer_s", "serve.dispatch_s", "serve.verify_s",
              "serve.recycle_s", "bench.unattributed_s"]


def bench(workload, seed=1, trace=0, extra=(), size="tiny"):
    out = subprocess.run(
        [EXE, "--workload", workload, "--seed", str(seed), "--seconds",
         "0.05", "--trace", str(trace), "--size", size, *extra],
        capture_output=True, text=True, timeout=120)
    lines = out.stdout.strip().splitlines()
    return out.returncode, json.loads(lines[-1]), out.stdout


def setUpModule():
    global EXE
    EXE = run.build()


class MetricNames(unittest.TestCase):
    def check(self, trace, section):
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        for w in SPEC["workloads"]:
            code, result, _ = bench(w["name"], trace=trace)
            self.assertEqual(code, 0, w["name"])
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, want, w["name"])

    def test_end_to_end_names(self):
        self.check(0, "end_to_end")

    def test_per_layer_names(self):
        self.check(1, "per_layer")


class TracedRun(unittest.TestCase):
    def test_self_times_sum_to_traced_wall(self):
        for w in ("serve_zipf", "kernels_cc"):
            _, result, _ = bench(w, trace=1)
            m = {k: v["value"] for k, v in result["metrics"].items()}
            total = sum(m[name] for name in SELF_TIMES)
            self.assertAlmostEqual(total, m["bench.traced_wall_s"],
                                   delta=1e-9 * max(1.0, total), msg=w)
            self.assertGreater(m["bench.traced_wall_s"], 0.0)
            self.assertIn("bench.trace_overhead_s", m)

    def test_trace_file_is_chrome_json_with_request_ids(self):
        path = os.path.join(run.build_dir(), "test-serve-trace.json")
        code, _, _ = bench("serve_zipf", trace=1,
                           extra=("--trace-out", path))
        self.assertEqual(code, 0)
        with open(path) as f:
            doc = json.load(f)
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        self.assertTrue(spans)
        by_request = {}
        for e in spans:
            self.assertGreaterEqual(e["dur"], 0.0)
            if "request" in e["args"]:
                by_request.setdefault(e["args"]["request"], set()).add(
                    e["name"])
        names = set().union(*by_request.values())
        self.assertTrue({"serve.build", "serve.offer", "serve.verify",
                         "serve.recycle"} <= names)
        waves = [e for e in spans if e["name"] == "serve.dispatch"]
        self.assertTrue(waves)
        self.assertTrue(all(e["args"]["requests"] for e in waves))
        for e in waves:
            for rid in e["args"]["requests"]:
                self.assertIn("serve.verify", by_request[rid])


class Determinism(unittest.TestCase):
    def test_sim_metrics_repeat_for_a_seed(self):
        for w in ("serve_zipf", "kernels_cc"):
            runs = [bench(w, seed=7)[1]["metrics"] for _ in range(2)]
            sim = [{k: v["value"] for k, v in r.items()
                    if k.startswith("sim_")} for r in runs]
            self.assertEqual(sim[0], sim[1], w)

    def test_per_layer_counts_repeat_for_a_seed(self):
        host = {m["name"] for m in SPEC["per_layer"]
                if m["unit"] in ("s", "us", "ns")}
        runs = [bench("serve_zipf", seed=3, trace=1)[1]["metrics"]
                for _ in range(2)]
        counts = [{k: v["value"] for k, v in r.items()
                   if k not in host and "samples" not in k} for r in runs]
        self.assertEqual(counts[0], counts[1])


class Correctness(unittest.TestCase):
    def test_serve_loop_matches_cc_server(self):
        out = subprocess.run([EXE, "--check-serve-report", "--size", "tiny",
                              "--seed", "5"],
                             capture_output=True, text=True, timeout=120)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        self.assertIn("report identical, stats identical", out.stdout)

    def test_kernels_correct_at_full_size(self):
        # The same 2 MB regions and call stream as the benchmark runs.
        # Each engine's destination bytes are checked against the host
        # reference, so passing both means they leave identical memory.
        for w in ("kernels_cc", "kernels_base"):
            code, result, _ = bench(w, seed=11, size="full")
            self.assertEqual(code, 0, w)
            self.assertTrue(result["correct"], w)
            self.assertEqual(result["failed"], 0, w)

    def test_bad_arguments_are_refused(self):
        for args in (["--workload", "nope"], ["--seed", "1"],
                     ["--workload", "kernels_cc", "--trace", "2"]):
            out = subprocess.run([EXE, *args], capture_output=True,
                                 text=True, timeout=60)
            self.assertNotEqual(out.returncode, 0, args)
            self.assertEqual(out.stdout, "", args)


if __name__ == "__main__":
    unittest.main()
