#!/usr/bin/env python3
"""The benchmark's own test: every workload at reduced size (--smoke).

    python3 perfbench/test_perfbench.py

Builds through run.py, then runs each workload of BENCHMARK.json in the timed
(--trace 0) and traced (--trace 1) modes, once with APT_NUM_THREADS=1 and once
with the benchmark's own thread count, and checks that
  * each run exits 0 with a well-formed, correct result line;
  * every metric BENCHMARK.json names is printed, with its unit;
  * every metric that does not measure the host (simulated seconds, counts,
    bytes, accuracy, planner regret) is identical across the two thread counts.
"""
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as perfbench  # noqa: E402

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
THREADS = int(SPEC["command"][SPEC["command"].index("--threads") + 1])
HOST_UNITS = {"s", "s/step", "ncpu_s", "seeds/ncpu_s", "req/ncpu_s", "MB", "cores"}
HOST_PREFIXES = ("runtime.", "obs.")


def measures_host(name, unit):
    return unit in HOST_UNITS or name.startswith(HOST_PREFIXES)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = perfbench.build()

    def run_smoke(self, workload, trace, threads):
        code, lines = perfbench.run(self.binary, workload, seed=5, seconds=1, trace=trace,
                                    threads=threads, smoke=True)
        self.assertEqual(code, 0, "\n".join(lines[-20:]))
        res = perfbench.parse_result(lines[-1])
        self.assertIsNotNone(res, lines[-1])
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        return res["metrics"]

    def check_workload(self, workload):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(workload=workload, trace=trace):
                own = self.run_smoke(workload, trace, THREADS)
                single = self.run_smoke(workload, trace, 1)
                for m in SPEC[key]:
                    self.assertIn(m["name"], own)
                    self.assertEqual(own[m["name"]]["unit"], m["unit"], m["name"])
                    self.assertIsInstance(own[m["name"]]["value"], (int, float))
                self.assertEqual(set(own), {m["name"] for m in SPEC[key]})
                for name, v in own.items():
                    if not measures_host(name, v["unit"]):
                        self.assertEqual(v["value"], single[name]["value"],
                                         f"{name} differs between 1 and {THREADS} threads")


for _w in SPEC["workloads"]:
    setattr(SmokeTest, "test_" + _w["name"].replace("-", "_"),
            lambda self, w=_w["name"]: self.check_workload(w))

if __name__ == "__main__":
    unittest.main()
