"""Self-test of the latcert benchmark.

    python3 perfbench/selftest.py               # smoke size, under a minute
    python3 perfbench/selftest.py --size full   # full size, several minutes

For every workload it checks that
- an untraced run prints every report metric by name with its unit, and
  its JSON line carries exactly BENCHMARK.json's end-to-end metrics;
- a traced run reports exactly BENCHMARK.json's per-layer metrics, and two
  traced runs of the same input give identical counts (every `.calls` and
  every other metric counted in units of `count`);
and that without latcert's sources the benchmark exits non-zero and prints
no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SIZE = "smoke"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", SIZE],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise AssertionError(f"output checks failed: {result}\n{proc.stderr[-2000:]}")
    return result


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


class BenchmarkSelfTest(unittest.TestCase):
    def test_declared_metrics_match_the_code(self):
        self.assertEqual(declared("end_to_end"), run.END_TO_END)
        self.assertEqual(
            declared("per_layer"),
            {name: run.unit_of(name) for name in run.per_layer_names()},
        )
        self.assertLessEqual({w["name"] for w in BENCHMARK["workloads"]}, set(run.WORKLOADS))

    def test_untraced_run_prints_every_metric_with_its_unit(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                proc = bench(workload, trace=0)
                result = result_of(proc)
                self.assertEqual(units(result), declared("end_to_end"))
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))
                printed = {
                    line.split()[1]: line.split()[3]
                    for line in proc.stdout.splitlines()
                    if line.startswith("metric ")
                }
                self.assertEqual(
                    printed, {name: run.REPORT_UNITS[name] for name in run.REPORT[workload]}
                )

    def test_traced_counts_repeat_exactly(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first, second = (result_of(bench(workload, trace=1)) for _ in range(2))
                self.assertEqual(units(first), declared("per_layer"))
                counts = [
                    {n: m["value"] for n, m in r["metrics"].items()
                     if n.endswith(".calls") or m["unit"] == "count"}
                    for r in (first, second)
                ]
                self.assertEqual(counts[0], counts[1])

    def test_fails_without_the_program(self):
        bare = run.WORK / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = bench("cubic-search", trace=0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    if "--size" in sys.argv:
        i = sys.argv.index("--size")
        SIZE = sys.argv[i + 1]
        del sys.argv[i:i + 2]
    unittest.main()
