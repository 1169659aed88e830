"""Self-test of the benchmark harness, on tiny grids.

Usage, from the root of a checkout: ``python3 perfbench/selftest.py``
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import reference
import run
import workloads


def _run_benchmark(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class RecordedCounts(unittest.TestCase):
    def test_recorded_counts_match_the_independent_counts(self):
        counters = {"alt": lambda o: reference.count_alt(int(o["--n"]), int(o["--k"])),
                    "pv": lambda o: reference.count_pv(int(o["--ell"]), int(o["--n"]), int(o["--k"])),
                    "rpp": lambda o: reference.count_rpp(int(o["--n"]), int(o["--m"]), int(o["--k"])),
                    "motzkin": lambda o: reference.count_motzkin(int(o["--n"]), int(o["--k"]))}
        for text, recorded in workloads.RECORDED_COUNTS.items():
            argv = text.split()
            with self.subTest(text):
                self.assertEqual(counters[argv[1]](workloads._options(argv)), recorded)


class TinyRuns(unittest.TestCase):
    def test_every_workload_runs_and_checks_its_outputs(self):
        names = [m["name"] for m in run._metric_specs()["end_to_end"]]
        for name in workloads.NAMES:
            with self.subTest(name):
                proc = _run_benchmark("--workload", name, "--seed", "3", "--seconds", "1",
                                      "--trace", "0", "--tiny")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                res = _result(proc)
                self.assertTrue(res["correct"])
                self.assertEqual(sorted(res["metrics"]), sorted(names))
                # the known ExactDivisionError is one of rational-backward's three
                known = res["attempted"] // 3 if name == "rational-backward" else 0
                self.assertEqual(res["failed"], known, proc.stdout)
                if known:
                    self.assertIn("ExactDivisionError", proc.stdout)

    def test_traced_run_reports_every_layer_metric(self):
        proc = _run_benchmark("--workload", "symbolic-grid", "--seed", "3", "--seconds", "1",
                              "--trace", "1", "--tiny")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        metrics = _result(proc)["metrics"]
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in run._metric_specs()["per_layer"]))
        for name in workloads.build("symbolic-grid", 3).dominant:
            self.assertGreater(metrics[name]["value"], 0, name)

    def test_corrupted_expected_value_is_a_failure(self):
        wl = workloads.build("numeric-oracle", 3, tiny=True)
        idx = next(i for i, inv in enumerate(wl.invocations) if inv.expected_count)
        bad = list(wl.invocations)
        bad[idx] = workloads.Invocation(bad[idx].argv, bad[idx].limit_s,
                                        bad[idx].expected_count + 1)
        wl = workloads.Workload(wl.name, tuple(bad), wl.dominant)
        p = run.run_pass(wl, False, 60)
        run.grade(wl, p, workloads.Checker())
        self.assertEqual(len(p.failures), 1, p.failures)
        self.assertTrue(p.wrong_output)
        self.assertGreater(p.wall_s, wl.invocations[idx].limit_s)

    def test_checkout_without_sources_is_refused(self):
        scratch = run.ROOT / ".perfbench"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = _run_benchmark("--workload", "symbolic-grid", "--seed", "1", "--seconds", "1",
                                  "--trace", "0", cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
