"""Short runs of every workload with the correctness gate on.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, cwd=ROOT, runner=None):
    proc = subprocess.run(
        [sys.executable, runner or os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "3",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    last = lines[-1] if lines and lines[-1].startswith("{") else None
    return proc.returncode, (json.loads(last) if last else None), proc


class Workloads(unittest.TestCase):
    def test_every_workload(self):
        s = spec()
        end_to_end = {m["name"] for m in s["end_to_end"]}
        per_layer = {m["name"] for m in s["per_layer"]}
        for w in s["workloads"]:
            with self.subTest(workload=w["name"]):
                code, plain, proc = run(w["name"], 0)
                self.assertEqual(code, 0, proc.stdout + proc.stderr)
                self.assertTrue(plain["correct"])
                self.assertEqual(plain["failed"], 0)
                self.assertGreater(plain["attempted"], 0)
                self.assertEqual(set(plain["metrics"]), end_to_end)
                code, traced, proc = run(w["name"], 1)
                self.assertEqual(code, 0, proc.stdout + proc.stderr)
                self.assertTrue(traced["correct"])
                self.assertEqual(set(traced["metrics"]), per_layer)
                # The traced path gives the same words, cycles and outputs.
                for name in ("code_words", "sim_cycles", "compiled_share"):
                    self.assertEqual(traced["metrics"]["check." + name]["value"],
                                     plain["metrics"][name]["value"], name)

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".perfbench", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            code, _, proc = run("dsp-long", 0, cwd=bare,
                                runner=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(code, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
