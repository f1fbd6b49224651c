#!/usr/bin/env python3
"""Tests of the benchmark's golden-output gate and compare verdicts.

    python3 perfbench/test_run.py

The gate tests drive `run.measure` with a stand-in for the benchmark
program that prints the golden outputs (or a given variation of them), so
they need no build.
"""

import copy
import json
import os
import stat
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

FAKE = """#!{python}
import json, sys
if "reference" in sys.argv:
    print(json.dumps({{"reference_s": 0.25}}))
else:
    call = json.loads({call!r})
    print(json.dumps({{"key": {key!r}, "call": call, "peak_rss_mb": 1.5, "spans": []}}))
"""


class GoldenGate(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def fake_program(self, call, key=None):
        """A stand-in program whose every call prints `call`."""
        path = os.path.join(self.tmp.name, "fake")
        with open(path, "w") as f:
            f.write(FAKE.format(python=sys.executable, call=json.dumps(call), key=key))
        os.chmod(path, os.stat(path).st_mode | stat.S_IEXEC)
        return path

    def measure(self, workload, call, golden, key=None):
        real = run.golden_for
        run.golden_for = lambda w: golden
        try:
            return run.measure(self.fake_program(call, key), workload, 1, 0, False)
        finally:
            run.golden_for = real

    @staticmethod
    def sim_call(golden):
        return {"ok": True, "wall_s": 1.25, "run_s": 1.0, "setup_s": 0.25, "user_s": 1.0,
                "sys_s": 0.0, "minor_faults": 10, "cycles": golden["cycles"],
                "proc_cycles": golden["proc_cycles"], "checksum": golden["checksum"]}

    def test_golden_outputs_pass(self):
        golden = run.golden_for("sor-ah32")
        rec = self.measure("sor-ah32", self.sim_call(golden), golden, golden["key"])
        self.assertEqual((rec["attempted"], rec["failed"]), (run.MIN_CALLS, 0))

    def test_perturbed_golden_cycles_fail_every_call(self):
        golden = run.golden_for("sor-ah32")
        call = self.sim_call(golden)
        perturbed = dict(golden, cycles=golden["cycles"] + 1)
        rec = self.measure("sor-ah32", call, perturbed, golden["key"])
        self.assertEqual(rec["failed"], rec["attempted"])
        line = run.result_line(rec, run.manifest())
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"] / line["attempted"], 1.0)

    def test_perturbed_golden_checksum_fails(self):
        golden = run.golden_for("mwater-as64")
        perturbed = dict(golden, checksum=golden["checksum"] * (1 + 1e-15))
        rec = self.measure("mwater-as64", self.sim_call(golden), perturbed, golden["key"])
        self.assertEqual(rec["failed"], rec["attempted"])

    def test_perturbed_tenant_checksum_fails(self):
        golden = run.golden_for("service-n2")
        call = {"ok": True, "wall_s": 1.0, "run_s": 1.0, "user_s": 0.5, "sys_s": 0.1,
                "minor_faults": 10, **{k: golden[k] for k in
                                      ("tenant_checksums", "completed", "crashes", "rollbacks", "shed")}}
        self.assertEqual(run.check(golden, call), [])
        perturbed = copy.deepcopy(golden)
        perturbed["tenant_checksums"][2] ^= 1
        self.assertEqual(len(run.check(perturbed, call)), 1)
        self.assertEqual(len(run.check(golden, dict(call, rollbacks=2, shed=3))), 2)

    def test_panicked_call_fails(self):
        golden = run.golden_for("sor-ah32")
        call = {"ok": False, "error": "deliberate", "wall_s": 0.1, "run_s": 0.1, "user_s": 0.0,
                "sys_s": 0.0, "minor_faults": 0}
        self.assertEqual(len(run.check(golden, call, golden["key"])), 1)

    def test_wrong_workload_key_fails(self):
        golden = run.golden_for("sor-ah32")
        self.assertTrue(run.check(golden, self.sim_call(golden), "sor-small|as/p128"))

    def test_run_beside_another_is_refused_and_marked(self):
        golden = run.golden_for("sor-ah32")
        # A process that looks like another checkout's benchmark run.
        other = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)",
                                  "elsewhere/perfbench/run.py"])
        try:
            self.assertIn(other.pid, run.other_runs())
            with self.assertRaises(run.BenchError):
                run.refuse_concurrent_runs()
            rec = self.measure("sor-ah32", self.sim_call(golden), golden, golden["key"])
        finally:
            other.kill()
            other.wait()
        fp = rec["fingerprint"]
        self.assertIn(other.pid, fp["other_runs_seen"])
        self.assertTrue(fp["oversubscribed"])
        self.assertEqual(fp["jobs"], 1 + len(fp["other_runs_seen"]))


class Verdict(unittest.TestCase):
    D = {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1}

    def test_consistent_gain_is_better(self):
        old = [10.0 + 0.01 * i for i in range(10)]
        new = [9.0 + 0.01 * i for i in range(10)]
        self.assertEqual(run.verdict(old, new, self.D)[2], "better")

    def test_wide_spread_is_unresolved(self):
        old = [10.0, 14.0, 9.0, 13.0, 8.0, 12.0, 10.0, 15.0, 9.0, 11.0]
        new = [x * 1.01 for x in old]
        self.assertTrue(run.verdict(old, new, self.D)[2].startswith("unresolved"))

    def test_slowdown_beyond_bound_is_regression(self):
        old = [10.0 + 0.01 * i for i in range(10)]
        new = [x * 1.2 for x in old]
        self.assertTrue(run.verdict(old, new, self.D)[2].startswith("REGRESSION"))

    def test_noise_within_bound_is_no_change(self):
        old = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.05, 9.95]
        new = list(reversed(old))
        self.assertEqual(run.verdict(old, new, self.D)[2], "no change beyond bound")


if __name__ == "__main__":
    unittest.main()
