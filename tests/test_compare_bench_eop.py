#!/usr/bin/env python3
"""Exit-code contract tests for tools/compare_bench_eop.py.

The guard script is run by CI's bench-smoke job; a raw traceback there
used to be indistinguishable from a genuine throughput regression. These
tests pin the documented contract:

  0 -- within tolerance
  1 -- regression (throughput floor, batched-slower-than-scalar,
       profiler-enabled overhead beyond --max-overhead, a BGK cost
       multiplier beyond 2x, or an LBO cost multiplier beyond 3x)
  2 -- missing/unreadable input file
  3 -- valid JSON but missing schema key

Run directly (python3 tests/test_compare_bench_eop.py) or via ctest,
which registers it when a Python3 interpreter is found at configure
time. Stdlib only: unittest + subprocess, no third-party deps.
"""

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "tools" / "compare_bench_eop.py"


def bench_doc(batched, scalar, profiled=None, bgk=1.0, lbo=2.0):
    eop = {"vlasov": batched, "vlasov_scalar": scalar}
    if profiled is not None:
        eop["vlasov_profiled"] = profiled
    return {"eop": eop, "cost_multiplier": {"bgk": bgk, "lbo": lbo}}


class CompareBenchEopExitCodes(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = pathlib.Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, name, doc):
        path = self.dir / name
        path.write_text(json.dumps(doc))
        return path

    def run_guard(self, current, baseline):
        return subprocess.run(
            [sys.executable, str(SCRIPT), str(current), "--baseline", str(baseline)],
            capture_output=True,
            text=True,
        )

    def test_ok_within_tolerance_exits_0(self):
        cur = self.write("cur.json", bench_doc(2.0e9, 1.0e9))
        base = self.write("base.json", bench_doc(2.0e9, 1.0e9))
        proc = self.run_guard(cur, base)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("OK", proc.stdout)

    def test_regression_exits_1(self):
        cur = self.write("cur.json", bench_doc(1.0e9, 0.5e9))
        base = self.write("base.json", bench_doc(2.0e9, 1.0e9))
        proc = self.run_guard(cur, base)
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("regressed", proc.stderr)

    def test_batched_slower_than_scalar_exits_1(self):
        cur = self.write("cur.json", bench_doc(1.0e9, 1.5e9))
        base = self.write("base.json", bench_doc(1.0e9, 0.5e9))
        proc = self.run_guard(cur, base)
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("slower than scalar", proc.stderr)

    def test_profiled_within_overhead_exits_0(self):
        # 1% slowdown with the profiler on: inside the 2% default budget.
        cur = self.write("cur.json", bench_doc(2.0e9, 1.0e9, profiled=1.98e9))
        base = self.write("base.json", bench_doc(2.0e9, 1.0e9))
        proc = self.run_guard(cur, base)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("profiler-enabled", proc.stdout)

    def test_profiled_overhead_beyond_budget_exits_1(self):
        # 5% slowdown with the profiler on: over the 2% budget.
        cur = self.write("cur.json", bench_doc(2.0e9, 1.0e9, profiled=1.9e9))
        base = self.write("base.json", bench_doc(2.0e9, 1.0e9))
        proc = self.run_guard(cur, base)
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("overhead too high", proc.stderr)

    def test_pre_instrumentation_schema_still_compares(self):
        # Old BENCH_eop.json without eop.vlasov_profiled: the overhead gate
        # is skipped rather than tripping the schema error.
        cur = self.write("cur.json", bench_doc(2.0e9, 1.0e9))
        base = self.write("base.json", bench_doc(2.0e9, 1.0e9))
        proc = self.run_guard(cur, base)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertNotIn("profiler-enabled", proc.stdout)

    def test_bgk_multiplier_within_gate_exits_0(self):
        cur = self.write("cur.json", bench_doc(2.0e9, 1.0e9, bgk=1.4))
        base = self.write("base.json", bench_doc(2.0e9, 1.0e9))
        proc = self.run_guard(cur, base)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("BGK cost multiplier 1.40x", proc.stdout)

    def test_bgk_multiplier_beyond_gate_exits_1(self):
        # 4.2x: the quadrature-projection BGK, over the 2x gate.
        cur = self.write("cur.json", bench_doc(2.0e9, 1.0e9, bgk=4.2))
        base = self.write("base.json", bench_doc(2.0e9, 1.0e9))
        proc = self.run_guard(cur, base)
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("BGK cost multiplier too high", proc.stderr)

    def test_lbo_multiplier_within_gate_exits_0(self):
        cur = self.write("cur.json", bench_doc(2.0e9, 1.0e9, lbo=2.6))
        base = self.write("base.json", bench_doc(2.0e9, 1.0e9))
        proc = self.run_guard(cur, base)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("LBO cost multiplier 2.60x", proc.stdout)

    def test_lbo_multiplier_beyond_gate_exits_1(self):
        # 7.0x: the tape-interpreted LBO, over the 3x gate.
        cur = self.write("cur.json", bench_doc(2.0e9, 1.0e9, lbo=7.0))
        base = self.write("base.json", bench_doc(2.0e9, 1.0e9))
        proc = self.run_guard(cur, base)
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("LBO cost multiplier too high", proc.stderr)

    def test_missing_file_exits_2_with_one_line_message(self):
        base = self.write("base.json", bench_doc(2.0e9, 1.0e9))
        proc = self.run_guard(self.dir / "does_not_exist.json", base)
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertIn("cannot read", proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)

    def test_invalid_json_exits_2(self):
        cur = self.dir / "broken.json"
        cur.write_text("{not json")
        base = self.write("base.json", bench_doc(2.0e9, 1.0e9))
        proc = self.run_guard(cur, base)
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertIn("not valid JSON", proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)

    def test_missing_schema_key_exits_3(self):
        cur = self.write("cur.json", {"eop": {"vlasov_renamed": 2.0e9}})
        base = self.write("base.json", bench_doc(2.0e9, 1.0e9))
        proc = self.run_guard(cur, base)
        self.assertEqual(proc.returncode, 3, proc.stderr)
        self.assertIn("missing key", proc.stderr)
        self.assertIn("eop.vlasov", proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)


if __name__ == "__main__":
    unittest.main()
