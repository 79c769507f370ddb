"""Self-tests of the benchmark itself; not part of the package's test suite.

    python3 benchmarks/selftest.py

Runs every workload at a tiny size through the same entry point (seeds 0 and
1, untraced and traced), checks that the output checker rejects corrupted and
nondeterministic reports, and checks the self-time arithmetic on a synthetic
nested trace.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check_outputs  # noqa: E402
from run import _trace_problems  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

HEADER = (
    "task,ell,train_fraction,sigma,repetition,ri,nmi,mu,residual,constraint_violation,"
    "linearization_violations,certified,scaled,error\n"
)


def _report(ri="0.9", nmi="0.8", rows=2):
    body = "".join(
        f"cluster,1,0.5,1.0,{rep},{ri},{nmi},0.5,1e-09,0.0,0.3,true,true,\n" for rep in range(rows)
    )
    return (HEADER + body).encode()


def _manifest(ri_mean=0.9):
    payload = {"reports": [{"selected_sigma": 1.0, "aggregates": [
        {"sigma": 1.0, "ri_mean": ri_mean, "nmi_mean": 0.8}]}]}
    return json.dumps(payload).encode()


def _worker(report=None, manifest=None, exit_code=0):
    return {
        "exit_code": exit_code,
        "report": _report() if report is None else report,
        "manifest": _manifest() if manifest is None else manifest,
    }


class TinyWorkloads(unittest.TestCase):
    def test_every_workload_both_seeds_both_modes(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"] for m in spec[key]}
            for seed in (0, 1):
                with self.subTest(trace=trace, seed=seed):
                    proc = subprocess.run(
                        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--size",
                         "tiny", "--seconds", "1", "--seed", str(seed), "--trace", str(trace)],
                        cwd=ROOT, capture_output=True, text=True, timeout=170,
                    )
                    self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                    results = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(sorted(results), sorted(names))
                    for result in results.values():
                        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                        self.assertTrue(result["correct"])
                        self.assertGreaterEqual(result["attempted"], 1)
                        self.assertEqual(set(result["metrics"]), declared)


class Checker(unittest.TestCase):
    def test_accepts_identical_good_outputs(self):
        self.assertEqual(check_outputs([_worker(), _worker()], expected_rows=2), [])

    def test_rejects_nonzero_exit(self):
        self.assertTrue(check_outputs([_worker(), _worker(exit_code=1)], expected_rows=2))

    def test_rejects_missing_row(self):
        bad = _report(rows=1)
        self.assertTrue(check_outputs([_worker(bad), _worker(bad)], expected_rows=2))

    def test_rejects_score_out_of_range(self):
        bad = _report(ri="1.5")
        self.assertTrue(check_outputs([_worker(bad), _worker(bad)], expected_rows=2))
        bad_manifest = _manifest(ri_mean=-0.1)
        self.assertTrue(check_outputs([_worker(manifest=bad_manifest)] * 2, expected_rows=2))

    def test_rejects_corrupt_report(self):
        for bad in (_report(ri="abc"), b"\xff\xfe not text"):
            with self.subTest(report=bad[:20]):
                self.assertTrue(check_outputs([_worker(bad), _worker(bad)], expected_rows=2))

    def test_rejects_corrupt_manifest(self):
        self.assertTrue(check_outputs([_worker(manifest=b"{not json")] * 2, expected_rows=2))

    def test_rejects_nondeterministic_report(self):
        other = _report(ri="0.9000000000000001")
        problems = check_outputs([_worker(), _worker(other)], expected_rows=2)
        self.assertTrue(any("differs" in p for p in problems))

    def test_rejects_nondeterministic_manifest(self):
        problems = check_outputs([_worker(), _worker(manifest=_manifest(0.8))], expected_rows=2)
        self.assertTrue(any("differs" in p for p in problems))


class SelfTime(unittest.TestCase):
    def test_nested_trace(self):
        # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
        spans = [
            (0, "root", None, 0.0, 10.0),
            (1, "a", 0, 1.0, 4.0),
            (2, "a1", 1, 2.0, 3.0),
            (3, "b", 0, 5.0, 9.0),
        ]
        totals, calls = self_times(spans)
        self.assertEqual(totals, {"root": 3.0, "a": 2.0, "a1": 1.0, "b": 4.0})
        self.assertEqual(sum(totals.values()), 10.0)
        self.assertEqual(calls, {"root": 1, "a": 1, "a1": 1, "b": 1})

    def test_overlapping_children_count_once(self):
        spans = [(0, "p", None, 0.0, 10.0), (1, "c", 0, 2.0, 6.0), (2, "c", 0, 4.0, 8.0)]
        totals, calls = self_times(spans)
        self.assertEqual(totals["p"], 4.0)
        self.assertEqual(calls["c"], 2)

    def test_tracer_records_parents_and_sums_to_root(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        inner = tracer.wrap("inner", lambda: None)

        def outer():
            inner()
            inner()

        tracer.call("root", tracer.wrap("outer", outer))
        names = [(s[1], s[2]) for s in tracer.spans]
        self.assertEqual(names, [("root", None), ("outer", 0), ("inner", 1), ("inner", 1)])
        totals, _ = self_times(tracer.spans)
        root = tracer.spans[0]
        self.assertEqual(sum(totals.values()), root[4] - root[3])


class TraceChecks(unittest.TestCase):
    SPANS = [(0, "root", None, 0.0, 10.0), (1, "a", 0, 1.0, 4.0)]

    def test_accepts_complete_trace(self):
        self.assertEqual(_trace_problems([{"spans": self.SPANS, "wall_s": 10.0}], {"root", "a"}), [])

    def test_rejects_time_outside_the_root_span(self):
        problems = _trace_problems([{"spans": self.SPANS, "wall_s": 10.5}], {"root", "a"})
        self.assertTrue(any("sum to" in p for p in problems))

    def test_rejects_layer_without_a_call(self):
        problems = _trace_problems([{"spans": self.SPANS, "wall_s": 10.0}], {"root", "a", "b"})
        self.assertTrue(any("no call recorded" in p for p in problems))


if __name__ == "__main__":
    unittest.main()
