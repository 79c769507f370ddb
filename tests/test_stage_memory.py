"""Resident memory per stage: one workload run in a fresh process."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def stage_memory(*argv):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stage_memory.py"), *argv],
        capture_output=True, text=True, timeout=120,
    )


def test_tiny_run_prints_each_stage_and_the_total(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    from tracing import ROOT_SPAN, TARGETS

    done = stage_memory("--workload", "wide-pencil", "--size", "tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    header, *rows, total, peak = done.stdout.splitlines()
    assert header.split() == ["stage", "calls", "vmhwm_kb", "rssanon_kb", "rssfile_kb"]
    stages = {name: [int(v) for v in values] for name, *values in map(str.split, rows)}
    # classify runs every traced layer but k-means
    expected = {span for _, _, span in TARGETS} - {"clustering.kmeans"}
    assert set(stages) == expected | {"import", ROOT_SPAN, "(other)"}
    assert stages["scaling.assemble"][0] == stages["similarity.pair_tensor"][0] == 2
    assert stages["import"][1] > 0
    name, *grown = total.split()
    assert name == "total"
    assert [int(v) for v in grown] == [sum(row[i] for row in stages.values()) for i in (1, 2, 3)]
    assert peak.startswith("VmHWM ") and peak.split()[2] == "kB"


def test_an_unknown_workload_fails():
    done = stage_memory("--workload", "no-such-workload", "--size", "tiny")
    assert done.returncode == 1
    assert done.stdout == "writing the input failed: KeyError: 'no-such-workload'\n"


def test_the_worker_holds_no_hashlib_or_numpy_random_before_its_import():
    # the worker runs this file, so its imports precede the measured
    # ``import specscale.cli``; hashlib maps OpenSSL's libcrypto, 3.6 MB that
    # benchmarks/worker.py does not hold
    probe = ("import json, sys; sys.path.insert(0, sys.argv[1]); import stage_memory; "
             "print(json.dumps(sorted(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe, str(ROOT / "tools")],
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = json.loads(done.stdout)
    assert "stage_memory" in loaded
    assert [m for m in loaded if m in ("hashlib", "_hashlib", "secrets")
            or m.startswith(("numpy", "specscale", "ladder", "report_drift"))] == []
