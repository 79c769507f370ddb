"""The size ladder: one classify per rung, each in a fresh process."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tiny_rungs_print_their_metrics():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ladder.py"), "--sizes", "200,400", "--seeds", "0,1"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["seed", "n", "wall_s", "peak_rss_mb", "ri"]
    rungs = [row.split() for row in rows]
    assert [(seed, n) for seed, n, *_ in rungs] == [("0", "200"), ("0", "400"),
                                                   ("1", "200"), ("1", "400")]
    for _, _, wall_s, peak_rss_mb, ri in rungs:
        assert float(wall_s) > 0.0 and float(peak_rss_mb) > 0.0
        assert 0.5 <= float(ri) <= 1.0


def test_a_failing_rung_stops_the_ladder():
    # generate rejects an odd sample count
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ladder.py"), "--sizes", "201,400"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    assert done.stdout.splitlines()[1:] == [
        "   0    201 failed: generate exited 2: "
        "specscale generate: error: n_samples must be even and at least 8"
    ]
