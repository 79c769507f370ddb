"""Output checks that fail a benchmark run.

Every worker of one run executes the same workload on the same input, so each
must exit 0, write the expected number of report rows with scores in [0, 1],
and produce report.csv and manifest.json byte-identical to every other worker.
"""

from __future__ import annotations

import csv
import io
import json


def report_rows(report_bytes):
    """report.csv as a list of dicts, one per (repetition, sigma) record."""
    return list(csv.DictReader(io.StringIO(report_bytes.decode("utf-8"))))


def _score_problems(where, values):
    problems = []
    for value in values:
        if value is None or value == "":
            continue
        try:
            score = float(value)
        except ValueError:
            problems.append(f"{where}: score {value!r} is not a number")
            continue
        if not 0.0 <= score <= 1.0:
            problems.append(f"{where}: score {score!r} outside [0, 1]")
    return problems


def check_outputs(outputs, expected_rows):
    """Problems found in the outputs of one run's workers; empty when all hold.

    ``outputs`` holds one dict per worker with ``exit_code``, ``report`` and
    ``manifest`` (bytes, or None when the file is missing).
    """
    problems = []
    for i, out in enumerate(outputs):
        where = f"worker {i}"
        if out["exit_code"] != 0:
            problems.append(f"{where}: exit code {out['exit_code']}")
            continue
        if out["report"] is None or out["manifest"] is None:
            problems.append(f"{where}: report.csv or manifest.json missing")
            continue
        try:
            rows = report_rows(out["report"])
        except ValueError as exc:  # includes undecodable bytes
            problems.append(f"{where}: report.csv unreadable ({exc})")
            continue
        if len(rows) != expected_rows:
            problems.append(f"{where}: report.csv has {len(rows)} rows, expected {expected_rows}")
        for column in ("ri", "nmi"):
            problems += _score_problems(f"{where} report.csv {column}", [r.get(column) for r in rows])
        try:
            manifest = json.loads(out["manifest"])
            aggregates = [a for rep in manifest["reports"] for a in rep["aggregates"]]
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"{where}: manifest.json unreadable ({exc})")
            continue
        for column in ("ri_mean", "nmi_mean"):
            problems += _score_problems(
                f"{where} manifest {column}", [a.get(column) for a in aggregates]
            )
    for name in ("report", "manifest"):
        contents = {out[name] for out in outputs if out["exit_code"] == 0}
        if len(contents) > 1:
            problems.append(f"{name} differs between workers on the same input")
    return problems
