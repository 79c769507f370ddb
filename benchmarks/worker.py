"""One benchmark measurement in a fresh interpreter.

Usage: worker.py RESULT_JSON TRACE(0|1) -- [SPECSCALE_ARGV...]

Times ``import specscale.cli`` (set-up), then ``specscale.cli.main(argv)``
from argv to report.csv and manifest.json written, and writes the timings,
the exit code, the CPU times, the peak RSS and, when traced, the spans to
RESULT_JSON. The parent pins BLAS and OpenMP threads and the allocator
through the environment before start. With no SPECSCALE_ARGV only the
import is timed.
"""

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv):
    result_path, trace = argv[0], argv[1] == "1"
    cli_argv = argv[argv.index("--") + 1:]

    t0 = time.perf_counter()
    import specscale.cli  # the import is what set-up time measures

    setup_s = time.perf_counter() - t0
    if not cli_argv:  # a set-up probe: the import alone
        Path(result_path).write_text(json.dumps({"setup_s": setup_s}), encoding="utf-8")
        return 0

    tracer = None
    if trace:
        from tracing import ROOT_SPAN, Tracer

        tracer = Tracer()
        tracer.install()

    start = time.perf_counter()
    try:
        if tracer is None:
            code = specscale.cli.main(cli_argv)
        else:
            code = tracer.call(ROOT_SPAN, specscale.cli.main, cli_argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    wall_s = time.perf_counter() - start

    usage = resource.getrusage(resource.RUSAGE_SELF)  # user and sys include the import
    out = {
        "exit_code": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "user_s": usage.ru_utime,
        "sys_s": usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["spans"] = tracer.spans
    Path(result_path).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
