"""One msde CLI call in a fresh interpreter, timed from inside.

Usage: python3 child.py RESULT_JSON TRACE(0|1) SPANS_JSONL -- <msde argv...>

Runs ``msde.cli.main`` in-process and writes RESULT_JSON with the exit
code, the moment ``import msde.cli`` finished (CLOCK_MONOTONIC, which the
parent shares, so it can time the interpreter's set-up), the call's wall
seconds (argument parsing to the last output file) and the process's peak
RSS. With TRACE=1 the tracer wraps the pipeline's public functions first,
and the spans go to SPANS_JSONL.
"""

import os

# Pin native thread pools before numpy loads, so msde's own --threads is the
# only parallelism in the call.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import msde.cli  # noqa: E402

IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    result_path, trace, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py RESULT TRACE SPANS -- ARGV...")
    tracer = None
    if trace == "1":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        code = msde.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors exit this way
        code = exc.code if isinstance(exc.code, int) else 1
    e2e_s = time.perf_counter() - start
    result = {
        "exit": code,
        "imported_at": IMPORTED_AT,
        "e2e_s": e2e_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from tracer import layer_metrics
        tracer.dump(spans_path)
        result["layers"] = layer_metrics(tracer.spans, tracer.counts, e2e_s)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
