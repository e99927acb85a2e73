"""One cold-process measurement: python3 child.py MODE WORKLOAD SEED [SPANS_FILE]

MODE is `import` (time `import cubetri.cli` only), `run` (untraced),
`trace` (spans written to SPANS_FILE) or `count` (spans plus exact counts).
cubetri is imported from the checkout's `src/`. The result is one JSON line
on stdout; the verify reports themselves are captured, not printed.
"""
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
import_start = time.perf_counter()
import cubetri.cli  # noqa: E402

setup_s = time.perf_counter() - import_start

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    mode, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    if not os.path.abspath(cubetri.cli.__file__).startswith(SRC + os.sep):
        print(f"error: cubetri was imported from {cubetri.cli.__file__}, not {SRC}", file=sys.stderr)
        return 3
    result = {"setup_s": setup_s}
    if mode == "import":
        print(json.dumps(result))
        return 0
    tr = None
    if mode in ("trace", "count"):
        tr = tracer.Tracer(f"{workload}-{seed}-{os.getpid()}", counting=mode == "count")
        result["unwrapped"] = tracer.install(tr)
    entry = cubetri.cli.main  # looked up after install, so a traced run gets the wrapper
    outputs, rcs = [], []
    t0 = time.perf_counter()
    for argv in workloads.calls(workload, seed):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = entry(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
        rcs.append(rc)
        outputs.append(buf.getvalue())
    result["run_s"] = time.perf_counter() - t0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["rcs"] = rcs
    try:
        reports = [json.loads(text) for text in outputs]
    except ValueError:
        result["digest"] = None
        result["statuses"] = []
    else:
        result["digest"] = workloads.digest(reports)
        result["statuses"] = [s["status"] for r in reports for s in r["suites"]]
    if tr is not None:
        if mode == "trace":
            tr.dump(sys.argv[4])
        else:
            result["counts"] = tr.counts
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
