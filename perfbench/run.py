"""Cold-process benchmark of `cubetri verify`.

    python3 perfbench/run.py --workload NAME [--workload NAME ...]
                             [--seed N] [--seconds S] [--trace 0|1]

Every measurement runs in a fresh interpreter (perfbench/child.py), one at a
time, because hypercube, quotient and tmodules memoize what they build per D:
a repeat inside one process would time cache hits, while a user pays the cold
cost on every CLI call. The load is a closed loop with one client.

--trace 0 reports the end-to-end metrics: run_s (first call into
cubetri.cli.main to last return, median over the cold processes that fit in
--seconds), setup_s (`import cubetri.cli`, median of several fresh imports)
and peak_rss_mb (ru_maxrss of the child, median). Both times are
speed-adjusted by a reference kernel timed next to each child (see REF_S);
the summary line also prints the raw wall times.
--trace 1 makes one untraced, one traced and one counting run and reports
the per-layer metrics, the three spans with most self time and the tracing
overhead. Spans are written under perfbench/out/.

A run fails when a call exits non-zero, a suite status is not `pass`, or the
report digest differs from the one in perfbench/workloads.py. The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 15
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
CHILD_TIMEOUT_S = 150
# PYTHONHASHSEED fixes set iteration orders, so counts repeat exactly; bytecode
# is written by the first import, so setup_s never includes compiling.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
CHILD_ENV["PYTHONHASHSEED"] = "0"


# On a shared 2-vCPU Xeon VM the throughput one child sees drifts by up to
# 1.6x over tens of seconds, so a run's median cannot average it out. A fixed
# reference kernel timed on the same CPU right before and after each child
# follows much of that drift: the spread (IQR / median) of single children
# fell from 0.23 raw to 0.09 adjusted on small-modules (60 children) and from
# 0.23 to 0.16 on idempotents-d6 (24). Times are therefore reported at the
# speed where the kernel takes REF_S; the summary line also prints wall times.
REF_S = 0.2


def reference() -> float:
    """Seconds for a dict-walk product of two dense 40x40 Fraction matrices."""
    n = 40
    start = time.perf_counter()
    a = {(i, j): Fraction((7 * i + 3 * j) % 11 - 5, (i + j) % 5 + 1) for i in range(n) for j in range(n)}
    b_rows: dict = {}
    for k in range(n):
        for j in range(n):
            b_rows.setdefault(k, []).append((j, Fraction((5 * k + j) % 13 - 6, (k * j) % 3 + 1)))
    acc: dict = {}
    for (i, k), av in a.items():
        for j, bv in b_rows[k]:
            cur = acc.get((i, j))
            acc[(i, j)] = av * bv if cur is None else cur + av * bv
    return time.perf_counter() - start


def speed_adjusted(seconds: float, ref_before: float, ref_after: float) -> float:
    return seconds * REF_S / ((ref_before + ref_after) / 2)


class SetupError(Exception):
    pass


def child(mode: str, workload: str, seed: int, *extra: str) -> tuple[dict | None, float, str]:
    """Run one cold child; (parsed result or None, wall seconds, stderr)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, mode, workload, str(seed), *extra],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - t0, f"timed out after {CHILD_TIMEOUT_S} s"
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        return None, wall, proc.stderr
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), wall, proc.stderr
    except (ValueError, IndexError):
        return None, wall, proc.stderr + proc.stdout


def verdict(workload: str, res: dict | None) -> str | None:
    """Why a workload child failed, or None when it passed."""
    if res is None:
        return "child process failed"
    if any(rc != 0 for rc in res["rcs"]):
        return f"exit codes {res['rcs']}"
    if not res["statuses"] or any(s != "pass" for s in res["statuses"]):
        return f"suite statuses {res['statuses']}"
    if res["digest"] != workloads.DIGESTS[workload]:
        return f"digest {res['digest']} != recorded {workloads.DIGESTS[workload]}"
    if res.get("unwrapped"):
        return f"bindings left unwrapped: {res['unwrapped']}"
    return None


def setup(workload: str, seed: int) -> list[float]:
    """Fresh `import cubetri.cli` times; the first, untimed import writes bytecode."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        res, _wall, err = child("import", workload, seed)
        if res is None:
            raise SetupError(f"cannot import cubetri.cli from the checkout's src/:\n{err}")
        if i:
            samples.append(res["setup_s"])
    return samples


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def timed(workload: str, seed: int, seconds: float) -> dict:
    """Untraced cold runs until the next one would overrun `seconds` (at least one)."""
    ref_before = reference()
    setup_samples = setup(workload, seed)
    ref_after = reference()
    setup_s = speed_adjusted(statistics.median(setup_samples), ref_before, ref_after)
    runs, adjusted, failures, walls = [], [], [], []
    start = time.perf_counter()
    while True:
        ref_before = ref_after
        res, wall, err = child("run", workload, seed)
        ref_after = reference()
        walls.append(wall)
        why = verdict(workload, res)
        if why:
            failures.append(why)
            print(f"{workload}: run failed: {why}\n{err}", file=sys.stderr)
        if res is not None:
            runs.append(res)
            adjusted.append(speed_adjusted(res["run_s"], ref_before, ref_after))
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    attempted = len(walls)
    if not runs:
        return {"attempted": attempted, "failed": len(failures), "metrics": {}}
    q1, wall_s, q3 = quartiles([r["run_s"] for r in runs])
    values = {
        "run_s": statistics.median(adjusted),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    mismatched = sum(r["digest"] != workloads.DIGESTS[workload] for r in runs)
    print(
        f"{workload}: run_s {values['run_s']:.3f} s adjusted"
        f" (wall median {wall_s:.3f} s, q1 {q1:.3f}, q3 {q3:.3f}; n={len(runs)})"
        f"  setup_s {setup_s:.4f} s adjusted (wall median {statistics.median(setup_samples):.4f} s;"
        f" n={len(setup_samples)})"
        f"  peak_rss_mb {values['peak_rss_mb']:.1f} MB"
        f"  failed_share {len(failures)}/{attempted} = {len(failures) / attempted:.3f}"
        f"  digest {'ok' if not mismatched else f'MISMATCH in {mismatched}/{len(runs)}'}"
    )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {"attempted": attempted, "failed": len(failures), "metrics": metrics}


def traced(workload: str, seed: int) -> dict:
    """One untraced, one traced and one counting run; per-layer metrics."""
    setup(workload, seed)
    os.makedirs(OUT, exist_ok=True)
    spans_file = os.path.join(OUT, f"spans-{workload}-{seed}.json")
    refs = [reference()]
    plain, _w, err_plain = child("run", workload, seed)
    refs.append(reference())
    trace, _w, err_trace = child("trace", workload, seed, spans_file)
    refs.append(reference())
    count, _w, err_count = child("count", workload, seed)
    failed = 0
    for label, res, err in (
        ("untraced", plain, err_plain),
        ("traced", trace, err_trace),
        ("counting", count, err_count),
    ):
        why = verdict(workload, res)
        if why:
            failed += 1
            print(f"{workload}: {label} run failed: {why}\n{err}", file=sys.stderr)
    metrics = {}
    if trace is not None and count is not None:
        with open(spans_file) as fp:
            stats = tracer.summarize(json.load(fp)["spans"])
        metrics = tracer.layer_metrics(stats, count["counts"])
        run_s = trace["run_s"]
        top = sorted(stats.items(), key=lambda kv: kv[1]["self_s"], reverse=True)[:3]
        print(f"{workload}: top self-time spans (traced run, wall {run_s:.3f} s):")
        for name, st in top:
            print(f"  {name:<32} self {st['self_s']:8.3f} s ({st['self_s'] / run_s:6.1%})  calls {st['calls']}")
        if plain is not None:
            overhead = speed_adjusted(trace["run_s"], *refs[1:]) / speed_adjusted(plain["run_s"], *refs[:2])
            print(
                f"{workload}: tracing overhead {overhead:.3f} (speed-adjusted traced / untraced run_s;"
                f" wall {trace['run_s']:.3f} s / {plain['run_s']:.3f} s);"
                f" counting run {count['run_s']:.3f} s; spans in {os.path.relpath(spans_file)}"
            )
        if not failed:
            print(f"{workload}: digest ok (untraced, traced and counting runs agree)")
    return {"attempted": 3, "failed": failed, "metrics": metrics}


def pin_to_one_cpu() -> None:
    """Keep this process, its reference kernel and every child on one CPU.

    The two CPUs of a shared host see different neighbours; the adjustment
    only follows the contention a child sees when the kernel runs where the
    child runs."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    results = {}
    try:
        for w in args.workload:
            results[w] = traced(w, args.seed) if args.trace else timed(w, args.seed, args.seconds)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
