"""Self-tests of the benchmark's own instruments: python3 perfbench/selftest.py

1. Interception: a traced run of small-modules leaves no `cubetri.*` binding
   of a wrapped function unwrapped, records calls in every layer that
   workload touches, and produces the same report digest as an untraced run.
2. Count stability: two counting passes of small-modules give identical
   exact counts, so a later change may cite them as counts.
3. Seed independence: idempotents-d6, the one workload whose suite reads
   --seed, gives the recorded digest at two seeds (it stays below the
   sampled path at D >= 9).
4. BENCHMARK.json names exactly the workloads and metrics the benchmark
   reports.

Exits 0 when every check passes.
"""
from __future__ import annotations

import json
import os
import sys

import run
import tracer
import workloads

# Spanned functions small-modules calls: the families, sl2-factory and skew
# suites go through acsa, sl2rep and linalg only.
SMALL_MODULES_CALLS = (
    "cli.main",
    "suites.families",
    "suites.sl2-factory",
    "suites.skew",
    "linalg.matmul",
    "linalg.kernel_basis",
    "linalg.invert",
    "linalg.restrict",
    "linalg.exp_nilpotent",
    "acsa.check_relations",
    "acsa.classify",
    "acsa.is_irreducible",
    "acsa.build_canonical",
    "sl2rep.build_irreducible_sl2",
    "sl2rep.build_h",
    "sl2rep.build_skew",
    "sl2rep.split_odd",
    "sl2rep.induce_acsa_structures",
)
SCALAR_COUNTS = tuple(tracer.SCALAR_OPS)


def check_interception() -> list[str]:
    problems = []
    spans_file = os.path.join(run.OUT, "selftest-spans.json")
    os.makedirs(run.OUT, exist_ok=True)
    plain, _w, _e = run.child("run", "small-modules", 1)
    traced, _w, err = run.child("trace", "small-modules", 1, spans_file)
    if plain is None or traced is None:
        return [f"small-modules child failed:\n{err}"]
    if traced["unwrapped"]:
        problems.append(f"bindings left unwrapped: {traced['unwrapped']}")
    if traced["digest"] != plain["digest"] or plain["digest"] != workloads.DIGESTS["small-modules"]:
        problems.append(f"traced digest {traced['digest']} != untraced {plain['digest']}")
    with open(spans_file) as fp:
        stats = tracer.summarize(json.load(fp)["spans"])
    problems += [f"no calls recorded for {name}" for name in SMALL_MODULES_CALLS if name not in stats]
    return problems


def check_count_stability() -> list[str]:
    passes = [run.child("count", "small-modules", 1)[0] for _ in range(2)]
    if None in passes:
        return ["counting child failed"]
    first, second = (p["counts"] for p in passes)
    problems = [f"{key}: {first[key]} then {second[key]}" for key in tracer.COUNTS if first[key] != second[key]]
    problems += [f"{key} is zero" for key in SCALAR_COUNTS if not first[key]]
    return problems


def check_seed_independence() -> list[str]:
    problems = []
    for seed in (1, 2):
        res, _w, err = run.child("run", "idempotents-d6", seed)
        why = run.verdict("idempotents-d6", res)
        if why:
            problems.append(f"seed {seed}: {why}\n{err}")
    return problems


def check_benchmark_json() -> list[str]:
    with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")) as fp:
        bench = json.load(fp)
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        problems.append("workload names differ from perfbench/workloads.py")
    if [(m["name"], m["unit"]) for m in bench["end_to_end"]] != list(run.END_TO_END.items()):
        problems.append("end_to_end names or units differ from run.END_TO_END")
    if bench["per_layer"] != tracer.metric_specs():
        problems.append("per_layer differs from tracer.metric_specs()")
    return problems


def main() -> int:
    failed = 0
    for check in (check_benchmark_json, check_interception, check_count_stability, check_seed_independence):
        problems = check()
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {check.__name__}")
        for p in problems:
            print(f"  {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
