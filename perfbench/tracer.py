"""Spans and counts recorded from outside cubetri, around calls into its layers.

`install` wraps the public functions named in SPANNED. `from .linalg import
restrict` and the like copy bindings into other modules, so the installer
rebinds every attribute of every `cubetri.*` module that *is* the original
function. `ExactMatrix.__matmul__` looks `linalg.matmul` up at call time, so
patching that binding also catches every `@`.

A span is (id, parent id, name, start, end); spans stay in memory and are
written out once the run ends. In counting mode the installer also counts
GaussianRational operations and a few work measures taken from the operands
at the layer boundary; those hooks cost time, so their spans are not used for
timing.
"""
from __future__ import annotations

import json
import sys
import time

CTS = ("calls", "total_s", "self_s")
CT = ("calls", "total_s")
T = ("total_s",)

# "<module>.<function>" -> the per-layer fields reported for its spans.
SPANNED = {
    "cli.main": (),  # reported as cli.report.self_s
    "suites.run_suite": (),  # reported per suite as suites.<suite>.total_s
    "linalg.matmul": CTS,
    "linalg.kernel_basis": CTS,
    "linalg.rank": CTS,
    "linalg.invert": CTS,
    "linalg.restrict": CTS,
    "linalg.exp_nilpotent": CTS,
    "hypercube.primitive_idempotent": CT,
    "hypercube.positive_structure": T,
    "hypercube.negative_structure": T,
    "hypercube.go_sl2_structure": T,
    "hypercube.s_diagonal": T,
    "hypercube.dual_distance_matrix": T,
    "quotient.quotient": T,
    "quotient.psi_matrix": T,
    "quotient.quotient_adjacency": T,
    "quotient.quotient_dual_adjacency": T,
    "quotient.quotient_acsa_structure": T,
    "tmodules.decompose": CTS,
    "tmodules.dual_profile": CTS,
    "tmodules.split_and_type": CTS,
    "tmodules.antipodal_split": CTS,
    "tmodules.quotient_modules": CTS,
    "leonard.certify_triple": CT,
    "leonard.eigenstructure": CT,
    "acsa.check_relations": CT,
    "acsa.classify": CT,
    "acsa.is_irreducible": CT,
    "acsa.build_canonical": CT,
    "sl2rep.build_irreducible_sl2": CT,
    "sl2rep.build_h": CT,
    "sl2rep.build_skew": CT,
    "sl2rep.split_odd": CT,
    "sl2rep.induce_acsa_structures": CT,
}

# Suites the workloads run; each gets suites.<suite>.total_s.
SUITES = (
    "idempotents",
    "decomposition",
    "leonard-even",
    "leonard-quotient",
    "families",
    "sl2-factory",
    "skew",
)

# Exact work counts from the counting pass; they repeat run to run.
COUNTS = (
    "exactnum.mul.count",
    "exactnum.addsub.count",
    "exactnum.inverse.count",
    "exactnum.new.count",
    "linalg.matmul.terms",
    "linalg.kernel_basis.cells",
    "leonard.eigenstructure.candidates",
)

# GaussianRational attributes counted, by counter.
SCALAR_OPS = {
    "exactnum.mul.count": ("__mul__", "__rmul__"),
    "exactnum.addsub.count": ("__add__", "__radd__", "__sub__"),
    "exactnum.inverse.count": ("inverse",),
    "exactnum.new.count": ("__init__",),
}

UNITS = {"calls": "count", "total_s": "s", "self_s": "s"}


def metric_specs() -> list[dict]:
    """Every per-layer metric a traced run reports, as BENCHMARK.json lists it."""
    specs = []
    for qual, fields in SPANNED.items():
        specs += [{"name": f"{qual}.{f}", "unit": UNITS[f], "better": "lower"} for f in fields]
    specs += [{"name": f"suites.{s}.total_s", "unit": "s", "better": "lower"} for s in SUITES]
    specs.append({"name": "cli.report.self_s", "unit": "s", "better": "lower"})
    specs += [{"name": c, "unit": "count", "better": "lower"} for c in COUNTS]
    specs.append({"name": "leonard.eigen_hit_ratio", "unit": "ratio", "better": "higher"})
    return specs


class Tracer:
    def __init__(self, run_id: str, counting: bool = False):
        self.run_id = run_id
        self.counting = counting
        self.spans: list = []
        self.names: list[str] = []
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.counts["leonard.eigenstructure.pairs"] = 0

    def wrap(self, fn, label, hook=None):
        spans, names, stack, clock = self.spans, self.names, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            names.append(label if isinstance(label, str) else label(args))
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, names[sid], start, end)
            if hook is not None:
                hook(self, parent, args, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fp:
            json.dump(
                {
                    "run_id": self.run_id,
                    "fields": ["id", "parent", "name", "start", "end"],
                    "spans": self.spans,
                },
                fp,
            )


def _suite_label(args) -> str:
    return f"suites.{args[0]}"


def _matmul_terms(tracer, _parent, args, _result):
    a, b = args
    row_nnz: dict = {}
    for (k, _j) in b.entries:
        row_nnz[k] = row_nnz.get(k, 0) + 1
    tracer.counts["linalg.matmul.terms"] += sum(row_nnz.get(k, 0) for (_i, k) in a.entries)


def _kernel_cells(tracer, parent, args, _result):
    m = args[0]
    tracer.counts["linalg.kernel_basis.cells"] += m.nrows * m.ncols
    if parent >= 0 and tracer.names[parent] == "leonard.eigenstructure":
        tracer.counts["leonard.eigenstructure.candidates"] += 1


def _eigen_pairs(tracer, _parent, _args, result):
    tracer.counts["leonard.eigenstructure.pairs"] += len(result)


HOOKS = {
    "linalg.matmul": _matmul_terms,
    "linalg.kernel_basis": _kernel_cells,
    "leonard.eigenstructure": _eigen_pairs,
}


def _counted(fn, counts, key):
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return counted


def install(tracer: Tracer) -> list[str]:
    """Wrap every SPANNED function; return any binding still left unwrapped."""
    modules = [m for name, m in sys.modules.items() if name == "cubetri" or name.startswith("cubetri.")]
    originals = set()
    for qual in SPANNED:
        mod, fn_name = qual.split(".")
        orig = getattr(sys.modules[f"cubetri.{mod}"], fn_name)
        originals.add(id(orig))
        label = _suite_label if qual == "suites.run_suite" else qual
        hook = HOOKS.get(qual) if tracer.counting else None
        wrapped = tracer.wrap(orig, label, hook)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, attr, wrapped)
    if tracer.counting:
        cls = sys.modules["cubetri.exactnum"].GaussianRational
        for key, attrs in SCALAR_OPS.items():
            for attr in attrs:
                setattr(cls, attr, _counted(getattr(cls, attr), tracer.counts, key))
    return [
        f"{m.__name__}.{attr}"
        for m in modules
        for attr, value in vars(m).items()
        if id(value) in originals
    ]


def summarize(spans) -> dict:
    """Per span name: calls, total_s (outermost spans of that name) and self_s."""
    dur = [end - start for (_id, _parent, _name, start, end) in spans]
    covered = [0.0] * len(spans)
    for sid, parent, _name, _start, _end in spans:
        if parent >= 0:
            covered[parent] += dur[sid]
    stats: dict = {}
    for sid, parent, name, _start, _end in spans:
        st = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["self_s"] += dur[sid] - covered[sid]
        while parent >= 0 and spans[parent][2] != name:
            parent = spans[parent][1]
        if parent < 0:
            st["total_s"] += dur[sid]
    return stats


def layer_metrics(stats: dict, counts: dict) -> dict:
    """The per-layer metrics, in metric_specs() order, from span stats and counts."""
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    values = {}
    for qual, fields in SPANNED.items():
        for f in fields:
            values[f"{qual}.{f}"] = stats.get(qual, empty)[f]
    for s in SUITES:
        values[f"suites.{s}.total_s"] = stats.get(f"suites.{s}", empty)["total_s"]
    values["cli.report.self_s"] = stats.get("cli.main", empty)["self_s"]
    for c in COUNTS:
        values[c] = counts[c]
    candidates = counts["leonard.eigenstructure.candidates"]
    # 0 when the workload runs no eigenvalue scan
    values["leonard.eigen_hit_ratio"] = (
        counts["leonard.eigenstructure.pairs"] / candidates if candidates else 0.0
    )
    return {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]} for spec in metric_specs()}
