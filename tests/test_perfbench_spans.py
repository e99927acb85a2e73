"""The benchmark tracer wraps cubetri functions by name; each must exist.

perfbench/tracer.py is loaded read-only, without running any benchmark.  A
deleted or renamed function would otherwise surface only as a crash of a
traced benchmark run.
"""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_spanned_name_is_a_cubetri_callable():
    spanned = _load_tracer().SPANNED
    assert "linalg.invert" in spanned and "linalg.restrict" in spanned
    missing = []
    for qual in spanned:
        mod, fn_name = qual.split(".")
        fn = getattr(importlib.import_module(f"cubetri.{mod}"), fn_name, None)
        if not callable(fn):
            missing.append(qual)
    assert not missing, f"tracer wraps names cubetri no longer defines: {missing}"
