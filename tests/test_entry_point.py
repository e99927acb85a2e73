"""The command line as a fresh interpreter meets it: what `import cubetri.cli`
loads, and `python -m cubetri.cli` run as a real process."""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# standard modules that are costly to load in every fresh process and that
# cubetri needs none of: the record generator with what it imports, and the
# argument parser with the translation lookup and locale it loads
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "argparse", "gettext", "locale")

PROBE = f"""
import json, sys
heavy = {HEAVY!r}
at_start = {{m for m in heavy if m in sys.modules}}
import cubetri.cli
after_import = [m for m in heavy if m in sys.modules and m not in at_start]
code = cubetri.cli.main(["verify", "--suite", "relations", "--D", "2"])
after_run = [m for m in heavy if m in sys.modules and m not in at_start]
print(json.dumps({{"code": code, "after_import": after_import, "after_run": after_run}}))
"""


def _run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120, check=False
    )


def test_import_and_verify_load_no_heavy_standard_modules():
    proc = _run("-c", PROBE)
    assert proc.returncode == 0, proc.stderr
    # the verify report comes first; the probe's own line is the last
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    assert probe == {"code": 0, "after_import": [], "after_run": []}


def test_module_entry_point_runs_verify():
    proc = _run("-m", "cubetri.cli", "verify", "--suite", "weights", "--D", "3")
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    assert report["overall"] == "pass"
    assert [s["suite"] for s in report["suites"]] == ["weights"]
