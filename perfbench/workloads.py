"""The benchmark's four workloads and the report digest each must produce.

A workload is a fixed sequence of `cubetri verify --format json` calls made
through `cubetri.cli.main` in one fresh interpreter. None of them reaches the
sampled-idempotent path (idempotents at D >= 9), the only code that reads
`--seed`, so every digest below holds for every seed.
"""
from __future__ import annotations

import hashlib
import json

WORKLOADS = {
    # Dense 64x64 packed-bigint products and the interpolation products that
    # build each E_i; no elimination, no Krylov work.
    "idempotents-d6": (
        ("verify", "--suite", "idempotents", "--D", "6"),
    ),
    # Krylov sparse matvecs in tmodules.dual_profile; no packed products and
    # no certificates: the bypass case for idempotent changes.
    "decomposition-d7": (
        ("verify", "--suite", "decomposition", "--D", "7"),
    ),
    # restrict/BasisSolver, the eigenvalue kernel scans of certify_triple,
    # classify, the antipodal split and the quotient transport; 29
    # certificates in total.
    "certificates": (
        ("verify", "--suite", "leonard-even", "--D", "8"),
        ("verify", "--suite", "leonard-quotient", "--D", "7"),
    ),
    # Every matrix is at most 11x11: per-call and per-scalar overhead in acsa
    # and sl2rep, where a fixed cost per matrix or per scalar shows.
    "small-modules": (
        ("verify", "--suite", "families", "--suite", "sl2-factory", "--suite", "skew"),
    ),
}

# sha256 of report_projection() over each workload's reports. A workload that
# emits no certificates has the digest of "every suite passed".
DIGESTS = {
    "idempotents-d6": "ab5636bb94fd4adf83f232f0db1b353fb3279539ba9376b930dade2e4f00bef0",
    "decomposition-d7": "0e7e487ecf354a8aebe8b0525511ee29ab56f26eefa76c1f029bded471f32f92",
    "certificates": "50e122b5749c5c9ba64e04b941904f7469a83e745971fa333929b5a0eae6b655",
    "small-modules": "e3eb0756ea2c19935638f0b9ddecd78af75b4c0ff404a2c5c6bf6451aecf2642",
}


def calls(workload: str, seed: int) -> list[list[str]]:
    """The argv lists for `cubetri.cli.main`, with the seed forwarded."""
    return [[*argv, "--format", "json", "--seed", str(seed)] for argv in WORKLOADS[workload]]


def report_projection(report: dict) -> dict:
    """The deterministic part of one verify report that the digest covers.

    `timing` varies from run to run, and the `detail` notes may be reworded by
    a change that strengthens a check, so both are left out; the overall
    verdict, every suite status and the certificates are kept.
    """
    return {
        "overall": report["overall"],
        "suites": [[s["suite"], s["status"]] for s in report["suites"]],
        "certificates": report["certificates"],
    }


def digest(reports: list[dict]) -> str:
    projected = [report_projection(r) for r in reports]
    text = json.dumps(projected, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
