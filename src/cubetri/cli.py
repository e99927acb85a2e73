"""Command-line driver: build matrices, decompose standard modules, run the
verification suites, classify triples from files, and exercise the skew
operator for a chosen diameter.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .acsa import ModuleActionTriple, check_relations, classify, is_irreducible
from .exactnum import gr
from .hypercube import (
    adjacency,
    cube,
    distance_matrix,
    dual_adjacency,
    dual_distance_matrix,
    dual_idempotent,
    go_sl2_structure,
    primitive_idempotent,
    s_diagonal,
    second_dual_adjacency,
    weighted_adjacency,
)
from .leonard import certify_triple
from .linalg import ExactMatrix, read_matrix, write_matrix
from .quotient import (
    psi_matrix,
    quotient,
    quotient_adjacency,
    quotient_dual_adjacency,
    quotient_weighted_adjacency,
)
from .sl2rep import (
    build_irreducible_sl2,
    build_skew,
    expected_h_eigenvalue,
    induce_acsa_structures,
    k_scalar,
    split_odd,
)
from .suites import SUITES, run_suite
from .tmodules import decompose, h_by_class, module_summary, quotient_modules, split_and_type

DEFAULT_MAX_D = 10


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--D", type=int, help="cube diameter")
    common.add_argument("--quotient", action="store_true", help="work on the antipodal quotient")
    common.add_argument("--out", type=Path, help="output file or directory")
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--seed", type=int, default=20240817, help="accepted; no suite reads it")
    common.add_argument("--max-D", type=int, default=DEFAULT_MAX_D, dest="max_d")
    common.add_argument("--force", action="store_true", help="exceed the default D caps")

    parser = argparse.ArgumentParser(
        prog="cubetri",
        description="exact hypercube Leonard-triple constructions and certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", parents=[common], help="write matrices in exchange format")
    p_build.add_argument("--matrix", action="append", required=True, help="matrix name, repeatable")
    p_build.set_defaults(handler=cmd_build)

    p_dec = sub.add_parser("decompose", parents=[common], help="list irreducible modules")
    p_dec.set_defaults(handler=cmd_decompose)

    p_ver = sub.add_parser("verify", parents=[common], help="run verification suites")
    p_ver.add_argument(
        "--suite", action="append", choices=sorted(SUITES), help="suite name, repeatable; default all"
    )
    p_ver.add_argument(
        "--reference-tables",
        action="store_true",
        help="assert the endpoint-parity-dependent reference type tables for odd D "
        "(these match the (-1)^r-twisted convention and fail at odd endpoints; see README)",
    )
    p_ver.set_defaults(handler=cmd_verify)

    p_cls = sub.add_parser("classify", parents=[common], help="classify a triple from matrix files")
    p_cls.add_argument("--x", type=Path, required=True, help="matrix file for the first generator")
    p_cls.add_argument("--y", type=Path, required=True, help="matrix file for the second generator")
    p_cls.add_argument("--z", type=Path, required=True, help="matrix file for the third generator")
    p_cls.set_defaults(handler=cmd_classify)

    p_skew = sub.add_parser("skew", parents=[common], help="skew-operator suite for one diameter")
    p_skew.add_argument("--d", type=int, required=True, help="module diameter")
    p_skew.set_defaults(handler=cmd_skew)

    return parser


def _check_d(args, need_odd=False, need_even=False) -> int:
    if args.D is None:
        raise ValueError("this command needs --D")
    if args.D < 1:
        raise ValueError("--D must be positive")
    _check_cap(args, "D", args.D)
    if need_odd and args.D % 2 == 0:
        raise ValueError("this operation needs odd D")
    if need_even and args.D % 2:
        raise ValueError("this operation needs even D")
    return args.D


def _check_cap(args, name: str, value: int) -> None:
    if value > args.max_d and not args.force:
        raise ValueError(f"{name}={value} exceeds --max-D {args.max_d}; pass --force to override")


# -- build -------------------------------------------------------------------


def _resolve_matrix(name: str, D: int) -> ExactMatrix:
    ctx = cube(D)
    fixed = {
        "I": lambda: ExactMatrix.identity(ctx.nvertices),
        "J": lambda: ExactMatrix(
            ctx.nvertices, ctx.nvertices, {(r, c): 1 for r in range(ctx.nvertices) for c in range(ctx.nvertices)}
        ),
        "A": lambda: adjacency(ctx),
        "A*": lambda: dual_adjacency(ctx),
        "AD-1*": lambda: second_dual_adjacency(ctx),
        "B": lambda: second_dual_adjacency(ctx),
        "C": lambda: weighted_adjacency(ctx),
        "s": lambda: _proved_s(ctx),
        "h": lambda: _proved_s(ctx) * k_scalar(D + 1).inverse(),
        "k": lambda: ExactMatrix.identity(ctx.nvertices) * k_scalar(D + 1),
        "Z": lambda: go_sl2_structure(ctx).z_mat,
        "AD": lambda: distance_matrix(ctx, D),
    }
    if name in fixed:
        return fixed[name]()
    quotient_names = {
        "A~": quotient_adjacency,
        "Ã": quotient_adjacency,
        "B~": quotient_dual_adjacency,
        "B̃": quotient_dual_adjacency,
        "C~": quotient_weighted_adjacency,
        "C̃": quotient_weighted_adjacency,
        "psi": psi_matrix,
    }
    if name in quotient_names:
        return quotient_names[name](quotient(D))
    for prefix, builder in (
        ("E*", dual_idempotent),
        ("E", primitive_idempotent),
        ("A*", dual_distance_matrix),
        ("A", distance_matrix),
    ):
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            return builder(ctx, int(name[len(prefix):]))
    raise ValueError(
        f"unknown matrix name {name!r}; try A, A<i>, A*, A*<i>, AD-1*, B, C, "
        "E<i>, E*<i>, I, J, s, h, k, Z, A~, B~, C~, psi"
    )


def _proved_s(ctx) -> ExactMatrix:
    """The closed-form skew operator, once `h_by_class` proves it is h*k."""
    h_by_class(ctx)
    return s_diagonal(ctx)


def _safe_filename(name: str) -> str:
    table = {"*": "star", "~": "tilde", "Ã": "Atilde", "B̃": "Btilde", "C̃": "Ctilde"}
    out = name
    for bad, good in table.items():
        out = out.replace(bad, good)
    return out


def cmd_build(args) -> int:
    D = _check_d(args)
    out_dir = args.out or Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name in args.matrix:
        m = _resolve_matrix(name, D)
        path = out_dir / f"{_safe_filename(name)}.mtx"
        write_matrix(m, path)
        written.append({"matrix": name, "file": str(path), "dims": [m.nrows, m.ncols], "nnz": m.nnz()})
    _emit(args, {"D": D, "written": written}, _format_build_text)
    return 0


def _format_build_text(payload) -> str:
    lines = [f"D = {payload['D']}"]
    for rec in payload["written"]:
        lines.append(
            f"  {rec['matrix']:>8} -> {rec['file']} ({rec['dims'][0]}x{rec['dims'][1]}, {rec['nnz']} nonzero)"
        )
    return "\n".join(lines)


# -- decompose -----------------------------------------------------------------


def cmd_decompose(args) -> int:
    D = _check_d(args, need_odd=args.quotient)
    ctx = cube(D)
    if args.quotient:
        records = [
            {
                "id": sb.module_id,
                "endpoint": sb.endpoint,
                "diameter": sb.diameter,
                "dim": sb.dimension,
                "type": str(t),
                "parity_split": None,
            }
            for sb, t in quotient_modules(quotient(D))
        ]
    else:
        records = [module_summary(ctx, m, split_and_type(ctx, m)) for m in decompose(ctx)]
    payload = {"D": D, "quotient": bool(args.quotient), "modules": records}
    _emit(args, payload, _format_decompose_text)
    return 0


def _format_decompose_text(payload) -> str:
    lines = [f"D = {payload['D']}" + (" (quotient)" if payload["quotient"] else "")]
    for rec in payload["modules"]:
        t = rec["type"] if rec["type"] else (
            f"{rec['parity_split']['plus']} (+) / {rec['parity_split']['minus']} (-)"
        )
        lines.append(
            f"  {rec['id']:>6}  endpoint {rec['endpoint']}  diameter {rec['diameter']}  dim {rec['dim']:>3}  {t}"
        )
    return "\n".join(lines)


# -- verify ----------------------------------------------------------------------


def _suite_kwargs(name: str, args) -> dict:
    D = args.D
    kwargs: dict = {}
    if name == "leonard-quotient":
        kwargs["reference_tables"] = args.reference_tables
    if D is None:
        return kwargs
    _check_d(args)
    if name in ("relations", "decomposition", "idempotents"):
        kwargs["Ds"] = (D,)
    elif name == "weights":
        kwargs["Ds"] = (D,)
        kwargs["quotient_Ds"] = (D,) if D % 2 and D >= 3 else ()
    elif name == "skew":
        kwargs["ds"] = tuple(range(0, min(D, 10) + 1))
        kwargs["cube_D"] = D
    elif name == "leonard-even":
        if D % 2:
            raise ValueError("leonard-even needs even D")
        kwargs["Ds"] = (D,)
    elif name in ("leonard-quotient", "transport"):
        if D % 2 == 0:
            raise ValueError(f"{name} needs odd D")
        quotient(D)  # rejects D < 3
        kwargs["Ds"] = (D,)
    elif name in ("sl2-factory", "families"):
        kwargs["ds"] = tuple(range(0, min(D, 10) + 1))
    return kwargs


def cmd_verify(args) -> int:
    names = sorted(args.suite or SUITES)
    kwargs = {name: _suite_kwargs(name, args) for name in names}  # reject a bad --D before any work
    results = [run_suite(name, **kwargs[name]) for name in names]
    certificates = []
    for r in results:
        certificates.extend(c.to_json_dict() for c in r.certificates)
    certificates.sort(key=lambda c: c["module_id"])
    overall = all(r.passed for r in results)
    payload = {
        "D": args.D,
        "parity": (None if args.D is None else ("odd" if args.D % 2 else "even")),
        "overall": "pass" if overall else "fail",
        "suites": [
            {"suite": r.suite, "status": r.status, "detail": r.detail} for r in results
        ],
        "certificates": certificates,
        "timing": {r.suite: round(r.seconds, 3) for r in results},
    }
    _emit(args, payload, _format_verify_text)
    return 0 if overall else 1


def _format_verify_text(payload) -> str:
    lines = []
    header = "verification report"
    if payload["D"] is not None:
        header += f" (D={payload['D']}, {payload['parity']})"
    lines.append(header)
    for rec in payload["suites"]:
        seconds = payload["timing"].get(rec["suite"], 0.0)
        lines.append(f"  {rec['status'].upper():<4} {rec['suite']} ({seconds:.2f}s)")
        lines.append(f"       {rec['detail']}")
    if payload["certificates"]:
        lines.append(f"  certificates: {len(payload['certificates'])}")
    lines.append(f"overall: {payload['overall']}")
    return "\n".join(lines)


# -- classify ----------------------------------------------------------------------


def cmd_classify(args) -> int:
    mats = [read_matrix(path) for path in (args.x, args.y, args.z)]
    _check_cap(args, "diameter", max(max(m.nrows, m.ncols) for m in mats) - 1)
    triple = ModuleActionTriple(*mats)
    relations_ok, detail = check_relations(triple)
    payload = {
        "dim": triple.dimension,
        "relations": "ok" if relations_ok else detail,
    }
    if relations_ok:
        irreducible = is_irreducible(triple)
        payload["irreducible"] = irreducible
        payload["certificate"] = None
        if irreducible:
            payload["type"] = str(classify(triple))
            cert = certify_triple(triple.x_mat, triple.y_mat, triple.z_mat, module_id="cli")
            payload["certificate"] = cert.to_json_dict()
    _emit(args, payload, _format_classify_text)
    return 0 if relations_ok else 1


def _format_classify_text(payload) -> str:
    lines = [f"dim {payload['dim']}", f"relations: {payload['relations']}"]
    if "irreducible" in payload:
        lines.append(f"irreducible: {payload['irreducible']}")
    if "type" in payload:
        lines.append(f"type: {payload['type']}")
    cert = payload.get("certificate")
    if cert is not None:
        lines.append(f"verdict: {cert['verdict']}")
        lines.append(f"orderings: {cert['orderings']}")
    return "\n".join(lines)


# -- skew -------------------------------------------------------------------------


def cmd_skew(args) -> int:
    d = args.d
    if d < 0:
        raise ValueError("diameter must be nonnegative")
    _check_cap(args, "d", d)
    action = build_irreducible_sl2(d)
    skew = build_skew(action)
    payload = {
        "d": d,
        "h_eigenvalues": [str(expected_h_eigenvalue(i, d)) for i in range(d + 1)],
        "h_squared": str(gr((-1) ** d)),
        "k_scalar": str(k_scalar(d + 1)),
        "skew_ok": True,
    }
    if d % 2 == 0:
        first, second = induce_acsa_structures(action, skew.s_mat)
        payload["induced"] = {"first": str(classify(first)), "second": str(classify(second))}
    else:
        payload["induced"] = {
            f"structure_{idx}": [str(t) for _b, t in split_odd(action, idx)] for idx in (1, 2)
        }
    _emit(args, payload, _format_skew_text)
    return 0


def _format_skew_text(payload) -> str:
    lines = [
        f"diameter {payload['d']}",
        f"h eigenvalues: {', '.join(payload['h_eigenvalues'])}",
        f"h^2 = {payload['h_squared']},  k = {payload['k_scalar']},  skew relations: ok",
        f"induced structures: {payload['induced']}",
    ]
    return "\n".join(lines)


# -- output helpers -----------------------------------------------------------------


def _emit(args, payload: dict, text_formatter) -> None:
    if args.format == "json":
        rendered = json.dumps(payload, indent=2)
    else:
        rendered = text_formatter(payload)
    out = getattr(args, "out", None)
    if out is not None and not out.is_dir():
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(rendered + "\n")
    else:
        print(rendered)


if __name__ == "__main__":
    sys.exit(main())
