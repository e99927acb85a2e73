"""Command-line driver: build matrices, decompose standard modules, run the
verification suites, classify triples from files, and exercise the skew
operator for a chosen diameter.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

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
    _check_index,
)
from .leonard import certify_triple
from .linalg import ExactMatrix, parse_dims, parse_matrix, write_matrix
from .quotient import (
    psi_matrix,
    quotient,
    quotient_adjacency,
    quotient_dual_adjacency,
    quotient_weighted_adjacency,
)
from .sl2rep import checked_skew, expected_h_eigenvalue, induce_acsa_structures, k_scalar, split_odd
from .suites import SUITES, run_suite
from .tmodules import decompose, h_by_class, quotient_modules, split_and_type

DEFAULT_MAX_D = 10


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.handler(args)
    except (ValueError, AssertionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # the last resort for a run too large for this machine
        print("error: out of memory", file=sys.stderr)
        return 2


def _check_d(args, need_odd=False) -> int:
    if args.D is None:
        raise ValueError("this command needs --D")
    if args.D < 1:
        raise ValueError("--D must be positive")
    _check_cap(args, "D", args.D)
    if need_odd and args.D % 2 == 0:
        raise ValueError("this operation needs odd D")
    return args.D


def _check_cap(args, name: str, value: int) -> None:
    if value > args.max_d:
        raise ValueError(f"{name}={value} exceeds --max-D {args.max_d}; raise --max-D to run it")


# -- build -------------------------------------------------------------------


def _resolve_matrix(name: str, D: int):
    """The builder of the named matrix, to call with no argument.  A name,
    index or D that it would reject raises here, before anything is built."""
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
        return fixed[name]
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
        q = quotient(D)  # rejects an even D
        return lambda: quotient_names[name](q)
    for prefix, builder in (
        ("E*", dual_idempotent),
        ("E", primitive_idempotent),
        ("A*", dual_distance_matrix),
        ("A", distance_matrix),
    ):
        suffix = name[len(prefix):]
        if name.startswith(prefix) and suffix.isascii() and suffix.isdigit():
            _check_index(ctx, int(suffix))
            return lambda: builder(ctx, int(suffix))
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
    builders = [(name, _resolve_matrix(name, D)) for name in args.matrix]
    out_dir = args.out or Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, build in builders:
        m = build()
        path = out_dir / f"{_safe_filename(name)}.mtx"
        write_matrix(m, path)
        written.append({"matrix": name, "file": str(path), "dims": [m.nrows, m.ncols], "nnz": m.nnz()})
    _emit(args, {"D": D, "written": written}, _format_build_text, None)
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
    modules = quotient_modules(quotient(D)) if args.quotient else decompose(cube(D))
    payload = {"D": D, "quotient": bool(args.quotient), "modules": [module_summary(w) for w in modules]}
    _emit(args, payload, _format_decompose_text, args.out)
    return 0


def module_summary(w) -> dict:
    """JSON-ready record for one module of the decomposition listing, with
    its `split_and_type`: the module's own type, or the types of its V+ and
    V- halves."""
    types = split_and_type(w)
    record = {"id": w.module_id, "endpoint": w.endpoint, "diameter": w.diameter, "dim": w.dimension}
    if len(types) == 1:
        record["type"], record["parity_split"] = str(types[0]), None
    else:
        record["type"] = None
        record["parity_split"] = {"plus": str(types[0]), "minus": str(types[1])}
    return record


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
    if args.D is not None and not args.suite:
        _check_d(args)
        raise ValueError(
            "--D without --suite runs every suite, but leonard-even needs even D and "
            "leonard-quotient needs odd D; pick suites with --suite"
        )
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
    _emit(args, payload, _format_verify_text, args.out)
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
    texts = [path.read_text() for path in (args.x, args.y, args.z)]
    # the cap reads the declared dims, before any entry is parsed
    _check_cap(args, "diameter", max(max(parse_dims(text)) for text in texts) - 1)
    mats = [parse_matrix(text) for text in texts]
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
    _emit(args, payload, _format_classify_text, args.out)
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
    action, s = checked_skew(d)  # the printed h pattern and h^2 sign are checked
    payload = {
        "d": d,
        "h_eigenvalues": [str(expected_h_eigenvalue(i, d)) for i in range(d + 1)],
        "h_squared": str(gr((-1) ** d)),
        "k_scalar": str(k_scalar(d + 1)),
        "skew_ok": True,
    }
    if d % 2 == 0:
        first, second = induce_acsa_structures(action, s)
        payload["induced"] = {"first": str(classify(first)), "second": str(classify(second))}
    else:
        payload["induced"] = {
            f"structure_{idx}": [str(t) for _b, t in split_odd(action, idx)] for idx in (1, 2)
        }
    _emit(args, payload, _format_skew_text, args.out)
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


def _emit(args, payload: dict, text_formatter, out: Path | None) -> None:
    """Write the report to the file `out`, or print it if there is none."""
    if args.format == "json":
        rendered = json.dumps(payload, indent=2)
    else:
        rendered = text_formatter(payload)
    if out is None:
        print(rendered)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(rendered + "\n")


# -- command line ---------------------------------------------------------------------

_REQUIRED = object()  # the default of a flag that must be given
_HELP = ("-h", "--help")


class _Flag:
    """One `--name` of a command: the attribute its value lands in (`dest`),
    how its text is read (`kind`), its default and its help line.

    The kinds: "int", "path", "report" (a report file, never a directory),
    "choice" (one of `choices`), "repeat" (each use appends its text, checked
    against `choices` if there are any) and "switch" (no value; given means
    True)."""

    __slots__ = ("name", "dest", "kind", "default", "help", "choices")

    def __init__(self, name, kind, help, default=None, dest=None, choices=()):
        self.name = name
        self.dest = dest or name[2:].replace("-", "_")
        self.kind = kind
        self.default = default
        self.help = help
        self.choices = choices


_D = _Flag("--D", "int", "cube diameter")
_COMMON = (
    _Flag("--format", "choice", "report format", default="json", choices=("json", "text")),
    _Flag("--max-D", "int", "cap on D and on diameters", default=DEFAULT_MAX_D, dest="max_d"),
)
_REPORT = _Flag("--out", "report", "report file; default stdout")

# command -> (handler, help line, the flags it reads); each command takes only
# the flags its handler reads
_COMMANDS = {
    "build": (cmd_build, "write matrices in exchange format", (
        _D, *_COMMON,
        _Flag("--out", "path", "output directory; default the current one"),
        _Flag("--matrix", "repeat", "matrix name, repeatable", default=_REQUIRED),
    )),
    "decompose": (cmd_decompose, "list irreducible modules", (
        _D, *_COMMON, _REPORT,
        _Flag("--quotient", "switch", "work on the antipodal quotient", default=False),
    )),
    "verify": (cmd_verify, "run verification suites", (
        _D, *_COMMON, _REPORT,
        _Flag("--seed", "int", "accepted; no suite reads it", default=20240817),
        _Flag("--suite", "repeat", "suite name, repeatable; default all", choices=tuple(sorted(SUITES))),
        _Flag(
            "--reference-tables",
            "switch",
            "assert the endpoint-parity-dependent reference type tables for odd D "
            "(these match the (-1)^r-twisted convention and fail at odd endpoints; see README)",
            default=False,
        ),
    )),
    "classify": (cmd_classify, "classify a triple from matrix files", (
        *_COMMON, _REPORT,
        _Flag("--x", "path", "matrix file for the first generator", default=_REQUIRED),
        _Flag("--y", "path", "matrix file for the second generator", default=_REQUIRED),
        _Flag("--z", "path", "matrix file for the third generator", default=_REQUIRED),
    )),
    "skew": (cmd_skew, "skew-operator suite for one diameter", (
        *_COMMON, _REPORT,
        _Flag("--d", "int", "module diameter", default=_REQUIRED),
    )),
}


def _parse(argv) -> SimpleNamespace:
    """The command's handler and the value of each of its flags, read from
    argv in one pass.  A flag is spelled in full, as `--flag value` or
    `--flag=value`; a repeated single-valued flag keeps its last value.  A
    usage error prints one `error:` line and exits 2; `-h`/`--help` prints
    usage and exits 0."""
    if not argv:
        _usage_error("the following arguments are required: command")
    command, *rest = argv
    if command in _HELP:
        _print_help(None)
    if command not in _COMMANDS:
        _usage_error(f"argument command: invalid choice: {command!r} (choose from {_quoted(_COMMANDS)})")
    handler, _line, flags = _COMMANDS[command]
    by_name = {flag.name: flag for flag in flags}
    values = {flag.dest: flag.default for flag in flags}
    given = set()
    unrecognized = []
    tokens = iter(rest)
    for token in tokens:
        if token in _HELP:
            _print_help(command)
        name, eq, text = token.partition("=")
        flag = by_name.get(name) if name.startswith("--") else None
        if flag is None:
            unrecognized.append(token)
            continue
        if flag.kind == "switch":
            if eq:
                _usage_error(f"argument {name}: ignored explicit argument {text!r}")
            value = True
        else:
            if not eq:
                text = next(tokens, None)
                # a dash word is the next flag, not a value, unless it is a negative number
                if text is None or (text.startswith("-") and not text[1:].isdigit()):
                    _usage_error(f"argument {name}: expected one argument")
            value = _value(flag, text)
            if flag.kind == "repeat":
                value = [*values[flag.dest], value] if flag.dest in given else [value]
        values[flag.dest] = value
        given.add(flag.dest)
    missing = [flag.name for flag in flags if flag.default is _REQUIRED and flag.dest not in given]
    if missing:
        _usage_error(f"the following arguments are required: {', '.join(missing)}")
    if unrecognized:
        _usage_error(f"unrecognized arguments: {' '.join(unrecognized)}")
    return SimpleNamespace(handler=handler, **values)


def _value(flag: _Flag, text: str):
    if flag.choices and text not in flag.choices:
        _usage_error(f"argument {flag.name}: invalid choice: {text!r} (choose from {_quoted(flag.choices)})")
    if flag.kind == "int":
        try:
            return int(text)
        except ValueError:
            _usage_error(f"argument {flag.name}: invalid int value: {text!r}")
    if flag.kind == "path":
        return Path(text)
    if flag.kind == "report":
        return _report_file(text)
    return text


def _report_file(text: str) -> Path:
    path = Path(text)
    try:
        is_dir = path.is_dir()
    except OSError as exc:  # a name the system cannot look up, such as one too long
        _usage_error(f"argument --out: cannot use the report file: {exc.strerror or exc}")
    if is_dir:
        _usage_error(f"argument --out: {text} is a directory; name the report file")
    return path


def _quoted(names) -> str:
    return ", ".join(map(repr, names))


def _usage_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _print_help(command: str | None):
    """Usage of the program (`command` None) or of one command, from the
    table, on stdout; exits 0."""
    if command is None:
        lines = [
            "usage: cubetri <command> [flags]",
            "",
            "exact hypercube Leonard-triple constructions and certificates",
            "",
            "commands:",
            *(f"  {name:<10} {line}" for name, (_handler, line, _flags) in _COMMANDS.items()),
            "",
            "`cubetri <command> --help` lists the flags of a command. Flags are spelled",
            "in full, as `--flag value` or `--flag=value`.",
        ]
    else:
        _handler, line, flags = _COMMANDS[command]
        lines = [f"usage: cubetri {command} [flags]", "", line, "", "flags:", "  -h, --help", "      print this help"]
        for flag in flags:
            metavar = {"int": " N", "path": " PATH", "report": " FILE", "switch": ""}.get(flag.kind, " NAME")
            if flag.choices:
                metavar = " " + "|".join(flag.choices)
            if flag.default is _REQUIRED:
                note = "; required"
            elif flag.default not in (None, False):
                note = f"; default {flag.default}"
            else:
                note = ""
            lines += [f"  {flag.name}{metavar}", f"      {flag.help}{note}"]
    print("\n".join(lines))
    raise SystemExit(0)


if __name__ == "__main__":
    sys.exit(main())
