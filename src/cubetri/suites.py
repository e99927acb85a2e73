"""Named verification suites over the whole pipeline.

Each suite checks one batch of exact identities and returns a result record;
the CLI assembles them into reports and the acceptance tests assert on them.
Every check is an exact identity: there are no tolerances anywhere.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .acsa import (
    ab_type,
    b_type,
    build_canonical,
    check_relations,
    classify,
    is_irreducible,
    trace_table,
)
from .exactnum import gr
from .hypercube import (
    adjacency,
    cube,
    distance_matrix,
    eigenvalue,
    negative_structure,
    positive_structure,
    primitive_idempotent,
    second_dual_adjacency,
    v_plus_minus,
    weighted_adjacency,
    _idempotent_base_column,
)
from .leonard import certify_triple
from .linalg import ExactMatrix, exp_nilpotent, kernel_basis
from .quotient import (
    psi_matrix,
    quotient,
    quotient_adjacency,
    quotient_dual_adjacency,
    quotient_weighted_adjacency,
)
from .sl2rep import (
    build_h,
    build_irreducible_sl2,
    build_skew,
    exp_ad_matrices,
    expected_h_eigenvalue,
    induce_acsa_structures,
    split_odd,
)
from .tmodules import (
    REFERENCE_MINUS_TABLE,
    REFERENCE_PLUS_TABLE,
    check_span,
    decompose,
    dual_profile,
    h_by_class,
    module_structure,
    quotient_modules,
    quotient_structure,
    split_and_type,
)


@dataclass
class SuiteResult:
    suite: str
    status: str
    detail: str
    seconds: float
    certificates: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


class CheckFailure(Exception):
    pass


def _require(cond, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


# -- individual suites -----------------------------------------------------


def suite_relations(Ds=None, **_kw):
    Ds = Ds or (2, 4, 6, 8)
    notes = []
    for D in Ds:
        ctx = cube(D)
        for label, builder in (("positive", positive_structure), ("negative", negative_structure)):
            ok, detail = check_relations(builder(ctx))
            _require(ok, f"D={D} {label} structure: {detail}")
        notes.append(f"D={D}: positive and negative structures satisfy all three relations")
    return notes, []


def suite_weights(Ds=None, quotient_Ds=None, **_kw):
    Ds = Ds or tuple(range(1, 9))
    quotient_Ds = quotient_Ds if quotient_Ds is not None else (3, 5, 7, 9)
    notes = []
    for D in Ds:
        ctx = cube(D)
        c = weighted_adjacency(ctx)
        edges = set(ctx.edges())
        _require(set(c.entries) == edges, f"D={D}: support of C differs from the edge set")
        for (y, z), v in c.entries.items():
            want = gr((-1) ** min(ctx.weight(y), ctx.weight(z)))
            _require(v == want, f"D={D}: C[{y},{z}] = {v}, expected {want}")
        notes.append(f"D={D}: C is (+-1)-weighted with sign (-1)^min-weight on every edge")
    for D in quotient_Ds:
        q = quotient(D)
        c = quotient_weighted_adjacency(q)
        adj = quotient_adjacency(q)
        _require(set(c.entries) == set(adj.entries), f"quotient D={D}: support mismatch")
        for (u, v), val in c.entries.items():
            want = gr((-1) ** min(q.class_weight(u), q.class_weight(v)))
            _require(val == want, f"quotient D={D}: C~[{u},{v}] = {val}, expected {want}")
        notes.append(f"quotient D={D}: C~ weighted the same way")
    return notes, []


def suite_skew(ds=None, cube_D=None, **_kw):
    ds = ds if ds is not None else tuple(range(0, 11))
    notes = []
    for d in ds:
        action = build_irreducible_sl2(d)
        x, y, z = action.matrices()
        h = build_h(action)
        _require(h @ x == -(x @ h), f"d={d}: h fails to anticommute with X")
        _require(h @ y == y @ h, f"d={d}: h fails to commute with Y")
        _require(h @ z == -(z @ h), f"d={d}: h fails to anticommute with Z")
        want_h = ExactMatrix.diagonal([expected_h_eigenvalue(i, d) for i in range(d + 1)])
        _require(h == want_h, f"d={d}: h eigenvalues differ from (-1)^i i^d")
        _require(
            h @ h == ExactMatrix.identity(d + 1) * ((-1) ** d),
            f"d={d}: h^2 != (-1)^d",
        )
        build_skew(action)  # raises unless s^2=I and skew relations hold
    half = Fraction(1, 2)
    two_i = gr(0, 2)

    def ad(alpha, beta, gamma):
        # adjoint action on the basis (X, Y, Z) from the bracket table
        return ExactMatrix.from_rows(
            [
                [0, -(two_i * gamma), two_i * beta],
                [two_i * gamma, 0, -(two_i * alpha)],
                [-(two_i * beta), two_i * alpha, 0],
            ]
        )

    first, second = exp_ad_matrices()
    _require(
        exp_nilpotent(ad(gr(-half), gr(0, half), gr(0)), 3) == first,
        "first exp-ad matrix differs from the adjoint-representation recomputation",
    )
    _require(
        exp_nilpotent(ad(gr(half), gr(0, half), gr(0)), 3) == second,
        "second exp-ad matrix differs from the adjoint-representation recomputation",
    )
    notes.append(f"diameters {min(ds)}..{max(ds)}: h pattern, h^2 sign, skew relations, exp-ad matrices")
    if cube_D is not None:
        for r, h in enumerate(h_by_class(cube(cube_D))):  # proves s = h*k and skew on V
            d = cube_D - 2 * r
            _require(
                h @ h == ExactMatrix.identity(d + 1) * ((-1) ** d),
                f"cube D={cube_D} endpoint {r}: h^2 != (-1)^(D-2r) on its modules",
            )
        notes.append(f"cube D={cube_D}: h^2 sign verified on every irreducible module")
    return notes, []


# Up to this D the idempotents suite also materializes and pins every E_i.
_PIN_MAX_D = 8


def suite_idempotents(Ds=None, **_kw):
    """The idempotent algebra, checked on the base columns col_i = E_i e_0.

    M_f[y, z] = f[y ^ z] has M_f e_0 = f, M_{e_0} = I and M_f M_g = M_{f*g}
    for the XOR-convolution (f*g)[x] = sum_w f[w] g[x ^ w], which the
    Walsh-Hadamard transform (Hf)[u] = sum_z (-1)^(u.z) f[z] turns into a
    pointwise product (H^2 = 2^D I).  With E_i = M_{col_i} and A = M_{A e_0}
    (checked first), the matrix identities are equivalent to identities on
    the columns, which are checked at all 2^D coordinates for every D:
      sum E_i = I, sum theta_i E_i = A <=> sum col_i = e_0, sum theta_i col_i = A e_0
      E_i E_j = delta_ij E_i           <=> (H col_i)(H col_j) = delta_ij H col_i
      E_0 = J/2^D, trace E_i = C(D, i) <=> col_0 = 1/2^D, 2^D col_i[0] = C(D, i)
      E_{D-i} = (-1)^dist(y,z) E_i     <=> col_{D-i}[z] = (-1)^wt(z) col_i[z]
    The first two rows give A E_j = theta_j E_j.  Up to _PIN_MAX_D every entry
    of each materialized E_i is pinned to col_i[y ^ z], zero pattern included,
    so the identities hold for the matrices whatever built them."""
    Ds = Ds or tuple(range(1, 9))
    notes = []
    for D in Ds:
        ctx = cube(D)
        n = ctx.nvertices
        a = adjacency(ctx)
        a_col = [a.get(x, 0) for x in range(n)]
        _require(_translation_invariant(a, a_col), f"D={D}: A is not translation-invariant")
        cols = [[_idempotent_base_column(D, i).get(x, 0) for x in range(n)] for i in range(D + 1)]
        total = [sum(vs) for vs in zip(*cols)]
        _require(total == [1] + [0] * (n - 1), f"D={D}: sum of idempotents is not I")
        spectral = [sum(v * eigenvalue(ctx, i) for i, v in enumerate(vs)) for vs in zip(*cols)]
        _require(spectral == a_col, f"D={D}: sum theta_i E_i is not A")
        hats = [_walsh_hadamard(col) for col in cols]
        for i, hi in enumerate(hats):
            for j in range(i, D + 1):
                product = [u * v for u, v in zip(hi, hats[j])]
                want = hi if i == j else [0] * n
                _require(product == want, f"D={D}: E_{i} E_{j} != delta * E_{i}")
        _require(cols[0] == [Fraction(1, n)] * n, f"D={D}: E_0 != J/2^D")
        for i, col in enumerate(cols):
            _require(col[0] * n == comb(D, i), f"D={D}: rank E_{i} != C(D,{i})")
            twisted = [v * (-1) ** ctx.weight(x) for x, v in enumerate(col)]
            _require(cols[D - i] == twisted, f"D={D}: sign relation fails for E_{i}, E_{D - i}")
        note = (
            f"D={D}: sum, spectral sum theta_i E_i = A, orthogonality, E_0, ranks, "
            f"sign relation on all {n} coordinates of the base columns"
        )
        if D <= _PIN_MAX_D:
            for i, col in enumerate(cols):
                e = primitive_idempotent(ctx, i)
                _require(
                    (e.nrows, e.ncols) == (n, n) and _translation_invariant(e, col),
                    f"D={D}: E_{i} fails the entrywise pin E_{i}[y, z] = col_{i}[y ^ z]",
                )
            note += "; every E_i entry pinned to its base column"
        notes.append(note)
    return notes, []


def _translation_invariant(m, col) -> bool:
    """m[y, z] == col[y ^ z] at every stored entry, and no entry is missing."""
    if len(m.entries) != len(col) * sum(1 for v in col if v):
        return False
    return all(v == col[y ^ z] for (y, z), v in m.entries.items())


def _walsh_hadamard(values) -> list:
    """(H f)[u] = sum_z (-1)^(u.z) f[z], by in-place butterflies on a copy."""
    out, h = list(values), 1
    while h < len(out):
        for start in range(0, len(out), 2 * h):
            for z in range(start, start + h):
                out[z], out[z + h] = out[z] + out[z + h], out[z] - out[z + h]
        h *= 2
    return out


def suite_decomposition(Ds=None, **_kw):
    Ds = Ds or tuple(range(1, 9))
    notes = []
    for D in Ds:
        ctx = cube(D)
        mods = decompose(ctx)
        _require(
            sum(m.dimension for m in mods) == ctx.nvertices,
            f"D={D}: dimensions do not sum to 2^D",
        )
        counts: dict = {}
        for m in mods:
            counts[m.endpoint] = counts.get(m.endpoint, 0) + 1
            _require(
                m.diameter == D - 2 * m.endpoint,
                f"D={D} {m.module_id}: diameter {m.diameter} != D-2r",
            )
            try:
                profile = dual_profile(ctx, m)
            except ValueError as err:
                raise CheckFailure(f"D={D} {m.module_id}: {err}") from err
            want = [1 if m.endpoint <= i <= m.endpoint + m.diameter else 0 for i in range(D + 1)]
            _require(
                profile == want,
                f"D={D} {m.module_id}: spectral profile {profile} is not the window at r={m.endpoint}",
            )
        for r, c in counts.items():
            want = comb(D, r) - (comb(D, r - 1) if r else 0)
            _require(c == want, f"D={D}: endpoint {r} multiplicity {c} != {want}")
        try:
            check_span(ctx)
        except ValueError as err:
            raise CheckFailure(str(err)) from err
        notes.append(
            f"D={D}: {len(mods)} thin modules, dimensions sum to {ctx.nvertices}, "
            "multiplicities and spectral windows verified"
        )
    return notes, []


def suite_leonard_even(Ds=None, **_kw):
    Ds = Ds or (6, 8)
    notes = []
    certs = []
    for D in Ds:
        if D % 2:
            raise ValueError("leonard-even runs on even D")
        ctx = cube(D)
        two = gr(2)
        count = 0
        for m in decompose(ctx):
            if m.diameter < 3:
                continue
            mats = module_structure(ctx, m).matrices()
            cert = certify_triple(*mats, module_id=f"Q{D}:{m.module_id}")
            _require(
                set(cert.shapes) == {"bipartite"},
                f"D={D} {m.module_id}: not all six shapes bipartite",
            )
            _require(cert.bannai_ito, f"D={D} {m.module_id}: Bannai/Ito ratios fail")
            _require(cert.nu == (two, two, two), f"D={D} {m.module_id}: nu != (2,2,2)")
            _require(
                cert.verdict == "normalized-B"
                and cert.classification == b_type(D - 2 * m.endpoint),
                f"D={D} {m.module_id}: verdict {cert.verdict}, type {cert.classification}",
            )
            certs.append(cert)
            count += 1
        notes.append(f"D={D}: {count} normalized bipartite certificates of diameters >= 3")
    return notes, certs


def suite_leonard_quotient(Ds=None, reference_tables: bool = False, **_kw):
    """Odd-D module types and quotient certificates.

    With reference_tables=False the exact-arithmetic tables are verified:
    the variant depends only on the parity of floor(D/2).  With
    reference_tables=True the endpoint-parity-dependent reference tables
    are asserted instead; those match the (-1)^r-twisted convention and
    fail at odd endpoints, so the suite reports every disagreeing cell.
    test_criterion_7_odd_types_reference_tables_known_defect in
    tests/test_acceptance.py checks every cell under the twisted convention."""
    Ds = Ds or (5, 7, 9)
    notes = []
    certs = []
    mismatches = []
    for D in Ds:
        if D % 2 == 0:
            raise ValueError("leonard-quotient runs on odd D")
        ctx = cube(D)
        q = quotient(D)
        cal_d = q.cal_d
        for m in decompose(ctx):
            typed = split_and_type(ctx, m)  # verifies the computed tables itself
            r = m.endpoint
            if reference_tables:
                key = (r % 2, cal_d % 2)
                for (basis, found), table, label in (
                    (typed[0], REFERENCE_PLUS_TABLE, "V+"),
                    (typed[1], REFERENCE_MINUS_TABLE, "V-"),
                ):
                    want = ab_type(cal_d - r, table[key])
                    if found != want:
                        mismatches.append(
                            f"D={D} {m.module_id} {label}: reference table says {want}, "
                            f"exact classification is {found}"
                        )
        qmods = quotient_modules(q)
        _require(
            sum(sb.dimension for sb, _t in qmods) == q.nclasses,
            f"D={D}: quotient modules do not fill the quotient space",
        )
        for sb, t in qmods:
            if reference_tables:
                want = ab_type(
                    cal_d - sb.endpoint,
                    REFERENCE_PLUS_TABLE[(sb.endpoint % 2, cal_d % 2)],
                )
                if t != want:
                    mismatches.append(
                        f"D={D} quotient {sb.module_id}: reference table says {want}, "
                        f"exact classification is {t}"
                    )
            if t.d < 3:
                continue
            mats = quotient_structure(q, sb).matrices()
            cert = certify_triple(*mats, module_id=f"Q~{D}:{sb.module_id}")
            _require(
                set(cert.shapes) == {"almost-bipartite"},
                f"D={D} {sb.module_id}: shapes not all almost-bipartite",
            )
            _require(cert.bannai_ito, f"D={D} {sb.module_id}: Bannai/Ito fails")
            _require(
                cert.verdict == f"{t.n}-normalized-AB" and cert.classification == t,
                f"D={D} {sb.module_id}: verdict {cert.verdict} does not match type {t}",
            )
            want_traces = trace_table(t.d)[t.n]
            _require(
                cert.traces == want_traces,
                f"D={D} {sb.module_id}: traces {cert.traces} off the classification row",
            )
            certs.append(cert)
        notes.append(
            f"D={D}: split types, quotient types and {sum(1 for sb, t in qmods if t.d >= 3)} "
            "n-normalized certificates verified against the computed tables"
        )
    if reference_tables and mismatches:
        shown = mismatches[:6]
        more = len(mismatches) - len(shown)
        if more:
            shown.append(f"... and {more} further cells, all at odd endpoints")
        raise CheckFailure(
            "reference type tables are refuted by exact classification at odd "
            "endpoints: the restricted dual adjacency carries an inherent (-1)^r, "
            "so the untwisted variant depends only on the parity of floor(D/2): "
            + "; ".join(shown)
        )
    return notes, certs


def suite_sl2_factory(ds=None, **_kw):
    ds = ds if ds is not None else tuple(range(0, 10))
    notes = []
    for d in ds:
        action = build_irreducible_sl2(d)
        if d % 2 == 0:
            skew = build_skew(action)
            for structure in induce_acsa_structures(action, skew.s_mat):
                _require(
                    classify(structure) == b_type(d),
                    f"d={d}: induced structure does not classify as the bipartite family",
                )
        else:
            delta = (d - 1) // 2
            for structure_index in (1, 2):
                parts = split_odd(action, structure_index)
                _require(
                    sum(b.size for b, _t in parts) == d + 1,
                    f"d={d}: split does not fill the module",
                )
                for _b, t in parts:
                    _require(
                        t.family == "AB" and t.d == delta,
                        f"d={d}: split part has type {t}",
                    )
    notes.append(f"diameters {min(ds)}..{max(ds)}: induced types confirmed by classification")
    return notes, []


def suite_families(ds=None, **_kw):
    ds = ds if ds is not None else tuple(range(0, 11))
    notes = []
    count = 0
    for d in ds:
        types = [ab_type(d, n) for n in "0xyz"]
        if d % 2 == 0:
            types.append(b_type(d))
        for t in types:
            triple = build_canonical(t)
            ok, detail = check_relations(triple)
            _require(ok, f"{t}: {detail}")
            _require(is_irreducible(triple), f"{t}: not irreducible")
            _require(classify(triple) == t, f"{t}: classification round trip failed")
            count += 1
    notes.append(f"{count} canonical modules: relations, irreducibility, classification round trip")
    return notes, []


def suite_transport(Ds=None, **_kw):
    Ds = Ds or (3, 5, 7, 9)
    notes = []
    for D in Ds:
        q = quotient(D)
        ctx = q.parent
        psi = psi_matrix(q)
        pairs = (
            ("adjacency", adjacency(ctx), quotient_adjacency(q)),
            ("dual adjacency", second_dual_adjacency(ctx), quotient_dual_adjacency(q)),
            ("weighted adjacency", weighted_adjacency(ctx), quotient_weighted_adjacency(q)),
        )
        for label, parent_m, quotient_m in pairs:
            _require(
                psi @ parent_m == quotient_m @ psi,
                f"D={D}: psi does not intertwine the {label} matrices",
            )
        kern = kernel_basis(psi)
        _require(kern.size == q.nclasses, f"D={D}: kernel of psi has wrong dimension")
        ad = distance_matrix(ctx, D)
        eye = ExactMatrix.identity(ctx.nvertices)
        for j in range(kern.size):
            _require(
                ((ad + eye) @ kern.column(j)).is_zero(),
                f"D={D}: kernel of psi is not the antisymmetric half",
            )
        _minus_basis = v_plus_minus(ctx)[1]
        for j in range(_minus_basis.size):
            _require(
                (psi @ _minus_basis.column(j)).is_zero(),
                f"D={D}: psi does not kill the antisymmetric half",
            )
        notes.append(f"D={D}: transport identities and kernel of psi verified")
    return notes, []


SUITES = {
    "relations": suite_relations,
    "weights": suite_weights,
    "skew": suite_skew,
    "idempotents": suite_idempotents,
    "decomposition": suite_decomposition,
    "leonard-even": suite_leonard_even,
    "leonard-quotient": suite_leonard_quotient,
    "sl2-factory": suite_sl2_factory,
    "families": suite_families,
    "transport": suite_transport,
}


def run_suite(name: str, **kwargs) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    start = time.perf_counter()
    try:
        notes, certs = SUITES[name](**kwargs)
        status, detail = "pass", "; ".join(notes)
    except CheckFailure as failure:
        status, detail, certs = "fail", str(failure), []
    seconds = time.perf_counter() - start
    return SuiteResult(name, status, detail, seconds, certs)
