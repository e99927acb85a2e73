"""Named verification suites over the whole pipeline.

Each suite checks one batch of exact identities and returns a result record;
the CLI assembles them into reports and the acceptance tests assert on them.
Every check is an exact identity: there are no tolerances anywhere.  A suite
runs exactly the ranges it is given; its keyword defaults are its default
ranges.
"""
from __future__ import annotations

import time
from fractions import Fraction
from math import comb, lcm

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
    v_plus_minus,
    weighted_adjacency,
    _idempotent_base_column,
)
from .leonard import certify_triple
from .linalg import ExactMatrix, exp_nilpotent
from .quotient import (
    psi_matrix,
    quotient,
    quotient_acsa_structure,
    quotient_adjacency,
    quotient_weighted_adjacency,
)
from .record import Record
from .sl2rep import (
    build_irreducible_sl2,
    build_skew,
    checked_skew,
    exp_ad_matrices,
    induce_acsa_structures,
    split_odd,
)
from .tmodules import (
    REFERENCE_MINUS_TABLE,
    REFERENCE_PLUS_TABLE,
    decompose,
    dual_profile,
    h_by_class,
    module_structure,
    quotient_modules,
    split_and_type,
)


class SuiteResult(Record):
    """One suite's outcome; unlike other records it can be updated in place,
    so it has no hash."""

    __slots__ = ("suite", "status", "detail", "seconds", "certificates")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self, suite: str, status: str, detail: str, seconds: float, certificates: list | None = None
    ):
        self.suite = suite
        self.status = status
        self.detail = detail
        self.seconds = seconds
        self.certificates = [] if certificates is None else certificates

    @property
    def passed(self) -> bool:
        return self.status == "pass"


class CheckFailure(Exception):
    pass


def _require(cond, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


# -- individual suites -----------------------------------------------------


def suite_relations(Ds=(2, 4, 6, 8)):
    notes = []
    for D in Ds:
        ctx = cube(D)
        for label, builder in (("positive", positive_structure), ("negative", negative_structure)):
            ok, detail = check_relations(builder(ctx))
            _require(ok, f"D={D} {label} structure: {detail}")
        notes.append(f"D={D}: positive and negative structures satisfy all three relations")
    return notes, []


def suite_weights(Ds=tuple(range(1, 9)), quotient_Ds=(3, 5, 7, 9)):
    """Each stored entry of C and C~ is checked as integers against its
    sign (`_off_sign`); a failure detail is formed only for the first entry
    that fails."""
    notes = []
    for D in Ds:
        ctx = cube(D)
        c = weighted_adjacency(ctx)
        edges = set(ctx.edges())
        _require(set(c.entries) == edges, f"D={D}: support of C differs from the edge set")
        bad = _off_sign(c, "C", ctx.weight)
        _require(bad is None, f"D={D}: {bad}")
        notes.append(f"D={D}: C is (+-1)-weighted with sign (-1)^min-weight on every edge")
    for D in quotient_Ds:
        q = quotient(D)
        c = quotient_weighted_adjacency(q)
        adj = quotient_adjacency(q)
        _require(set(c.entries) == set(adj.entries), f"quotient D={D}: support mismatch")
        bad = _off_sign(c, "C~", q.class_weight)
        _require(bad is None, f"quotient D={D}: {bad}")
        notes.append(f"quotient D={D}: C~ weighted the same way")
    return notes, []


def _off_sign(m: ExactMatrix, name: str, weight) -> str | None:
    """"name[y,z] = value, expected sign" for the first stored entry of m,
    in stored order, that is not sign = (-1)^min(weight(y), weight(z)):
    (re, im) != (sign * den, 0) over m's one denominator.  None if every
    entry has its sign."""
    den = m.den
    for y, row in m.rows.items():
        for z, a, b in row:
            sign = (-1) ** min(weight(y), weight(z))
            if b or a != sign * den:
                return f"{name}[{y},{z}] = {m.get(y, z)}, expected {gr(sign)}"
    return None


def suite_skew(ds=tuple(range(0, 11)), cube_D=None):
    notes = []
    for d in ds:
        try:
            checked_skew(d)  # the h pattern, h^2 sign and skew relations
        except AssertionError as err:
            raise CheckFailure(str(err)) from err
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
    checked = f"diameters {min(ds)}..{max(ds)}: h pattern, h^2 sign, skew relations, " if ds else ""
    notes.append(checked + "exp-ad matrices")
    if cube_D is not None:
        for r, h in enumerate(h_by_class(cube(cube_D))):  # proves s = h*k and skew on V
            d = cube_D - 2 * r
            _require(
                h @ h == ExactMatrix.identity(d + 1) * ((-1) ** d),
                f"cube D={cube_D} endpoint {r}: h^2 != (-1)^(D-2r) on its modules",
            )
        notes.append(f"cube D={cube_D}: h^2 sign verified on every irreducible module")
    return notes, []


def suite_idempotents(Ds=tuple(range(1, 9))):
    """The idempotent algebra, checked on the base columns col_i = E_i e_0.

    M_f[y, z] = f[y ^ z] has M_f e_0 = f, M_{e_0} = I and M_f M_g = M_{f*g} for
    the XOR-convolution (f*g)[x] = sum_w f[w] g[x ^ w], which the Walsh-Hadamard
    transform (Hf)[u] = sum_z (-1)^(u.z) f[z] makes pointwise (H^2 = 2^D I).  With
    E_i = M_{col_i} and A = M_{A e_0} (checked first), the matrix identities are
    equivalent to identities on the columns, checked at all 2^D coordinates:
      sum E_i = I, sum theta_i E_i = A <=> sum col_i = e_0, sum theta_i col_i = A e_0
      E_i E_j = delta_ij E_i           <=> (H col_i)(H col_j) = delta_ij H col_i
      E_0 = J/2^D, trace E_i = C(D, i) <=> col_0 = 1/2^D, 2^D col_i[0] = C(D, i)
      E_{D-i} = (-1)^dist(y,z) E_i     <=> col_{D-i}[z] = (-1)^wt(z) col_i[z]
    The first two rows give A E_j = theta_j E_j.  Each row times the lcm L of all
    the denominators (the spectral sum also times the denominator of A) is an
    identity in Z[i] on g_i = L col_i, exact as L > 0, and H g_i = L H col_i.  In
    Q(i), v^2 = L v only for v in {0, L}, and only a zero factor makes a product 0,
    so orthogonality says each H g_i takes only the values 0 and L, on pairwise
    disjoint supports: one O(D 2^D) pass with an owner array.  Up to D = 8 each E_i,
    built one at a time, is pinned to col_i[y ^ z] entrywise, zeros included."""
    notes = []
    for D in Ds:
        ctx = cube(D)
        n = ctx.nvertices
        a = adjacency(ctx)
        da, a_col = _dense_column(a.column(0))
        _require(_translation_invariant(a, da, a_col), f"D={D}: A is not translation-invariant")
        cols = [_dense_column(_idempotent_base_column(D, i)) for i in range(D + 1)]
        den = lcm(*(d for d, _parts in cols))
        # g_i = L col_i: its 2^D real parts, then its 2^D imaginary parts
        g = [[p[k] * (den // d) for k in (0, 1) for p in parts] for d, parts in cols]
        total = [sum(vs) for vs in zip(*g)]
        _require(total == [den] + [0] * (2 * n - 1), f"D={D}: sum of idempotents is not I")
        thetas = [eigenvalue(ctx, i) for i in range(D + 1)]
        lhs = [da * sum(map(int.__mul__, thetas, vs)) for vs in zip(*g)]
        rhs = [den * p[k] for k in (0, 1) for p in a_col]
        _require(lhs == rhs, f"D={D}: sum theta_i E_i is not A")
        first, owner = (D + 1,) * 2, [D + 1] * n  # least failing (i, j); least i with H g_i[u] != 0
        for j in range(D + 1):
            re, im = _walsh_hadamard(g[j][:n]), g[j][n:]
            if any(im):  # H 0 = 0
                im = _walsh_hadamard(im)
            i = min((o for o, p, q in zip(owner, re, im) if p or q), default=D + 1)
            first = min(first, (i, j), (j, j) if any(im) or not {0, den}.issuperset(re) else first)
            owner = [min(o, j) if p or q else o for o, p, q in zip(owner, re, im)]
        _require(first[0] > D, "D={}: E_{} E_{} != delta * E_{}".format(D, *first, first[0]))
        _require([v * n for v in g[0]] == [den] * n + [0] * n, f"D={D}: E_0 != J/2^D")
        signs = [(-1) ** ctx.weight(x) for x in range(n)] * 2
        for i in range(D + 1):
            _require(g[i][0] * n == comb(D, i) * den and not g[i][n], f"D={D}: rank E_{i} != C(D,{i})")
            twisted = [s * v for s, v in zip(signs, g[i])]
            _require(g[D - i] == twisted, f"D={D}: sign relation fails for E_{i}, E_{D - i}")
        pin = D <= 8
        for i, (d, col) in enumerate(cols if pin else ()):
            _require(
                _translation_invariant(primitive_idempotent(ctx, i), d, col),
                f"D={D}: E_{i} fails the entrywise pin E_{i}[y, z] = col_{i}[y ^ z]",
            )
        pinned = "; every E_i entry pinned to its base column" if pin else ""
        notes.append(
            f"D={D}: sum, spectral sum theta_i E_i = A, orthogonality, E_0, ranks, "
            f"sign relation on all {n} coordinates of the base columns{pinned}"
        )
    return notes, []


def _dense_column(v: ExactMatrix) -> tuple[int, list]:
    """(den, parts) for the stored form of an n x 1 matrix v: parts[x] is
    the (re, im) numerator of v[x] over den, (0, 0) where none is stored."""
    parts = [(0, 0)] * v.nrows
    for x, row in v.rows.items():
        for _c, a, b in row:
            parts[x] = (a, b)
    return v.den, parts


def _translation_invariant(m: ExactMatrix, den: int, col) -> bool:
    """m is len(col)-square and m[y, z] == col[y ^ z] at all entries, zeros
    included, for (den, col) a column's stored form (`_dense_column`).  The
    entries of such an m are the values of the column, so its canonical
    denominator is den, and the numerators are compared as integers."""
    n = len(col)
    support = sum(1 for p in col if p != (0, 0))
    if (m.nrows, m.ncols, m.den, m.nnz()) != (n, n, den, n * support):
        return False
    return all(col[y ^ z] == (a, b) for y, row in m.rows.items() for z, a, b in row)


def _walsh_hadamard(f) -> list:
    """H f in D passes, each transforming bit 0 and rotating it to the top."""
    for _ in range(len(f).bit_length() - 1):
        f = [p + q for p, q in zip(f[::2], f[1::2])] + [p - q for p, q in zip(f[::2], f[1::2])]
    return f


def suite_decomposition(Ds=tuple(range(1, 9))):
    """The spectral window of every T-module of Q_D.

    `decompose` proves the rest before it returns: the C(D, r) - C(D, r-1)
    modules of each endpoint r, each of diameter D - 2r (`_class_basis`
    raises exactly D - 2r steps), with dimensions summing to 2^D.  Here
    `dual_profile` must put W in the theta_i-eigenspaces for i = r..D-r
    only, one dimension each."""
    notes = []
    for D in Ds:
        ctx = cube(D)
        mods = decompose(ctx)
        for m in mods:
            try:
                profile = dual_profile(m)
            except ValueError as err:
                raise CheckFailure(f"D={D} {m.module_id}: {err}") from err
            want = [1 if m.endpoint <= i <= m.endpoint + m.diameter else 0 for i in range(D + 1)]
            _require(
                profile == want,
                f"D={D} {m.module_id}: spectral profile {profile} is not the window at r={m.endpoint}",
            )
        notes.append(
            f"D={D}: {len(mods)} thin modules, dimensions sum to {ctx.nvertices}, "
            "multiplicities and spectral windows verified"
        )
    return notes, []


def suite_leonard_even(Ds=(6, 8)):
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
            mats = module_structure(m).matrices()
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


def suite_leonard_quotient(Ds=(5, 7, 9), reference_tables: bool = False):
    """Odd-D module types and quotient certificates.

    With reference_tables=False the exact-arithmetic tables are verified:
    the variant depends only on the parity of floor(D/2).  With
    reference_tables=True the endpoint-parity-dependent reference tables
    are asserted instead; those match the (-1)^r-twisted convention and
    fail at odd endpoints, so the suite reports every disagreeing cell.
    test_criterion_7_odd_types_reference_tables_known_defect in
    tests/test_acceptance.py checks every cell under the twisted convention."""
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
            typed = split_and_type(m)  # verifies the computed tables itself
            r = m.endpoint
            if reference_tables:
                key = (r % 2, cal_d % 2)
                for found, table, label in zip(
                    typed, (REFERENCE_PLUS_TABLE, REFERENCE_MINUS_TABLE), ("V+", "V-")
                ):
                    want = ab_type(cal_d - r, table[key])
                    if found != want:
                        mismatches.append(
                            f"D={D} {m.module_id} {label}: reference table says {want}, "
                            f"exact classification is {found}"
                        )
        qmods = quotient_modules(q)
        _require(
            sum(sb.dimension for sb in qmods) == q.nclasses,
            f"D={D}: quotient modules do not fill the quotient space",
        )
        count = 0
        for sb in qmods:
            (t,) = split_and_type(sb)
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
            mats = module_structure(sb).matrices()
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
            count += 1
        notes.append(
            f"D={D}: split types, quotient types and {count} "
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


def suite_sl2_factory(ds=tuple(range(0, 10))):
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
                    sum(b.ncols for b, _t in parts) == d + 1,
                    f"d={d}: split does not fill the module",
                )
                for _b, t in parts:
                    _require(
                        t.family == "AB" and t.d == delta,
                        f"d={d}: split part has type {t}",
                    )
    if ds:
        notes.append(f"diameters {min(ds)}..{max(ds)}: induced types confirmed by classification")
    return notes, []


def suite_families(ds=tuple(range(0, 11))):
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
    if count:
        notes.append(
            f"{count} canonical modules: relations, irreducibility, classification round trip"
        )
    return notes, []


def suite_transport(Ds=(3, 5, 7, 9)):
    """psi intertwines the parent and quotient structures, and its kernel is
    the antisymmetric half.  The suite checks psi A = A~ psi, which no
    builder proves, and leaves the dual and weighted identities to the
    builders that prove them.

    ker psi = span V- is proved with no elimination:
      - every stored column of psi holds one entry and no row of psi is
        empty, so each unit vector e_u is a multiple of a column of psi:
        rank psi = nclasses and dim ker psi = 2^D - nclasses;
      - the columns of V- are nonzero and no row holds two of their entries,
        so their supports are pairwise disjoint and they are independent,
        2^D - nclasses of them;
      - psi V- = 0 puts span V- in ker psi, and the dimensions agree.
    Then (A_D + I) V- = 0, a product with the antipodal permutation A_D,
    shows that ker psi is the antisymmetric half."""
    notes = []
    for D in Ds:
        q = quotient(D)
        ctx = q.parent
        # verifies the quotient relations; its builders `quotient_dual_adjacency`
        # and `quotient_weighted_adjacency` prove psi A*_{D-1} = B~ psi and psi C = C~ psi
        quotient_acsa_structure(q)
        psi = psi_matrix(q)
        _require(
            psi @ adjacency(ctx) == quotient_adjacency(q) @ psi,
            f"D={D}: psi does not intertwine the adjacency matrices",
        )
        onto = all(len(col) == 1 for col in psi.columns().values()) and len(psi.rows) == psi.nrows
        _require(onto, f"D={D}: psi is not one entry per column on every class")
        minus, k = v_plus_minus(ctx)[1], ctx.nvertices - q.nclasses
        disjoint = all(len(row) == 1 for row in minus.rows.values())
        _require(
            disjoint and len(minus.columns()) == minus.ncols == k,
            f"D={D}: V- is not {k} nonzero columns with disjoint supports",
        )
        _require(
            (psi @ minus).is_zero(),
            f"D={D}: psi does not kill the antisymmetric half",
        )
        _require(
            (distance_matrix(ctx, D) @ minus + minus).is_zero(),
            f"D={D}: kernel of psi is not the antisymmetric half",
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
