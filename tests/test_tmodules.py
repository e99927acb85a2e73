from dataclasses import replace
from functools import lru_cache
from math import comb

import pytest

from cubetri import leonard, suites
from cubetri.acsa import ab_type, b_type, restrict_triple
from cubetri.hypercube import (
    CubeContext,
    adjacency,
    cube,
    distance_matrix,
    dual_adjacency,
    go_sl2_structure,
    positive_structure,
    primitive_idempotent,
    s_diagonal,
)
from cubetri.linalg import ExactMatrix, VectorBasis, kernel_basis, rank, restrict
from cubetri import tmodules
from cubetri.quotient import quotient, quotient_acsa_structure
from cubetri.sl2rep import build_h, k_scalar
from cubetri.tmodules import (
    SubmoduleBasis,
    antipodal_split,
    decompose,
    dual_profile,
    h_by_class,
    module_structure,
    module_summary,
    quotient_modules,
    quotient_structure,
    split_and_type,
)


def test_decompose_d4_census():
    ctx = cube(4)
    mods = decompose(ctx)
    by_endpoint = {}
    for m in mods:
        by_endpoint.setdefault(m.endpoint, []).append(m)
    assert {r: len(v) for r, v in by_endpoint.items()} == {0: 1, 1: 3, 2: 2}
    assert {r: v[0].dimension for r, v in by_endpoint.items()} == {0: 5, 1: 3, 2: 1}
    assert sum(m.dimension for m in mods) == 16


def test_decompose_d2_census():
    mods = decompose(cube(2))
    assert [(m.endpoint, m.dimension) for m in mods] == [(0, 3), (1, 1)]


def test_multiplicity_formula():
    for D in range(1, 9):
        mods = decompose(cube(D))
        counts = {}
        for m in mods:
            counts[m.endpoint] = counts.get(m.endpoint, 0) + 1
        for r, c in counts.items():
            assert c == comb(D, r) - (comb(D, r - 1) if r else 0)
        assert sum(m.dimension for m in mods) == 2**D


def test_thinness_by_construction():
    ctx = cube(5)
    for m in decompose(ctx):
        for j, label in enumerate(m.slice_labels()):
            col = m.vectors.column(j)
            weights = {ctx.weight(r) for (r, _c) in col.entries}
            assert weights == {label}
        assert m.diameter == ctx.D - 2 * m.endpoint


def test_direct_sum_per_slice():
    # vectors meeting one weight slice, collected across modules, stay independent
    for D in (4, 5, 6):
        ctx = cube(D)
        slices: dict[int, list] = {}
        for m in decompose(ctx):
            for j, label in enumerate(m.slice_labels()):
                slices.setdefault(label, []).append(m.vectors.column(j))
        for w, cols in slices.items():
            assert len(cols) == comb(D, w)
            entries = {}
            for j, col in enumerate(cols):
                for (r, _c), v in col.entries.items():
                    entries[(r, j)] = v
            stacked = ExactMatrix(ctx.nvertices, len(cols), entries)
            assert VectorBasis(stacked).verify_independent()


def test_endpoint_zero_restriction_matches_weight_pattern():
    # frozen: the leading-1 raising chain reproduces the classical
    # subdiagonal (1,2,3,4) / superdiagonal (4,3,2,1) pattern at D=4
    ctx = cube(4)
    top = next(m for m in decompose(ctx) if m.endpoint == 0)
    inside = restrict(adjacency(ctx), top.vectors)
    expected = ExactMatrix.from_rows(
        [
            [0, 4, 0, 0, 0],
            [1, 0, 3, 0, 0],
            [0, 2, 0, 2, 0],
            [0, 0, 3, 0, 1],
            [0, 0, 0, 4, 0],
        ]
    )
    assert inside == expected


def test_modules_are_sl2_irreducible():
    # restricting the sl2 structure gives the weight-basis pattern shape
    ctx = cube(4)
    action = go_sl2_structure(ctx)
    for m in decompose(ctx):
        x = restrict(action.x_mat, m.vectors)
        y = restrict(action.y_mat, m.vectors)
        d = m.diameter
        assert y == ExactMatrix.diagonal([ctx.D - 2 * (m.endpoint + j) for j in range(d + 1)])
        for (r, c) in x.entries:
            assert abs(r - c) == 1


def test_h_by_class_matches_the_ambient_exponentials():
    # the old construction: three exponentials of 2^D-dimensional matrices
    for D in range(1, 6):
        ctx = cube(D)
        h = build_h(go_sl2_structure(ctx))
        assert h == s_diagonal(ctx) * k_scalar(D + 1).inverse()
        by_class = h_by_class(ctx)
        assert len(by_class) == D // 2 + 1
        for m in decompose(ctx):
            assert restrict(h, m.vectors) == by_class[m.endpoint], (D, m.module_id)


def test_h_by_class_rejects_a_flipped_closed_form(monkeypatch):
    ctx = cube(3)

    def flipped_at(vertex):
        s = s_diagonal(ctx)
        entries = dict(s.entries)
        entries[(vertex, vertex)] = -entries[(vertex, vertex)]
        return lambda _ctx: ExactMatrix(s.nrows, s.ncols, entries)

    # e_0 spans its own slice, so the representative stays invariant and
    # only s_W = h_W k fails; a flip at weight 1 breaks invariance first
    monkeypatch.setattr(tmodules, "s_diagonal", flipped_at(0))
    with pytest.raises(AssertionError, match="skew operator on Q_3: closed form disagrees with h.k"):
        h_by_class.__wrapped__(ctx)
    monkeypatch.setattr(tmodules, "s_diagonal", flipped_at(1))
    with pytest.raises(ValueError, match="not invariant"):
        h_by_class.__wrapped__(ctx)


def test_h_by_class_rejects_a_class_action_that_is_not_sl2(monkeypatch):
    # Y = 2A* leaves every module invariant, but [Y, Z] = 8iX, not 2iX
    ctx = cube(3)
    monkeypatch.setattr(tmodules, "dual_adjacency", lambda c: dual_adjacency(c) * 2)
    with pytest.raises(AssertionError, match="sl2 brackets fail on the diameter-3 modules of Q_3"):
        h_by_class.__wrapped__(ctx)


def test_span_check_rejects_a_repeated_module():
    ctx = cube(4)
    mods = decompose(ctx)
    tmodules._check_slices(ctx, mods)
    assert [m.module_id for m in mods[-2:]] == ["r2#0", "r2#1"]
    with pytest.raises(ValueError, match="D=4: weight-2 slice vectors are not a basis"):
        tmodules._check_slices(ctx, mods[:-1] + mods[-2:-1])
    with pytest.raises(ValueError, match="weight-0 slice vectors are not a basis"):
        tmodules._check_slices(ctx, mods[1:2] + mods[1:])


def test_dual_profile_windows():
    ctx = cube(4)
    for m in decompose(ctx):
        profile = dual_profile(ctx, m)
        r = m.endpoint
        d = m.diameter
        expected = [1 if r <= i <= r + d else 0 for i in range(ctx.D + 1)]
        assert profile == expected
        assert sum(profile) == m.dimension


def test_dual_profile_specific():
    ctx = cube(4)
    mods = decompose(ctx)
    assert dual_profile(ctx, mods[0]) == [1, 1, 1, 1, 1]
    r2 = next(m for m in mods if m.endpoint == 2)
    assert dual_profile(ctx, r2) == [0, 0, 1, 0, 0]


def test_dual_profile_matches_dense_idempotents():
    # rank(E_i S) with the dense E_i is the definition of dim E_i W
    for D in range(1, 7):
        ctx = cube(D)
        for m in decompose(ctx):
            want = [rank(primitive_idempotent(ctx, i) @ m.vectors.matrix) for i in range(D + 1)]
            assert dual_profile(ctx, m) == want, (D, m.module_id)


def _non_invariant_module(D):
    """A one-vector 'module' spanned by a weight-1 vertex, which A moves out."""
    return SubmoduleBasis("r1#0", 1, VectorBasis.from_columns(1 << D, [{1: 1}]))


def test_dual_profile_rejects_non_invariant_basis():
    with pytest.raises(ValueError, match="not invariant"):
        dual_profile(cube(3), _non_invariant_module(3))


def test_decomposition_suite_fails_cleanly_on_non_invariant_module(monkeypatch):
    # at D=2 the fake r1#0 passes the dimension, diameter and slice checks
    real = decompose(cube(2))
    monkeypatch.setattr(suites, "decompose", lambda ctx: [real[0], _non_invariant_module(2)])
    r = suites.run_suite("decomposition", Ds=(2,))
    assert r.status == "fail"
    assert r.detail.startswith("D=2 r1#0: subspace not invariant")


def test_split_and_type_even():
    ctx = cube(6)
    for m in decompose(ctx):
        typed = split_and_type(ctx, m)
        assert len(typed) == 1
        assert typed[0][1] == b_type(6 - 2 * m.endpoint)


def test_split_and_type_odd():
    # computed tables: variant depends only on the parity of floor(D/2);
    # hand-verified at D=3, r=1 (traces (-1,-1,1) force variant z)
    for D, plus_n, minus_n in ((3, "z", "x"), (5, "0", "y"), (7, "z", "x")):
        ctx = cube(D)
        cal_d = D // 2
        for m in decompose(ctx):
            typed = split_and_type(ctx, m)
            assert len(typed) == 2
            delta = cal_d - m.endpoint
            assert typed[0][1] == ab_type(delta, plus_n)
            assert typed[1][1] == ab_type(delta, minus_n)
            assert typed[0][0].size + typed[1][0].size == m.dimension


def test_module_structure_is_the_restricted_positive_structure():
    # z_W = (x_W y_W + y_W x_W)/2 equals the restriction of the ambient z;
    # the product proof gives every module of a class (D, r) one triple
    for D in range(1, 8):
        ctx = cube(D)
        by_class = {}
        for m in decompose(ctx):
            want = restrict_triple(positive_structure(ctx), m.vectors)
            assert module_structure(ctx, m) == want, (D, m.module_id)
            by_class.setdefault(m.endpoint, set()).add(want)
        assert all(len(v) == 1 for v in by_class.values()), D


def test_quotient_structure_is_the_restricted_quotient_structure():
    for D in (3, 5, 7):
        q = quotient(D)
        by_class = {}
        for sb, _t in quotient_modules(q):
            want = restrict_triple(quotient_acsa_structure(q), sb.vectors)
            assert quotient_structure(q, sb) == want, (D, sb.module_id)
            by_class.setdefault(sb.endpoint, set()).add(want)
        assert all(len(v) == 1 for v in by_class.values()), D


def _rebased(m, columns):
    """m with its basis columns replaced, unnormalized."""
    entries = {(r, j): v for j, col in enumerate(columns) for (r, _c), v in col.entries.items()}
    basis = VectorBasis(ExactMatrix(m.vectors.ambient_dim, len(columns), entries))
    return SubmoduleBasis(m.module_id, m.endpoint, basis)


def test_class_action_rejects_scaled_and_overlapping_bases():
    # r1#1 of Q_5 is not its class representative, so it takes the product path
    ctx = cube(5)
    m = decompose(ctx)[2]
    assert m.module_id == "r1#1"
    cols = [m.vectors.column(j) for j in range(m.dimension)]
    scaled = _rebased(m, [cols[0] * 2, *cols[1:]])
    overlapping = _rebased(m, [cols[0], cols[1] + cols[0], *cols[2:]])
    short = _rebased(m, cols[:-1])
    checks = (
        lambda w: module_structure(ctx, w),
        lambda w: antipodal_split(ctx, w),
        lambda w: dual_profile(ctx, w),
    )
    for check in checks:
        with pytest.raises(ValueError, match="image of basis vector 0 is not the class .D=5, r=1. action"):
            check(scaled)
        with pytest.raises(ValueError, match="basis vectors 0 and 1 overlap"):
            check(overlapping)
        with pytest.raises(ValueError, match="not invariant under the class .D=5, r=1. action"):
            check(short)
    # the same for a quotient image that is not its class representative
    q = quotient(5)
    sb = [sb for sb, _t in quotient_modules(q) if sb.endpoint == 1][1]
    cols = [sb.vectors.column(j) for j in range(sb.dimension)]
    with pytest.raises(ValueError, match="not the class .D=5, r=1. action"):
        quotient_structure(q, _rebased(sb, [cols[0] * 2, *cols[1:]]))
    with pytest.raises(ValueError, match="basis vectors 0 and 1 overlap"):
        quotient_structure(q, _rebased(sb, [cols[0], cols[1] + cols[0]]))


def test_certify_triple_certifies_each_class_once(monkeypatch):
    runs = []
    body = leonard._certify.__wrapped__
    counted = lru_cache(maxsize=None)(lambda *mats: runs.append(mats) or body(*mats))
    monkeypatch.setattr(leonard, "_certify", counted)
    for suite, Ds, classes in (("leonard-even", (6, 8), 5), ("leonard-quotient", (5, 7, 9), 3)):
        runs.clear()
        r = suites.run_suite(suite, Ds=Ds)
        assert r.passed and len(runs) == classes, suite
        certs = r.certificates
        assert len({c.module_id for c in certs}) == len(certs)
        first = {}
        for c in certs:  # module ids read "Q8:r1#3": the class is "Q8:r1"
            rep = first.setdefault(c.module_id.split("#")[0], c)
            assert replace(c, module_id=rep.module_id) == rep
        assert len(first) == classes


def test_antipodal_halves_in_module_coordinates():
    # S c+ and S c- are +1 and -1 eigenvectors of A_D; the halves fill W
    for D in range(1, 8):
        ctx = cube(D)
        ad = distance_matrix(ctx, D)
        for m in decompose(ctx):
            plus, minus = antipodal_split(ctx, m)
            inside, eye = restrict(ad, m.vectors), ExactMatrix.identity(m.dimension)
            assert (plus, minus) == (kernel_basis(inside - eye), kernel_basis(inside + eye))
            assert plus.ambient_dim == minus.ambient_dim == m.dimension
            assert plus.size + minus.size == m.dimension
            for half, sign in ((plus, 1), (minus, -1)):
                ambient = m.vectors.matrix @ half.matrix
                assert ad @ ambient == ambient * sign, (D, m.module_id, sign)
                assert rank(ambient) == half.size


def test_quotient_modules_types_and_dimensions():
    for D, variant in ((3, "z"), (5, "0"), (7, "z")):
        q = quotient(D)
        cal_d = q.cal_d
        mods = quotient_modules(q)
        assert sum(sb.dimension for sb, _t in mods) == q.nclasses
        for sb, t in mods:
            assert t == ab_type(cal_d - sb.endpoint, variant)
            for j in range(sb.vectors.size):
                col = sb.vectors.column(j)
                weights = {q.class_weight(u) for (u, _c) in col.entries}
                assert weights == {sb.endpoint + j}


def test_module_summary_shape():
    ctx = cube(3)
    m = decompose(ctx)[0]
    typed = split_and_type(ctx, m)
    record = module_summary(ctx, m, typed)
    assert record["id"] == "r0#0"
    assert record["type"] is None
    assert record["parity_split"] == {"plus": "AB(1,z)", "minus": "AB(1,x)"}


def test_builders_cache_on_the_value_of_the_context():
    assert decompose(cube(7)) is decompose(CubeContext(7))
    assert positive_structure(cube(5)) is positive_structure(CubeContext(5))
    assert quotient_acsa_structure(quotient(5)) is quotient_acsa_structure(quotient(5))
    w = decompose(cube(5))[1]
    assert antipodal_split(cube(5), w) is antipodal_split(CubeContext(5), w)
    # a failed index check is not cached: it raises on every call
    for _ in range(2):
        with pytest.raises(ValueError, match="index 4 out of range 0..3"):
            distance_matrix(cube(3), 4)
