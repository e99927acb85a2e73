import hashlib
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest

from cubetri import leonard, linalg, suites
from cubetri.acsa import ab_type, b_type, restrict_triple
from cubetri.exactnum import gr
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
    second_dual_adjacency,
)
from cubetri.linalg import ExactMatrix, format_matrix, kernel_basis, rank, restrict
from cubetri import tmodules
from cubetri.quotient import (
    QuotientContext,
    psi_matrix,
    quotient,
    quotient_acsa_structure,
    quotient_adjacency,
    quotient_dual_adjacency,
)
from cubetri.sl2rep import build_h, k_scalar
from cubetri.tmodules import (
    antipodal_split,
    decompose,
    dual_profile,
    h_by_class,
    module_structure,
    quotient_modules,
    split_and_type,
)


@pytest.fixture
def fresh_class_bases():
    """Class bases and class values computed inside the test, and dropped
    after it, for tests that patch what builds them."""
    caches = (tmodules._class_basis, tmodules._derived)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


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
        for j in range(m.dimension):
            col = m.vectors.column(j)
            weights = {ctx.weight(r) for (r, _c) in col.entries}
            assert weights == {m.endpoint + j}
        assert m.diameter == ctx.D - 2 * m.endpoint


def test_direct_sum_per_slice():
    # vectors meeting one weight slice, collected across modules, stay
    # independent: the exact-rank oracle for the proof in `decompose`
    for D in range(1, 8):
        ctx = cube(D)
        slices: dict[int, list] = {}
        for m in decompose(ctx):
            for j in range(m.dimension):
                slices.setdefault(m.endpoint + j, []).append(m.vectors.column(j))
        for w, cols in slices.items():
            assert len(cols) == comb(D, w)
            entries = {}
            for j, col in enumerate(cols):
                for (r, _c), v in col.entries.items():
                    entries[(r, j)] = v
            stacked = ExactMatrix(ctx.nvertices, len(cols), entries)
            assert rank(stacked) == stacked.ncols


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

    # e_0 spans its own slice, so the r=0 module stays invariant and only
    # s_W = h_W k fails; a flip at weight 1 breaks invariance first
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


def _lowering_oracle(ctx, r):
    """The weight-r slice and the block of A from it to the weight-(r-1)
    slice, read off the stored entries of `adjacency`."""
    upper = [y for y in range(ctx.nvertices) if ctx.weight(y) == r]
    lower = {y: i for i, y in enumerate(y for y in range(ctx.nvertices) if ctx.weight(y) == r - 1)}
    cols = {y: j for j, y in enumerate(upper)}
    entries = {
        (lower[i], cols[j]): v for (i, j), v in adjacency(ctx).entries.items()
        if i in lower and j in cols
    }
    return upper, ExactMatrix(len(lower), len(upper), entries)


def test_seeds_span_the_kernel_of_lowering():
    for D in range(4, 9):
        ctx = cube(D)
        mods = decompose(ctx)
        for r in range(1, D // 2 + 1):
            upper, block = _lowering_oracle(ctx, r)
            kern = kernel_basis(block)
            seeds = ExactMatrix(len(upper), comb(D, r) - comb(D, r - 1), {
                (upper.index(y), k): v
                for k, mod in enumerate(mod for mod in mods if mod.endpoint == r)
                for (y, c), v in mod.vectors.entries.items() if c == 0
            })
            stacked = ExactMatrix(len(upper), kern.ncols + seeds.ncols, {
                **kern.entries, **{(i, kern.ncols + k): v for (i, k), v in seeds.entries.items()}
            })
            assert rank(seeds) == rank(stacked) == kern.ncols, (D, r)


def test_decompose_rejects_a_seed_with_one_flipped_sign(monkeypatch, fresh_class_bases):
    polytabloid = tmodules._polytabloid

    def one_flipped(D, second):
        vec = polytabloid(D, second)
        if len(second) == 2:
            y = max(vec)
            vec = {**vec, y: -vec[y]}
        return vec

    monkeypatch.setattr(tmodules, "_polytabloid", one_flipped)
    with pytest.raises(AssertionError, match="seed r=2#0 of Q_5 is not killed by lowering"):
        decompose.__wrapped__(cube(5))


def test_decompose_rejects_a_repeated_seed(monkeypatch, fresh_class_bases):
    tableaux = tmodules._standard_tableaux

    def repeated(D, r):
        seeds = tableaux(D, r)
        return seeds[:1] + seeds[:-1] if r == 2 else seeds

    monkeypatch.setattr(tmodules, "_standard_tableaux", repeated)
    with pytest.raises(AssertionError, match="endpoint 2 of Q_5: seeds share a largest vertex"):
        decompose.__wrapped__(cube(5))


def test_decompose_rejects_a_missing_tableau(monkeypatch, fresh_class_bases):
    tableaux = tmodules._standard_tableaux
    monkeypatch.setattr(
        tmodules, "_standard_tableaux", lambda D, r: tableaux(D, r)[:-1] if r == 1 else tableaux(D, r)
    )
    want = "endpoint 1 of Q_5: found 3 seeds, binomial cross-check expects 4"
    with pytest.raises(AssertionError, match=want):
        decompose.__wrapped__(cube(5))


def test_decompose_rejects_a_class_basis_short_of_its_chain(monkeypatch, fresh_class_bases):
    # each of the four endpoint-1 modules loses its top vector
    basis = tmodules._class_basis

    def shortened(space, r):
        s = basis(space, r)
        if r != 1:
            return s
        return ExactMatrix(s.nrows, s.ncols - 1, {k: v for k, v in s.entries.items() if k[1] < s.ncols - 1})

    monkeypatch.setattr(tmodules, "_class_basis", shortened)
    with pytest.raises(AssertionError, match="decomposition of Q_5 spans 28 of 32 dimensions"):
        decompose.__wrapped__(cube(5))


def test_decompose_rejects_a_tableau_that_is_not_standard(monkeypatch, fresh_class_bases):
    # (0, 1) in place of (2, 3) keeps the count and the tableaux distinct, but
    # relabels the seed (e_1 - e_0)(e_3 - e_2) to (e_0 - e_2)(e_1 - e_3), whose
    # largest vertex has bits {2, 3}: the same module as (2, 3) up to sign
    tableaux = tmodules._standard_tableaux
    monkeypatch.setattr(
        tmodules, "_standard_tableaux", lambda D, r: [(1, 3), (0, 1)] if r == 2 else tableaux(D, r)
    )
    want = r"seed r=2#1 of Q_4: largest vertex is not at tableau \(0, 1\)"
    with pytest.raises(AssertionError, match=want):
        decompose.__wrapped__(cube(4))


def _without_edge(move, edge):
    """`_move_vector` with the edge {y, z} taken out of A."""
    def moved(ctx, vec, to):
        out = move(ctx, vec, to)
        for y, z in (edge, edge[::-1]):
            if y in vec and ctx.weight(z) == to:
                out[z] = out.get(z, 0) - vec[y]
        return {z: v for z, v in out.items() if v}
    return moved


def test_decompose_rejects_raising_and_lowering_without_one_edge(monkeypatch, fresh_class_bases):
    # with the edge {0, 1} gone, LR e_0 = (D - 1) e_0 while D e_0 is required
    monkeypatch.setattr(tmodules, "_move_vector", _without_edge(tmodules._move_vector, (0, 1)))
    want = r"Q_4: LR - RL != \(D - 2w\) I at vertex 0 of weight 0"
    with pytest.raises(AssertionError, match=want):
        decompose.__wrapped__(cube(4))


def test_decompose_rejects_a_commutator_broken_at_a_checked_vertex_above_weight_0(
    monkeypatch, fresh_class_bases
):
    # with {3, 7} gone, LR e_3 loses e_3 at the checked vertex of weight 2;
    # the vertices of weights 0 and 1 never meet that edge
    monkeypatch.setattr(tmodules, "_move_vector", _without_edge(tmodules._move_vector, (3, 7)))
    want = r"Q_4: LR - RL != \(D - 2w\) I at vertex 3 of weight 2"
    with pytest.raises(AssertionError, match=want):
        decompose.__wrapped__(cube(4))


def test_commutator_is_checked_at_one_vertex_per_weight(monkeypatch):
    seen = []
    move = tmodules._move_vector
    monkeypatch.setattr(
        tmodules, "_move_vector", lambda ctx, vec, to: seen.append(vec) or move(ctx, vec, to)
    )
    tmodules._check_commutator(cube(7))
    assert {y for vec in seen if len(vec) == 1 for y in vec} == {(1 << w) - 1 for w in range(8)}


def _adjacency_without(edge):
    """`adjacency` with the edge {y, z} taken out."""
    def without_edge(ctx):
        a = adjacency(ctx)
        return ExactMatrix(a.nrows, a.ncols, {
            key: v for key, v in a.entries.items() if key not in (edge, edge[::-1])
        })
    return without_edge


def test_decompose_rejects_an_adjacency_without_the_edge_0_1(monkeypatch, fresh_class_bases):
    # the chains are raised with this matrix, and the relabelled modules need
    # it to commute with every bit permutation
    monkeypatch.setattr(tmodules, "adjacency", _adjacency_without((0, 1)))
    want = r"without_edge at D=5, transposition \(0 1\): the builder does not commute with it"
    with pytest.raises(AssertionError, match=want):
        decompose.__wrapped__(cube(5))


def test_decompose_rejects_an_adjacency_that_commutes_with_0_1_but_not_the_cycle(
    monkeypatch, fresh_class_bases
):
    # (0 1) fixes the vertices 0 and 4, so only the cycle (0 1 2 3 4), which
    # takes the edge {0, 4} to {0, 8}, sees that A lost its symmetry
    monkeypatch.setattr(tmodules, "adjacency", _adjacency_without((0, 4)))
    want = r"without_edge at D=5, cycle \(0 1 \.\.\. 4\): the builder does not commute with it"
    with pytest.raises(AssertionError, match=want):
        decompose.__wrapped__(cube(5))


def test_decompose_raises_and_lowers_with_the_checked_adjacency(monkeypatch, fresh_class_bases):
    # 2A commutes with every bit permutation, so only chains read off the
    # same matrix see that LR - RL = 4(D - 2w) I
    monkeypatch.setattr(tmodules, "adjacency", lambda ctx: adjacency(ctx) * 2)
    want = r"Q_5: LR - RL != \(D - 2w\) I at vertex 0 of weight 0"
    with pytest.raises(AssertionError, match=want):
        decompose.__wrapped__(cube(5))


@pytest.mark.parametrize("scale, want", [
    # the chains run on den*A = A, so only the den^2 of the check sees A/2
    (Fraction(1, 2), r"Q_5: LR - RL != \(D - 2w\) I at vertex 0 of weight 0"),
    # iA commutes with every bit permutation, but its chains leave Z
    (gr(0, 1), r"Q_5: adjacency entry \(1, 0\) is not real"),
])
def test_decompose_raises_on_integers_only(monkeypatch, fresh_class_bases, scale, want):
    monkeypatch.setattr(tmodules, "adjacency", lambda ctx: adjacency(ctx) * scale)
    with pytest.raises(AssertionError, match=want):
        decompose.__wrapped__(cube(5))


def test_decompose_rejects_a_representative_chain_that_dies_early(monkeypatch, fresh_class_bases):
    # the commutator checks move vectors of at most D entries; R^2 e_0 has 10
    move = tmodules._move_vector

    def short_only(ctx, vec, to):
        return move(ctx, vec, to) if len(vec) <= ctx.D else {}

    monkeypatch.setattr(tmodules, "_move_vector", short_only)
    with pytest.raises(AssertionError, match="chain r=0#0 of Q_5 died early at step 3"):
        decompose.__wrapped__(cube(5))


def test_decompose_rejects_a_representative_chain_that_does_not_terminate(
    monkeypatch, fresh_class_bases
):
    # raising out of the top slice returns e_0, which L never maps back
    move = tmodules._move_vector
    monkeypatch.setattr(
        tmodules, "_move_vector", lambda ctx, vec, to: {0: 1} if to > ctx.D else move(ctx, vec, to)
    )
    with pytest.raises(AssertionError, match="chain r=0#0 of Q_5 failed to terminate"):
        decompose.__wrapped__(cube(5))


def _raised_by_bit_flips(ctx, second):
    """Oracle: the chain on the polytabloid prod_i (e_{b_i} - e_{a_i}) of the
    tableau with second row b, raised by flipping each zero bit, scaled by
    `from_columns`."""
    r = len(second)
    chain = [{0: 1}]
    for a, b in zip([p for p in range(ctx.D) if p not in second][:r], second):
        chain[0] = {y | 1 << c: v if c == b else -v for y, v in chain[0].items() for c in (a, b)}
    for _ in range(ctx.D - 2 * r):
        out = {}
        for y, v in chain[-1].items():
            for b in range(ctx.D):
                if not y >> b & 1:
                    out[y | 1 << b] = out.get(y | 1 << b, 0) + v
        chain.append(out)
    return ExactMatrix.from_columns(ctx.nvertices, chain)


def test_relabelled_modules_are_their_own_raised_polytabloids():
    for D in range(1, 10):
        ctx = cube(D)
        for m in decompose(ctx):
            assert m.vectors == _raised_by_bit_flips(ctx, m.tableau), (D, m.module_id)


def test_module_bases_are_pinned():
    # sha256 over ids, tableaux and bases at D = 1..9, as before each class
    # was raised once and relabelled
    h = hashlib.sha256()
    for D in range(1, 10):
        for m in decompose(cube(D)):
            h.update(f"{D} {m.module_id} {m.tableau}\n{format_matrix(m.vectors)}\n".encode())
    assert h.hexdigest() == "b82f9eb5a655954ac30dbaa40c3288af48f4c4c04b4436d7a4a788a2dcf73fa2"


def test_dual_profile_windows():
    ctx = cube(4)
    for m in decompose(ctx):
        profile = dual_profile(m)
        r = m.endpoint
        d = m.diameter
        expected = [1 if r <= i <= r + d else 0 for i in range(ctx.D + 1)]
        assert profile == expected
        assert sum(profile) == m.dimension


def test_dual_profile_specific():
    ctx = cube(4)
    mods = decompose(ctx)
    assert dual_profile(mods[0]) == [1, 1, 1, 1, 1]
    r2 = next(m for m in mods if m.endpoint == 2)
    assert dual_profile(r2) == [0, 0, 1, 0, 0]


def test_dual_profile_matches_dense_idempotents():
    # rank(E_i S) with the dense E_i is the definition of dim E_i W
    for D in range(1, 7):
        ctx = cube(D)
        es = [primitive_idempotent(ctx, i) for i in range(D + 1)]
        for m in decompose(ctx):
            want = [rank(e @ m.vectors) for e in es]
            assert dual_profile(m) == want, (D, m.module_id)


def _non_invariant_class(monkeypatch, ctx):
    """The modules of ctx, with the class basis of endpoint 1 replaced by
    the weight-1 vertex e_1, which A moves out of its span."""
    modules = decompose(ctx)
    basis = tmodules._class_basis
    fake = ExactMatrix.from_columns(ctx.nvertices, [{1: 1}])
    monkeypatch.setattr(
        tmodules, "_class_basis", lambda space, r: fake if (space, r) == (ctx, 1) else basis(space, r)
    )
    return modules


def test_dual_profile_rejects_non_invariant_basis(monkeypatch, fresh_class_bases):
    ctx = cube(3)
    modules = _non_invariant_class(monkeypatch, ctx)
    with pytest.raises(ValueError, match="not invariant"):
        dual_profile(modules[1])


@pytest.mark.parametrize("cube_only", [dual_profile, antipodal_split])
def test_cube_only_module_functions_reject_a_quotient_image(cube_only):
    image = quotient_modules(quotient(5))[1]
    want = f"{cube_only.__name__} takes a T-module of Q_D, not the Q~_5 image r1#0"
    with pytest.raises(ValueError, match=f"^{want}$"):
        cube_only(image)


def test_decomposition_suite_fails_cleanly_on_non_invariant_module(monkeypatch, fresh_class_bases):
    # Q_2 is decomposed before the patch, so only dual_profile meets the
    # fake class r1
    _non_invariant_class(monkeypatch, cube(2))
    r = suites.run_suite("decomposition", Ds=(2,))
    assert r.status == "fail"
    assert r.detail.startswith("D=2 r1#0: subspace not invariant")


def test_split_and_type_even():
    ctx = cube(6)
    for m in decompose(ctx):
        assert split_and_type(m) == [b_type(6 - 2 * m.endpoint)]


def test_split_and_type_odd():
    # computed tables: variant depends only on the parity of floor(D/2);
    # hand-verified at D=3, r=1 (traces (-1,-1,1) force variant z)
    for D, plus_n, minus_n in ((3, "z", "x"), (5, "0", "y"), (7, "z", "x")):
        ctx = cube(D)
        cal_d = D // 2
        for m in decompose(ctx):
            delta = cal_d - m.endpoint
            assert split_and_type(m) == [ab_type(delta, plus_n), ab_type(delta, minus_n)]


def test_module_structure_is_the_restricted_positive_structure():
    # z_W = (x_W y_W + y_W x_W)/2 equals the restriction of the ambient z;
    # the product proof gives every module of a class (D, r) one triple
    for D in range(1, 8):
        ctx = cube(D)
        by_class = {}
        for m in decompose(ctx):
            want = restrict_triple(positive_structure(ctx), m.vectors)
            assert module_structure(m) == want, (D, m.module_id)
            by_class.setdefault(m.endpoint, set()).add(want)
        assert all(len(v) == 1 for v in by_class.values()), D


def test_quotient_structure_is_the_restricted_quotient_structure():
    for D in (3, 5, 7):
        q = quotient(D)
        by_class = {}
        for sb in quotient_modules(q):
            want = restrict_triple(quotient_acsa_structure(q), sb.vectors)
            assert module_structure(sb) == want, (D, sb.module_id)
            by_class.setdefault(sb.endpoint, set()).add(want)
        assert all(len(v) == 1 for v in by_class.values()), D


def _stacked(nrows, columns):
    """The matrix with the given one-column matrices as its columns, unnormalized."""
    entries = {(r, j): v for j, col in enumerate(columns) for (r, _c), v in col.entries.items()}
    return ExactMatrix(nrows, len(columns), entries)


_LEAVES = "subspace not invariant: image of basis vector {} leaves the span"


def _hand_built_cases():
    """(space, a basis from decompose or quotient_modules, its builders, a
    vertex in the slice of the last column but not in the span, and the
    details of the four hand-built failures), on Q_5 and Q~_5."""
    ctx, q = cube(5), quotient(5)
    rep = decompose(ctx)[2]
    image = [sb for sb in quotient_modules(q) if sb.endpoint == 1][1]
    assert (rep.module_id, image.module_id) == ("r1#1", "r1#1")
    overlap, zero = "basis vectors 0 and 1 overlap at coordinate 1", "basis vector 0 is zero"
    return (
        (ctx, rep.vectors, (adjacency, second_dual_adjacency, tmodules._antipodal_map), 15,
         (overlap, _LEAVES.format(2), zero, _LEAVES.format(2))),
        (q, image.vectors, (quotient_adjacency, quotient_dual_adjacency), 3,
         (overlap, _LEAVES.format(0), zero, _LEAVES.format(0))),
    )


def test_module_action_solves_scaled_and_rejects_overlapping_bases():
    # the product proof on bases built by hand, on Q_5 and Q~_5: a rescaled
    # column still spans an invariant subspace, whose action is read off
    # exactly and matches the elimination oracle `restrict`
    for space, s, builders, outside, details in _hand_built_cases():
        assert space.D == 5 and s.ncols > 1
        cols = [s.column(j) for j in range(s.ncols)]
        scaled = _stacked(s.nrows, [cols[0] * 2, *cols[1:]])
        want = tuple(restrict(build(space), scaled) for build in builders)
        assert tmodules._product_proof(space, scaled, builders) == want
        # e_outside lies in the slice of the last column (weight 4 on Q_5,
        # class weight 2 on Q~_5) but not in the span
        for columns, detail in zip((
            [cols[0], cols[1] + cols[0], *cols[2:]],
            cols[:-1],
            [cols[0] * 0, *cols[1:]],
            [*cols[:-1], ExactMatrix.from_columns(s.nrows, [{outside: 1}])],
        ), details):
            with pytest.raises(ValueError) as failure:
                tmodules._product_proof(space, _stacked(s.nrows, columns), builders)
            assert str(failure.value) == detail


def _scaled_by(build, c):
    def scaled(space):
        return build(space) * c
    return scaled


def test_product_proof_carries_gaussian_denominators_of_basis_and_builder():
    # columns scaled by non-real values over different denominators, and
    # builders scaled by (1+i)/3: the integer proof must divide by the
    # basis's pivots and by the builder's own denominator exactly
    factors = (gr(Fraction(2, 3), Fraction(1, 3)), gr(Fraction(-1, 2)), gr(0, Fraction(5, 7)))
    for space, s, builders, _outside, _details in _hand_built_cases():
        cols = [s.column(j) * factors[j % 3] for j in range(s.ncols)]
        basis = _stacked(s.nrows, cols)
        third = gr(Fraction(1, 3), Fraction(1, 3))
        for these in (builders, tuple(_scaled_by(b, third) for b in builders)):
            want = tuple(restrict(build(space), basis) for build in these)
            assert tmodules._product_proof(space, basis, these) == want


def test_product_proof_rejects_an_image_zero_on_part_of_its_own_support():
    # on Q_4, A* is 2 at weight 1 and 0 at weight 2, so A*(e_1 + e_3) = 2 e_1:
    # nonzero at the pivot row 1, zero at row 3 of the same column
    ctx = cube(4)
    s = ExactMatrix.from_columns(ctx.nvertices, [{0: 1}, {1: 1, 3: 1}])
    for solve in (lambda: restrict(dual_adjacency(ctx), s),
                  lambda: tmodules._product_proof(ctx, s, (dual_adjacency,))):
        with pytest.raises(ValueError) as failure:
            solve()
        assert str(failure.value) == _LEAVES.format(1)


def test_product_proofs_walk_only_the_support_of_the_class_basis(monkeypatch):
    # every class of Q_9 and Q~_9: each product walks the stored entries of
    # S through the columns of M, at most D pairs per entry, and no product
    # with M on the left runs
    D = 9
    ctx, q = cube(D), quotient(D)
    cases = [
        (ctx, (adjacency, dual_adjacency, s_diagonal, second_dual_adjacency,
               tmodules._antipodal_map)),
        (q, (quotient_adjacency, quotient_dual_adjacency)),
    ]
    bases = [(space, tmodules._class_basis(space, r), builders)
             for space, builders in cases for r in range(D // 2 + 1)]
    for space, builders in cases:
        for build in builders:
            build(space)
    walks = []
    walk = tmodules._walk

    def counted(rows, b_rows):
        rows = list(rows)
        nnz = sum(len(row) for _i, row in rows)
        walks.append((sum(len(b_rows.get(k, ())) for _i, row in rows for k, *_ in row), nnz))
        return walk(rows, b_rows)

    def no_product(a, b):
        raise AssertionError(f"a {a.nrows}x{a.ncols} product ran in a proof")

    monkeypatch.setattr(tmodules, "_walk", counted)
    monkeypatch.setattr(linalg, "matmul", no_product)
    for space, s, builders in bases:
        tmodules._product_proof(space, s, builders)
    assert len(walks) == (D // 2 + 1) * 7
    assert all(pairs <= D * nnz for pairs, nnz in walks)
    assert max(pairs for pairs, _nnz in walks) == D * ctx.nvertices


def test_module_actions_never_eliminate_on_v(monkeypatch):
    # the decomposition eliminates nothing, and each action is read off the
    # disjoint-support basis and proved by products; the only eliminations
    # left are on (d+1)-dimensional matrices
    D = 7
    ctx, q = cube(D), quotient(D)
    modules = decompose(ctx)
    images = quotient_modules(q)
    sizes = []
    echelon = linalg._echelon

    def counted(rows, *args, **kwargs):
        sizes.append(len(rows))
        return echelon(rows, *args, **kwargs)

    monkeypatch.setattr(linalg, "_echelon", counted)
    assert decompose.__wrapped__(ctx) == modules and not sizes
    tmodules._derived.cache_clear()
    for m in modules:
        module_structure(m)
        antipodal_split(m)
        dual_profile(m)
    for sb in images:
        module_structure(sb)
    assert sizes and max(sizes) <= D + 1


def test_decompose_relabels_no_basis(monkeypatch):
    # a module's basis is formed only when its vectors are asked for
    calls = []
    relabelled = tmodules._relabelled
    monkeypatch.setattr(tmodules, "_relabelled", lambda *a: calls.append(a) or relabelled(*a))
    modules = decompose.__wrapped__(cube(9))
    assert len(modules) == comb(9, 4) and not calls
    assert modules[-1].vectors == _raised_by_bit_flips(cube(9), modules[-1].tableau)
    assert len(calls) == 1


def test_relabelling_rejects_a_builder_without_the_edge_0_1(monkeypatch, fresh_class_bases):
    # the endpoint-2 modules of Q_5 live on weights 2 and 3, so the
    # representative's products never meet the edge {0, 1}; only the
    # transposition check sees that A lost its symmetry
    ctx = cube(5)
    rep, other = [m for m in decompose(ctx) if m.endpoint == 2][:2]
    s = rep.vectors
    without_edge = _adjacency_without((0, 1))
    monkeypatch.setattr(tmodules, "adjacency", without_edge)
    proof = tmodules._product_proof
    assert proof(ctx, s, (without_edge,)) == proof(ctx, s, (adjacency,))
    want = r"without_edge at D=5, transposition \(0 1\): the builder does not commute with it"
    with pytest.raises(AssertionError, match=want):
        dual_profile(other)


@pytest.mark.parametrize("space", [cube(5), quotient(5)], ids=["Q5", "Q~5"])
def test_symmetry_check_compares_values_in_rows_of_equal_length(space):
    # each builder keeps every row length, and breaks the symmetry by a value
    # (the edge {0, 1} weighted 2, or the diagonal entry at 1 negated) or by a
    # position (the entries of row 0 moved to columns 3, 4, ...)
    build = quotient_adjacency if isinstance(space, QuotientContext) else adjacency
    m = build(space)

    def weighted_edge(s):
        return ExactMatrix(m.nrows, m.ncols, {**m.entries, (0, 1): 2, (1, 0): 2})

    def negated_diagonal(s):
        d = quotient_dual_adjacency(s) if isinstance(s, QuotientContext) else s_diagonal(s)
        return ExactMatrix(d.nrows, d.ncols, {**d.entries, (1, 1): -d.get(1, 1)})

    def moved_row(s):
        entries = {k: v for k, v in m.entries.items() if k[0] != 0}
        entries.update({(0, z): 1 for z in range(3, 3 + len(m.rows[0]))})
        return ExactMatrix(m.nrows, m.ncols, entries)

    for damaged in (weighted_edge, negated_diagonal, moved_row):
        with pytest.raises(AssertionError, match=f"{damaged.__name__} at D=5, .*does not commute"):
            tmodules._check_symmetric.__wrapped__(space, damaged)


@pytest.mark.parametrize("D", [7, 8])
def test_product_proof_runs_once_per_class(monkeypatch, D):
    ctx = cube(D)
    modules = decompose(ctx)
    q = quotient(D) if D % 2 else None
    images = quotient_modules(q) if q else []
    proved = []
    product_proof = tmodules._product_proof

    def counted(space, s, builders):
        proved.append((space, s, builders))
        return product_proof(space, s, builders)

    monkeypatch.setattr(tmodules, "_product_proof", counted)
    tmodules._derived.cache_clear()
    for m in modules:
        module_structure(m)
        antipodal_split(m)
        dual_profile(m)
    h_by_class.__wrapped__(ctx)
    for sb in images:
        module_structure(sb)
    classes = D // 2 + 1
    assert len(proved) == len(set(proved)) == classes * (5 if q else 4)
    assert {w.endpoint for w in modules} == set(range(classes))


def test_dual_profile_derives_once_per_class(monkeypatch):
    ctx = cube(7)
    calls = []
    eigenspace_dims = tmodules._eigenspace_dims
    monkeypatch.setattr(
        tmodules, "_eigenspace_dims", lambda *a: calls.append(a) or eigenspace_dims(*a)
    )
    for m in decompose(ctx):
        dual_profile(m)
    assert len(calls) == 4


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
            assert c.replace(module_id=rep.module_id) == rep
        assert len(first) == classes


def test_antipodal_halves_in_module_coordinates():
    # S c+ and S c- are +1 and -1 eigenvectors of A_D; the halves fill W
    for D in range(1, 8):
        ctx = cube(D)
        ad = distance_matrix(ctx, D)
        for m in decompose(ctx):
            plus, minus = antipodal_split(m)
            inside, eye = restrict(ad, m.vectors), ExactMatrix.identity(m.dimension)
            assert (plus, minus) == (kernel_basis(inside - eye), kernel_basis(inside + eye))
            assert plus.nrows == minus.nrows == m.dimension
            assert plus.ncols + minus.ncols == m.dimension
            for half, sign in ((plus, 1), (minus, -1)):
                ambient = m.vectors @ half
                assert ad @ ambient == ambient * sign, (D, m.module_id, sign)
                assert rank(ambient) == half.ncols


def test_quotient_modules_types_and_dimensions():
    for D, variant in ((3, "z"), (5, "0"), (7, "z")):
        q = quotient(D)
        cal_d = q.cal_d
        mods = quotient_modules(q)
        assert sum(sb.dimension for sb in mods) == q.nclasses
        for sb in mods:
            assert split_and_type(sb) == [ab_type(cal_d - sb.endpoint, variant)]
            for j in range(sb.vectors.ncols):
                col = sb.vectors.column(j)
                weights = {q.class_weight(u) for (u, _c) in col.entries}
                assert weights == {sb.endpoint + j}


def test_module_bases_store_entries_only_inside_their_shape():
    # ExactMatrix._make takes entries unchecked, so a relabelling that sent
    # a row outside the space would still build a matrix
    spaces = [(cube(D), decompose(cube(D))) for D in range(1, 9)]
    spaces += [(quotient(D), quotient_modules(quotient(D))) for D in (3, 5, 7)]
    for space, modules in spaces:
        rows = space.nvertices if isinstance(space, CubeContext) else space.nclasses
        for m in modules:
            s = m.vectors
            assert (s.nrows, s.ncols) == (rows, m.dimension)
            outside = [(r, c) for r, c in s.entries if not (0 <= r < s.nrows and 0 <= c < s.ncols)]
            assert not outside, (space.D, m.module_id, outside[:3])


def test_quotient_images_are_psi_of_their_own_plus_halves():
    # oracle: psi S_t c+ for each module, with no relabelling, columns by
    # class weight
    for D in (3, 5, 7, 9):
        q = quotient(D)
        psi = psi_matrix(q)
        images = quotient_modules(q)
        for m, sb in zip(decompose(q.parent), images, strict=True):
            img = psi @ m.vectors @ antipodal_split(m)[0]
            cols = [{r: v for (r, c), v in img.entries.items() if c == j} for j in range(img.ncols)]
            cols.sort(key=lambda col: min(q.class_weight(u) for u in col))
            want = ExactMatrix.from_columns(q.nclasses, cols)
            assert (sb.module_id, sb.tableau, sb.vectors) == (m.module_id, m.tableau, want), (D,)


def test_quotient_modules_form_psi_products_once_per_endpoint(monkeypatch, fresh_class_bases):
    q = quotient(7)
    calls = []
    monkeypatch.setattr(tmodules, "psi_matrix", lambda q: calls.append(q) or psi_matrix(q))
    for sb in quotient_modules(q):
        split_and_type(sb)
    assert len(calls) == 4 == q.cal_d + 1


def test_quotient_modules_reject_a_damaged_representative_image(monkeypatch, fresh_class_bases):
    basis = tmodules._class_basis

    def damaged(space, endpoint):
        s = basis(space, endpoint)
        if space != quotient(5):
            return s
        key = max(s.entries)
        return ExactMatrix(s.nrows, s.ncols, {**s.entries, key: s.entries[key] * 2})

    monkeypatch.setattr(tmodules, "_class_basis", damaged)
    with pytest.raises(ValueError, match="subspace not invariant"):
        for sb in quotient_modules(quotient(5)):
            split_and_type(sb)


def test_builders_cache_on_the_value_of_the_context():
    assert decompose(cube(7)) is decompose(CubeContext(7))
    assert positive_structure(cube(5)) is positive_structure(CubeContext(5))
    assert quotient_acsa_structure(quotient(5)) is quotient_acsa_structure(quotient(5))
    w = decompose(cube(5))[1]
    assert antipodal_split(w) is antipodal_split(w.replace(space=CubeContext(5)))
    # a failed index check is not cached: it raises on every call
    for _ in range(2):
        with pytest.raises(ValueError, match="index 4 out of range 0..3"):
            distance_matrix(cube(3), 4)
