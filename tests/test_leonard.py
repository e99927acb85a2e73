import random
from fractions import Fraction

import pytest

from cubetri.acsa import ab_type, b_type, build_canonical
from cubetri.exactnum import gr
from cubetri.hypercube import cube
from cubetri.leonard import (
    bannai_ito_check,
    certify_triple,
    eigenstructure,
    nu_scalars,
    standard_ordering,
    tridiagonal_shape,
)
from cubetri.linalg import ExactMatrix
from cubetri.tmodules import decompose


def test_eigenstructure_diagonal():
    pairs = eigenstructure(ExactMatrix.diagonal([2, 0, -2]))
    assert [t for t, _v in pairs] == [-2, 0, 2]
    for t, v in pairs:
        assert ExactMatrix.diagonal([2, 0, -2]) @ v == v * t


def test_eigenstructure_of_canonical_families():
    for d in range(0, 7):
        if d % 2 == 0:
            t = build_canonical(b_type(d))
            assert {th for th, _ in eigenstructure(t.x_mat)} == {
                (-1) ** i * (d - 2 * i) for i in range(d + 1)
            }
        ab = build_canonical(ab_type(d, "0"))
        assert {th for th, _ in eigenstructure(ab.y_mat)} == {
            (-1) ** (d + i) * (2 * d - 2 * i + 1) for i in range(d + 1)
        }


def test_eigenstructure_rejects_multiplicity():
    with pytest.raises(ValueError, match="multiplicity"):
        eigenstructure(ExactMatrix.diagonal([1, 1]))


def test_eigenstructure_rejects_non_integer_spectrum():
    m = ExactMatrix.from_rows([[0, 2], [1, 0]])  # eigenvalues +-sqrt(2)
    with pytest.raises(ValueError, match="span"):
        eigenstructure(m)


def test_standard_ordering_b4():
    t = build_canonical(b_type(4))
    pairs = eigenstructure(t.x_mat)
    ordering, c1, c2 = standard_ordering(pairs, t.y_mat, t.z_mat)
    assert ordering in ([4, -2, 0, 2, -4], [-4, 2, 0, -2, 4])
    assert ordering == [4, -2, 0, 2, -4]  # tie-break starts at the larger end
    assert tridiagonal_shape(c1) == "bipartite"
    assert tridiagonal_shape(c2) == "bipartite"


def test_standard_ordering_trivial_and_failure():
    one = ExactMatrix.from_rows([[5]])
    pairs = eigenstructure(one)
    ordering, _c1, _c2 = standard_ordering(pairs, one, one)
    assert ordering == [5]
    # a diagonal companion connects nothing: the support graph is no path
    d3 = ExactMatrix.diagonal([1, 2, 3])
    pairs = eigenstructure(d3)
    with pytest.raises(ValueError, match="not a path"):
        standard_ordering(pairs, d3, d3)


def test_shape_verdicts():
    assert tridiagonal_shape(ExactMatrix.from_rows([[0, 1], [1, 0]])) == "bipartite"
    assert tridiagonal_shape(ExactMatrix.from_rows([[1, 1], [1, 0]])) == "almost-bipartite"
    assert tridiagonal_shape(ExactMatrix.from_rows([[1, 1], [1, -1]])) == "neither"
    assert tridiagonal_shape(ExactMatrix.from_rows([[2]])) == "almost-bipartite"
    assert tridiagonal_shape(ExactMatrix.from_rows([[0]])) == "bipartite"


def test_bannai_ito_sequences():
    assert bannai_ito_check([4, -2, 0, 2, -4]) is True
    assert bannai_ito_check([3, 1, -1, -3]) is False  # arithmetic progression
    assert bannai_ito_check([1, -1]) is True  # vacuous below diameter 3


def _bannai_ito_oracle(theta):
    """The ratio form, over Fractions; 'repeated' where it divides by 0."""
    for i in range(2, len(theta) - 1):
        den = Fraction(theta[i - 1] - theta[i])
        if den == 0:
            return "repeated"
        if (theta[i - 2] - theta[i + 1]) / den != -1:
            return False
    return True


def test_bannai_ito_check_agrees_with_the_ratio_oracle():
    # theta_{i+1} = theta_{i-2} + theta_{i-1} - theta_i makes a sequence
    # pass; changing one entry, or repeating one, may break it
    rng = random.Random(35)
    seen = set()
    for _ in range(400):
        n = rng.randint(0, 9)
        theta = [rng.randint(-6, 6) for _ in range(3)]
        while len(theta) < n:
            theta.append(theta[-3] + theta[-2] - theta[-1])
        theta = theta[:n]
        if theta and rng.random() < 0.5:
            theta[rng.randrange(len(theta))] += rng.randint(-2, 2)
        if len(theta) > 3 and rng.random() < 0.2:
            i = rng.randint(2, len(theta) - 2)
            theta[i] = theta[i - 1]  # a zero gap
        want = _bannai_ito_oracle(theta)
        if want == "repeated":
            with pytest.raises(ValueError, match="repeated adjacent eigenvalues"):
                bannai_ito_check(theta)
        else:
            assert bannai_ito_check(theta) is want
        seen.add(want)
    assert seen == {True, False, "repeated"}


def test_nu_scalars_canonical_and_scaled():
    t = build_canonical(b_type(4))
    assert nu_scalars(t.x_mat, t.y_mat, t.z_mat) == (gr(2), gr(2), gr(2))
    doubled = nu_scalars(t.x_mat * 2, t.y_mat * 2, t.z_mat * 2)
    assert doubled == (gr(4), gr(4), gr(4))
    with pytest.raises(ValueError):
        nu_scalars(t.x_mat, t.y_mat, ExactMatrix.zeros(5, 5))


def test_nu_scaling_law_random():
    rng = random.Random(4242)
    t = build_canonical(ab_type(3, "y"))
    for _ in range(8):
        scalars = []
        while len(scalars) < 3:
            s = gr(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2))
            if s:
                scalars.append(s)
        xi, xi_star, xi_eps = scalars
        nu, nu_star, nu_eps = nu_scalars(
            t.x_mat * xi, t.y_mat * xi_star, t.z_mat * xi_eps
        )
        assert nu == gr(2) * xi_star * xi_eps / xi
        assert nu_star == gr(2) * xi_eps * xi / xi_star
        assert nu_eps == gr(2) * xi * xi_star / xi_eps


def test_certify_canonical_b_families():
    for d in (4, 6):
        t = build_canonical(b_type(d))
        cert = certify_triple(t.x_mat, t.y_mat, t.z_mat, module_id=f"B({d})")
        assert cert.verdict == "normalized-B"
        assert cert.classification == b_type(d)
        assert cert.bannai_ito
        assert set(cert.shapes) == {"bipartite"}
        assert cert.nu == (gr(2), gr(2), gr(2))


def test_certify_canonical_ab_families():
    for d in (3, 4, 5):
        for n in "0xyz":
            t = build_canonical(ab_type(d, n))
            cert = certify_triple(t.x_mat, t.y_mat, t.z_mat)
            assert cert.verdict == f"{n}-normalized-AB"
            assert cert.classification == ab_type(d, n)
            assert set(cert.shapes) == {"almost-bipartite"}


def test_certify_small_diameter_has_no_classification():
    t = build_canonical(ab_type(2, "x"))
    cert = certify_triple(t.x_mat, t.y_mat, t.z_mat)
    assert cert.verdict == "x-normalized-AB"
    assert cert.classification is None
    zero = build_canonical(b_type(0))
    cert0 = certify_triple(zero.x_mat, zero.y_mat, zero.z_mat)
    assert cert0.nu is None
    assert cert0.verdict == "other"


def test_certify_non_example():
    a = ExactMatrix.diagonal([1, -1])
    b = ExactMatrix.from_rows([[1, 1], [1, -1]])
    with pytest.raises(ValueError):
        # anticommutators of this pair are not proportional to anything useful
        certify_triple(a, b, a @ b)


def test_certificates_stable_under_diagonal_conjugation():
    rng = random.Random(99)
    t = build_canonical(b_type(4))
    base = certify_triple(t.x_mat, t.y_mat, t.z_mat)
    for _ in range(5):
        d = ExactMatrix.diagonal(
            [gr(rng.choice([1, 2, 3]), rng.choice([0, 1])) for _ in range(5)]
        )
        dinv = ExactMatrix.diagonal(
            [d.get(i, i).inverse() for i in range(5)]
        )
        cert = certify_triple(
            d @ t.x_mat @ dinv, d @ t.y_mat @ dinv, d @ t.z_mat @ dinv
        )
        assert cert.replace(module_id="") == base.replace(module_id="")


def test_same_diameter_modules_give_equal_certificates():
    # fixed diameter and nu-triple pin the isomorphism class
    ctx = cube(6)
    from cubetri.hypercube import positive_structure
    from cubetri.linalg import restrict

    triple = positive_structure(ctx)
    certs = {}
    for m in decompose(ctx):
        if m.diameter < 3:
            continue
        mats = [restrict(g, m.vectors) for g in triple.matrices()]
        cert = certify_triple(*mats, module_id=m.module_id)
        certs.setdefault(m.diameter, []).append(cert.replace(module_id=""))
    for d, same in certs.items():
        assert all(c == same[0] for c in same), f"diameter {d} certificates differ"


def test_certificate_json_schema():
    t = build_canonical(ab_type(3, "z"))
    cert = certify_triple(t.x_mat, t.y_mat, t.z_mat, module_id="demo")
    blob = cert.to_json_dict()
    assert blob["module_id"] == "demo"
    assert blob["dim"] == 4
    assert set(blob["orderings"]) == {"A", "B", "C"}
    assert len(blob["shapes"]) == 6
    assert blob["type"] == "AB(3,z)"
    assert blob["verdict"] == "z-normalized-AB"
    import json

    json.dumps(blob)  # must be serializable as-is