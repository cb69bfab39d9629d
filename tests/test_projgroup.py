import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expander_forge.errors import InvalidParameterError
from expander_forge.modarith import PrimePower
from expander_forge.projgroup import (
    Mat2,
    act_on_points,
    identity,
    is_psl,
    matrix_codes,
    matrix_entries,
    p1_size,
    point_codes,
    point_coords,
    proj_normalize,
    reduce_matrix,
    reduce_matrix_codes,
    reduce_point_codes,
    unit_inverses,
)
from expander_forge.quat import Quaternion, enumerate_generators, split
from oracles import unit_inverse

PP13 = PrimePower(13, 1)


def random_mat(rng, pp):
    while True:
        t = [rng.randrange(pp.modulus) for _ in range(4)]
        if (t[0] * t[3] - t[1] * t[2]) % pp.p:
            return Mat2(*t, pp)


def random_diag(rng, pp):
    while True:
        a, d = rng.randrange(pp.modulus), rng.randrange(pp.modulus)
        if a % pp.p and d % pp.p:
            return Mat2(a, 0, 0, d, pp)


def entries(mats):
    """The entries of a list of matrices as four int64 arrays."""
    return tuple(np.array([m.entries() for m in mats], dtype=np.int64).T)


def all_points(pp):
    return np.arange(p1_size(pp), dtype=np.int64)


def act(m, codes, pp):
    return act_on_points(m.entries(), codes, pp, unit_inverses(pp))


def pair_codes(mats, pp):
    """Codes c0*P + c1 of the pairs (m^-1 (0:1), m^-1 (1:0)).  The adjugate
    acts as m^-1 does, since scalars fix every point."""
    a, b, c, d = entries(mats)
    adj, uinv = (d, -b, -c, a), unit_inverses(pp)
    c0 = act_on_points(adj, np.zeros_like(a), pp, uinv)
    c1 = act_on_points(adj, np.full_like(a, pp.modulus), pp, uinv)
    return c0 * p1_size(pp) + c1


def general_position(c0, c1, pp):
    """Whether the points with codes c0 and c1 have a unit column determinant."""
    (x0, y0), (x1, y1) = point_coords(c0, pp), point_coords(c1, pp)
    return (x0 * y1 - y0 * x1) % pp.p != 0


def test_mat2_reduces_and_validates():
    m = Mat2(14, -1, 0, 1, PP13)
    assert m.entries() == (1, 12, 0, 1)
    with pytest.raises(InvalidParameterError):
        Mat2(1, 1, 1, 1, PP13)
    with pytest.raises(InvalidParameterError):
        Mat2(13, 13, 13, 26, PrimePower(13, 2))


def test_proj_normalize_examples():
    # normalize(diag(11, 4)) scales by 11^-1 = 6: entries (1, 0, 0, 24 mod 13).
    m = proj_normalize(Mat2(11, 0, 0, 4, PP13))
    assert m.entries() == (1, 0, 0, 4 * unit_inverse(11, PP13) % 13)
    assert m.entries() == (1, 0, 0, 11)
    assert proj_normalize(identity(PP13)) == identity(PP13)
    m1 = Mat2(3, 5, 7, 2, PP13)
    m2 = Mat2(6, 10, 14, 4, PP13)
    assert proj_normalize(m1) == proj_normalize(m2)
    # leading non-unit entries are skipped
    pp = PrimePower(13, 2)
    m3 = proj_normalize(Mat2(13, 1, 5, 0, pp))
    assert m3.b == 1


def test_is_psl():
    assert is_psl(identity(PP13))
    g = Quaternion(1, 2, 0, 0)
    assert is_psl(split(g, PrimePower(29, 1)))      # legendre(5, 29) = +1
    assert not is_psl(split(g, PP13))               # legendre(5, 13) = -1
    assert not is_psl(proj_normalize(split(g, PP13)))  # scale-invariant


@pytest.mark.parametrize("q,k", [(3, 1), (3, 7), (5, 1), (5, 5), (13, 1), (13, 3), (17, 2),
                                 (29, 2)])
def test_unit_inverses_match_scalar_inverse(q, k):
    pp = PrimePower(q, k)
    expected = [unit_inverse(x, pp) if x % q else 0 for x in range(pp.modulus)]
    assert unit_inverses(pp).tolist() == expected


def test_unit_inverses_refuse_int64_overflow():
    # 3^20 is the least power of 3 whose square exceeds int64; the refusal
    # comes before any table is allocated
    with pytest.raises(InvalidParameterError, match="overflow int64"):
        unit_inverses(PrimePower(3, 20))


def test_proj_point_canonical_shapes():
    uinv = unit_inverses(PP13)
    code = point_codes(np.array([3, 1]), np.array([7, 0]), PP13, uinv)
    assert code.tolist() == [3 * unit_inverse(7, PP13) % 13, 13]
    x, y = point_coords(code, PP13)
    assert (x.tolist(), y.tolist()) == ([3 * unit_inverse(7, PP13) % 13, 1], [1, 0])
    # (2 : 13) mod 169 is (1 : 13 * 2^-1), the shape (1 : p*t)
    pp = PrimePower(13, 2)
    code = point_codes(np.array([2]), np.array([13]), pp, unit_inverses(pp))
    x, y = point_coords(code, pp)
    assert code[0] >= 169 and x[0] == 1 and y[0] % 13 == 0
    assert (2 * y[0] - 13 * x[0]) % 169 == 0


def test_mobius_examples():
    pts = all_points(PP13)
    assert np.array_equal(act(identity(PP13), pts, PP13), pts)
    d = Mat2(11, 0, 0, 4, PP13)
    assert act(d, np.array([0, 13]), PP13).tolist() == [0, 13]  # (0:1) and (1:0)
    shear = Mat2(1, 1, 0, 1, PP13)
    affine = np.arange(13)
    assert np.array_equal(act(shear, affine, PP13), (affine + 1) % 13)


@pytest.mark.parametrize("q,k,count", [
    (5, 1, 6), (5, 2, 30), (5, 3, 150),
    (13, 1, 14), (13, 2, 182),
    (29, 1, 30),
])
def test_enumerate_p1_counts(q, k, count):
    pp = PrimePower(q, k)
    pts = all_points(pp)
    assert p1_size(pp) == len(pts) == count
    x, y = point_coords(pts, pp)
    assert np.array_equal(point_codes(x, y, pp, unit_inverses(pp)), pts)
    assert len(set(zip(x.tolist(), y.tolist()))) == count
    assert count == q ** (k - 1) * (q + 1)


def test_coset_key_examples():
    base = 0 * 14 + 13  # ((0:1), (1:0))
    shear = Mat2(1, 1, 0, 1, PP13)
    codes = pair_codes([identity(PP13), Mat2(4, 0, 0, 9, PP13), shear], PP13)
    assert codes.tolist() == [base, base, 12 * 14 + 13]  # shear: ((12:1), (1:0))


def test_matrix_inverse_examples():
    def inverse(m):
        return proj_normalize(m.inverse())

    assert inverse(identity(PP13)) == identity(PP13)
    assert inverse(Mat2(1, 0, 0, 8, PP13)).entries() == (1, 0, 0, 5)
    assert inverse(Mat2(1, 1, 0, 1, PP13)).entries() == (1, 12, 0, 1)
    m = Mat2(3, 5, 7, 2, PP13)
    assert proj_normalize(m * inverse(m)) == identity(PP13)
    uinv = unit_inverses(PP13)
    assert matrix_codes(*entries([m * inverse(m)]), PP13, uinv).tolist() == [1]


def test_pair_coset_validation():
    # the two points of a pair code are in general position
    assert general_position(np.array([3]), np.array([13]), PP13)[0]
    assert not general_position(np.array([3]), np.array([3]), PP13)[0]
    for pp in (PP13, PrimePower(5, 2)):
        rng = random.Random(5)
        codes = pair_codes([random_mat(rng, pp) for _ in range(200)], pp)
        assert general_position(*np.divmod(codes, p1_size(pp)), pp).all()


def test_matrix_codes_match_proj_normalize():
    for pp in (PP13, PrimePower(5, 3), PrimePower(13, 2)):
        rng = random.Random(pp.modulus)
        mats = [random_mat(rng, pp) for _ in range(300)]
        # both shapes: a leading unit, and a = 0 (mod p) with b a unit
        mats += [Mat2(pp.p, 2, 1, 0, pp), Mat2(0, 2, 1, 3, pp), identity(pp)]
        codes = matrix_codes(*entries(mats), pp, unit_inverses(pp))
        canon = [proj_normalize(m).entries() for m in mats]
        decoded = matrix_entries(codes, pp)
        assert list(zip(*(e.tolist() for e in decoded))) == canon
        assert np.array_equal(matrix_codes(*decoded, pp, unit_inverses(pp)), codes)
        same = [[c1 == c2 for c2 in canon] for c1 in canon]
        assert np.array_equal(codes[:, None] == codes[None, :], same)


def test_reduce_level_examples():
    pp2, pp1 = PrimePower(13, 2), PrimePower(13, 1)
    assert reduce_matrix(identity(pp2), pp1) == identity(pp1)
    assert reduce_matrix(Mat2(1, 0, 0, 70, pp2), pp1).entries() == (1, 0, 0, 5)
    with pytest.raises(InvalidParameterError):
        reduce_matrix(identity(pp1), pp2)
    for g in enumerate_generators(5).gens:
        assert reduce_matrix(proj_normalize(split(g, pp2)), pp1) == proj_normalize(split(g, pp1))


def test_reduce_path_independence():
    pp3, pp2, pp1 = PrimePower(5, 3), PrimePower(5, 2), PrimePower(5, 1)
    rng = random.Random(7)
    mats = [random_mat(rng, pp3) for _ in range(50)]
    for m in mats:
        assert reduce_matrix(reduce_matrix(m, pp2), pp1) == reduce_matrix(m, pp1)
    pts = all_points(pp3)
    assert np.array_equal(reduce_point_codes(reduce_point_codes(pts, pp3, pp2), pp2, pp1),
                          reduce_point_codes(pts, pp3, pp1))
    # reducing a code is reducing its coordinates and recoding
    x, y = point_coords(pts, pp3)
    assert np.array_equal(reduce_point_codes(pts, pp3, pp1),
                          point_codes(x % 5, y % 5, pp1, unit_inverses(pp1)))
    codes = matrix_codes(*entries(mats), pp3, unit_inverses(pp3))
    assert np.array_equal(
        reduce_matrix_codes(reduce_matrix_codes(codes, pp3, pp2), pp2, pp1),
        reduce_matrix_codes(codes, pp3, pp1))
    want = entries([reduce_matrix(m, pp1) for m in mats])
    for got, e in zip(matrix_entries(reduce_matrix_codes(codes, pp3, pp1), pp1), want):
        assert np.array_equal(got, e)


# --- invariant suites ------------------------------------------------------


@pytest.mark.properties
@pytest.mark.parametrize("q,k", [(13, 1), (13, 2), (5, 3), (29, 1)])
def test_mobius_action_axiom(q, k):
    pp = PrimePower(q, k)
    rng = random.Random(1000 * q + k)
    pts = all_points(pp)
    for _ in range(100):
        m1 = random_mat(rng, pp)
        m2 = random_mat(rng, pp)
        assert np.array_equal(act(m1 * m2, pts, pp), act(m1, act(m2, pts, pp), pp))


@pytest.mark.properties
@pytest.mark.parametrize("q,k", [(13, 1), (5, 2)])
def test_coset_key_constant_on_cosets(q, k):
    pp = PrimePower(q, k)
    rng = random.Random(99)
    mats = [random_mat(rng, pp) for _ in range(100)]
    moved = [random_diag(rng, pp) * m for m in mats]
    assert np.array_equal(pair_codes(moved, pp), pair_codes(mats, pp))


@pytest.mark.properties
@pytest.mark.parametrize("q,k", [(13, 1), (5, 2)])
def test_coset_key_separates_cosets(q, k):
    pp = PrimePower(q, k)
    rng = random.Random(77)

    def same_coset(m1, m2):
        # membership oracle: m1 * m2^-1 is diagonal
        w = m1 * m2.inverse()
        return w.b == 0 and w.c == 0

    # all pairs of 120 matrices: about 14400 / |cosets| of them share a coset
    mats = [random_mat(rng, pp) for _ in range(120)]
    codes = pair_codes(mats, pp)
    same = [[same_coset(m1, m2) for m2 in mats] for m1 in mats]
    assert np.array_equal(codes[:, None] == codes[None, :], same)
    assert sum(map(sum, same)) > len(mats)


@pytest.mark.properties
@given(st.sampled_from([(13, 1), (13, 2), (5, 3)]), st.data())
def test_reduce_is_multiplicative(qk, data):
    q, k = qk
    pp = PrimePower(q, k)
    pp1 = PrimePower(q, max(1, k - 1))
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    m1 = random_mat(rng, pp)
    m2 = random_mat(rng, pp)
    lhs = reduce_matrix(m1 * m2, pp1)
    rhs = proj_normalize(reduce_matrix(m1, pp1) * reduce_matrix(m2, pp1))
    assert lhs == rhs
    # the codes: reduce(m1 m2) and reduce(m) . reduce(x) on every point
    code = matrix_codes(*entries([m1 * m2]), pp, unit_inverses(pp))
    assert reduce_matrix_codes(code, pp, pp1).tolist() == matrix_codes(
        *entries([rhs]), pp1, unit_inverses(pp1)).tolist()
    pts = all_points(pp)
    assert np.array_equal(reduce_point_codes(act(m1, pts, pp), pp, pp1),
                          act(reduce_matrix(m1, pp1), reduce_point_codes(pts, pp, pp1), pp1))
