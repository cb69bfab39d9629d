import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from expander_forge.errors import InvalidParameterError
from expander_forge.modarith import PrimePower
from expander_forge.projgroup import proj_normalize
from expander_forge.quat import (
    ONE,
    Quaternion,
    enumerate_generators,
    evaluate_word,
    split,
)

coeff = st.integers(-50, 50)
quaternions = st.builds(Quaternion, coeff, coeff, coeff, coeff)


def test_hamilton_relations():
    i = Quaternion(0, 1, 0, 0)
    j = Quaternion(0, 0, 1, 0)
    k = Quaternion(0, 0, 0, 1)
    assert i * j == k
    assert j * i == Quaternion(0, 0, 0, -1)
    assert i * i == Quaternion(-1, 0, 0, 0)
    assert j * j == Quaternion(-1, 0, 0, 0)
    assert (ONE * Quaternion(3, 1, 4, 1)) == Quaternion(3, 1, 4, 1)


def test_conjugate_and_norm():
    g = Quaternion(1, 2, 0, 0)
    assert g.conjugate() == Quaternion(1, -2, 0, 0)
    assert g * g.conjugate() == Quaternion(5, 0, 0, 0)
    assert Quaternion(7, 0, 0, 0).conjugate() == Quaternion(7, 0, 0, 0)
    assert Quaternion(1, 2, 2, 4).conjugate().norm() == 25


def test_generators_q5():
    gs = enumerate_generators(5)
    assert [g.coefficients() for g in gs.gens] == [
        (1, -2, 0, 0), (1, 0, -2, 0), (1, 0, 0, -2),
        (1, 0, 0, 2), (1, 0, 2, 0), (1, 2, 0, 0),
    ]
    assert gs.inverse_pairing == (5, 4, 3, 2, 1, 0)


def test_generators_q13():
    gs = enumerate_generators(13)
    assert len(gs.gens) == 14
    coeffs = {g.coefficients() for g in gs.gens}
    expected = {(3, s * 2, 0, 0) for s in (1, -1)}
    expected |= {(3, 0, s * 2, 0) for s in (1, -1)}
    expected |= {(3, 0, 0, s * 2) for s in (1, -1)}
    expected |= {(1, a, b, c) for a in (2, -2) for b in (2, -2) for c in (2, -2)}
    assert coeffs == expected


@pytest.mark.parametrize("q1", [5, 13, 17, 29, 37, 41])
def test_generator_counts_and_closure(q1):
    gs = enumerate_generators(q1)
    assert len(gs.gens) == q1 + 1
    for i, g in enumerate(gs.gens):
        assert g.norm() == q1
        assert g.x0 > 0 and g.x0 % 2 == 1
        assert g.x1 % 2 == g.x2 % 2 == g.x3 % 2 == 0
        j = gs.inverse_pairing[i]
        assert j != i
        assert gs.gens[j] == g.conjugate()
        assert gs.inverse_pairing[j] == i


def test_generators_reject_bad_q1():
    with pytest.raises(InvalidParameterError):
        enumerate_generators(7)  # 3 mod 4
    with pytest.raises(InvalidParameterError):
        enumerate_generators(9)  # composite


def test_split_examples():
    pp = PrimePower(13, 1)
    assert split(ONE, pp).entries() == (1, 0, 0, 1)
    m = split(Quaternion(1, 2, 0, 0), pp)
    assert m.entries() == (11, 0, 0, 4)
    assert m.det() == 5
    m2 = split(Quaternion(1, 0, 2, 0), pp)
    assert m2.entries() == (1, 2, 13 - 2, 1)
    assert m2.det() == 5


@pytest.mark.parametrize("q2,n", [(13, 1), (13, 2), (29, 1), (5, 3)])
def test_split_det_is_norm(q2, n):
    q1 = 13 if q2 == 5 else 5
    pp = PrimePower(q2, n)
    for g in enumerate_generators(q1).gens:
        assert split(g, pp).det() == g.norm() % pp.modulus


def test_split_conjugate_gives_scalar():
    pp = PrimePower(13, 2)
    gs = enumerate_generators(5)
    for i, g in enumerate(gs.gens):
        prod = split(g, pp) * split(gs.gens[gs.inverse_pairing[i]], pp)
        assert prod.entries() == (5, 0, 0, 5)


def test_evaluate_word():
    gs = enumerate_generators(5)
    assert evaluate_word((), gs) == ONE
    # (1+2i)(1+2j) = 1 + 2i + 2j + 4k
    out = evaluate_word((5, 4), gs)
    assert out == Quaternion(1, 2, 2, 4)
    assert out.norm() == 25
    with pytest.raises(InvalidParameterError):
        evaluate_word((5, 0), gs)  # g then its conjugate
    with pytest.raises(InvalidParameterError):
        evaluate_word((0, 99), gs)
    # no length cap: a word of length 20 has norm 5**20
    assert evaluate_word((5, 4) * 10, gs).norm() == 5**20


# --- invariant suites ------------------------------------------------------


@pytest.mark.properties
@given(quaternions, quaternions)
def test_norm_multiplicative(a, b):
    assert (a * b).norm() == a.norm() * b.norm()


@pytest.mark.properties
@given(quaternions, quaternions)
def test_conjugate_antihomomorphism(a, b):
    assert (a * b).conjugate() == b.conjugate() * a.conjugate()


@pytest.mark.properties
@pytest.mark.parametrize("q2,n", [(13, 1), (13, 2), (29, 1)])
def test_split_multiplicative_on_words(q2, n):
    rng = random.Random(20240817)
    pp = PrimePower(q2, n)
    gs = enumerate_generators(5)
    for _ in range(100):
        length = rng.randint(1, 4)
        word = []
        while len(word) < length:
            i = rng.randrange(6)
            if word and gs.inverse_pairing[word[-1]] == i:
                continue
            word.append(i)
        prod = ONE
        mat = split(ONE, pp)
        for i in word:
            prod = prod * gs.gens[i]
            mat = mat * split(gs.gens[i], pp)
        assert split(prod, pp) == mat
        assert proj_normalize(mat) == proj_normalize(split(prod, pp))
