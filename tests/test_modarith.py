import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expander_forge.errors import (
    InvalidParameterError,
    LiftFailureError,
    NoSquareRootError,
)
from expander_forge.modarith import (
    PrimePower,
    hensel_lift_sqrt,
    is_prime,
    legendre,
    sqrt_minus_one,
    sqrt_mod_prime,
)
from oracles import NotInvertibleError, unit_inverse

ODD_PRIMES = [3, 5, 7, 11, 13, 17, 29, 97, 101, 997]


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for n in range(-3, 42):
        assert is_prime(n) == (n in primes)


def test_is_prime_large_carmichael():
    assert not is_prime(561)
    assert not is_prime(341550071728321)
    assert is_prime(2**61 - 1)


def test_prime_power_validation():
    pp = PrimePower(13, 2)
    assert pp.modulus == 169
    with pytest.raises(InvalidParameterError):
        PrimePower(12, 1)
    with pytest.raises(InvalidParameterError):
        PrimePower(2, 3)
    with pytest.raises(InvalidParameterError):
        PrimePower(13, 0)


def test_legendre_examples():
    # squares mod 13 are {1, 3, 4, 9, 10, 12}
    assert legendre(5, 13) == -1
    assert legendre(5, 29) == 1  # 11^2 = 121 = 5 (mod 29)
    assert legendre(0, 13) == 0
    for p in ODD_PRIMES:
        assert legendre(1, p) == 1


def test_legendre_rejects_bad_modulus():
    with pytest.raises(InvalidParameterError):
        legendre(3, 15)
    with pytest.raises(InvalidParameterError):
        legendre(3, 2)


def test_sqrt_mod_prime_examples():
    assert sqrt_mod_prime(-1, 13) == 5  # roots {5, 8}, smaller one
    assert sqrt_mod_prime(-1, 5) == 2   # roots {2, 3}
    assert sqrt_mod_prime(4, 13) == 2
    with pytest.raises(NoSquareRootError):
        sqrt_mod_prime(5, 13)
    with pytest.raises(NoSquareRootError):
        sqrt_mod_prime(0, 13)


def test_hensel_lift_examples():
    assert hensel_lift_sqrt(5, -1, PrimePower(13, 2)) == 70  # 70^2 = 4900 = -1 (mod 169)
    assert hensel_lift_sqrt(2, -1, PrimePower(5, 2)) == 7    # 49 = -1 (mod 25)
    assert hensel_lift_sqrt(5, -1, PrimePower(13, 1)) == 5   # k = 1: unchanged
    with pytest.raises(LiftFailureError):
        hensel_lift_sqrt(6, -1, PrimePower(13, 2))
    with pytest.raises(LiftFailureError):
        hensel_lift_sqrt(13, 0, PrimePower(13, 2))


def test_unit_inverse_examples():
    pp = PrimePower(13, 1)
    assert unit_inverse(1, pp) == 1
    assert unit_inverse(5, pp) == 8
    with pytest.raises(NotInvertibleError):
        unit_inverse(13, PrimePower(13, 2))


def test_sqrt_minus_one_canonical():
    assert sqrt_minus_one(PrimePower(13, 1)) == 5
    assert sqrt_minus_one(PrimePower(13, 2)) == 70
    s3 = sqrt_minus_one(PrimePower(13, 3))
    assert s3 * s3 % 13**3 == 13**3 - 1
    assert s3 % 13 == 5
    with pytest.raises(NoSquareRootError):
        sqrt_minus_one(PrimePower(7, 1))


# --- invariant suites ------------------------------------------------------


@pytest.mark.properties
def test_sqrt_correct_exhaustive_small_primes():
    # Every residue with legendre +1 has a root, squared back exactly,
    # for all odd primes up to 1000.
    for p in range(3, 1000, 2):
        if not is_prime(p):
            continue
        for a in range(1, p):
            if legendre(a, p) == 1:
                r = sqrt_mod_prime(a, p)
                assert 0 < r < p and r <= p - r
                assert r * r % p == a


@pytest.mark.properties
@given(st.sampled_from(ODD_PRIMES), st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_legendre_multiplicative(p, a, b):
    assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


@pytest.mark.properties
@given(st.sampled_from(ODD_PRIMES), st.integers(1, 4), st.integers(-10**6, 10**6))
def test_unit_inverse_property(p, k, a):
    pp = PrimePower(p, k)
    if a % p == 0:
        with pytest.raises(NotInvertibleError):
            unit_inverse(a, pp)
    else:
        assert unit_inverse(a, pp) * a % pp.modulus == 1


@pytest.mark.properties
@settings(max_examples=200)
@given(st.sampled_from(ODD_PRIMES), st.integers(1, 5), st.integers(-10**4, 10**4))
def test_hensel_lift_property(p, k, a):
    if legendre(a, p) != 1:
        return
    pp = PrimePower(p, k)
    r = sqrt_mod_prime(a, p)
    lifted = hensel_lift_sqrt(r, a, pp)
    assert lifted * lifted % pp.modulus == a % pp.modulus
    assert lifted % p == r
