import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expander_forge.errors import InvalidParameterError
from expander_forge.modarith import PrimePower, is_prime, legendre, sqrt_minus_one
from oracles import NotInvertibleError, unit_inverse

ODD_PRIMES = [3, 5, 7, 11, 13, 17, 29, 97, 101, 997]
# p = 1 (mod 4), up to the largest such prime below 2**64
SPLIT_PRIMES = [5, 13, 17, 29, 97, 101, 1009, 65537, 1099511627873, 18446744073709551557]


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
    assert sqrt_minus_one(PrimePower(13, 1)) == 5  # roots {5, 8}, smaller one
    assert sqrt_minus_one(PrimePower(5, 1)) == 2   # roots {2, 3}
    for p in (3, 7, 11, 19):
        with pytest.raises(InvalidParameterError):
            sqrt_minus_one(PrimePower(p, 1))


def test_hensel_lift_examples():
    assert sqrt_minus_one(PrimePower(13, 2)) == 70  # 70^2 = 4900 = -1 (mod 169)
    assert sqrt_minus_one(PrimePower(5, 2)) == 7    # 49 = -1 (mod 25)
    with pytest.raises(InvalidParameterError):
        sqrt_minus_one(PrimePower(7, 3))


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
    with pytest.raises(InvalidParameterError):
        sqrt_minus_one(PrimePower(7, 1))


# --- invariant suites ------------------------------------------------------


@pytest.mark.properties
def test_sqrt_correct_exhaustive_small_primes():
    # For every p = 1 (mod 4) below 1000 and k <= 4, sqrt(-1) mod p^k squares
    # to -1 and reduces mod p to the smaller root, found by brute force.
    for p in range(5, 1000, 4):
        if not is_prime(p):
            continue
        r = next(x for x in range(1, p) if x * x % p == p - 1)
        for k in range(1, 5):
            m = p**k
            s = sqrt_minus_one(PrimePower(p, k))
            assert 0 < s < m and s * s % m == m - 1
            assert s % p == r


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
@given(st.sampled_from(SPLIT_PRIMES), st.integers(1, 6), st.integers(1, 6))
def test_hensel_lift_property(p, k, j):
    # the root mod p^k squares to -1 and reduces to the root mod p^j, j <= k:
    # the roots of a tower's levels agree under its covering maps
    j = min(j, k)
    lifted = sqrt_minus_one(PrimePower(p, k))
    assert lifted * lifted % p**k == p**k - 1
    assert lifted % p**j == sqrt_minus_one(PrimePower(p, j))
    assert lifted % p <= p // 2
