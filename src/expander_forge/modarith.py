"""Exact modular arithmetic over odd prime powers.

Quadratic residues, modular square roots and Hensel lifting: everything
needed to realize sqrt(-1) in Z/p^k.  All functions are pure and
thread-safe.
"""

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import InvalidParameterError, LiftFailureError, NoSquareRootError

# Witness set making Miller-Rabin deterministic for all n < 2^64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIMALITY_LIMIT = 1 << 64


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, valid for n < 2**64."""
    if n >= _PRIMALITY_LIMIT:
        raise InvalidParameterError(
            f"deterministic primality test only supports n < 2**64, got {n}"
        )
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimePower:
    """An odd prime power p**k used as a residue-ring modulus."""

    p: int
    k: int
    modulus: int = field(init=False)

    def __post_init__(self):
        if self.p == 2 or not is_prime(self.p):
            raise InvalidParameterError(f"p must be an odd prime, got {self.p}")
        if self.k < 1:
            raise InvalidParameterError(f"exponent must be >= 1, got {self.k}")
        object.__setattr__(self, "modulus", self.p**self.k)


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) in {-1, 0, +1}, by Euler's criterion.

    Raises InvalidParameterError unless p is an odd prime.
    """
    if p == 2 or not is_prime(p):
        raise InvalidParameterError(f"p must be an odd prime, got {p}")
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def sqrt_mod_prime(a: int, p: int) -> int:
    """The smaller square root r of a mod p, 0 < r < p.

    Uses the exponentiation shortcut for p = 3 (mod 4) and Tonelli-Shanks
    otherwise.  Raises NoSquareRootError when a is not a nonzero residue.
    """
    if legendre(a, p) != 1:
        raise NoSquareRootError(f"{a} has no square root mod {p}")
    a %= p
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # Tonelli-Shanks: write p - 1 = q * 2^s with q odd.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m = s
    c = pow(z, q, p)
    t = pow(a, q, p)
    r = pow(a, (q + 1) // 2, p)
    while t != 1:
        i = 0
        t2 = t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return min(r, p - r)


def hensel_lift_sqrt(r: int, a: int, pp: PrimePower) -> int:
    """Lift a square root r of a mod p to a root mod p**k with r' = r (mod p).

    Newton iteration x -> (x + a/x)/2, doubling the working precision each
    step.  Raises LiftFailureError if r is not a unit root of a mod p.
    """
    p = pp.p
    if r % p == 0 or (r * r - a) % p != 0:
        raise LiftFailureError(f"{r} is not a unit square root of {a} mod {p}")
    x = r % p
    m = p
    while m < pp.modulus:
        m = min(m * m, pp.modulus)
        x = (x + a % m * pow(x, -1, m)) * pow(2, -1, m) % m
    return x


@lru_cache(maxsize=None)
def sqrt_minus_one(pp: PrimePower) -> int:
    """The canonical sqrt(-1) mod p**k: the Hensel lift of the smaller root mod p.

    Fixing one root makes every construction downstream reproducible; the two
    choices give relabeled but isomorphic graphs.  Requires p = 1 (mod 4).
    """
    if pp.p % 4 != 1:
        raise NoSquareRootError(f"-1 is not a square mod {pp.p}")
    r = sqrt_mod_prime(-1, pp.p)
    return hensel_lift_sqrt(r, -1, pp) if pp.k > 1 else r
