"""Exact modular arithmetic over odd prime powers.

Primality, the Legendre symbol and the one square root the construction
needs: sqrt(-1) in Z/p^k.  All functions are pure and thread-safe.
"""

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import InvalidParameterError, VerificationError

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


@lru_cache(maxsize=None)
def sqrt_minus_one(pp: PrimePower) -> int:
    """The canonical sqrt(-1) mod p**k: the lift of the smaller root mod p.

    The root mod p is z**((p-1)/4) for the least non-residue z; Newton's
    step x -> x - (x**2 + 1) / (2x) lifts it, doubling the precision each
    time.  Fixing one root makes every construction downstream
    reproducible; the two choices give relabeled but isomorphic graphs.
    Requires p = 1 (mod 4).
    """
    p, m = pp.p, pp.modulus
    if p % 4 != 1:
        raise InvalidParameterError(f"-1 is not a square mod {p}")
    z = next(z for z in range(2, p) if legendre(z, p) == -1)
    r = pow(z, (p - 1) // 4, p)
    x = r = min(r, p - r)
    for _ in range(pp.k.bit_length()):
        x = (x - (x * x + 1) * pow(2 * x, -1, m)) % m
    if (x * x + 1) % m or x % p != r:
        raise VerificationError(f"{x} is not the lift of sqrt(-1) = {r} mod {p} to mod {m}")
    return x
