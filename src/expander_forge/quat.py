"""Integer Hamilton quaternions, norm-q1 generator sets, and reduced words.

The algebra has i^2 = j^2 = -1 and ij = -ji = k.  Generator sets collect the
q1 + 1 integer quaternions of norm q1 with odd positive real part and even
imaginary parts; the set is closed under conjugation, which realizes formal
inverses.  A word is the tuple of its letters, generator indices, and is
reduced when no letter is followed by its conjugate's.  `split` maps a
quaternion to a 2x2 matrix over Z/q^n via the canonical sqrt(-1), with
det(split(q)) = norm(q).
"""

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .errors import InvalidParameterError
from .modarith import PrimePower, is_prime, sqrt_minus_one
from .projgroup import Mat2


@dataclass(frozen=True)
class Quaternion:
    """x0 + x1*i + x2*j + x3*k with integer coefficients."""

    x0: int
    x1: int
    x2: int
    x3: int

    def __mul__(self, o: "Quaternion") -> "Quaternion":
        a0, a1, a2, a3 = self.x0, self.x1, self.x2, self.x3
        b0, b1, b2, b3 = o.x0, o.x1, o.x2, o.x3
        return Quaternion(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.x0, -self.x1, -self.x2, -self.x3)

    def norm(self) -> int:
        return self.x0**2 + self.x1**2 + self.x2**2 + self.x3**2

    def coefficients(self) -> tuple:
        return (self.x0, self.x1, self.x2, self.x3)


ONE = Quaternion(1, 0, 0, 0)


@dataclass(frozen=True)
class GeneratorSet:
    """The q1 + 1 norm-q1 generators, conjugation-closed, in lexicographic order.

    inverse_pairing[i] is the index of the conjugate of gens[i]; it is an
    involution without fixed points (the real part is nonzero, so no generator
    is its own conjugate).
    """

    q1: int
    gens: tuple
    inverse_pairing: tuple


@lru_cache(maxsize=None)
def enumerate_generators(q1: int) -> GeneratorSet:
    """All solutions of x0^2+x1^2+x2^2+x3^2 = q1, x0 odd positive, x1,x2,x3 even.

    Exhaustive search over |xi| <= sqrt(q1); yields exactly q1 + 1 solutions
    for every prime q1 = 1 (mod 4).
    """
    if not is_prime(q1) or q1 % 4 != 1:
        raise InvalidParameterError(f"q1 must be a prime congruent to 1 mod 4, got {q1}")
    r = isqrt(q1)
    evens = [e for e in range(-r, r + 1) if e % 2 == 0]
    sols = []
    for x0 in range(1, r + 1, 2):
        c0 = q1 - x0 * x0
        for x1 in evens:
            c1 = c0 - x1 * x1
            if c1 < 0:
                continue
            for x2 in evens:
                c2 = c1 - x2 * x2
                if c2 < 0:
                    continue
                for x3 in evens:
                    if x3 * x3 == c2:
                        sols.append(Quaternion(x0, x1, x2, x3))
    sols.sort(key=Quaternion.coefficients)
    if len(sols) != q1 + 1:
        raise InvalidParameterError(
            f"expected {q1 + 1} generators for q1={q1}, found {len(sols)}"
        )
    index = {g.coefficients(): i for i, g in enumerate(sols)}
    pairing = tuple(index[g.conjugate().coefficients()] for g in sols)
    return GeneratorSet(q1, tuple(sols), pairing)


def split(q: Quaternion, pp: PrimePower) -> Mat2:
    """The splitting map into 2x2 matrices mod q^n, for q = 1 (mod 4).

    a+bi+cj+dk -> [[a + b*s, c + d*s], [-c + d*s, a - b*s]] where s is the
    canonical sqrt(-1) mod q^n.  Multiplicative, and det = norm(q) mod q^n.
    """
    s = sqrt_minus_one(pp)
    m = pp.modulus
    return Mat2(
        (q.x0 + q.x1 * s) % m,
        (q.x2 + q.x3 * s) % m,
        (-q.x2 + q.x3 * s) % m,
        (q.x0 - q.x1 * s) % m,
        pp,
    )


def is_reduced(letters, pairing) -> bool:
    return all(pairing[a] != b for a, b in zip(letters, letters[1:]))


def evaluate_word(letters: tuple, gens: GeneratorSet) -> Quaternion:
    """Product of the generators named by the letters; norm is
    q1**len(letters).  Raises InvalidParameterError for a letter out of
    range or a word that is not reduced."""
    if not all(0 <= a < len(gens.gens) for a in letters):
        raise InvalidParameterError(f"letters out of range for {len(gens.gens)} generators")
    if not is_reduced(letters, gens.inverse_pairing):
        raise InvalidParameterError(f"word {letters} is not reduced")
    out = ONE
    for a in letters:
        out = out * gens.gens[a]
    return out
