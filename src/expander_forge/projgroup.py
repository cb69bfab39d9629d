"""Projective 2x2 matrices over Z/q^n and the projective line, as codes.

Matrices are taken up to unit scalars (elements of PGL2(Z/q^n)); a matrix is
*canonical* when its first unit entry in row-major order equals 1.  Mat2 is
the scalar form, used for generator matrices and twists; the vectorized
form below works on whole arrays of integer codes.

A point of P^1(Z/m), m = q^n, is a unimodular pair in one of two canonical
shapes, coded (x : 1) -> x and (1 : p*t) -> m + t; there are m + m/p codes.
A canonical matrix is coded (b*m + c)*m + d when it is (1, b, c, d), and
m^3 + ((a/p)*m + c)*m + d when it is (a, 1, c, d) with p | a; one of a, b
is a unit because the determinant is.  An ordered pair of points in general
position encodes a right coset of the diagonal subgroup, which is exactly
the stabilizer of ((0:1), (1:0)), the codes 0 and m.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .modarith import PrimePower, legendre

__all__ = [
    "Mat2",
    "identity",
    "proj_normalize",
    "is_psl",
    "reduce_matrix",
    "p1_size",
    "unit_inverses",
    "point_coords",
    "point_codes",
    "act_on_points",
    "matrix_entries",
    "matrix_codes",
    "reduce_point_codes",
    "reduce_matrix_codes",
]


@dataclass(frozen=True)
class Mat2:
    """A 2x2 matrix [[a, b], [c, d]] over Z/q^n with unit determinant.

    Entries are stored reduced to [0, q^n).  Equality is entrywise; use
    proj_normalize to compare projective classes.
    """

    a: int
    b: int
    c: int
    d: int
    pp: PrimePower

    def __post_init__(self):
        m = self.pp.modulus
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, getattr(self, name) % m)
        if self.det() % self.pp.p == 0:
            raise InvalidParameterError(
                f"matrix {self.entries()} is singular mod {self.pp.p}"
            )

    def entries(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    def det(self) -> int:
        return (self.a * self.d - self.b * self.c) % self.pp.modulus

    def __mul__(self, other: "Mat2") -> "Mat2":
        if self.pp != other.pp:
            raise InvalidParameterError("cannot multiply matrices over different moduli")
        m = self.pp.modulus
        return Mat2(
            (self.a * other.a + self.b * other.c) % m,
            (self.a * other.b + self.b * other.d) % m,
            (self.c * other.a + self.d * other.c) % m,
            (self.c * other.b + self.d * other.d) % m,
            self.pp,
        )

    def inverse(self) -> "Mat2":
        """Adjugate scaled by the determinant inverse (not renormalized)."""
        m = self.pp.modulus
        di = pow(self.det(), -1, m)
        return Mat2(self.d * di, -self.b * di, -self.c * di, self.a * di, self.pp)


def identity(pp: PrimePower) -> Mat2:
    return Mat2(1, 0, 0, 1, pp)


def proj_normalize(m: Mat2) -> Mat2:
    """Scale so the first row-major unit entry equals 1.

    Two matrices have equal canonical forms iff they differ by a unit scalar;
    a unit entry always exists because the determinant is a unit.
    """
    p, mod = m.pp.p, m.pp.modulus
    for e in m.entries():
        if e % p:
            s = pow(e, -1, mod)
            return Mat2(m.a * s, m.b * s, m.c * s, m.d * s, m.pp)
    raise InvalidParameterError("no unit entry found")  # unreachable for valid Mat2


def is_psl(m: Mat2) -> bool:
    """Whether the projective class of m lies in PSL2(Z/q^n).

    Scalars change det by squares, so the class is in PSL iff det is a square
    unit; for odd q a unit is a square mod q^n iff it is a square mod q.
    """
    return legendre(m.det(), m.pp.p) == 1


def reduce_matrix(m: Mat2, pp_to: PrimePower) -> Mat2:
    """Entrywise reduction mod q^k followed by canonical scaling.

    Compatible with multiplication: reduce(m1 m2) == reduce(m1) reduce(m2)
    projectively.
    """
    if pp_to.p != m.pp.p or pp_to.k > m.pp.k:
        raise InvalidParameterError(f"cannot reduce mod {m.pp.p}**{m.pp.k} to {pp_to.p}**{pp_to.k}")
    mod = pp_to.modulus
    return proj_normalize(Mat2(m.a % mod, m.b % mod, m.c % mod, m.d % mod, pp_to))


def p1_size(pp: PrimePower) -> int:
    """Number of points of P^1(Z/q^n): q^(n-1) * (q + 1)."""
    return pp.modulus + pp.modulus // pp.p


def unit_inverses(pp: PrimePower) -> np.ndarray:
    """uinv[x] = x^-1 mod q^n for units x, 0 for non-units: the inverses mod
    q, lifted by Newton's step y <- y (2 - x y), which doubles the q-adic
    precision each time.  The products are int64, so q^2n must fit there."""
    m, p = pp.modulus, pp.p
    if m * m >= 2**63:
        raise InvalidParameterError(f"unit inverses mod {p}**{pp.k} overflow int64")
    x = np.arange(m, dtype=np.int64)
    y = np.array([0] + [pow(r, -1, p) for r in range(1, p)], dtype=np.int64)[x % p]
    for _ in range(pp.k.bit_length()):
        y = y * (2 - x * y % m) % m
    return y


def point_coords(codes, pp: PrimePower):
    """The canonical pair (x, y) of each point code."""
    m = pp.modulus
    affine = codes < m
    return np.where(affine, codes, 1), np.where(affine, 1, (codes - m) * pp.p)


def point_codes(x, y, pp: PrimePower, uinv):
    """Codes of the unimodular pairs (x : y), entries reduced mod q^n."""
    m, p = pp.modulus, pp.p
    return np.where(y % p != 0, x * uinv[y] % m, m + (y * uinv[x] % m) // p)


def act_on_points(mat, codes, pp: PrimePower, uinv):
    """Moebius action of the 4-tuple mat on point codes."""
    a, b, c, d = mat
    m = pp.modulus
    x, y = point_coords(codes, pp)
    return point_codes((a * x + b * y) % m, (c * x + d * y) % m, pp, uinv)


def matrix_entries(codes, pp: PrimePower):
    """The canonical entries (a, b, c, d) of each matrix code."""
    m, p = pp.modulus, pp.p
    high = codes >= m**3
    r = np.where(high, codes - m**3, codes)
    r, d = np.divmod(r, m)
    r, c = np.divmod(r, m)
    return np.where(high, r * p, 1), np.where(high, 1, r), c, d


def matrix_codes(a, b, c, d, pp: PrimePower, uinv):
    """Codes of the canonical forms of invertible matrices, entries reduced."""
    m, p = pp.modulus, pp.p
    lead = a % p != 0
    s = uinv[np.where(lead, a, b)]
    a, b, c, d = a * s % m, b * s % m, c * s % m, d * s % m
    cd = c * m + d
    return np.where(lead, b * m * m + cd, m**3 + (a // p) * m * m + cd)


def reduce_point_codes(codes, pp_from: PrimePower, pp_to: PrimePower):
    """Codes of the points reduced entrywise from q^k to q^(k-j); both
    canonical shapes stay canonical."""
    m_from, m_to = pp_from.modulus, pp_to.modulus
    return np.where(codes < m_from, codes % m_to, m_to + (codes - m_from) % (m_to // pp_to.p))


def reduce_matrix_codes(codes, pp_from: PrimePower, pp_to: PrimePower):
    """Codes of the canonical matrices reduced entrywise from q^k to q^(k-j)."""
    mod = pp_to.modulus
    entries = (e % mod for e in matrix_entries(codes, pp_from))
    return matrix_codes(*entries, pp_to, unit_inverses(pp_to))
