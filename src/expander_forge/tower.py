"""Tower construction: levels, covering maps, twists, and the intersection probe.

Level n of a tower is the Schreier graph of the group L(n) = PSL2 or
PGL2(Z/q2^n) over a point stabilizer, with edges given by right
multiplication by the q1+1 split quaternion generators S(n):

* cartan  - vertices are right cosets of the diagonal subgroup, encoded by
  the ordered point pair (m^-1 (0:1), m^-1 (1:0)); a generator s moves a key
  by the Moebius action of s^-1 on both points.
* borel   - vertices are points of P^1(Z/q2^n), base point (1:0), whose
  stabilizer is the upper-triangular subgroup.
* cayley  - vertices are the group elements themselves.

Covering maps drop one level by entrywise reduction of the vertex keys.  A
twist sequence g(1), g(2), ... (compatible under reduction) rebases the
cartan tower at the conjugated stabilizers g(n) A(n) g(n)^-1: the graphs are
unchanged up to relabeling, but membership of a generator word in every
level's base stabilizer - the intersection probe - now asks whether
g(n)^-1 M g(n) is projectively diagonal instead of M itself.  The probe is
the finite-horizon certificate separating the bounded-girth tower (a common
loop survives every level) from the twisted tower (no word survives).
"""

import math
import random
from dataclasses import dataclass
from math import isqrt
from typing import Optional

from .errors import (
    InvalidParameterError,
    VerificationError,
    WordLengthError,
)
from .modarith import PrimePower, is_prime, legendre, sqrt_minus_one
from .multigraph import GraphMorphism, SerreGraph, girth, is_covering
from .projgroup import (
    Mat2,
    PairCoset,
    ProjPoint,
    identity,
    is_psl,
    mobius,
    proj_normalize,
    reduce_matrix,
    reduce_pair,
    reduce_point,
)
from .quat import FreeWord, GeneratorSet, ONE, Quaternion, enumerate_generators, split
from .spectra import SpectralReport, ramanujan_check

VARIANTS = ("cartan", "borel", "cayley")
DEFAULT_PROBE_CAP = 8


@dataclass(frozen=True)
class TowerConfig:
    """Two distinct primes q1, q2 = 1 (mod 4), a depth, and a variant."""

    q1: int
    q2: int
    levels: int = 1
    variant: str = "cartan"
    twist_seed: Optional[int] = None

    def __post_init__(self):
        for name in ("q1", "q2"):
            q = getattr(self, name)
            if not is_prime(q) or q % 4 != 1:
                raise InvalidParameterError(f"{name} must be a prime congruent to 1 mod 4, got {q}")
        if self.q1 == self.q2:
            raise InvalidParameterError("q1 and q2 must be distinct")
        if self.levels < 1:
            raise InvalidParameterError(f"levels must be >= 1, got {self.levels}")
        if self.variant not in VARIANTS:
            raise InvalidParameterError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.twist_seed is not None and self.variant != "cartan":
            raise InvalidParameterError("twisting is only defined for the cartan variant")

    @property
    def mode(self) -> str:
        """PSL when q1 is a quadratic residue mod q2, else PGL."""
        return "PSL" if legendre(self.q1, self.q2) == 1 else "PGL"


def expected_vertices(cfg: TowerConfig, n: int) -> int:
    q = cfg.q2
    if cfg.variant == "cartan":
        return q ** (2 * n - 1) * (q + 1)
    if cfg.variant == "borel":
        return q ** (n - 1) * (q + 1)
    size = q ** (3 * n - 2) * (q * q - 1)
    return size // 2 if cfg.mode == "PSL" else size


def lps_girth_floor(q1: int, n_vertices: int) -> int:
    """ceil((4/3) * log(V) / log(q1)): the classical girth floor for the
    bipartite Cayley levels, reading the bound's logarithm in base q1."""
    return math.ceil(4.0 * math.log(n_vertices) / (3.0 * math.log(q1)) - 1e-12)


# ---------------------------------------------------------------------------
# encoded states: a point of P^1(Z/q^n) is an int code (x:1) <-> x,
# (1 : p*t) <-> modulus + t; matrices are raw 4-tuples mod q^n.


def _point_code(pt: ProjPoint, p: int, mod: int) -> int:
    if pt.y == 1:
        return pt.x
    return mod + pt.y // p


def _point_decode(code: int, p: int, mod: int) -> ProjPoint:
    if code < mod:
        return ProjPoint(code, 1)
    return ProjPoint(1, (code - mod) * p)


def _mobius_code(mt, code, p, mod):
    a, b, c, d = mt
    if code < mod:
        x, y = code, 1
    else:
        x, y = 1, (code - mod) * p
    nx = (a * x + b * y) % mod
    ny = (c * x + d * y) % mod
    if ny % p:
        return nx * pow(ny, -1, mod) % mod
    return mod + (ny * pow(nx, -1, mod) % mod) // p


def _mul4(x, y, mod):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % mod, (a * f + b * h) % mod,
            (c * e + d * g) % mod, (c * f + d * h) % mod)


def _canon4(t, p, mod):
    for e in t:
        if e % p:
            s = pow(e, -1, mod)
            return tuple(v * s % mod for v in t)
    raise VerificationError(f"matrix {t} has no unit entry mod {p}")


@dataclass(frozen=True)
class TowerLevel:
    """One level: the graph, its generator matrices S(n), and the modulus."""

    config: TowerConfig
    n: int
    pp: PrimePower
    graph: SerreGraph
    generators: GeneratorSet
    generator_matrices: tuple
    twisted: bool = False

    @property
    def degree(self) -> int:
        return self.config.q1 + 1

    def edge_id(self, v: int, gen_index: int) -> int:
        """Edges are laid out one block of q1+1 per vertex, in generator order."""
        return v * self.degree + gen_index


def build_level(cfg: TowerConfig, n: int, twist: Optional["TwistSequence"] = None) -> TowerLevel:
    """Build level n by BFS closure from the base vertex.

    Vertex ids follow BFS discovery order with generators scanned in
    lexicographic order, so identical configs give byte-identical exports.
    The directed edge (v, i) has id v*(q1+1)+i and pairs with the edge at its
    target labeled by the conjugate generator.
    """
    if n > cfg.levels:
        raise InvalidParameterError(f"level {n} exceeds configured depth {cfg.levels}")
    if twist is not None and cfg.variant != "cartan":
        raise InvalidParameterError("twisting is only defined for the cartan variant")
    pp = PrimePower(cfg.q2, n)
    p, mod = pp.p, pp.modulus
    gens = enumerate_generators(cfg.q1)
    pairing = gens.inverse_pairing
    d = cfg.q1 + 1
    smats = tuple(proj_normalize(split(g, pp)) for g in gens.gens)
    in_psl = [is_psl(m) for m in smats]
    if (cfg.mode == "PSL") != all(in_psl) or (cfg.mode == "PGL") != (not any(in_psl)):
        raise VerificationError("generator matrices disagree with the PSL/PGL mode")

    if cfg.variant == "cayley":
        acts = [m.entries() for m in smats]

        def step(i, st):
            return _canon4(_mul4(st, acts[i], mod), p, mod)

        base = (1, 0, 0, 1)
    else:
        # Right cosets move by the Moebius action of s^-1, which is the
        # split image of the conjugate generator.
        acts = [smats[pairing[i]].entries() for i in range(d)]
        if cfg.variant == "cartan":
            g = twist.matrices[n - 1] if twist is not None else identity(pp)
            base = (
                _point_code(mobius(g, ProjPoint(0, 1)), p, mod),
                _point_code(mobius(g, ProjPoint(1, 0)), p, mod),
            )

            def step(i, st):
                a = acts[i]
                return (_mobius_code(a, st[0], p, mod), _mobius_code(a, st[1], p, mod))

        else:
            base = _point_code(ProjPoint(1, 0), p, mod)

            def step(i, st):
                return _mobius_code(acts[i], st, p, mod)

    index = {base: 0}
    order = [base]
    ttable = []
    head = 0
    while head < len(order):
        st = order[head]
        head += 1
        row = []
        for i in range(d):
            ns = step(i, st)
            j = index.get(ns)
            if j is None:
                j = len(order)
                index[ns] = j
                order.append(ns)
            row.append(j)
        ttable.append(row)

    nv = len(order)
    want = expected_vertices(cfg, n)
    if nv != want:
        raise VerificationError(
            f"{cfg.variant} level {n} has {nv} vertices, expected {want}"
        )
    origin = [0] * (nv * d)
    terminus = [0] * (nv * d)
    label = [0] * (nv * d)
    inv = [0] * (nv * d)
    for v in range(nv):
        row = ttable[v]
        for i in range(d):
            e = v * d + i
            t = row[i]
            origin[e] = v
            terminus[e] = t
            label[e] = i
            inv[e] = t * d + pairing[i]

    if cfg.variant == "cayley":
        keys = [Mat2(*st, pp) for st in order]
    elif cfg.variant == "cartan":
        keys = [PairCoset(_point_decode(st[0], p, mod), _point_decode(st[1], p, mod))
                for st in order]
    else:
        keys = [_point_decode(st, p, mod) for st in order]

    meta = {"q1": cfg.q1, "q2": cfg.q2, "n": n, "variant": cfg.variant,
            "mode": cfg.mode, "V": nv}
    graph = SerreGraph(nv, origin, terminus, inv, label, vertex_keys=keys, meta=meta)
    return TowerLevel(cfg, n, pp, graph, gens, smats, twisted=twist is not None)


# ---------------------------------------------------------------------------
# torus elements and the loop witness


@dataclass(frozen=True)
class TorusPair:
    """Commuting elements a1+b1*i (norm q1) and a2+b2*i (norm q2).

    Both lie in the subalgebra spanned by 1 and i, so their split images are
    diagonal at every level; gamma is itself one of the q1+1 generators.
    """

    gamma: Quaternion
    delta: Quaternion


def two_squares(q: int):
    """The unique (a, b) with a odd positive, b even positive, a^2 + b^2 = q."""
    for a in range(1, isqrt(q) + 1, 2):
        b2 = q - a * a
        b = isqrt(b2)
        if b * b == b2 and b % 2 == 0:
            return a, b
    raise InvalidParameterError(f"{q} is not a sum of an odd and an even square")


def find_torus_pair(q1: int, q2: int) -> TorusPair:
    a1, b1 = two_squares(q1)
    a2, b2 = two_squares(q2)
    return TorusPair(Quaternion(a1, b1, 0, 0), Quaternion(a2, b2, 0, 0))


@dataclass(frozen=True)
class LoopWitness:
    vertex: int
    generator: int


def _base_key(level: TowerLevel):
    if level.config.variant == "cartan":
        return PairCoset(ProjPoint(0, 1), ProjPoint(1, 0))
    return ProjPoint(1, 0)


def loop_witness(level: TowerLevel, torus: Optional[TorusPair] = None) -> LoopWitness:
    """The loop guaranteed at the standard base coset: gamma = a1 + b1*i is a
    generator whose split image is diagonal, hence fixes ((0:1), (1:0)) and
    the point (1:0).  Returns the base vertex and gamma's generator index."""
    if level.config.variant not in ("cartan", "borel"):
        raise InvalidParameterError("loop witness applies to the cartan and borel variants")
    if torus is None:
        torus = find_torus_pair(level.config.q1, level.config.q2)
    coeffs = torus.gamma.coefficients()
    try:
        idx = next(i for i, g in enumerate(level.generators.gens) if g.coefficients() == coeffs)
    except StopIteration:
        raise VerificationError(f"torus element {coeffs} is not a generator")
    key = _base_key(level)
    try:
        v = level.graph.vertex_keys.index(key)
    except ValueError:
        raise VerificationError(f"base key {key} not present in level {level.n}")
    e = level.edge_id(v, idx)
    if level.graph.terminus[e] != v:
        raise VerificationError(
            f"edge for generator {idx} at the base vertex is not a loop"
        )
    return LoopWitness(v, idx)


# ---------------------------------------------------------------------------
# covering maps


@dataclass(frozen=True)
class CoveringMap:
    """A verified label-preserving covering from level n+1 onto level n."""

    source_n: int
    target_n: int
    morphism: GraphMorphism
    verified: bool


def natural_covering(upper: TowerLevel, lower: TowerLevel) -> CoveringMap:
    """Vertex map = entrywise reduction of the vertex key one level down;
    the edge map matches generator labels.  Verifies the link-bijection
    property and raises VerificationError on any failure (a bug sentinel,
    never expected for constructed levels)."""
    if upper.config != lower.config:
        raise InvalidParameterError("levels come from different tower configs")
    if upper.n != lower.n + 1:
        raise InvalidParameterError(
            f"natural covering goes one level down, got {upper.n} -> {lower.n}"
        )
    variant = upper.config.variant
    pp_to = lower.pp
    lower_index = {key: v for v, key in enumerate(lower.graph.vertex_keys)}
    if variant == "cartan":
        reduce_key = lambda k: reduce_pair(k, pp_to)
    elif variant == "borel":
        reduce_key = lambda k: reduce_point(k, pp_to)
    else:
        reduce_key = lambda k: reduce_matrix(k, pp_to)
    try:
        vmap = tuple(lower_index[reduce_key(k)] for k in upper.graph.vertex_keys)
    except KeyError as exc:
        raise VerificationError(f"reduced key {exc} missing from level {lower.n}")
    d = upper.degree
    emap = tuple(vmap[e // d] * d + e % d for e in range(upper.graph.num_edges))
    morphism = GraphMorphism(upper.graph, lower.graph, vmap, emap)
    check = is_covering(morphism)
    if not check.ok:
        raise VerificationError(
            f"covering {upper.n} -> {lower.n} failed at vertex {check.witness}: {check.reason}"
        )
    return CoveringMap(upper.n, lower.n, morphism, True)


# ---------------------------------------------------------------------------
# twist sequences


@dataclass(frozen=True)
class TwistSequence:
    """Seeded conjugators g(1), ..., g(N), compatible under level reduction."""

    seed: int
    matrices: tuple


def twist_sequence(cfg: TowerConfig, seed: int, levels: Optional[int] = None) -> TwistSequence:
    """g(1) uniform over L(1); g(n+1) a uniform lift of g(n) among the q2^3
    projective preimages.  Deterministic for a given seed."""
    n_levels = cfg.levels if levels is None else levels
    rng = random.Random(seed)
    q = cfg.q2
    want_psl = cfg.mode == "PSL"
    while True:
        t = tuple(rng.randrange(q) for _ in range(4))
        det = (t[0] * t[3] - t[1] * t[2]) % q
        if det == 0:
            continue
        if want_psl and legendre(det, q) != 1:
            continue
        break
    mats = [proj_normalize(Mat2(*t, PrimePower(q, 1)))]
    for n in range(2, n_levels + 1):
        pp = PrimePower(q, n)
        prev = mats[-1]
        scale = q ** (n - 1)
        e = [rng.randrange(q) for _ in range(4)]
        lifted = Mat2(prev.a + scale * e[0], prev.b + scale * e[1],
                      prev.c + scale * e[2], prev.d + scale * e[3], pp)
        mats.append(proj_normalize(lifted))
    for n in range(2, n_levels + 1):
        if reduce_matrix(mats[n - 1], PrimePower(q, n - 1)) != mats[n - 2]:
            raise VerificationError("twist sequence is not reduction-compatible")
    return TwistSequence(seed, tuple(mats))


# ---------------------------------------------------------------------------
# the intersection probe


@dataclass(frozen=True)
class ProbeHit:
    word: FreeWord
    quaternion: Quaternion


@dataclass(frozen=True)
class ProbeResult:
    q1: int
    q2: int
    max_word_len: int
    up_to_level: int
    twisted: bool
    words_tested: int
    survivors: tuple

    def survivor_letters(self):
        return tuple(h.word.letters for h in self.survivors)

    def has_length_one_survivor(self) -> bool:
        return any(len(h.word.letters) == 1 for h in self.survivors)


def intersection_probe(cfg: TowerConfig, max_word_len: int = 4,
                       up_to_level: Optional[int] = None,
                       twist: Optional[TwistSequence] = None,
                       word_cap: int = DEFAULT_PROBE_CAP) -> ProbeResult:
    """Enumerate all nonempty reduced generator words up to max_word_len and
    keep those whose split image lies in every probed level's base stabilizer.

    Untwisted, membership means the matrix mod q2^n is projectively diagonal
    (both off-diagonal entries vanish); twisted, the conjugate
    g(n)^-1 M g(n) must be diagonal instead.  Surviving words are finite
    evidence that the tower's fundamental-group intersection is nontrivial;
    an empty list certifies triviality up to this word-length horizon.
    """
    if max_word_len < 1:
        raise InvalidParameterError("max_word_len must be >= 1")
    if max_word_len > word_cap:
        q1 = cfg.q1
        est = (q1 + 1) * (q1**max_word_len - 1) // (q1 - 1)
        raise WordLengthError(
            f"max_word_len {max_word_len} exceeds cap {word_cap} "
            f"(~{est} reduced words); raise word_cap explicitly to proceed"
        )
    n_levels = cfg.levels if up_to_level is None else up_to_level
    gens = enumerate_generators(cfg.q1)
    pairing = gens.inverse_pairing
    d = cfg.q1 + 1
    pps = [PrimePower(cfg.q2, n) for n in range(1, n_levels + 1)]
    sqrts = [sqrt_minus_one(pp) for pp in pps]
    conj = None
    if twist is not None:
        if len(twist.matrices) < n_levels:
            raise InvalidParameterError(
                f"twist sequence has {len(twist.matrices)} levels, need {n_levels}"
            )
        conj = []
        for lvl in range(n_levels):
            g = twist.matrices[lvl]
            gi = g.inverse()
            conj.append((gi.entries(), g.entries(), pps[lvl].modulus))

    def survives(qt: Quaternion) -> bool:
        for lvl in range(n_levels):
            m = pps[lvl].modulus
            s = sqrts[lvl]
            ma = (qt.x0 + qt.x1 * s) % m
            mb = (qt.x2 + qt.x3 * s) % m
            mc = (-qt.x2 + qt.x3 * s) % m
            md = (qt.x0 - qt.x1 * s) % m
            if conj is None:
                if mb or mc:
                    return False
            else:
                gi, g, mm = conj[lvl]
                t = _mul4(_mul4(gi, (ma, mb, mc, md), mm), g, mm)
                if t[1] or t[2]:
                    return False
        return True

    survivors = []
    words_tested = 0
    letters = []
    quats = [ONE]

    def rec():
        nonlocal words_tested
        last = letters[-1] if letters else -1
        for i in range(d):
            if last >= 0 and pairing[last] == i:
                continue
            letters.append(i)
            quats.append(quats[-1] * gens.gens[i])
            words_tested += 1
            if survives(quats[-1]):
                survivors.append(ProbeHit(FreeWord(tuple(letters)), quats[-1]))
            if len(letters) < max_word_len:
                rec()
            letters.pop()
            quats.pop()

    rec()
    return ProbeResult(
        q1=cfg.q1,
        q2=cfg.q2,
        max_word_len=max_word_len,
        up_to_level=n_levels,
        twisted=twist is not None,
        words_tested=words_tested,
        survivors=tuple(survivors),
    )


def probe_with_reseed(cfg: TowerConfig, max_word_len: int = 4,
                      up_to_level: Optional[int] = None, max_tries: int = 16):
    """Twisted probe that reseeds while the conjugating sequence is degenerate
    (a single generator stays diagonal under conjugation).  Returns
    (probe, twist, reseeded_seeds)."""
    if cfg.twist_seed is None:
        return intersection_probe(cfg, max_word_len, up_to_level), None, ()
    n_levels = cfg.levels if up_to_level is None else up_to_level
    seed = cfg.twist_seed
    reseeds = []
    for _ in range(max_tries):
        twist = twist_sequence(cfg, seed, levels=n_levels)
        probe = intersection_probe(cfg, max_word_len, n_levels, twist)
        if not probe.has_length_one_survivor():
            return probe, twist, tuple(reseeds)
        reseeds.append(seed)
        seed += 1
    raise VerificationError(
        f"no non-degenerate twist seed found after {max_tries} tries from {cfg.twist_seed}"
    )


# ---------------------------------------------------------------------------
# the full pipeline


@dataclass(frozen=True)
class LevelSummary:
    n: int
    vertices: int
    directed_edges: int
    girth: float
    loop_count: int
    bipartite: bool
    witness: Optional[LoopWitness]
    spectral: SpectralReport
    girth_floor: Optional[int]


@dataclass(frozen=True)
class TowerResult:
    config: TowerConfig
    mode: str
    twist: Optional[TwistSequence]
    levels: tuple
    coverings: tuple
    summaries: tuple
    probe: ProbeResult
    reseeds: tuple


def build_tower(cfg: TowerConfig, probe_max_word_len: int = 4) -> TowerResult:
    """Build levels 1..N with covering maps, verify girth / spectra / loop
    witness per level, and run the intersection probe.  Twisted towers are
    reseeded (and the skipped seeds recorded) if the drawn conjugator
    degenerately keeps a torus generator diagonal."""
    probe, twist, reseeds = probe_with_reseed(cfg, probe_max_word_len)
    effective = cfg if twist is None or twist.seed == cfg.twist_seed else (
        TowerConfig(cfg.q1, cfg.q2, cfg.levels, cfg.variant, twist.seed)
    )
    levels = tuple(build_level(effective, n, twist) for n in range(1, cfg.levels + 1))
    coverings = tuple(
        natural_covering(levels[i + 1], levels[i]) for i in range(cfg.levels - 1)
    )
    torus = find_torus_pair(cfg.q1, cfg.q2)
    summaries = []
    for lvl in levels:
        g = lvl.graph
        gir = girth(g)
        wit = loop_witness(lvl, torus) if cfg.variant in ("cartan", "borel") else None
        spectral = ramanujan_check(g, cfg.q1)
        floor = lps_girth_floor(cfg.q1, g.num_vertices) if cfg.variant == "cayley" else None
        summaries.append(LevelSummary(
            n=lvl.n,
            vertices=g.num_vertices,
            directed_edges=g.num_edges,
            girth=gir,
            loop_count=g.geometric_loop_count(),
            bipartite=spectral.bipartite,
            witness=wit,
            spectral=spectral,
            girth_floor=floor,
        ))
    return TowerResult(
        config=cfg,
        mode=cfg.mode,
        twist=twist,
        levels=levels,
        coverings=coverings,
        summaries=tuple(summaries),
        probe=probe,
        reseeds=reseeds,
    )
