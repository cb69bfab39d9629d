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

A built level is one V x (q1+1) transition table plus the generator
pairing: table[v, i] is the vertex reached from v by generator i, and the
level's graph holds that table and nothing edge-sized besides it (see
multigraph.SerreGraph.from_table).  A vertex's key is its integer state
code, built from the point and matrix codes of projgroup.  One
frontier-synchronous numpy BFS over codes builds all three variants, in the
discovery order of a FIFO queue.  A level, or a probe's step tables, that
cannot fit in physical memory is refused before any work, from exact sizes.

Covering maps drop one level by entrywise reduction of the vertex codes,
and are verified by multigraph.is_covering.  A TowerConfig is the one
description of a tower.  Its twist seed, when set, draws the twist
sequence g(1), g(2), ... (compatible under reduction, and a longer
sequence extends a shorter one), which rebases the cartan tower at the
conjugated stabilizers g(n) A(n) g(n)^-1: the graphs are unchanged up to
relabeling, but the intersection probe - which words lie in every level's
base stabilizer - now asks whether g(n)^-1 M g(n) is projectively
diagonal instead of M.  A seed is degenerate when its g(1) conjugates a
generator matrix mod q2 to a diagonal one, and the next seed is drawn
instead; the rule is decided at level 1 alone, so level n and a probe to
any depth read the same g(n) from one seed.  One meet-in-the-middle
search for reduced closed walks at the base vertex answers both the probe
(on the top level's pair codes) and the girth of a vertex-transitive
cayley level.  The probe is the
finite-horizon certificate separating the bounded-girth tower (a common
loop survives every level) from the twisted tower (no word survives).
"""

import math
import os
import random
from dataclasses import dataclass
from itertools import islice
from math import isqrt
from typing import Optional

import numpy as np

from .errors import InvalidParameterError, VerificationError
from .modarith import PrimePower, is_prime, legendre
from .multigraph import _VALIDATE_CHUNK, SerreGraph, girth, index_dtype, is_covering
from .projgroup import (Mat2, act_on_points, identity, is_psl, matrix_codes, matrix_entries,
                        p1_size, proj_normalize, reduce_matrix, reduce_matrix_codes,
                        reduce_point_codes, unit_inverses)
from .quat import GeneratorSet, Quaternion, enumerate_generators, evaluate_word, split
from .spectra import SpectralReport, ramanujan_check, solve_bytes

VARIANTS = ("cartan", "borel", "cayley")
DEFAULT_PROBE_CAP = 8
_RESEED_TRIES = 16
_POINT_CHUNK = 1 << 18


@dataclass(frozen=True)
class TowerConfig:
    """Two distinct primes q1, q2 = 1 (mod 4), a depth, a variant, and for
    cartan an optional twist seed, which fixes the twist at every level."""

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
# state codes and the vectorized step
#
# Points and canonical matrices carry the codes of projgroup.  A cartan
# state (a pair of points) is c0*P + c1 with P = |P^1|; a borel state is one
# point code; a cayley state is one matrix code.


def _code_space(variant: str, pp: PrimePower) -> int:
    """Number of codes; every state of the variant has a code below it."""
    if variant == "cartan":
        return p1_size(pp) ** 2
    if variant == "borel":
        return p1_size(pp)
    return pp.modulus**3 + pp.modulus**3 // pp.p


def _reduce_codes(codes, variant: str, pp_from: PrimePower, pp_to: PrimePower):
    """Codes of the states reduced entrywise from q^k to q^(k-j)."""
    if variant == "cayley":
        return reduce_matrix_codes(codes, pp_from, pp_to)
    if variant == "borel":
        return reduce_point_codes(codes, pp_from, pp_to)
    c0, c1 = np.divmod(codes, p1_size(pp_from))
    return (reduce_point_codes(c0, pp_from, pp_to) * p1_size(pp_to)
            + reduce_point_codes(c1, pp_from, pp_to))


def _transitions(variant, pp, smats, pairing, base_matrix):
    """(step, base code): step maps a frontier of codes to its (F, d)
    candidate codes, generator i in column i."""
    m = pp.modulus
    uinv = unit_inverses(pp)
    if variant == "cayley":
        acts = [mt.entries() for mt in smats]

        def step(front):
            a, b, c, d = matrix_entries(front, pp)
            return np.stack([
                matrix_codes((a * e + b * g) % m, (a * f + b * h) % m,
                             (c * e + d * g) % m, (c * f + d * h) % m, pp, uinv)
                for e, f, g, h in acts
            ], axis=1)

        return step, 1  # the identity (1, 0, 0, 1)

    # Right cosets move by the Moebius action of s^-1, which is the split
    # image of the conjugate generator; each generator permutes P^1 once.
    # The permutations are filled in place, _POINT_CHUNK points at a time, so
    # the temporaries of the action stay small beside the table.
    npts = p1_size(pp)
    perms = np.empty((len(smats), npts), dtype=np.int64)
    for start in range(0, npts, _POINT_CHUNK):
        points = np.arange(start, min(start + _POINT_CHUNK, npts))
        for i, row in enumerate(perms):
            row[start:start + len(points)] = act_on_points(
                smats[pairing[i]].entries(), points, pp, uinv)
    if variant == "borel":
        return (lambda front: perms[:, front].T), m  # the point (1:0)

    # (0:1) has code 0 and (1:0) code m; the base is their image under g(n).
    b0, b1 = act_on_points(base_matrix.entries(), np.array([0, m]), pp, uinv).tolist()

    def step(front):
        # a column at a time into the (F, d) result, so no (d, F) gather or
        # transposed copy of one is ever held beside it
        c0, c1 = np.divmod(front, npts)
        out = np.empty((len(front), len(perms)), dtype=np.int64)
        for i, row in enumerate(perms):
            out[:, i] = row[c0] * npts + row[c1]
        return out

    return step, b0 * npts + b1


def _bfs(step, base: int, code_space: int, d: int, dtype):
    """Frontier-synchronous BFS from base.  Each round's new vertices are the
    unseen candidates in order of first occurrence, scanning the frontier's
    (vertex, generator) pairs row-major, which is exactly the discovery
    order of a FIFO queue.  Returns the (V, d) table and the V codes."""
    ids = np.full(code_space, -1, dtype=dtype)
    ids[base] = 0
    # first[c]: the least candidate position holding code c; a code becomes
    # a vertex in the round it is first a candidate, so no reset is needed
    first = np.full(code_space, np.iinfo(dtype).max, dtype=dtype)
    frontier = np.array([base], dtype=np.int64)
    code_blocks, rows = [frontier], []
    nv = 1
    while len(frontier):
        flat = step(frontier).ravel()
        found = ids[flat]
        unseen = flat[found < 0]
        pos = np.arange(len(unseen), dtype=dtype)
        np.minimum.at(first, unseen, pos)
        frontier = unseen[first[unseen] == pos]
        ids[frontier] = np.arange(nv, nv + len(frontier), dtype=dtype)
        nv += len(frontier)
        found[found < 0] = ids[unseen]
        rows.append(found.reshape(-1, d))
        code_blocks.append(frontier)
    return np.concatenate(rows), np.concatenate(code_blocks)


# ---------------------------------------------------------------------------
# reduced closed walks at the base vertex
#
# A reduced walk never steps back along the edge it just used.  A reduced
# closed walk of length k at the base is u . x^-1 for exactly one pair of
# walks with |u| = ceil(k/2), |x| = floor(k/2), equal ends and different
# last letters; its word is u followed by pairing[x] reversed.  Meeting in
# the middle costs about d^ceil(k/2) walks instead of d^k words.


def _reduced_walks(step, base: int, pairing):
    """Yield, for length 0, 1, 2, ..., the reduced walks from base as arrays
    (end code, last letter or -1, index of the walk one shorter), in
    lexicographic order of their words; walks are words, never deduped."""
    pair = np.asarray(pairing)
    end, last, parent = np.array([base]), np.array([-1]), np.array([-1])
    while True:
        yield end, last, parent
        cand = step(end)
        allowed = np.ones(cand.shape, dtype=bool)
        rows = np.flatnonzero(last >= 0)
        allowed[rows, pair[last[rows]]] = False
        parent, last = np.nonzero(allowed)
        end = cand[parent, last]


def _joins(layers, k: int):
    """Indices (u, x) into layers[ceil(k/2)] and layers[k // 2] of the pairs
    that join into the reduced closed walks of length k."""
    (u_end, u_last, _), (x_end, x_last, _) = layers[(k + 1) // 2], layers[k // 2]
    order = np.argsort(x_end, kind="stable")
    lo = np.searchsorted(x_end[order], u_end, side="left")
    counts = np.searchsorted(x_end[order], u_end, side="right") - lo
    ui = np.repeat(np.arange(len(u_end)), counts)
    xi = order[np.arange(len(ui)) + np.repeat(lo - np.cumsum(counts) + counts, counts)]
    keep = u_last[ui] != x_last[xi]
    return ui[keep], xi[keep]


def _closed_words(layers, k: int, pairing) -> np.ndarray:
    """The words of the reduced closed walks of length k, one row each."""
    halves = []
    for length, idx in zip(((k + 1) // 2, k // 2), _joins(layers, k)):
        letters = np.empty((len(idx), length), dtype=np.int64)
        for j in range(length, 0, -1):
            letters[:, j - 1] = layers[j][1][idx]
            idx = layers[j][2][idx]
        halves.append(letters)
    return np.concatenate([halves[0], np.asarray(pairing)[halves[1]][:, ::-1]], axis=1)


def _walk_girth(step, base: int, pairing) -> int:
    """The least length of a reduced closed walk at base, which is the girth
    when the graph is vertex-transitive.  With degree >= 3 one exists: once
    the walks of one length outnumber the vertices, two share an end, and
    stripping their common last letters leaves a join."""
    walks = _reduced_walks(step, base, pairing)
    layers = [next(walks)]
    while True:
        layers.append(next(walks))
        for k in (2 * len(layers) - 3, 2 * len(layers) - 2):
            if len(_joins(layers, k)[0]):
                return k


def _vertex_ids(level: "TowerLevel") -> np.ndarray:
    """Lookup from state code to vertex id, -1 for codes of no vertex."""
    ids = np.full(_code_space(level.config.variant, level.pp), -1, dtype=level.table.dtype)
    ids[level.codes] = np.arange(len(level.codes), dtype=ids.dtype)
    return ids


def swap_orbits(level: "TowerLevel") -> np.ndarray:
    """The orbits of the point swap on a cartan level, one (representative,
    partner) row each: the swap sends v to the vertex whose pair is v's pair
    in the other order, which is right multiplication by the Weyl element
    normalising the Cartan and commutes with every generator because they
    act on both points alike.  The representative is the lesser vertex, and
    the rows run by fiber over level 1 (the unordered pair of the points
    reduced mod q2), then by representative; ramanujan_check takes them as
    the row order of its swap halves, so that a row's neighbours lie in few
    blocks."""
    if level.config.variant != "cartan":
        raise InvalidParameterError("the point swap applies to the cartan variant")
    npts = p1_size(level.pp)
    c0, c1 = np.divmod(level.codes, npts)
    swap = _vertex_ids(level)[c1 * npts + c0]
    pp1 = PrimePower(level.pp.p, 1)
    r0, r1 = (reduce_point_codes(c, level.pp, pp1) for c in (c0, c1))
    fibers = np.minimum(r0, r1) * p1_size(pp1) + np.maximum(r0, r1)
    reps = np.flatnonzero(np.arange(len(swap)) < swap).astype(swap.dtype)
    reps = reps[np.argsort(fibers[reps], kind="stable")]
    return np.column_stack((reps, swap[reps]))


def estimated_bytes(cfg: TowerConfig, n: int) -> int:
    """Peak bytes of building a level: the two code-indexed arrays, the table
    (the level's graph holds it and nothing edge-sized besides), the vertex
    codes (int64, twice while their blocks are joined), 16 bytes an edge for
    the BFS's largest round, 64 bytes an id of one chunk of the graph check,
    and 64 KiB for the generators and the other small tables.  By
    tracemalloc the round took at most 12.6 bytes an edge and the check 45
    to 50 bytes an id, and the traced peak was 0.13 to 0.64 of this
    estimate on levels 1-2 of (5,13) and (5,17) cartan and of (13,5) cartan
    and cayley, level 1 of (5,13), (5,17) and (5,29) cayley, level 2 of
    (17,5) and (29,5) cayley, and levels 1-3 of (5,13) borel."""
    nv = expected_vertices(cfg, n)
    ne = nv * (cfg.q1 + 1)
    width = np.dtype(index_dtype(ne)).itemsize
    space = _code_space(cfg.variant, PrimePower(cfg.q2, n))
    return (ne + 2 * space) * width + 16 * (ne + nv) + 64 * min(ne, _VALIDATE_CHUNK) + 2**16


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _refuse(what: str, need: int) -> None:
    have = _physical_memory()
    if need > have:
        raise InvalidParameterError(
            f"{what} an estimated {need} bytes ({need / 2**30:.1f} GiB), more than the "
            f"{have} bytes ({have / 2**30:.1f} GiB) of physical memory"
        )


def _refuse_oversized(cfg: TowerConfig, levels, solve: bool = False) -> None:
    """Raise InvalidParameterError, before any work, when the levels (with
    solve, plus the eigensolve of the largest) cannot fit in physical
    memory; vertex counts are exact, so the estimate is.  Every cartan and
    borel level has a loop (loop_witness), and no cayley level has one."""
    need = sum(estimated_bytes(cfg, n) for n in levels)
    if solve:
        nv = expected_vertices(cfg, max(levels))
        need += solve_bytes(nv, nv * (cfg.q1 + 1), cfg.variant != "cayley")
    _refuse(f"{cfg.variant} level(s) {', '.join(map(str, levels))} of ({cfg.q1},{cfg.q2})"
            f"{' and the top eigensolve' if solve else ''} need", need)


def _probe_bytes(cfg: TowerConfig, n: int) -> int:
    """Peak bytes of the probe's step tables at level n: the unit inverses
    and the q1+1 point permutations, plus room for sixteen temporaries of the
    Moebius action on one chunk of points; 8 bytes an entry."""
    pp = PrimePower(cfg.q2, n)
    npts = p1_size(pp)
    return 8 * pp.modulus + 8 * npts * (cfg.q1 + 1) + 8 * 16 * min(npts, _POINT_CHUNK)


@dataclass(frozen=True, eq=False)
class TowerLevel:
    """One level: the graph, its generators, and the modulus.

    table[v, i] is the vertex reached from v by generator i.  The graph is
    this table and the generator pairing, the same array and no copy: edge
    v*(q1+1) + i runs from v to table[v, i], and its origin, label and
    inverse ids are derived when read.  codes[v] is the integer state code
    of vertex v (see above), which is its key.
    """

    config: TowerConfig
    n: int
    pp: PrimePower
    graph: SerreGraph
    generators: GeneratorSet
    table: np.ndarray
    codes: np.ndarray

    @property
    def degree(self) -> int:
        return self.config.q1 + 1


def build_level(cfg: TowerConfig, n: int) -> TowerLevel:
    """Build level n by BFS closure from the base vertex: ((0:1), (1:0)),
    or its image under g(n) when cfg has a twist seed.

    Vertex ids follow BFS discovery order with generators scanned in
    lexicographic order, so identical configs give byte-identical exports.
    The directed edge (v, i) has id v*(q1+1)+i and pairs with the edge at its
    target labeled by the conjugate generator.  Raises InvalidParameterError
    before any work if the level cannot fit in physical memory.
    """
    if n > cfg.levels:
        raise InvalidParameterError(f"level {n} exceeds configured depth {cfg.levels}")
    _refuse_oversized(cfg, [n])
    pp = PrimePower(cfg.q2, n)
    gens = enumerate_generators(cfg.q1)
    pairing = gens.inverse_pairing
    d = cfg.q1 + 1
    smats = tuple(proj_normalize(split(g, pp)) for g in gens.gens)
    in_psl = [is_psl(m) for m in smats]
    if (cfg.mode == "PSL") != all(in_psl) or (cfg.mode == "PGL") != (not any(in_psl)):
        raise VerificationError("generator matrices disagree with the PSL/PGL mode")

    want = expected_vertices(cfg, n)
    base_matrix = identity(pp) if cfg.twist_seed is None else twist_sequence(cfg, n).matrices[-1]
    step, base = _transitions(cfg.variant, pp, smats, pairing, base_matrix)
    table, codes = _bfs(step, base, _code_space(cfg.variant, pp), d, index_dtype(want * d))
    nv = len(codes)
    if nv != want:
        raise VerificationError(f"{cfg.variant} level {n} has {nv} vertices, expected {want}")
    meta = {"q1": cfg.q1, "q2": cfg.q2, "n": n, "variant": cfg.variant,
            "mode": cfg.mode, "V": nv}
    graph = SerreGraph.from_table(table, pairing, meta=meta)
    return TowerLevel(cfg, n, pp, graph, gens, table, codes)


# ---------------------------------------------------------------------------
# the torus generator and the loop witness


def two_squares(q: int):
    """The unique (a, b) with a odd positive, b even positive, a^2 + b^2 = q."""
    for a in range(1, isqrt(q) + 1, 2):
        b2 = q - a * a
        b = isqrt(b2)
        if b * b == b2 and b % 2 == 0:
            return a, b
    raise InvalidParameterError(f"{q} is not a sum of an odd and an even square")


@dataclass(frozen=True)
class LoopWitness:
    vertex: int
    generator: int


def loop_witness(level: TowerLevel) -> LoopWitness:
    """The loop guaranteed at the standard base coset: gamma = a + b*i, with
    (a, b) = two_squares(q1), is a generator whose split image is diagonal,
    hence fixes ((0:1), (1:0)) and the point (1:0).  Returns the base vertex
    and gamma's generator index."""
    if level.config.variant not in ("cartan", "borel"):
        raise InvalidParameterError("loop witness applies to the cartan and borel variants")
    coeffs = (*two_squares(level.config.q1), 0, 0)
    try:
        idx = next(i for i, g in enumerate(level.generators.gens) if g.coefficients() == coeffs)
    except StopIteration:
        raise VerificationError(f"torus element {coeffs} is not a generator")
    # (0:1) has code 0 and (1:0) code m, so the standard pair ((0:1), (1:0))
    # and the standard point (1:0) both have code m.
    found = np.flatnonzero(level.codes == level.pp.modulus)
    if not len(found):
        raise VerificationError(f"standard base vertex not present in level {level.n}")
    v = int(found[0])
    if level.table[v, idx] != v:
        raise VerificationError(f"edge for generator {idx} at the base vertex is not a loop")
    return LoopWitness(v, idx)


# ---------------------------------------------------------------------------
# covering maps


@dataclass(frozen=True)
class CoveringMap:
    """A verified label-preserving covering from level n+1 onto level n,
    given by its vertex map; the edge map follows from it (natural_covering)."""

    source_n: int
    target_n: int
    vertex_map: np.ndarray
    verified: bool


def natural_covering(upper: TowerLevel, lower: TowerLevel) -> CoveringMap:
    """Vertex map = entrywise reduction of the vertex codes one level down;
    the edge map matches generator labels, e -> vertex_map[e // d] * d + e % d
    with d = q1+1.  Checks that every reduced code is a vertex of the lower
    level, then verifies the pair with is_covering, and returns the vertex
    map alone.  Raises VerificationError naming the first failing vertex (a
    bug sentinel, never expected for constructed levels)."""
    if upper.config != lower.config:
        raise InvalidParameterError("levels come from different tower configs")
    if upper.n != lower.n + 1:
        raise InvalidParameterError(
            f"natural covering goes one level down, got {upper.n} -> {lower.n}"
        )

    def fail(v, reason):
        return VerificationError(f"covering {upper.n} -> {lower.n} failed at vertex {v}: {reason}")

    vmap = _vertex_ids(lower)[_reduce_codes(upper.codes, upper.config.variant, upper.pp, lower.pp)]
    missing = np.flatnonzero(vmap < 0)
    if len(missing):
        raise fail(missing[0], f"reduced code missing from level {lower.n}")
    d = upper.degree
    emap = (vmap[:, None] * d + np.arange(d, dtype=vmap.dtype)).reshape(-1)
    check = is_covering(upper.graph, lower.graph, vmap, emap)
    if not check.ok:
        raise fail(check.witness, check.reason)
    return CoveringMap(upper.n, lower.n, vmap, True)


# ---------------------------------------------------------------------------
# twist sequences


@dataclass(frozen=True)
class TwistSequence:
    """Seeded conjugators g(1), ..., g(N), compatible under level reduction."""

    seed: int
    matrices: tuple


def _fixes(s: Mat2, x: int, y: int) -> bool:
    """Whether s fixes the point (x:y): s (x, y) is a multiple of (x, y)."""
    sa, sb, sc, sd = s.entries()
    return ((sa * x + sb * y) * y - (sc * x + sd * y) * x) % s.pp.modulus == 0


def twist_sequence(cfg: TowerConfig, levels: Optional[int] = None) -> TwistSequence:
    """g(1), ..., g(levels), by default cfg.levels of them, drawn from the
    first seed kept among cfg.twist_seed, cfg.twist_seed + 1, ...: g(1)
    uniform over L(1); g(n+1) a uniform lift of g(n) among the q2^3
    projective preimages.  A seed is skipped as degenerate when its g(1)
    conjugates one of the q1+1 generator matrices mod q2 to a diagonal one;
    the rule reads level 1 only, so every depth keeps the same seed (the
    sequence's seed).  The draws come in order from one generator, so a
    longer sequence extends a shorter one.  Raises InvalidParameterError for
    an unseeded config and VerificationError after _RESEED_TRIES skips."""
    if cfg.twist_seed is None:
        raise InvalidParameterError("a twist sequence needs a config with a twist seed")
    n_levels = cfg.levels if levels is None else levels
    if n_levels < 1:
        raise InvalidParameterError(f"a twist sequence needs levels >= 1, got {n_levels}")
    q, pp1 = cfg.q2, PrimePower(cfg.q2, 1)
    want_psl = cfg.mode == "PSL"
    smats = [split(g, pp1) for g in enumerate_generators(cfg.q1).gens]
    for seed in range(cfg.twist_seed, cfg.twist_seed + _RESEED_TRIES):
        rng = random.Random(seed)
        while True:
            t = tuple(rng.randrange(q) for _ in range(4))
            det = (t[0] * t[3] - t[1] * t[2]) % q
            if det and (not want_psl or legendre(det, q) == 1):
                break
        g1 = proj_normalize(Mat2(*t, pp1))
        # g^-1 s g is diagonal exactly when s fixes both columns of g as points
        a, b, c, d = g1.entries()
        if not any(_fixes(s, a, c) and _fixes(s, b, d) for s in smats):
            break
    else:
        raise VerificationError(
            f"no non-degenerate twist seed found after {_RESEED_TRIES} tries from {cfg.twist_seed}"
        )
    mats = [g1]
    for n in range(2, n_levels + 1):
        lift = (x + q ** (n - 1) * rng.randrange(q) for x in mats[-1].entries())
        mats.append(proj_normalize(Mat2(*lift, PrimePower(q, n))))
    for n in range(2, n_levels + 1):
        if reduce_matrix(mats[n - 1], PrimePower(q, n - 1)) != mats[n - 2]:
            raise VerificationError("twist sequence is not reduction-compatible")
    return TwistSequence(seed, tuple(mats))


# ---------------------------------------------------------------------------
# the intersection probe


@dataclass(frozen=True)
class ProbeHit:
    word: tuple
    quaternion: Quaternion


@dataclass(frozen=True)
class ProbeResult:
    """A probe's result, with the twist sequence g(1..up_to_level) it read,
    or None for an untwisted probe."""

    max_word_len: int
    up_to_level: int
    twist: Optional[TwistSequence]
    words_tested: int
    survivors: tuple

    @property
    def twisted(self) -> bool:
        return self.twist is not None

    def survivor_letters(self):
        return tuple(h.word for h in self.survivors)

    def has_length_one_survivor(self) -> bool:
        return any(len(h.word) == 1 for h in self.survivors)


def intersection_probe(cfg: TowerConfig, max_word_len: int = 4,
                       up_to_level: Optional[int] = None) -> ProbeResult:
    """The nonempty reduced generator words up to max_word_len whose split
    image lies in every probed level's base stabilizer, in lexicographic
    order; words_tested counts all reduced words up to that length.

    Membership means the matrix mod q2^n (twisted: g(n)^-1 M g(n), with
    g(1..N) the twist_sequence of cfg at N = up_to_level, which may exceed
    cfg.levels and skips degenerate seeds, so no length-one word survives)
    is projectively diagonal.  It holds at every level exactly when it holds
    at the top level N, that is for the words of the reduced closed walks at
    level N's base vertex, which the walk search finds on pair codes with no
    graph built.  Each hit is then confirmed from its exact quaternion at
    every level, else VerificationError.  Survivors are finite evidence that
    the tower's fundamental-group intersection is nontrivial; an empty list
    certifies triviality up to this word-length horizon.  Twisted, that
    evidence holds only for max_word_len below about log_q1 of level N's
    vertex count (9.6 for (5,13) at N = 3): longer walks close at the base
    by chance.  At twist seed 42, (5,13) N = 3 keeps 0 words at length 8 but
    1,632 at length 14.  Raises InvalidParameterError above
    DEFAULT_PROBE_CAP, and before any work if the top level's step tables
    cannot fit in physical memory.
    """
    if max_word_len < 1:
        raise InvalidParameterError("max_word_len must be >= 1")
    # (q1+1) q1^(k-1) reduced words of each length k
    tested = (cfg.q1 + 1) * (cfg.q1**max_word_len - 1) // (cfg.q1 - 1)
    if max_word_len > DEFAULT_PROBE_CAP:
        raise InvalidParameterError(
            f"max_word_len {max_word_len} exceeds cap {DEFAULT_PROBE_CAP} "
            f"(~{tested} reduced words)"
        )
    n_levels = cfg.levels if up_to_level is None else up_to_level
    if n_levels < 1:
        raise InvalidParameterError(f"up_to_level must be >= 1, got {n_levels}")
    _refuse(f"the probe's step tables at level {n_levels} of ({cfg.q1},{cfg.q2}) need",
            _probe_bytes(cfg, n_levels))
    gens = enumerate_generators(cfg.q1)
    pairing = gens.inverse_pairing
    pp = PrimePower(cfg.q2, n_levels)
    smats = tuple(proj_normalize(split(g, pp)) for g in gens.gens)
    twist = None if cfg.twist_seed is None else twist_sequence(cfg, n_levels)
    step, base = _transitions("cartan", pp, smats, pairing,
                              identity(pp) if twist is None else twist.matrices[-1])
    layers = list(islice(_reduced_walks(step, base, pairing), (max_word_len + 3) // 2))
    words = sorted(tuple(w) for k in range(1, max_word_len + 1)
                   for w in _closed_words(layers, k, pairing).tolist())
    survivors = []
    for letters in words:
        qt = evaluate_word(letters, gens)
        for n in range(1, n_levels + 1):
            m = split(qt, PrimePower(cfg.q2, n))
            if twist is not None:
                g = twist.matrices[n - 1]
                m = g.inverse() * m * g
            if m.b or m.c:
                raise VerificationError(f"word {letters} closes a walk at the base of level "
                                        f"{n_levels} but is not diagonal at level {n}")
        survivors.append(ProbeHit(letters, qt))
    return ProbeResult(max_word_len=max_word_len, up_to_level=n_levels, twist=twist,
                       words_tested=tested, survivors=tuple(survivors))


def probe_with_reseed(cfg: TowerConfig, max_word_len: int = 4,
                      up_to_level: Optional[int] = None):
    """One intersection probe, returned with the seeds skipped before the
    twist it read: (probe, reseeds), with reseeds () for an unseeded config.
    The seeds twist_seed, twist_seed + 1, ..., up to the one kept are those
    whose g(1) is degenerate (see twist_sequence), so no twisted probe keeps
    a length-one word."""
    probe = intersection_probe(cfg, max_word_len, up_to_level)
    if probe.twist is None:
        return probe, ()
    return probe, tuple(range(cfg.twist_seed, probe.twist.seed))


# ---------------------------------------------------------------------------
# the full pipeline


@dataclass(frozen=True)
class LevelSummary:
    n: int
    vertices: int
    directed_edges: int
    girth: float
    loop_count: int
    witness: Optional[LoopWitness]
    spectral: SpectralReport
    girth_floor: Optional[int]


@dataclass(frozen=True)
class TowerResult:
    config: TowerConfig
    levels: tuple
    coverings: tuple
    summaries: tuple
    probe: ProbeResult
    reseeds: tuple


def build_tower(cfg: TowerConfig, probe_max_word_len: int = 4) -> TowerResult:
    """Build levels 1..N with covering maps, verify girth / spectra / loop
    witness per level, and run the intersection probe.  The levels and the
    probe of a twisted tower read one twist, drawn from the first seed whose
    g(1) is not degenerate (see twist_sequence); the skipped seeds are
    recorded.  Raises InvalidParameterError before any work if the levels
    and the largest level's eigensolve cannot fit in physical memory.

    The levels are checked from the top down, so that every dense solve (a
    level of at most spectra.DENSE_THRESHOLD vertices) comes after the
    Lanczos solves: a dense solve wakes a BLAS thread that spins for about
    0.1 s after it, and run first it would take the core that a larger
    level's second swap half runs on.  So when two levels would fail, the
    upper one's error is raised; the summaries are in level order."""
    _refuse_oversized(cfg, range(1, cfg.levels + 1), solve=True)
    probe, reseeds = probe_with_reseed(cfg, probe_max_word_len)
    levels = tuple(build_level(cfg, n) for n in range(1, cfg.levels + 1))
    coverings = tuple(
        natural_covering(levels[i + 1], levels[i]) for i in range(cfg.levels - 1)
    )
    summaries = []
    for lvl in reversed(levels):
        g = lvl.graph
        if cfg.variant == "cayley":
            # vertex-transitive under left multiplication, so some shortest
            # cycle passes through the identity, vertex 0
            gir = _walk_girth(lambda f: lvl.table[f], 0, lvl.generators.inverse_pairing)
            wit, floor = None, lps_girth_floor(cfg.q1, g.num_vertices)
        else:
            gir, wit, floor = girth(g), loop_witness(lvl), None
        orbits = swap_orbits(lvl) if cfg.variant == "cartan" else None
        spectral = ramanujan_check(g, orbits=orbits)
        summaries.append(LevelSummary(
            n=lvl.n, vertices=g.num_vertices, directed_edges=g.num_edges, girth=gir,
            loop_count=g.geometric_loop_count(), witness=wit, spectral=spectral,
            girth_floor=floor))
    return TowerResult(config=cfg, levels=levels, coverings=coverings,
                       summaries=tuple(reversed(summaries)), probe=probe, reseeds=reseeds)
