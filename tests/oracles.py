"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library's production code paths: girth by
exhaustive walk enumeration and by the original per-source Python BFS over
lists of vertex links, matrix groups by full enumeration, Cayley
girth by searching for the shortest scalar-valued generator word, level
tables by the original pure-Python BFS over tuple states, Serre-graph
validation by the original per-edge loop, the morphism and covering checks
by the original loops over edges and vertex links, connectivity and
bipartiteness by the original depth-first and breadth-first traversals, the
intersection probe by the original depth-first enumeration of every reduced
word, the raw g(1) of a twist seed by its own draw, edge-list I/O and DOT
export by the original string formatting and per-line int() conversion, the
JSON graph object by the original Python list of each edge's row,
unit inverses by Python's pow, the nontrivial spectral ends of graphs
too large for a dense solve by the original undeflated ARPACK solve with
removal by value, and the swap halves by the original conversion from COO.
"""

import math
import random
from itertools import product

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from expander_forge.cli import SCHEMA_VERSION, _CHUNK_ROWS, _file_order_rows, _header_line
from expander_forge.errors import InvalidParameterError, VerificationError
from expander_forge.modarith import PrimePower, sqrt_minus_one
from expander_forge.multigraph import CoveringCheck, SerreGraph
from expander_forge.projgroup import Mat2, identity, proj_normalize
from expander_forge.quat import ONE, enumerate_generators, split
from expander_forge.tower import DEFAULT_PROBE_CAP, ProbeHit, ProbeResult, TwistSequence


class NotInvertibleError(ArithmeticError):
    """Requested the inverse of a non-unit residue."""


def unit_inverse(a: int, pp: PrimePower) -> int:
    """Inverse of the unit a mod p**k by Python's pow; raises
    NotInvertibleError for non-units."""
    if a % pp.p == 0:
        raise NotInvertibleError(f"{a} is not a unit mod {pp.p}**{pp.k}")
    return pow(a, -1, pp.modulus)


def vertex_links(g: SerreGraph):
    """vertex_links(g)[v] lists the edge ids with origin v, in increasing
    order."""
    out = [[] for _ in range(g.num_vertices)]
    for e, v in enumerate(g.origin.tolist()):
        out[v].append(e)
    return out


def brute_force_girth(g: SerreGraph, max_len: int = 8):
    """Shortest closed non-backtracking walk, by exhaustive enumeration.

    Returns math.inf if no closed walk of length <= max_len exists.
    """
    best = math.inf
    links = vertex_links(g)

    def extend(base, u, last_edge, depth):
        nonlocal best
        if depth >= min(best - 1, max_len):
            return
        for e in links[u]:
            if last_edge >= 0 and e == g.inv[last_edge]:
                continue
            w = g.terminus[e]
            if w == base and depth + 1 < best:
                best = depth + 1
            extend(base, w, e, depth + 1)

    for v in range(g.num_vertices):
        extend(v, v, -1, 0)
    return best


def bfs_girth(g: SerreGraph):
    """multigraph.girth by the original per-source Python BFS over vertex
    links: 1 for a loop, 2 for a parallel geometric pair, otherwise BFS from
    every vertex tracking parent *edges*; each non-tree edge (u, v) closes a
    walk of length dist(u) + dist(v) + 1, and the minimum is exact."""
    origin, terminus = g.origin, g.terminus
    if np.any(origin == terminus):
        return 1
    forward = np.arange(g.num_edges) < g.inv
    lo, hi = np.sort(np.stack([origin[forward], terminus[forward]]).astype(np.int64), axis=0)
    pairs = lo * g.num_vertices + hi
    if len(np.unique(pairs)) < len(pairs):
        return 2
    best = math.inf
    links = vertex_links(g)
    terminus, inv = terminus.tolist(), g.inv.tolist()
    nv = g.num_vertices
    dist = [-1] * nv
    parent = [-1] * nv
    for s in range(nv):
        touched = [s]
        dist[s] = 0
        parent[s] = -1
        queue = [s]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            du = dist[u]
            if 2 * du >= best:
                break
            skip = inv[parent[u]] if parent[u] >= 0 else -1
            for e in links[u]:
                if e == skip:
                    continue
                w = terminus[e]
                if dist[w] < 0:
                    dist[w] = du + 1
                    parent[w] = e
                    queue.append(w)
                    touched.append(w)
                else:
                    cand = du + dist[w] + 1
                    if cand < best:
                        best = cand
        for v in touched:
            dist[v] = -1
    return best


def brute_force_pgl2_cartan_graph(q1: int, q2: int):
    """The level-1 Cartan coset graph by full enumeration of PGL2(F_q2).

    Enumerate every projective matrix, form the right cosets of the diagonal
    subgroup as frozensets of canonical representatives, and record the
    transitions under right multiplication by the split generators.  Returns
    the BFS-normalized transition table from the identity coset.
    """
    pp = PrimePower(q2, 1)
    elements = set()
    for a, b, c, d in product(range(q2), repeat=4):
        if (a * d - b * c) % q2:
            elements.add(proj_normalize(Mat2(a, b, c, d, pp)).entries())
    gens = enumerate_generators(q1)
    smats = [proj_normalize(split(g, pp)).entries() for g in gens.gens]
    diag = [proj_normalize(Mat2(e, 0, 0, 1, pp)).entries() for e in range(1, q2)]
    diag += [proj_normalize(Mat2(1, 0, 0, e, pp)).entries() for e in range(1, q2)]
    diag = sorted(set(diag))

    def mul(x, y):
        a, b, c, d = x
        e, f, gg, h = y
        m = (a * e + b * gg, a * f + b * h, c * e + d * gg, c * f + d * h)
        return proj_normalize(Mat2(*m, pp)).entries()

    def coset(mt):
        return frozenset(mul(d, mt) for d in diag)

    base = coset((1, 0, 0, 1))
    index = {base: 0}
    order = [base]
    reps = {base: (1, 0, 0, 1)}
    table = []
    head = 0
    while head < len(order):
        cs = order[head]
        head += 1
        rep = reps[cs]
        row = []
        for s in smats:
            nxt_rep = mul(rep, s)
            nxt = coset(nxt_rep)
            j = index.get(nxt)
            if j is None:
                j = len(order)
                index[nxt] = j
                order.append(nxt)
                reps[nxt] = nxt_rep
            row.append(j)
        table.append(row)
    assert len(order) * len(diag) == len(elements)
    return table


def bfs_transition_table(level):
    """Transition table of a built level, already BFS-normalized."""
    g = level.graph
    d = level.degree
    terminus = g.terminus.tolist()
    return [terminus[v * d:v * d + d] for v in range(g.num_vertices)]


def cayley_girth_by_relator(q1: int, q2: int, n: int, max_len: int = 8):
    """Girth of the level-n Cayley graph as the length of the shortest
    nonempty reduced generator word whose split image is scalar mod q2^n.

    Valid because the graph is vertex-transitive, so some shortest cycle
    passes through the identity; returns math.inf if none exists <= max_len.
    """
    pp = PrimePower(q2, n)
    mod = pp.modulus
    p = pp.p
    gens = enumerate_generators(q1)
    pairing = gens.inverse_pairing
    smats = [proj_normalize(split(g, pp)).entries() for g in gens.gens]

    def mul(x, y):
        a, b, c, d = x
        e, f, gg, h = y
        return ((a * e + b * gg) % mod, (a * f + b * h) % mod,
                (c * e + d * gg) % mod, (c * f + d * h) % mod)

    def is_scalar(m):
        return m[1] == 0 and m[2] == 0 and (m[0] - m[3]) % mod == 0

    frontier = [(i, smats[i]) for i in range(len(smats))]
    for length in range(1, max_len + 1):
        for last, m in frontier:
            if is_scalar(m):
                return length
        if length == max_len:
            break
        frontier = [
            (i, mul(m, smats[i]))
            for last, m in frontier
            for i in range(len(smats))
            if pairing[last] != i
        ]
    return math.inf


# ---------------------------------------------------------------------------
# the original level builder: FIFO BFS over tuple states.  A point of
# P^1(Z/q^n) is an int code (x:1) <-> x, (1 : p*t) <-> modulus + t;
# matrices are raw 4-tuples mod q^n.  The state codes of the vertices are
# packed here by scalar arithmetic, independently of projgroup.


def _point_code(x, y, p, mod):
    """Code of the unimodular pair (x : y)."""
    x, y = x % mod, y % mod
    if y % p:
        return x * pow(y, -1, mod) % mod
    return mod + (y * pow(x, -1, mod) % mod) // p


def _mobius_code(mt, code, p, mod):
    a, b, c, d = mt
    if code < mod:
        x, y = code, 1
    else:
        x, y = 1, (code - mod) * p
    return _point_code(a * x + b * y, c * x + d * y, p, mod)


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


def _matrix_code(t, p, mod):
    """Code of a canonical 4-tuple: (1, b, c, d) or (a, 1, c, d) with p | a."""
    a, b, c, d = t
    if a == 1:
        return (b * mod + c) * mod + d
    return mod**3 + ((a // p) * mod + c) * mod + d


def tuple_state_level(cfg, n, twist=None):
    """(transition table, vertex codes) of level n by FIFO BFS over tuple
    states, generators scanned in order at each vertex."""
    pp = PrimePower(cfg.q2, n)
    p, mod = pp.p, pp.modulus
    gens = enumerate_generators(cfg.q1)
    pairing = gens.inverse_pairing
    d = cfg.q1 + 1
    smats = tuple(proj_normalize(split(g, pp)) for g in gens.gens)
    if cfg.variant == "cayley":
        acts = [m.entries() for m in smats]

        def step(i, st):
            return _canon4(_mul4(st, acts[i], mod), p, mod)

        base = (1, 0, 0, 1)
    else:
        acts = [smats[pairing[i]].entries() for i in range(d)]
        if cfg.variant == "cartan":
            g = twist.matrices[n - 1] if twist is not None else identity(pp)
            # g (0:1) = (b : d) and g (1:0) = (a : c)
            base = (_point_code(g.b, g.d, p, mod), _point_code(g.a, g.c, p, mod))

            def step(i, st):
                a = acts[i]
                return (_mobius_code(a, st[0], p, mod), _mobius_code(a, st[1], p, mod))

        else:
            base = _point_code(1, 0, p, mod)

            def step(i, st):
                return _mobius_code(acts[i], st, p, mod)

    index = {base: 0}
    order = [base]
    table = []
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
        table.append(row)

    if cfg.variant == "cayley":
        codes = [_matrix_code(st, p, mod) for st in order]
    elif cfg.variant == "cartan":
        npts = mod + mod // p
        codes = [c0 * npts + c1 for c0, c1 in order]
    else:
        codes = order
    return table, codes


def loop_validation_error(num_vertices, origin, terminus, inv):
    """Message of the original per-edge Serre-graph check for the first
    failing edge, or None when every edge passes."""
    ne = len(origin)
    for e in range(ne):
        if not (0 <= origin[e] < num_vertices and 0 <= terminus[e] < num_vertices):
            return f"edge {e} has endpoint out of range"
        eb = inv[e]
        if not 0 <= eb < ne:
            return f"edge {e} has inverse id out of range"
        if eb == e:
            return (f"involution fixed point at edge {e} "
                    f"({origin[e]} -> {terminus[e]}): a generator acting "
                    "as its own inverse on this vertex is not representable")
        if inv[eb] != e:
            return f"involution not involutive at edge {e}"
        if origin[eb] != terminus[e] or terminus[eb] != origin[e]:
            return f"involution does not reverse edge {e}"
    return None


def traversal_connected(g: SerreGraph) -> bool:
    """Connectivity by the original depth-first traversal from vertex 0."""
    if g.num_vertices == 0:
        return True
    seen = [False] * g.num_vertices
    seen[0] = True
    stack = [0]
    links = vertex_links(g)
    terminus = g.terminus.tolist()
    count = 1
    while stack:
        u = stack.pop()
        for e in links[u]:
            w = terminus[e]
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == g.num_vertices


def traversal_bipartite(g: SerreGraph):
    """(flag, 2-coloring or None) by the original traversal that colors each
    component from its least vertex; any loop forces False."""
    color = [-1] * g.num_vertices
    links = vertex_links(g)
    terminus = g.terminus.tolist()
    for s in range(g.num_vertices):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = [s]
        while queue:
            u = queue.pop()
            cu = color[u]
            for e in links[u]:
                w = terminus[e]
                if color[w] == -1:
                    color[w] = 1 - cu
                    queue.append(w)
                elif color[w] == cu:
                    return False, None
    return True, color


# ---------------------------------------------------------------------------
# the original morphism and covering checks: one edge, then one link, at a time


def _as_list(values):
    return values.tolist() if isinstance(values, np.ndarray) else list(values)


def link_is_covering(src, tgt, vertex_map, edge_map) -> CoveringCheck:
    """is_covering by the original loops: the morphism axioms edge by edge,
    surjectivity vertex by vertex, then each link's sorted image against the
    sorted target link."""
    if len(vertex_map) != src.num_vertices or len(edge_map) != src.num_edges:
        return CoveringCheck(False, -1, "map lengths do not match the source graph")
    vm, em = _as_list(vertex_map), _as_list(edge_map)
    for v, w in enumerate(vm):
        if not 0 <= w < tgt.num_vertices:
            return CoveringCheck(False, v, "vertex map image out of range")
    s_o, s_t, s_i = src.origin.tolist(), src.terminus.tolist(), src.inv.tolist()
    t_o, t_t, t_i = tgt.origin.tolist(), tgt.terminus.tolist(), tgt.inv.tolist()
    for e in range(src.num_edges):
        fe = em[e]
        if not 0 <= fe < tgt.num_edges:
            reason = "edge map image out of range"
        elif t_o[fe] != vm[s_o[e]] or t_t[fe] != vm[s_t[e]]:
            reason = f"edge {e} does not commute with origin/terminus"
        elif em[s_i[e]] != t_i[fe]:
            reason = f"edge {e} does not commute with the involution"
        else:
            continue
        return CoveringCheck(False, s_o[e], reason)
    hit = [False] * tgt.num_vertices
    for v in vm:
        hit[v] = True
    for v, h in enumerate(hit):
        if not h:
            return CoveringCheck(False, v, "vertex map is not surjective")
    src_links, tgt_links = vertex_links(src), vertex_links(tgt)
    for v in range(src.num_vertices):
        image = sorted(em[e] for e in src_links[v])
        if image != sorted(tgt_links[vm[v]]):
            return CoveringCheck(False, v, "link map is not bijective")
    return CoveringCheck(True)


def raw_twist_draw(q1: int, q2: int, seed: int) -> Mat2:
    """The g(1) that a twist seed draws before any degeneracy check: four
    uniform residues mod q2 from random.Random(seed), redrawn until the
    determinant is a unit (a square when q1 is a square mod q2, the PSL
    mode), projectively normalized."""
    rng = random.Random(seed)
    psl = pow(q1, (q2 - 1) // 2, q2) == 1
    while True:
        t = [rng.randrange(q2) for _ in range(4)]
        det = (t[0] * t[3] - t[1] * t[2]) % q2
        if det and (not psl or pow(det, (q2 - 1) // 2, q2) == 1):
            return proj_normalize(Mat2(*t, PrimePower(q2, 1)))


# ---------------------------------------------------------------------------
# the original intersection probe: depth-first enumeration of every reduced
# word, with each word's split image checked level by level.


def word_enumeration_probe(cfg, max_word_len=4, up_to_level=None, twist=None,
                           word_cap=DEFAULT_PROBE_CAP):
    """Enumerate all nonempty reduced generator words up to max_word_len and
    keep those whose split image lies in every probed level's base stabilizer.

    Untwisted, membership means the matrix mod q2^n is projectively diagonal
    (both off-diagonal entries vanish); twisted, the conjugate
    g(n)^-1 M g(n) must be diagonal instead.
    """
    if max_word_len < 1:
        raise InvalidParameterError("max_word_len must be >= 1")
    if max_word_len > word_cap:
        q1 = cfg.q1
        est = (q1 + 1) * (q1**max_word_len - 1) // (q1 - 1)
        raise InvalidParameterError(
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

    def survives(qt):
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
                survivors.append(ProbeHit(tuple(letters), quats[-1]))
            if len(letters) < max_word_len:
                rec()
            letters.pop()
            quats.pop()

    rec()
    return ProbeResult(
        max_word_len=max_word_len,
        up_to_level=n_levels,
        twist=None if twist is None else TwistSequence(twist.seed, twist.matrices[:n_levels]),
        words_tested=words_tested,
        survivors=tuple(survivors),
    )


# ---------------------------------------------------------------------------
# the original edge-list writer and reader


def string_format_edgelist(g: SerreGraph) -> str:
    """The edge list formatted row by row from a tuple of Python ints."""
    parts = [_header_line(g.meta) + "\n"]
    for cols in _file_order_rows(g):
        flat = np.stack(cols, axis=1).ravel().tolist()
        parts.append(("%d %d %d %d\n" * len(cols[0])) % tuple(flat))
    return "".join(parts)


def graph_to_json(g: SerreGraph) -> dict:
    """The JSON graph object of g, its edges a list of one Python list of
    ints per edge in file order; dump_report of it is the JSON export's
    text."""
    edges = []
    for cols in _file_order_rows(g):
        edges += np.stack(cols, axis=1).tolist()
    return {
        "format": "expander-forge-graph",
        "schema": SCHEMA_VERSION,
        "meta": dict(g.meta),
        "num_vertices": g.num_vertices,
        "edges": edges,
    }


def string_format_dot(g: SerreGraph) -> str:
    """DOT output formatted one f-string per vertex and per edge."""
    lines = ["graph expander_forge {"]
    for v in range(g.num_vertices):
        lines.append(f"  {v};")
    origin, terminus = g.origin.tolist(), g.terminus.tolist()
    label, inv = g.label.tolist(), g.inv.tolist()
    for e in range(g.num_edges):
        if e <= inv[e]:
            lab = f' [label="{label[e]}"]' if label[e] >= 0 else ""
            lines.append(f"  {origin[e]} -- {terminus[e]}{lab};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def line_edge_rows(text: str) -> np.ndarray:
    """The edge rows of an edge list, by splitlines, split and int()."""
    return _edge_rows([ln for ln in text.splitlines() if ln.strip()][1:])


def _edge_rows(lines) -> np.ndarray:
    """The edge lines as an (E, 4) int64 array, converted _CHUNK_ROWS lines
    at a time.  A line without exactly four integer tokens, or with one
    outside int64, is rejected with the text of the line."""
    blocks = []
    for start in range(0, len(lines), _CHUNK_ROWS):
        chunk = lines[start:start + _CHUNK_ROWS]
        try:
            if any(len(ln.split()) != 4 for ln in chunk):
                raise ValueError
            tokens = " ".join(chunk).split()
            blocks.append(np.array(tokens, dtype=np.int64).reshape(-1, 4))
        except (ValueError, OverflowError):
            bad = next(ln for ln in chunk if not _int64_row(ln.split()))
            raise InvalidParameterError(f"malformed edge line: {bad!r}") from None
    return np.concatenate(blocks) if blocks else np.empty((0, 4), dtype=np.int64)


def _int64_row(tokens) -> bool:
    try:
        return len(tokens) == 4 and all(-(2**63) <= int(x) < 2**63 for x in tokens)
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# the original eigensolve: one undeflated ARPACK solve at both ends, trivial
# eigenvalues removed by value


def arpack_nontrivial_ends(a, q: int, bipartite: bool):
    """(bottom, top) nontrivial eigenvalues of the adjacency matrix a of a
    connected (q+1)-regular graph, from eigsh 'BE' for four nontrivial values
    plus the trivial ones, which are checked and removed by value."""
    n = a.shape[0]
    v0 = np.cos(0.7 * np.arange(n)) + 0.1
    k = 4 + 1 + bipartite
    vals = spla.eigsh(a, k=k, which="BE", v0=v0, tol=1e-11,
                      ncv=min(n - 1, max(4 * k + 1, 80)), return_eigenvectors=False)
    vals = sorted(vals.tolist())
    assert abs(vals[-1] - (q + 1)) < 1e-9
    vals.pop()
    if bipartite:
        assert abs(vals[0] + (q + 1)) < 1e-9
        vals.pop(0)
    return vals[0], vals[-1]


def coo_swap_halves(g: SerreGraph, orbits):
    """(even, odd) swap halves of g for the checked (h, 2) orbits, each
    built as a COO matrix of one entry per edge leaving a representative,
    (its row, the row of its terminus), converted to CSR, which sums the
    repeats; the odd entries are +1 to a representative and -1 to a partner,
    and the zeros their sums leave are eliminated."""
    reps, partners = orbits.T
    n, h = g.num_vertices, len(orbits)
    row = np.empty(n, dtype=orbits.dtype)
    row[reps] = row[partners] = np.arange(h, dtype=orbits.dtype)
    sign = np.full(n, -1.0)
    sign[reps] = 1.0
    t = g.csr()[1].reshape(n, -1)[reps]
    i = np.repeat(np.arange(h, dtype=orbits.dtype), t.shape[1])
    t = t.reshape(-1)
    j = row[t]
    even = sp.csr_matrix((np.ones(len(j)), (i, j)), shape=(h, h))
    odd = sp.csr_matrix((sign[t], (i, j)), shape=(h, h))
    odd.eliminate_zeros()
    return even, odd
