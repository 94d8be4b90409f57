"""
Random regular multigraphs from the pairing model, exact small-instance
Gibbs oracles, and the bipartite gadget / reduction construction.

Graphs are multigraphs: self-loops (stored as (v, v), counting 2 toward the
degree) and parallel edges are allowed, matching the pairing-model counting.
Sampling uses a counter-based generator (Philox) keyed by an explicit seed so
that artifacts are reproducible across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .spinsys import InteractionMatrix, SizeGuardError

BRUTE_GIBBS_GUARD = 2_000_000
ENUMERATE_POINTS_GUARD = 16
# non-backtracking walks, n * delta * (delta - 1)^(L - 1) for L = min(kmax, n),
# that count_cycles may grow
CYCLE_WALK_GUARD = 2**24
# largest n whose edge keys u * n + v, at most n * n - 1, fit in int64
EDGE_KEY_MAX_N = math.isqrt(2**63 - 1)


@dataclass(frozen=True, eq=False)
class RegularGraph:
    """Multigraph with a target degree and optional vertex roles.  `edges` is
    a read-only (m, 2) int64 array in canonical order: u <= v in each row,
    rows sorted by the key u * n + v (lexicographically)."""

    n: int
    delta: int
    edges: np.ndarray
    roles: dict = field(default_factory=dict)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.reshape(-1), minlength=self.n)

    @cached_property
    def loop_split(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(u, v, loops): read-only endpoint arrays of the non-loop edges and
        the number of self-loops, computed on first use."""
        is_loop = self.edges[:, 0] == self.edges[:, 1]
        u, v = self.edges[~is_loop, 0], self.edges[~is_loop, 1]
        u.flags.writeable = False
        v.flags.writeable = False
        return u, v, int(np.count_nonzero(is_loop))


def make_graph(n: int, delta: int, edges, roles=None, strict: bool = True) -> RegularGraph:
    """Canonicalize the edge multiset.  With strict=True every vertex must
    have degree delta except root-role vertices with delta - 1; strict=False
    admits arbitrary multigraphs (delta records the max degree target, e.g.
    for the exact Swendsen-Wang test instances).

    The graph's one canonical order sorts the int64 key lo * n + hi of each
    edge (lo <= hi its endpoints), the key count_cycles reads X2 from; the
    rows are split back out of the sorted keys.  The key needs
    0 <= n <= EDGE_KEY_MAX_N (3_037_000_499); any other n raises ValueError."""
    if not 0 <= n <= EDGE_KEY_MAX_N:
        raise ValueError(f"n = {n} is outside 0..{EDGE_KEY_MAX_N}, the vertex counts whose edge keys fit in int64")
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    if lo.size and (lo.min() < 0 or hi.max() >= n):
        outside = (lo < 0) | (hi >= n)
        u, v = min(zip(lo[outside].tolist(), hi[outside].tolist()))
        raise ValueError(f"edge ({u}, {v}) outside vertex range")
    key = lo  # lo * n + hi, formed in place
    key *= n
    key += hi
    del hi  # freed before the output is allocated
    key.sort()
    norm = np.empty((key.size, 2), dtype=np.int64)
    np.divmod(key, n, out=(norm[:, 0], norm[:, 1]))
    norm.flags.writeable = False
    roles = dict(roles) if roles else {}
    for v in roles:
        if not 0 <= v < n:
            raise ValueError(f"role vertex {v} outside vertex range")
    g = RegularGraph(n=n, delta=delta, edges=norm, roles=roles)
    if strict:
        deg = g.degrees()
        want = np.full(n, delta)
        for v, r in roles.items():
            if r.startswith("root"):
                want[v] = delta - 1
        bad = np.nonzero(deg != want)[0]
        if bad.size:
            v = int(bad[0])
            raise ValueError(f"vertex {v} has degree {deg[v]}, expected {want[v]}")
    return g


def graph_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _check_pairing_size(n: int, delta: int) -> None:
    if n < 0 or delta < 0:
        raise ValueError(f"a pairing needs n >= 0 and delta >= 0, got n={n}, delta={delta}")
    if (n * delta) % 2 != 0:
        raise ValueError("delta * n must be even")


def sample_matching(n: int, delta: int, seed: int) -> np.ndarray:
    """Uniform perfect matching of the delta*n points as a (delta*n/2, 2)
    array of point pairs, deterministic per seed."""
    _check_pairing_size(n, delta)
    return graph_rng(seed).permutation(n * delta).reshape(-1, 2)


def pairing_sample(n: int, delta: int, seed: int) -> RegularGraph:
    """Uniform pairing of the delta*n points; vertex i owns points
    delta*i .. delta*i + delta - 1."""
    return make_graph(n, delta, sample_matching(n, delta, seed) // delta)


def enumerate_pairings(n: int, delta: int):
    """All (delta*n - 1)!! perfect matchings of the points, as graphs."""
    _check_pairing_size(n, delta)
    m = n * delta
    if m > ENUMERATE_POINTS_GUARD:
        raise SizeGuardError(f"{m} points exceed the enumeration guard {ENUMERATE_POINTS_GUARD}")

    def match(points):
        if not points:
            yield []
            return
        a = points[0]
        for k in range(1, len(points)):
            b = points[k]
            rest = points[1:k] + points[k + 1 :]
            for tail in match(rest):
                yield [(a, b)] + tail

    for pairing in match(list(range(m))):
        yield make_graph(n, delta, [(a // delta, b // delta) for a, b in pairing])


def _neighbor_table(g: RegularGraph) -> np.ndarray:
    """Point-level neighbor list: row v holds its delta neighbors, with each
    self-loop contributing v twice.  Only valid for fully delta-regular graphs.
    Each row lists the neighbors in edge order."""
    src = g.edges.reshape(-1)
    dst = g.edges[:, ::-1].reshape(-1)
    return dst[np.argsort(src, kind="stable")].reshape(g.n, g.delta)


def count_cycles(g: RegularGraph, kmax: int) -> np.ndarray:
    """X[k-1] = number of k-cycles, counted once per cyclic subgraph.

    X1 counts self-loops and X2 unordered pairs of parallel edges, found in
    the canonical edge order.  For k >= 3 walks over the point-level neighbor
    table are anchored at their minimum vertex, each held as one 1-D array per
    position, and each k-cycle closes twice (once per direction), which
    multiplies parallel edge multiplicities automatically.  The walk count is
    bounded by CYCLE_WALK_GUARD before any walk is grown.
    """
    if not 1 <= kmax <= 12:
        raise ValueError("cycle counting supported for 1 <= kmax <= 12")
    X = np.zeros(kmax, dtype=float)
    u, v, loops = g.loop_split
    X[0] = loops
    if kmax >= 2:
        # equal edges are adjacent, so edge i has i - (first index of its key)
        # earlier copies
        key = u * g.n + v
        X[1] = np.sum(np.arange(key.size) - np.searchsorted(key, key))
    if kmax < 3:
        return X
    if np.any(g.degrees() != g.delta):
        raise ValueError("cycle counting requires a fully delta-regular graph")
    # a walk visits distinct vertices, so none is longer than n
    longest = min(kmax, g.n)
    walks = g.n * g.delta * (g.delta - 1) ** max(longest - 1, 0)
    if walks > CYCLE_WALK_GUARD:
        raise SizeGuardError(f"{walks} walks of length {longest} exceed the cycle-walk guard")
    nbr = _neighbor_table(g)
    # walk[i] is vertex i of each walk: walk[0] is its minimum, the rest are
    # distinct; row r of ext holds the delta ways to extend walk r
    walk = [np.arange(g.n)]
    for length in range(1, kmax + 1):
        ext = nbr[walk[-1]]
        if length >= 3:
            X[length - 1] = np.count_nonzero(ext == walk[0][:, None]) / 2.0
        if length == kmax:  # only the closures are read at the last length
            break
        keep = ext > walk[0][:, None]
        for c in walk[1:]:
            keep &= ext != c[:, None]
        rows = keep.nonzero()[0]
        walk = [c[rows] for c in walk] + [ext[keep]]
    return X


# ---------------------------------------------------------------------------
# exact Gibbs oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GibbsOracle:
    """Exact partition function and the weight of every configuration."""

    Z: float
    weights: np.ndarray  # per configuration, indexed by sum_v color_v q^v

    def probabilities(self) -> np.ndarray:
        if self.Z == 0.0:
            raise ValueError("Z = 0: no configuration has positive weight, so there is no Gibbs distribution")
        return self.weights / self.Z


def all_colorings(n: int, q: int) -> np.ndarray:
    """All q^n colorings; row index equals sum_v color_v * q^v."""
    states = np.zeros((q**n, n), dtype=np.int64)
    for v in range(n):
        pattern = np.repeat(np.arange(q), q**v)
        states[:, v] = np.tile(pattern, q ** (n - v - 1))
    return states


def brute_gibbs(g: RegularGraph, model: InteractionMatrix) -> GibbsOracle:
    """Enumerate all configurations.  A self-loop at v contributes the weight
    B[c_v, c_v] once; the guard caps q^n at 2e6."""
    q = model.q
    if q**g.n > BRUTE_GIBBS_GUARD:
        raise SizeGuardError(f"{q}^{g.n} states exceed the exact-oracle guard")
    states = all_colorings(g.n, q)
    logw = np.zeros(len(states))
    with np.errstate(divide="ignore"):
        logB = np.log(model.entries)
    for u, v in g.edges:
        logw += logB[states[:, u], states[:, v]]
    weights = np.exp(logw)
    return GibbsOracle(Z=float(weights.sum()), weights=weights)


# ---------------------------------------------------------------------------
# gadget and reduction
# ---------------------------------------------------------------------------


def build_gadget(
    delta: int, trees_per_side: int, tree_depth: int, n_core: int, seed: int
) -> RegularGraph:
    """Bipartite gadget: delta random matchings between two sides of size
    n_core + m' minus an m'-matching, plus a (delta-1)-ary tree of the given
    depth per group of exposed vertices.  Tree roots end with degree delta-1,
    every other vertex with degree delta."""
    if delta < 2 or trees_per_side < 0 or tree_depth < 0:
        raise ValueError("a gadget needs delta >= 2 and nonnegative trees per side and tree depth")
    group = (delta - 1) ** tree_depth
    m_prime = trees_per_side * group
    if m_prime > n_core:
        raise ValueError("removed matching larger than the core (m' > n_core)")
    side = n_core + m_prime
    rng = graph_rng(seed)

    # side + vertices: 0..side-1; side - vertices: side..2*side-1
    perms = np.stack([rng.permutation(side) for _ in range(delta)])
    # remove an m'-matching from the last perfect matching
    removed = rng.choice(side, size=m_prime, replace=False)
    keep = np.ones(perms.shape, dtype=bool)
    keep[-1, removed] = False
    edges = [np.column_stack((np.nonzero(keep)[1], side + perms[keep]))]
    w_plus, w_minus = np.sort(removed), np.sort(side + perms[-1, removed])
    roles = dict.fromkeys(range(side), "Uplus") | dict.fromkeys(range(side, 2 * side), "Uminus")
    roles |= dict.fromkeys(w_plus.tolist(), "Wplus") | dict.fromkeys(w_minus.tolist(), "Wminus")

    # one (delta-1)-ary tree per group of W vertices, numbered tree by tree
    # and level by level; a tree of depth 0 is its single W vertex
    nxt = 2 * side
    roots = {}
    for pool, root_role in ((w_plus, "rootPlus"), (w_minus, "rootMinus")):
        for level in pool.reshape(trees_per_side, group):
            for _ in range(tree_depth):
                parents = nxt + np.arange(len(level) // (delta - 1))
                edges.append(np.column_stack((np.repeat(parents, delta - 1), level)))
                level, nxt = parents, nxt + len(parents)
            roots[int(level[0])] = root_role
    roles |= dict.fromkeys(range(2 * side, nxt), "treeInternal") | roots
    return make_graph(nxt, delta, np.concatenate(edges), roles)


def gadget_roots(g: RegularGraph, side: str) -> list[int]:
    role = "rootPlus" if side == "+" else "rootMinus"
    return sorted(v for v, r in g.roles.items() if r == role)


def build_reduction(h_edges, gadgets: list[RegularGraph]) -> RegularGraph:
    """Replace each vertex of H by a gadget and encode each H-edge as one edge
    between unused roots: + side of the lexicographically smaller endpoint's
    gadget, - side of the larger's."""
    h_edges = [tuple(sorted(e)) for e in h_edges]
    n_h = max((max(e) for e in h_edges), default=-1) + 1
    if len(gadgets) < n_h:
        raise ValueError("need one gadget per vertex of H")
    offsets = []
    total = 0
    delta = gadgets[0].delta
    edges = []
    roles = {}
    for g in gadgets:
        if g.delta != delta:
            raise ValueError("gadgets must share the degree")
        offsets.append(total)
        edges.append(g.edges + total)
        roles.update({v + total: r for v, r in g.roles.items()})
        total += g.n

    free_plus = [list(np.array(gadget_roots(g, "+")) + off) for g, off in zip(gadgets, offsets)]
    free_minus = [list(np.array(gadget_roots(g, "-")) + off) for g, off in zip(gadgets, offsets)]
    links = []
    for u, v in sorted(h_edges):
        if not free_plus[u] or not free_minus[v]:
            raise ValueError("gadget has too few roots for the degree of H")
        a = free_plus[u].pop(0)
        b = free_minus[v].pop(0)
        links.append((a, b))
        roles[a] = "Uplus"  # consumed roots are back to full degree
        roles[b] = "Uminus"
    edges.append(np.array(links, dtype=np.int64).reshape(-1, 2))
    return make_graph(total, delta, np.concatenate(edges), roles)


@dataclass(frozen=True)
class ReductionConstants:
    p: float
    A: float
    D: float
    Bstar: float

    def C_H(self, num_h_edges: int) -> float:
        return self.D**num_h_edges


def reduction_edge_weights(q: int, B: float, p: float) -> tuple[float, float]:
    """Expected weight of an inter-gadget edge when the two gadget phases are
    aligned (A) and when they differ (D), for root marginal p."""
    r = (1.0 - p) / (q - 1.0)
    A = 1.0 + (B - 1.0) * (p * p + (1.0 - p) * r)
    D = 1.0 + (B - 1.0) * (2.0 * p * r / (q - 1.0) + (q - 2.0) * r * r)
    return A, D


def reduction_constants(q: int, delta: int, B: float) -> ReductionConstants:
    """Effective edge weights between aligned (A) and misaligned (D) gadget
    phases, and the simulated activity Bstar = A/D of the reduction."""
    from .treefix import ordered_root_marginal, potts_thresholds

    th = potts_thresholds(q, delta)
    if not B > th.Bo:
        raise ValueError("reduction constants are defined in the ordered regime B > Bo")
    p = ordered_root_marginal(q, delta, B)
    A, D = reduction_edge_weights(q, B, p)
    return ReductionConstants(p=p, A=A, D=D, Bstar=A / D)


# ---------------------------------------------------------------------------
# graph file format
# ---------------------------------------------------------------------------


def graph_text(g: RegularGraph) -> str:
    """Text format: 'n delta' header, '# role v name' lines, one 'u v' edge
    per line (self-loop as 'v v', parallel edges repeated)."""
    lines = [f"{g.n} {g.delta}"]
    lines.extend(f"# role {v} {g.roles[v]}" for v in sorted(g.roles))
    lines.extend(f"{u} {v}" for u, v in g.edges.tolist())
    return "\n".join(lines) + "\n"


def _graph_fields(path, k: int, fields: list[str], form: str, types: tuple) -> tuple:
    """fields read with types, or a ValueError naming path, line k and form."""
    try:
        if len(fields) != len(types):
            raise ValueError
        return tuple(t(f) for t, f in zip(types, fields))
    except ValueError:
        raise ValueError(f"{path}, line {k}: expected {form}, got {' '.join(fields)!r}") from None


def read_graph(path) -> RegularGraph:
    """Parse the graph_text format; degrees are not checked (multigraphs,
    gadgets and reductions all load).  A comment whose second word is 'role'
    is a role line.  A header, edge or role line that does not parse raises
    a ValueError naming the file, the line number and the expected form."""
    roles = {}
    edges = []
    header = None
    with open(path) as fh:
        for k, raw in enumerate(fh, 1):
            parts = raw.split()
            if not parts:
                continue
            if parts[0].startswith("#"):
                if parts[:2] == ["#", "role"]:
                    form = "a role line '# role v name' with an integer v"
                    _, _, v, name = _graph_fields(path, k, parts, form, (str, str, int, str))
                    roles[v] = name
                continue
            if header is None:
                header = _graph_fields(path, k, parts, "a header 'n delta' of two integers", (int, int))
                continue
            edges.append(_graph_fields(path, k, parts, "an edge 'u v' of two integers", (int, int)))
    if header is None:
        raise ValueError(f"{path}: empty graph file")
    return make_graph(header[0], header[1], edges, roles, strict=False)
