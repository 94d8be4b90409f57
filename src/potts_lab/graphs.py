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

import numpy as np

from .spinsys import InteractionMatrix, SizeGuardError

ROLE_NAMES = (
    "Uplus",
    "Uminus",
    "Wplus",
    "Wminus",
    "treeInternal",
    "rootPlus",
    "rootMinus",
)

BRUTE_GIBBS_GUARD = 2_000_000
ENUMERATE_POINTS_GUARD = 16


@dataclass(frozen=True, eq=False)
class RegularGraph:
    """Multigraph with a target degree and optional vertex roles.  `edges` is
    a read-only (m, 2) int64 array in canonical order: u <= v in each row,
    rows sorted lexicographically."""

    n: int
    delta: int
    edges: np.ndarray
    roles: dict = field(default_factory=dict)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges[:, 0], minlength=self.n) + np.bincount(
            self.edges[:, 1], minlength=self.n
        )

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def make_graph(n: int, delta: int, edges, roles=None, strict: bool = True) -> RegularGraph:
    """Canonicalize the edge multiset (sorted pairs).  With strict=True every
    vertex must have degree delta except root-role vertices with delta - 1;
    strict=False admits arbitrary multigraphs (delta records the max degree
    target, e.g. for the exact Swendsen-Wang test instances)."""
    norm = np.sort(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=1)
    norm = norm[np.lexsort((norm[:, 1], norm[:, 0]))]
    norm.flags.writeable = False
    outside = np.nonzero((norm[:, 0] < 0) | (norm[:, 1] >= n))[0]
    if outside.size:
        u, v = norm[outside[0]].tolist()
        raise ValueError(f"edge ({u}, {v}) outside vertex range")
    roles = dict(roles) if roles else {}
    g = RegularGraph(n=n, delta=delta, edges=norm, roles=roles)
    if strict:
        deg = g.degrees()
        want = np.full(n, delta)
        want[[v for v, r in roles.items() if 0 <= v < n and r.startswith("root")]] = delta - 1
        bad = np.nonzero(deg != want)[0]
        if bad.size:
            v = int(bad[0])
            raise ValueError(f"vertex {v} has degree {deg[v]}, expected {want[v]}")
    return g


def graph_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def sample_matching(n: int, delta: int, seed: int) -> np.ndarray:
    """Uniform perfect matching of the delta*n points as a (delta*n/2, 2)
    array of point pairs, deterministic per seed."""
    if (n * delta) % 2 != 0:
        raise ValueError("delta * n must be even")
    return graph_rng(seed).permutation(n * delta).reshape(-1, 2)


def pairing_sample(n: int, delta: int, seed: int) -> RegularGraph:
    """Uniform pairing of the delta*n points; vertex i owns points
    delta*i .. delta*i + delta - 1."""
    return make_graph(n, delta, sample_matching(n, delta, seed) // delta)


def enumerate_pairings(n: int, delta: int):
    """All (delta*n - 1)!! perfect matchings of the points, as graphs."""
    m = n * delta
    if m % 2 != 0:
        raise ValueError("delta * n must be even")
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


def double_factorial_pairings(m: int) -> int:
    """Number of perfect matchings of m points."""
    return math.factorial(m) // (math.factorial(m // 2) * 2 ** (m // 2))


def _neighbor_table(g: RegularGraph) -> np.ndarray:
    """Point-level neighbor list: row v holds its delta neighbors, with each
    self-loop contributing v twice.  Only valid for fully delta-regular graphs.
    Each row lists the neighbors in edge order."""
    src = g.edges.reshape(-1)
    dst = g.edges[:, ::-1].reshape(-1)
    return dst[np.argsort(src, kind="stable")].reshape(g.n, g.delta)


def count_cycles(g: RegularGraph, kmax: int) -> np.ndarray:
    """X[k-1] = number of k-cycles, counted once per cyclic subgraph.

    X1 counts self-loops and X2 unordered pairs of parallel edges; for k >= 3
    closed walks over the point-level neighbor table are anchored at their
    minimum vertex and de-duplicated by direction, which multiplies parallel
    edge multiplicities automatically.
    """
    if kmax > 12:
        raise ValueError("cycle counting supported for kmax <= 12")
    X = np.zeros(kmax, dtype=float)
    is_loop = g.edges[:, 0] == g.edges[:, 1]
    X[0] = np.count_nonzero(is_loop)
    if kmax >= 2:
        _, mult = np.unique(g.edges[~is_loop], axis=0, return_counts=True)
        X[1] = np.sum(mult * (mult - 1) // 2)
    if kmax < 3:
        return X
    if np.any(g.degrees() != g.delta):
        raise ValueError("cycle counting requires a fully delta-regular graph")
    nbr = _neighbor_table(g)
    # paths hold walks (v0, ..., vL) with v0 minimal and intermediates distinct
    paths = np.arange(g.n, dtype=np.int64)[:, None]
    for length in range(1, kmax + 1):
        ext = nbr[paths[:, -1]].reshape(-1)
        grown = np.repeat(paths, g.delta, axis=0)
        cand = np.concatenate([grown, ext[:, None]], axis=1)
        if length >= 3:
            # each cycle closes exactly twice: once per direction
            X[length - 1] = float(np.count_nonzero(cand[:, -1] == cand[:, 0])) / 2.0
        keep = cand[:, -1] > cand[:, 0]
        for col in range(1, cand.shape[1] - 1):
            keep &= cand[:, -1] != cand[:, col]
        paths = cand[keep]
        if len(paths) == 0:
            break
    return X


# ---------------------------------------------------------------------------
# exact Gibbs oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GibbsOracle:
    """Exact partition function with phase- and edge-restricted tables."""

    graph: RegularGraph
    q: int
    matrix: np.ndarray
    Z: float
    weights: np.ndarray  # per configuration, indexed by sum_v color_v q^v
    z_by_phase: dict
    z_by_phase_edges: dict

    def probabilities(self) -> np.ndarray:
        return self.weights / self.Z

    def z_alpha(self, counts) -> float:
        return self.z_by_phase.get(tuple(int(c) for c in counts), 0.0)


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
    weights[np.isnan(weights)] = 0.0  # 0-weight edges force impossible states

    counts = np.zeros((len(states), q), dtype=np.int64)
    for c in range(q):
        counts[:, c] = np.sum(states == c, axis=1)

    edge_vec = np.zeros((len(states), q * (q + 1) // 2), dtype=np.int64)
    rows = np.arange(len(states))
    for u, v in g.edges:
        cu, cv = states[:, u], states[:, v]
        lo, hi = np.minimum(cu, cv), np.maximum(cu, cv)
        flat = lo * q - lo * (lo - 1) // 2 + (hi - lo)
        np.add.at(edge_vec, (rows, flat), 1)

    z_by_phase: dict = {}
    z_by_phase_edges: dict = {}
    for idx in range(len(states)):
        key = tuple(counts[idx])
        z_by_phase[key] = z_by_phase.get(key, 0.0) + weights[idx]
        key2 = (key, tuple(edge_vec[idx]))
        z_by_phase_edges[key2] = z_by_phase_edges.get(key2, 0.0) + weights[idx]

    return GibbsOracle(
        graph=g,
        q=q,
        matrix=model.entries,
        Z=float(weights.sum()),
        weights=weights,
        z_by_phase=z_by_phase,
        z_by_phase_edges=z_by_phase_edges,
    )


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
    group = (delta - 1) ** tree_depth
    m_prime = trees_per_side * group
    if m_prime > n_core:
        raise ValueError("removed matching larger than the core (m' > n_core)")
    side = n_core + m_prime
    rng = graph_rng(seed)

    # side + vertices: 0..side-1; side - vertices: side..2*side-1
    edges = []
    matchings = []
    for _ in range(delta):
        perm = rng.permutation(side)
        matchings.append(perm)
        edges.extend((u, side + int(perm[u])) for u in range(side))
    # remove an m'-matching from the last perfect matching
    removed = rng.choice(side, size=m_prime, replace=False)
    removed_set = {(int(u), side + int(matchings[-1][u])) for u in removed}
    for e in removed_set:
        edges.remove(e)

    roles = {}
    w_plus = sorted(int(u) for u in removed)
    w_minus = sorted(side + int(matchings[-1][u]) for u in removed)
    wp, wm = set(w_plus), set(w_minus)
    for v in range(side):
        roles[v] = "Wplus" if v in wp else "Uplus"
    for v in range(side, 2 * side):
        roles[v] = "Wminus" if v in wm else "Uminus"

    next_vertex = 2 * side

    def attach_trees(leaf_pool, root_role):
        nonlocal next_vertex
        for t in range(trees_per_side):
            leaves = leaf_pool[t * group : (t + 1) * group]
            level = list(leaves)
            depth_left = tree_depth
            while depth_left > 0:
                parents = []
                for k in range(0, len(level), delta - 1):
                    p = next_vertex
                    next_vertex += 1
                    roles[p] = "treeInternal"
                    parents.append(p)
                    for child in level[k : k + delta - 1]:
                        edges.append((p, child))
                level = parents
                depth_left -= 1
            assert len(level) == 1
            roles[level[0]] = root_role

    attach_trees(w_plus, "rootPlus")
    attach_trees(w_minus, "rootMinus")
    return make_graph(next_vertex, delta, edges, roles)


def gadget_parameters_for(n: int, delta: int, theta: float = 1 / 16, psi: float = 1 / 16):
    """Desk-scale gadget sizing from the asymptotic exponents: n^theta trees
    of depth psi*log_(delta-1) n on a size-n core.  Returns
    (trees_per_side, tree_depth, n_core)."""
    if not (0 < theta < 1 / 8 and 0 < psi < 1 / 8):
        raise ValueError("exponents must lie in (0, 1/8)")
    base = delta - 1
    trees = base ** int(math.floor(theta * math.log(n, base)))
    depth = int(math.floor(psi * math.log(n, base)))
    return max(1, trees), max(1, depth), n


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


def write_graph(g: RegularGraph, path) -> None:
    with open(path, "w") as fh:
        fh.write(graph_text(g))


def read_graph(path, strict: bool = False) -> RegularGraph:
    roles = {}
    edges = []
    header = None
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line.split()
                if len(parts) == 4 and parts[1] == "role":
                    roles[int(parts[2])] = parts[3]
                continue
            if header is None:
                n, delta = line.split()
                header = (int(n), int(delta))
                continue
            u, v = line.split()
            edges.append((int(u), int(v)))
    if header is None:
        raise ValueError("empty graph file")
    return make_graph(header[0], header[1], edges, roles, strict=strict)
