import hashlib
import math
import warnings
from collections import Counter
from itertools import combinations, permutations

import numpy as np
import pytest

from potts_lab import graphs, moments
from potts_lab.graphs import (
    brute_gibbs,
    build_gadget,
    build_reduction,
    count_cycles,
    enumerate_pairings,
    graph_text,
    make_graph,
    pairing_sample,
    read_graph,
    reduction_constants,
    reduction_edge_weights,
    sample_matching,
)
from potts_lab.spinsys import SizeGuardError, build_potts_matrix, interaction_matrix
from potts_lab.treefix import potts_thresholds


def triangle():
    return make_graph(3, 2, [(0, 1), (1, 2), (0, 2)])


def test_pairing_sample_structure_and_determinism():
    g = pairing_sample(6, 3, seed=42)
    assert np.all(g.degrees() == 3)
    assert np.array_equal(g.edges, pairing_sample(6, 3, seed=42).edges)
    assert not np.array_equal(g.edges, pairing_sample(6, 3, seed=43).edges)
    with pytest.raises(ValueError):
        pairing_sample(3, 3, seed=0)


def test_edges_are_canonical_read_only_array():
    g = make_graph(4, 2, [(3, 0), (1, 0), (0, 0), (2, 1), (1, 1), (1, 0)], strict=False)
    assert g.edges.dtype == np.int64 and g.edges.shape == (6, 2)
    assert g.edges.tolist() == [[0, 0], [0, 1], [0, 1], [0, 3], [1, 1], [1, 2]]
    with pytest.raises(ValueError):
        g.edges[0, 0] = 1
    assert make_graph(3, 0, [], strict=False).edges.shape == (0, 2)


def test_make_graph_rejects_bad_edges_and_degrees():
    with pytest.raises(ValueError, match=r"edge \(1, 3\) outside vertex range"):
        make_graph(3, 2, [(0, 1), (3, 1)])
    # the message names the first bad edge in canonical order, not input order
    cases = [(3, [(0, 1), (5, 2), (3, 0)], (0, 3)), (3, [(2, 1), (-1, 0), (1, -4)], (-4, 1)), (0, [(0, 0)], (0, 0))]
    for n, edges, bad in cases:
        with pytest.raises(ValueError) as info:
            make_graph(n, 2, edges, strict=False)
        assert str(info.value) == f"edge {bad} outside vertex range"
    with pytest.raises(ValueError, match="vertex 0 has degree 1, expected 2"):
        make_graph(3, 2, [(0, 1), (1, 2)])
    # root-role vertices are held to delta - 1
    with pytest.raises(ValueError, match="vertex 2 has degree 1, expected 2"):
        make_graph(3, 2, [(0, 1), (1, 2)], roles={0: "rootPlus"})
    make_graph(3, 2, [(0, 1), (1, 2)], roles={0: "rootPlus", 2: "rootMinus"})
    for v in (3, -1):
        for strict in (True, False):
            with pytest.raises(ValueError, match=f"role vertex {v} outside vertex range"):
                make_graph(3, 2, [(0, 1), (1, 2), (0, 2)], roles={v: "rootPlus"}, strict=strict)


def _lexsort_canonical(edges):
    """Row sort plus two-key lexsort: the reference the one-key canonical
    order of make_graph must match byte for byte."""
    norm = np.sort(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=1)
    return norm[np.lexsort((norm[:, 1], norm[:, 0]))]


def test_canonical_order_matches_lexsort_reference():
    rng = np.random.default_rng(15)
    cases = [(0, []), (1, []), (5, []), (1, [(0, 0)]), (1, [(0, 0)] * 3), (2, [(1, 0), (0, 1), (1, 1)])]
    for n in (2, 3, 7, 50, 1000):
        for m in (1, 2, 9, 200):
            edges = rng.integers(0, n, size=(m, 2))
            # self-loops, parallel edges in both orientations
            edges[: m // 4, 1] = edges[: m // 4, 0]
            edges = np.concatenate((edges, edges[: m // 3, ::-1], edges[: m // 5]))
            cases.append((n, rng.permutation(edges)))
    assert sum(np.any(e[:, 0] == e[:, 1]) for _, e in cases[6:]) >= 10
    for n, edges in cases:
        g = make_graph(n, 3, edges, strict=False)
        want = _lexsort_canonical(edges)
        assert g.edges.dtype == np.int64 and g.edges.shape == want.shape == (len(edges), 2)
        assert g.edges.tobytes() == want.tobytes(), (n, edges)
        assert not g.edges.flags.writeable
    g = pairing_sample(2000, 3, seed=4)
    assert g.edges.tobytes() == _lexsort_canonical(sample_matching(2000, 3, seed=4) // 3).tobytes()


def test_make_graph_guards_the_edge_key_range():
    top = graphs.EDGE_KEY_MAX_N
    assert top == 3_037_000_499 and top * top - 1 < 2**63 <= (top + 1) * (top + 1) - 1
    # the largest key, n * n - 1, still splits back exactly
    edges = [(top - 1, top - 1), (top - 1, 0), (top - 2, top - 1), (0, top - 1)]
    g = make_graph(top, 3, edges, strict=False)
    assert g.edges.tolist() == [[0, top - 1], [0, top - 1], [top - 2, top - 1], [top - 1, top - 1]]
    for n, edges in ((top + 1, [(top, 0)]), (10**10, [(10**10 - 1, 0)]), (-1, [])):
        with pytest.raises(ValueError) as info:
            make_graph(n, 3, edges, strict=False)
        assert str(info.value) == f"n = {n} is outside 0..3037000499, the vertex counts whose edge keys fit in int64"


def test_single_vertex_forced_loop():
    g = pairing_sample(1, 2, seed=0)
    assert g.edges.tolist() == [[0, 0]]


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_pairings(2, 3)) == 15
    assert sum(1 for _ in enumerate_pairings(2, 2)) == 3
    assert abs(moments._log_pairings(11 + 1) - math.log(10395)) < 1e-12
    assert sum(1 for _ in enumerate_pairings(4, 3)) == 10395
    with pytest.raises(SizeGuardError):
        next(enumerate_pairings(6, 3))


def test_pairing_uniformity_chi_square():
    counts = Counter()
    n_samples = 150000
    for i in range(n_samples):
        pairs = sample_matching(2, 3, seed=900000 + i)
        counts[tuple(sorted(tuple(sorted(p)) for p in pairs))] += 1
    assert len(counts) == 15
    expected = n_samples / 15
    sigma = math.sqrt(n_samples * (1 / 15) * (14 / 15))
    values = np.array(list(counts.values()))
    assert np.max(np.abs(values - expected)) < 3 * sigma


def _reference_cycles(g, kmax):
    """Brute-force cycle counter used as an independent oracle."""
    mult = Counter()
    loops = 0
    for u, v in g.edges:
        if u == v:
            loops += 1
        else:
            mult[(u, v)] += 1
    X = [0.0] * kmax
    X[0] = loops
    if kmax >= 2:
        X[1] = sum(m * (m - 1) // 2 for m in mult.values())

    def edge_mult(a, b):
        return mult.get((min(a, b), max(a, b)), 0)

    for k in range(3, kmax + 1):
        total = 0
        for verts in combinations(range(g.n), k):
            for rest in permutations(verts[1:]):
                cyc = (verts[0],) + rest
                prod = 1
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    prod *= edge_mult(a, b)
                total += prod
        X[k - 1] = total / 2
    return np.array(X)


def test_count_cycles_examples():
    assert np.array_equal(count_cycles(triangle(), 4), [0, 0, 1, 0])
    de = make_graph(2, 2, [(0, 1), (0, 1)])
    assert np.array_equal(count_cycles(de, 3), [0, 1, 0])
    loop = make_graph(1, 2, [(0, 0)])
    assert count_cycles(loop, 2)[0] == 1
    for kmax in (1, 2, 4):
        assert np.array_equal(count_cycles(make_graph(0, 3, []), kmax), np.zeros(kmax))


def test_count_cycles_against_reference():
    with_loop = with_parallel_pair = 0
    for delta, n in ((3, 6), (3, 8), (4, 5), (4, 6), (5, 4), (5, 6)):
        for seed in range(10):
            g = pairing_sample(n, delta, seed=seed)
            ref = _reference_cycles(g, 6)
            with_loop += ref[0] > 0
            with_parallel_pair += ref[1] > 0
            for kmax in range(1, 7):
                assert np.array_equal(count_cycles(g, kmax), ref[:kmax]), (delta, n, seed, kmax)
    assert with_loop >= 10 and with_parallel_pair >= 10


def test_count_cycles_walk_guard(monkeypatch):
    g = pairing_sample(2000, 3, seed=0)
    # the default bound admits every length at n = 2000, delta = 3
    assert count_cycles(g, 12).shape == (12,)
    k33 = make_graph(6, 3, [(a, b) for a in range(3) for b in range(3, 6)])
    k4 = make_graph(4, 3, list(combinations(range(4), 2)))
    monkeypatch.setattr(graphs, "CYCLE_WALK_GUARD", 6 * 3 * 2**3)
    assert np.array_equal(count_cycles(k33, 4), [0, 0, 0, 9])
    # no walk is longer than n, so K4 is bounded by its length-4 walks
    assert np.array_equal(count_cycles(k4, 12), [0, 0, 4, 3] + [0] * 8)

    def no_walks(g):
        raise AssertionError("the walk stage started")

    monkeypatch.setattr(graphs, "_neighbor_table", no_walks)
    with pytest.raises(SizeGuardError, match=r"^288 walks of length 5 exceed the cycle-walk guard$"):
        count_cycles(k33, 5)
    # lengths 1 and 2 grow no walks
    assert np.array_equal(count_cycles(k33, 2), [0, 0])


def test_count_cycles_guard():
    for kmax in (13, 0, -1):
        with pytest.raises(ValueError, match=r"^cycle counting supported for 1 <= kmax <= 12$"):
            count_cycles(triangle(), kmax)


def test_cycle_poisson_means_small_sample():
    total = np.zeros(4)
    n_samples = 400
    for i in range(n_samples):
        total += count_cycles(pairing_sample(2000, 3, seed=7000 + i), 4)
    lam = np.array([2.0**i / (2 * i) for i in range(1, 5)])
    rel = np.abs(total / n_samples - lam) / lam
    # generous Poisson tolerance at 400 samples; the acceptance run uses 5000
    assert np.all(rel < 0.2)


def _phase_table(g, model):
    """Z restricted to each phase: the weights of brute_gibbs summed state by
    state, keyed by the colour counts."""
    o = brute_gibbs(g, model)
    table: dict = {}
    for state, w in zip(graphs.all_colorings(g.n, model.q), o.weights):
        key = tuple(np.bincount(state, minlength=model.q).tolist())
        table[key] = table.get(key, 0.0) + w
    return o, table


def test_brute_gibbs_examples():
    m = build_potts_matrix(2, 2.0)
    o, table = _phase_table(triangle(), m)
    assert abs(o.Z - 28.0) < 1e-12
    assert abs(sum(table.values()) - o.Z) < 1e-12

    k2 = make_graph(2, 1, [(0, 1)], strict=False)
    o2 = brute_gibbs(k2, m)
    assert abs(o2.Z - 6.0) < 1e-12
    mono = o2.probabilities()[0] + o2.probabilities()[3]
    assert abs(mono - 4 / 6) < 1e-12

    ones = interaction_matrix(np.ones((2, 2)))
    assert abs(brute_gibbs(triangle(), ones).Z - 2**3) < 1e-12

    # proper 3-colourings: a zero entry gives its states weight exactly 0
    o3 = brute_gibbs(triangle(), interaction_matrix(np.ones((3, 3)) - np.eye(3)))
    states = graphs.all_colorings(3, 3)
    proper = np.all(states[:, [0, 1, 0]] != states[:, [1, 2, 2]], axis=1)
    assert o3.Z == 6.0
    assert np.all(o3.weights[~proper] == 0.0)


def test_gibbs_probabilities_reject_z_zero():
    # a self-loop admits no proper 3-colouring, so every state weighs 0
    o = brute_gibbs(pairing_sample(6, 3, seed=2), interaction_matrix(np.ones((3, 3)) - np.eye(3)))
    assert o.Z == 0.0 and not o.weights.any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^Z = 0: "):
            o.probabilities()


def test_brute_gibbs_phase_permutation_symmetry():
    _, table = _phase_table(triangle(), build_potts_matrix(3, 2.5))
    for counts, z in table.items():
        for perm in permutations(range(3)):
            permuted = tuple(counts[p] for p in perm)
            assert abs(table[permuted] - z) < 1e-12


@pytest.mark.parametrize(
    "g, model",
    [
        (pairing_sample(8, 3, seed=1), build_potts_matrix(3, 2.0)),
        (pairing_sample(6, 3, seed=2), interaction_matrix(np.ones((3, 3)) - np.eye(3))),
        (pairing_sample(6, 3, seed=4), interaction_matrix(np.array([[3, 1, 0.5], [1, 2, 1], [0.5, 1, 2.5]]))),
        (triangle(), build_potts_matrix(32, 2.0)),
    ],
    ids=["potts", "colorings", "general", "q32"],
)
def test_phase_table_sums_to_z(g, model):
    o, table = _phase_table(g, model)
    assert abs(sum(table.values()) - o.Z) <= 1e-12 * o.Z


def test_brute_gibbs_guard():
    g = pairing_sample(30, 2, seed=1)
    with pytest.raises(SizeGuardError):
        brute_gibbs(g, build_potts_matrix(3, 2.0))


def test_pairing_mean_matches_first_moment_small():
    m = build_potts_matrix(2, 2.0)
    total = 0.0
    count = 0
    for g in enumerate_pairings(2, 3):
        total += _phase_table(g, m)[1].get((1, 1), 0.0)
        count += 1
    mean = total / count
    exact = moments.first_moment_exact(2, 3, m, [0.5, 0.5])
    assert abs(mean - exact) < 1e-12 * abs(mean)


def test_gadget_structure():
    g = build_gadget(3, trees_per_side=2, tree_depth=2, n_core=16, seed=1)
    deg = g.degrees()
    roots = [v for v, r in g.roles.items() if r.startswith("root")]
    assert len(roots) == 4  # 2 per side
    assert all(deg[v] == 2 for v in roots)
    assert all(deg[v] == 3 for v in range(g.n) if v not in roots)
    m_prime = 2 * (3 - 1) ** 2
    assert sum(1 for r in g.roles.values() if r == "Wplus") == m_prime
    assert sum(1 for r in g.roles.values() if r == "Wminus") == m_prime


def test_gadget_minimal():
    g = build_gadget(3, trees_per_side=1, tree_depth=1, n_core=4, seed=0)
    roots = [v for v, r in g.roles.items() if r.startswith("root")]
    assert len(roots) == 2
    for root in roots:
        neighbors = [v for (u, v) in g.edges if u == root] + [
            u for (u, v) in g.edges if v == root
        ]
        assert len(neighbors) == 2


def _is_bipartite(g):
    color = {}
    for start in range(g.n):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        adj = {}
        for u, v in g.edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        while stack:
            u = stack.pop()
            for v in adj.get(u, []):
                if v not in color:
                    color[v] = 1 - color[u]
                    stack.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def test_gadget_bipartite():
    for seed in range(3):
        g = build_gadget(3, trees_per_side=2, tree_depth=1, n_core=5, seed=seed)
        assert _is_bipartite(g)


def test_gadget_divisibility_guard():
    with pytest.raises(ValueError):
        build_gadget(3, trees_per_side=3, tree_depth=2, n_core=8, seed=0)


@pytest.mark.parametrize("args", [(3, -1, 1, 10), (3, 1, -1, 10), (1, 1, 1, 4), (0, 1, 1, 4)])
def test_gadget_rejects_bad_shapes(args):
    with pytest.raises(ValueError, match="^a gadget needs delta >= 2 and nonnegative trees"):
        build_gadget(*args, seed=0)


# SHA-256 of graph_text for gadgets and reductions that must stay
# bit-identical for fixed seeds: (delta, trees_per_side, tree_depth, n_core,
# seed), with the CLI `gadget` example first
PINNED_GADGETS = {
    (3, 2, 2, 16, 3): "f5c73ff592846d6b04f919a12991054fd5239407286031d6c595653733e0aab9",
    (3, 1, 1, 4, 0): "13013c040913bd05aae3a00f4b1122251cf717bf36683a11b661602bbfe5d1c8",
    (2, 3, 2, 10, 5): "070b629c37aae601523606c2743a32bb7cdc538830858175b3cb16ecaf75b786",
    (4, 2, 2, 40, 7): "d0c4f4f9523850c6e183a597c6ceff13a3ab6ff7bf108a2456b2481daa417e6c",
    (5, 1, 1, 9, 11): "8e0308f0162ce56ca42ed376db1e8c19cceaf8e3a54715d7e9449f897c06aa39",
    (3, 0, 0, 6, 2): "4204eb97b8a773ad210facd40c9ee6d27038aab6ef66a2d6d2d4c4764947764f",
    (4, 0, 3, 5, 1): "0b743b08a463f82878f05e994032a0075b7e6784d10d2f078ecd580d4894e77b",
}
# the CLI `reduce` example (H a triangle, gadget seeds 3 ^ v) and a path-like H
PINNED_REDUCTIONS = {
    "triangle": "522e9a7c04d265dd925fa466cdc719a7d21bd9e4bf6fca7691ac9cf1823dbdc2",
    "tree": "0f74396924ced7a4ac5012f765acae3425c3305062e13c32ff53b459235164ac",
}


def test_gadget_and_reduction_match_pinned_digests():
    def sha(g):
        return hashlib.sha256(graph_text(g).encode()).hexdigest()

    for args, digest in PINNED_GADGETS.items():
        assert sha(build_gadget(*args)) == digest, args
    triangle_h = build_reduction(
        [(0, 1), (1, 2), (0, 2)], [build_gadget(3, 2, 1, 4, 3 ^ v) for v in range(3)]
    )
    assert sha(triangle_h) == PINNED_REDUCTIONS["triangle"]
    tree_h = build_reduction(
        [(0, 1), (0, 2), (1, 3)], [build_gadget(4, 2, 1, 12, 9 ^ v) for v in range(4)]
    )
    assert sha(tree_h) == PINNED_REDUCTIONS["tree"]


def test_reduction_single_edge_and_triangle():
    gadgets = [build_gadget(3, 2, 1, 5, seed=s) for s in range(2)]
    hg = build_reduction([(0, 1)], gadgets)
    inter = len(hg.edges) - sum(len(g.edges) for g in gadgets)
    assert inter == 1
    assert np.max(hg.degrees()) == 3
    assert _is_bipartite(hg)

    gadgets = [build_gadget(3, 2, 1, 5, seed=s) for s in range(3)]
    hg = build_reduction([(0, 1), (1, 2), (0, 2)], gadgets)
    gadget_edge_keys = set()
    for g, off in zip(gadgets, np.cumsum([0] + [g.n for g in gadgets[:-1]])):
        gadget_edge_keys.update((u + off, v + off) for u, v in g.edges)
    inter = [e for e in map(tuple, hg.edges.tolist()) if e not in gadget_edge_keys]
    assert len(inter) == 3
    endpoints = [v for e in inter for v in e]
    assert len(set(endpoints)) == len(endpoints)  # mutually distinct roots
    assert _is_bipartite(hg)


def test_reduction_empty_h_is_disjoint_union():
    gadgets = [build_gadget(3, 1, 1, 4, seed=s) for s in range(2)]
    hg = build_reduction([], gadgets)
    assert len(hg.edges) == sum(len(g.edges) for g in gadgets)
    # partition-function multiplicativity over disjoint pieces, checked on a
    # tiny disjoint union that the exact oracle can handle
    tri = triangle()
    k2 = make_graph(2, 1, [(0, 1)], strict=False)
    union = make_graph(5, 2, list(tri.edges) + [(3, 4)], strict=False)
    m = build_potts_matrix(2, 2.0)
    z = brute_gibbs(union, m).Z
    assert abs(z - brute_gibbs(tri, m).Z * brute_gibbs(k2, m).Z) < 1e-10


def test_reduction_runs_out_of_roots():
    gadgets = [build_gadget(3, 1, 1, 4, seed=s) for s in range(2)]
    with pytest.raises(ValueError):
        build_reduction([(0, 1), (0, 1)], gadgets)


def test_reduction_edge_weights_limits():
    # perfect alignment: A = B, D = 1
    A, D = reduction_edge_weights(3, 4.2, 1.0)
    assert A == 4.2 and D == 1.0
    # infinite temperature: everything is 1
    A, D = reduction_edge_weights(3, 1.0, 0.7)
    assert A == 1.0 and D == 1.0


def test_reduction_constants_regime():
    th = potts_thresholds(3, 3)
    with pytest.raises(ValueError):
        reduction_constants(3, 3, th.Bo - 0.01)
    prev = None
    for B in np.linspace(th.Bo + 1e-6, 2 * th.Bo, 12):
        rc = reduction_constants(3, 3, float(B))
        assert rc.Bstar > 1.0
        if prev is not None:
            assert rc.Bstar > prev
        prev = rc.Bstar
    big = reduction_constants(3, 3, 1e4)
    assert abs(big.A / 1e4 - 1) < 1e-3 and abs(big.D - 1) < 1e-3
    assert rc.C_H(3) == rc.D**3


def test_graph_file_roundtrip(tmp_path):
    g = build_gadget(3, 1, 1, 4, seed=9)
    path = tmp_path / "g.graph"
    path.write_text(graph_text(g))
    back = read_graph(path)
    assert back.n == g.n and back.delta == g.delta
    assert np.array_equal(back.edges, g.edges)
    assert back.roles == g.roles
    assert graph_text(back) == path.read_text()


def test_handshake_on_generated_graphs():
    for seed in range(5):
        g = pairing_sample(10, 4, seed=seed)
        assert int(g.degrees().sum()) == 4 * 10
