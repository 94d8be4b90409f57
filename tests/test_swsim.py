import hashlib

import numpy as np
import pytest

from potts_lab.graphs import all_colorings, make_graph, pairing_sample
from potts_lab.spinsys import SizeGuardError
from potts_lab.swsim import (
    SWState,
    chain_rng,
    classify_UMT,
    components,
    conductance,
    default_epsilon,
    exact_sw_kernel,
    expected_mono,
    gibbs_distribution,
    initial_state,
    mono_edge_count,
    ordered_phase_vector,
    phase_cut,
    phase_of,
    run_chain,
    sw_gap_check,
    sw_step,
)
from potts_lab.treefix import potts_thresholds


def triangle():
    return make_graph(3, 2, [(0, 1), (1, 2), (0, 2)])


def k2():
    return make_graph(2, 1, [(0, 1)], strict=False)


def test_sw_step_validation_and_trivial_cases():
    rng = chain_rng(0)
    state = SWState(colors=np.array([0, 0]), mono_edges=1)
    with pytest.raises(ValueError):
        sw_step(k2(), 2, 0.5, state, rng)
    # q = 1: the chain is constant
    s = SWState(colors=np.zeros(3, dtype=np.int64), mono_edges=3)
    for _ in range(5):
        s = sw_step(triangle(), 1, 2.0, s, rng)
        assert np.all(s.colors == 0)


@pytest.mark.parametrize("B", [0.5, 0.0, float("nan")])
def test_sw_rejects_activity_below_one_before_drawing(B):
    g = k2()
    rng = chain_rng(0)
    with pytest.raises(ValueError, match="B >= 1"):
        sw_step(g, 2, B, SWState(colors=np.array([0, 0]), mono_edges=1), rng)
    assert rng.random() == chain_rng(0).random()
    with pytest.raises(ValueError, match="B >= 1"):
        run_chain(g, 2, B, steps=3)
    with pytest.raises(ValueError, match="B >= 1"):
        exact_sw_kernel(g, 2, B)


def test_sw_step_k2_transition_probability():
    # P((0,0) -> (0,0)) = (1/2)(1/2) + (1/2)(1/4) = 3/8 at B = 2
    g = k2()
    rng = chain_rng(77)
    state = SWState(colors=np.array([0, 0]), mono_edges=1)
    hits = 0
    n = 120000
    for _ in range(n):
        nxt = sw_step(g, 2, 2.0, state, rng)
        hits += int(np.all(nxt.colors == 0))
    assert abs(hits / n - 0.375) < 0.006  # > 4 sigma margin


def test_sw_step_B1_uniform_refresh():
    g = triangle()
    rng = chain_rng(3)
    state = SWState(colors=np.array([0, 0, 0]), mono_edges=3)
    counts = np.zeros(8)
    n = 80000
    for _ in range(n):
        nxt = sw_step(g, 2, 1.0, state, rng)
        counts[int(nxt.colors @ np.array([1, 2, 4]))] += 1
    assert np.max(np.abs(counts / n - 1 / 8)) < 0.006


def test_empirical_chain_matches_exact_stationary():
    g = triangle()
    q, B = 3, 2.5
    pi = gibbs_distribution(g, q, B)
    rng = chain_rng(7)
    state = SWState(colors=np.array([0, 1, 2]), mono_edges=0)
    counts = np.zeros(27)
    n = 200000
    powers = 3 ** np.arange(3)
    for _ in range(n):
        state = sw_step(g, q, B, state, rng)
        counts[int(state.colors @ powers)] += 1
    assert np.max(np.abs(counts / n - pi)) < 0.005


def test_mono_cache_coherence():
    g = pairing_sample(30, 3, seed=4)
    rng = chain_rng(9)
    colors = rng.integers(0, 3, size=30)
    state = SWState(colors=colors, mono_edges=mono_edge_count(g, colors))
    for i in range(100000):
        state = sw_step(g, 3, 2.2, state, rng)
        if i < 2000 or i % 97 == 0:
            assert state.mono_edges == mono_edge_count(g, state.colors)
    assert state.mono_edges == mono_edge_count(g, state.colors)


def test_phase_of():
    assert phase_of(np.array([2, 2, 2]), 3) == 2
    # tie between colors 0 and 2 resolves to the lowest index
    assert phase_of(np.array([0, 0, 2, 2, 1]), 3) == 0


def test_expected_mono_values():
    E_u, E_m = expected_mono(3, 3, 2.0)
    assert abs(E_u - 0.75) < 1e-12
    assert E_m is None

    th = potts_thresholds(3, 3)
    E_u, E_m = expected_mono(3, 3, th.Bo)
    assert abs(E_u - 0.98695) < 1e-4
    assert abs(E_m - 1.0901) < 1e-4

    th6 = potts_thresholds(6, 3)
    E_u, E_m = expected_mono(6, 3, th6.Bo)
    assert abs(E_u - 0.79471) < 1e-4
    assert abs(E_m - 1.2099) < 1e-4


def test_gap_check_examples():
    g6 = sw_gap_check(6, 3)
    assert g6.holds and abs(g6.ratio - 1.5225) < 1e-3 and abs(g6.threshold - 1.2158) < 1e-3
    g3 = sw_gap_check(3, 3)
    assert not g3.holds and abs(g3.ratio - 1.105) < 1e-3 and abs(g3.threshold - 1.3512) < 1e-3


def test_gap_check_guaranteed_region_small():
    import math

    for delta in (3, 4, 5):
        q_min = math.ceil(2 * delta / math.log(delta))
        for q in range(q_min, q_min + 4):
            assert sw_gap_check(q, delta).holds


def test_gap_check_is_one_step_mono_retention():
    # algebraic restatement: the check holds exactly when the expected kept
    # monochromatic edges from the ordered band exceed the disordered level
    for q in range(3, 12):
        for delta in (3, 4, 5):
            Bo = potts_thresholds(q, delta).Bo
            E_u, E_m = expected_mono(q, delta, Bo)
            assert sw_gap_check(q, delta).holds == ((1 - 1 / Bo) * E_m > E_u)


def test_ordered_phase_vector():
    th = potts_thresholds(6, 3)
    vec = ordered_phase_vector(6, 3, th.Bo)
    assert abs(vec[0] - 5 / 6) < 1e-9
    assert np.allclose(vec[1:], 1 / 30, atol=1e-9)
    assert abs(vec.sum() - 1) < 1e-12
    for color in range(6):
        assert np.array_equal(ordered_phase_vector(6, 3, th.Bo, color), np.roll(vec, color))


@pytest.mark.parametrize("color", [6, 9, -1])
def test_ordered_start_color_out_of_range_is_rejected_before_drawing(color):
    Bo = potts_thresholds(6, 3).Bo
    with pytest.raises(ValueError, match="color must be in 0..5"):
        ordered_phase_vector(6, 3, Bo, color)
    g = pairing_sample(40, 3, seed=7)
    rng = chain_rng(1)
    with pytest.raises(ValueError, match="color must be in 0..5"):
        initial_state(g, 6, Bo, 3, ("ordered", color), rng)
    assert rng.random() == chain_rng(1).random()
    with pytest.raises(ValueError, match="color must be in 0..5"):
        run_chain(g, 6, Bo, steps=3, start=("ordered", color))


def test_classify_umt_uniform_at_B1():
    g = pairing_sample(600, 3, seed=21)
    rng = chain_rng(5)
    hits = 0
    for _ in range(100):
        colors = rng.integers(0, 3, size=600)
        # B = 1 has no ordered phase; classify against eps = 0.1
        if classify_UMT(colors, g, 3, 3, 1.0, eps=0.1) == "U":
            hits += 1
    assert hits >= 95


def test_classify_umt_monochromatic_is_T():
    g = pairing_sample(60, 3, seed=2)
    colors = np.zeros(60, dtype=np.int64)
    assert classify_UMT(colors, g, 3, 3, 3.9) == "T"


def test_classify_umt_boundary_is_U():
    # exact boundary of the vertex-frequency condition counts as U (<=)
    g = make_graph(4, 2, [(0, 1), (1, 2), (2, 3), (0, 3)], strict=False)
    colors = np.array([0, 0, 0, 1])
    eps = 0.25  # ||c - u||_inf = |0.75 - 0.5| = 0.25 exactly
    assert classify_UMT(colors, g, 2, 3, 2.0, eps=eps, eps_edge=100.0) == "U"


def test_default_epsilon_positive():
    th = potts_thresholds(6, 3)
    eps = default_epsilon(6, 3, th.Bo)
    assert 0 < eps < 0.5


def test_classify_umt_finds_the_majority_fixpoint_once(monkeypatch):
    from potts_lab import treefix

    Bo = potts_thresholds(3, 3).Bo
    g = pairing_sample(64, 3, seed=2)
    colorings = [chain_rng(4).integers(0, 3, size=64), np.zeros(64, dtype=np.int64)]
    eps = default_epsilon(3, 3, Bo)
    expect = [classify_UMT(c, g, 3, 3, Bo, eps=eps) for c in colorings]
    calls = []
    real = treefix.majority_fixpoint

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(treefix, "majority_fixpoint", counted)
    for c, want in zip(colorings, expect):
        calls.clear()
        assert classify_UMT(c, g, 3, 3, Bo) == want
        assert len(calls) == 1


def test_run_chain_b1_mono_density():
    g = pairing_sample(400, 3, seed=3)
    tr = run_chain(g, 6, 1.0, steps=4000, start="disordered", seed=8)
    # each non-loop edge is monochromatic with probability 1/q at B = 1;
    # self-loops always count, so the exact mean is ((m - L)/q + L)/n
    loops = sum(1 for u, v in g.edges if u == v)
    expect = ((len(g.edges) - loops) / 6 + loops) / g.n
    sem = tr.mono_density.std() / np.sqrt(len(tr.mono_density))
    assert abs(tr.mono_density.mean() - expect) < 4 * sem
    assert abs(tr.mono_density.mean() - 3 / (2 * 6)) < 0.01


def test_run_chain_deterministic_per_seed():
    g = pairing_sample(20, 3, seed=1)
    a = run_chain(g, 3, 2.0, steps=50, start="disordered", seed=12)
    b = run_chain(g, 3, 2.0, steps=50, start="disordered", seed=12)
    assert np.array_equal(a.phase, b.phase)
    assert np.array_equal(a.freqs, b.freqs)
    assert np.array_equal(a.mono_density, b.mono_density)
    c = run_chain(g, 3, 2.0, steps=50, start="disordered", seed=13)
    assert not np.array_equal(a.freqs, c.freqs)


def test_run_chain_ordered_start():
    th = potts_thresholds(6, 3)
    g = pairing_sample(60, 3, seed=10)
    tr = run_chain(g, 6, th.Bo, steps=10, start=("ordered", 2), seed=4)
    assert tr.phase[0] == 2  # the initial record reflects the ordered draw


def test_run_chain_matches_sw_step_chain():
    # the same chain stepped by sw_step, with the phase of each step from phase_of
    g = pairing_sample(40, 3, seed=6)
    tr = run_chain(g, 3, 2.5, steps=30, start="disordered", seed=11)
    rng = chain_rng(11)
    colors = initial_state(g, 3, 2.5, g.delta, "disordered", rng)
    state = SWState(colors=colors, mono_edges=mono_edge_count(g, colors))
    for t in range(31):
        assert tr.phase[t] == phase_of(state.colors, 3)
        assert np.array_equal(tr.freqs[t], np.bincount(state.colors, minlength=3) / g.n)
        assert tr.mono_density[t] == state.mono_edges / g.n
        state = sw_step(g, 3, 2.5, state, rng)


def test_exact_kernel_k2():
    P = exact_sw_kernel(k2(), 2, 2.0)
    assert abs(P[0, 0] - 0.375) < 1e-14
    assert np.max(np.abs(P.sum(axis=1) - 1)) < 1e-14
    pi = gibbs_distribution(k2(), 2, 2.0)
    assert np.allclose(pi, [1 / 3, 1 / 6, 1 / 6, 1 / 3])
    assert np.max(np.abs(pi @ P - pi)) < 1e-14


def test_exact_kernel_B1_uniform_rows():
    P = exact_sw_kernel(triangle(), 2, 1.0)
    assert np.max(np.abs(P - 1 / 8)) < 1e-14


def test_exact_kernel_detailed_balance_triangle():
    for q, B in [(2, 2.0), (3, 2.5)]:
        P = exact_sw_kernel(triangle(), q, B)
        pi = gibbs_distribution(triangle(), q, B)
        flux = pi[:, None] * P
        assert np.max(np.abs(flux - flux.T)) < 1e-12
        assert np.max(np.abs(pi @ P - pi)) < 1e-12


def test_exact_kernel_guard():
    g = pairing_sample(16, 3, seed=0)
    with pytest.raises(SizeGuardError):
        exact_sw_kernel(g, 3, 2.0)


def test_conductance_uniform_kernel():
    # at B = 1 the kernel is uniform and the normalized conductance is 1
    phi = conductance(k2(), 2, 1.0, {0})
    assert abs(phi - 1.0) < 1e-12


def test_conductance_symmetry_under_complement():
    g = triangle()
    S = [0, 3, 5, 6]
    comp = [s for s in range(8) if s not in S]
    a = conductance(g, 2, 2.7, S)
    b = conductance(g, 2, 2.7, comp)
    assert abs(a - b) < 1e-12


def test_conductance_two_color_phase_cut_is_flip_symmetric():
    # with q = 2 and odd n, recoloring is symmetric under the global color
    # flip, so P(sigma, S-bar) = 1/2 from every state and Phi(S) = 1 for all B
    g = triangle()
    cut = phase_cut(g, 2, 0)
    for B in (2.0, 3.0, 5.0):
        assert abs(conductance(g, 2, B, cut) - 1.0) < 1e-12


def test_conductance_rejects_trivial_cut():
    with pytest.raises(ValueError):
        conductance(k2(), 2, 2.0, [])
    with pytest.raises(ValueError):
        conductance(k2(), 2, 2.0, range(4))


def test_phase_cut_indexing():
    g = triangle()
    cut = phase_cut(g, 2, 1)
    states = all_colorings(3, 2)
    for s in cut:
        assert phase_of(states[s], 2) == 1
    assert len(cut) == 4
    # q = 3 on four vertices has tied states, which go to the lowest color
    g = make_graph(4, 2, [(0, 1), (1, 2), (2, 3), (0, 3)], strict=False)
    states = all_colorings(4, 3)
    for color in range(3):
        want = [s for s in range(81) if phase_of(states[s], 3) == color]
        assert phase_cut(g, 3, color).tolist() == want


def test_phase_occupancy_symmetry():
    # vertex-transitive instance, q = 2, odd n: no ties, so the stationary
    # mass of each phase is exactly equal
    g = triangle()
    pi = gibbs_distribution(g, 2, 3.0)
    states = all_colorings(3, 2)
    mass = [sum(pi[s] for s in range(8) if phase_of(states[s], 2) == c) for c in range(2)]
    assert abs(mass[0] - mass[1]) < 1e-14

    # q = 3 has tie-broken states; equality holds after excluding ties
    pi = gibbs_distribution(g, 3, 2.4)
    states = all_colorings(3, 3)

    def tied(s):
        counts = np.bincount(states[s], minlength=3)
        top = counts.max()
        return int(np.sum(counts == top)) >= 2

    mass = [
        sum(pi[s] for s in range(27) if not tied(s) and phase_of(states[s], 3) == c)
        for c in range(3)
    ]
    assert max(mass) - min(mass) < 1e-14


def _bfs_components(n, a, b):
    """Reference labelling: breadth-first search from each unvisited vertex
    in increasing order, so component i contains the i-th smallest root."""
    adj = [[] for _ in range(n)]
    for x, y in zip(a, b):
        adj[x].append(y)
        adj[y].append(x)
    label = [-1] * n
    count = 0
    for start in range(n):
        if label[start] >= 0:
            continue
        label[start] = count
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if label[y] < 0:
                        label[y] = count
                        nxt.append(y)
            frontier = nxt
        count += 1
    return count, label


def _disjoint_copies(n, a, b):
    """The exact kernel's layout: copy r of the graph keeps the edges of subset r."""
    m = len(a)
    copy, k = np.nonzero((np.arange(2**m)[:, None] >> np.arange(m)) & 1)
    return 2**m * n, (np.array(a)[k] + copy * n).tolist(), (np.array(b)[k] + copy * n).tolist()


def test_components_matches_bfs_reference():
    rng = np.random.default_rng(5)
    cases = [(0, [], []), (1, [], []), (1, [0], [0]), (5, [], []), (4, [3, 2], [3, 1])]
    # a path whose vertex numbers descend along it hooks into one deepest tree
    cases.append((500, list(range(499, 0, -1)), list(range(498, -1, -1))))
    order = rng.permutation(400)
    cases.append((400, order[:-1].tolist(), order[1:].tolist()))
    # stars centred on the smallest, the largest and a middle vertex
    for centre in (0, 99, 50):
        leaves = [v for v in range(100) if v != centre]
        cases.append((100, leaves, [centre] * len(leaves)))
    cases.append(_disjoint_copies(6, [0, 1, 2, 3, 4, 0], [1, 2, 0, 4, 5, 5]))
    cases.append(_disjoint_copies(4, [3, 2, 1], [2, 1, 0]))
    for _ in range(300):
        n = int(rng.integers(1, 60))
        m = int(rng.integers(0, 2 * n))
        # random multigraphs: self-loops, parallel edges and isolated vertices
        cases.append((n, rng.integers(0, n, size=m).tolist(), rng.integers(0, n, size=m).tolist()))
    for n in (1000, 2500, 5000):
        for ratio in (0.3, 0.5, 0.9, 1.5):
            m = int(ratio * n)
            cases.append((n, rng.integers(0, n, size=m).tolist(), rng.integers(0, n, size=m).tolist()))
    for n, a, b in cases:
        count, label = components(n, np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
        want_count, want = _bfs_components(n, a, b)
        assert count == want_count
        assert label.tolist() == want


def _sha(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# SHA-256 of outputs that must stay bit-identical for fixed seeds: SW
# trajectories, the exact kernel and pairing-model edge order
PINNED_CHAINS = {
    (128, "ordered"): "f2de326303dfe4bdeb7fc99bdbe4a4c730618450558a5b68d0bcbc25dbf745a9",
    (128, "disordered"): "58b0a5ea21f7b416e8256b9dd3419304b80e82cbf87132e8460eb653cf256ab3",
    (10000, "ordered"): "c81208ee4bea7fe4df239a1cc160dd6cb52fdb029f81ca775be338a38135e566",
    (10000, "disordered"): "88a17bd1853ca26ba035bebb46ab6fbf7a02de613ad3f8835d630e069479ea27",
    (100000, "ordered"): "b728d274c3773ca11fb418f06f31f5aa178f236efe4a27e203944fe2c919f2ae",
    (100000, "disordered"): "d598c98abcbe2d97bb7cb2b09bf7888691c3b9c6e738a1471e43744ba28e2c0a",
}
PINNED_KERNEL = "c2c0deade6813698ac760d0f347f89d11d6393e16ac9594facbc932fb3ff55b9"
PINNED_EDGES = "28381f99bc5b5d75302a2032b434fd1fe7734d9f56b1d52957ce337d3964730e"


def test_pinned_digests():
    Bo = potts_thresholds(6, 3).Bo
    for n, seed in ((128, 5), (10000, 6), (100000, 7)):
        g = pairing_sample(n, 3, seed=seed)
        starts = {"ordered": (("ordered", 0), 1), "disordered": ("disordered", 2)}
        for name, (start, chain_seed) in starts.items():
            tr = run_chain(g, 6, Bo, steps=20, start=start, seed=chain_seed)
            assert _sha(tr.phase, tr.freqs, tr.mono_density) == PINNED_CHAINS[(n, name)], (n, name)
    assert _sha(exact_sw_kernel(pairing_sample(6, 3, seed=0), 3, 2.0)) == PINNED_KERNEL
    assert _sha(pairing_sample(1000, 3, seed=11).edges) == PINNED_EDGES


# SHA-256 of outputs that must stay bit-identical: the reference statistics,
# the U/M/T classes and the phase cuts on the grid of _reference_outputs_digest
PINNED_REFERENCE = "37ee6c363dc0aa56b234b85b2bc182f6932501f14584aa4bad7fee8da2a23b2f"


def _outcome(fn, *args, **kwargs):
    """A call's result in hashable form, or the ValueError it raised."""
    try:
        out = fn(*args, **kwargs)
    except ValueError as exc:
        return ("ValueError", str(exc))
    if isinstance(out, np.ndarray):
        return (out.dtype.str, out.shape, out.tobytes())
    return out


def _reference_outputs_digest():
    h = hashlib.sha256()
    for q in (3, 4, 6):
        for delta in (3, 4):
            th = potts_thresholds(q, delta)
            # below 1, at 1, between 1 and Bu, at each threshold, between Bu
            # and Bo, and far above Brc
            Bs = (0.7, 1.0, 1.3, th.Bu, 0.5 * (th.Bu + th.Bo), th.Bo, th.Brc, 2 * th.Brc)
            n = 90
            g = pairing_sample(n, delta, seed=q)
            idx = np.arange(n)
            colorings = [
                chain_rng(q).integers(0, q, size=n),
                np.zeros(n, dtype=np.int64),
                np.where(idx % 10 < 8, 1, idx % q),
            ]
            for B in Bs:
                items = [expected_mono(q, delta, B), _outcome(default_epsilon, q, delta, B)]
                items += [_outcome(ordered_phase_vector, q, delta, B, c) for c in range(q)]
                for colors in colorings:
                    items.append(_outcome(classify_UMT, colors, g, q, delta, B))
                    items.append(classify_UMT(colors, g, q, delta, B, eps=0.1))
                    items.append(classify_UMT(colors, g, q, delta, B, eps=0.3, eps_edge=0.5))
                h.update(repr(items).encode())
    for n in (2, 3, 4, 6):
        g = make_graph(n, 2, [(v, (v + 1) % n) for v in range(n)], strict=False)
        for q in (2, 3):
            for c in range(q):
                h.update(repr(_outcome(phase_cut, g, q, c)).encode())
    return h.hexdigest()


def test_reference_statistics_match_pinned_digest():
    assert _reference_outputs_digest() == PINNED_REFERENCE
