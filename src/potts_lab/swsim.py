"""
Swendsen-Wang dynamics for the ferromagnetic Potts model.

One step from a coloring: keep each monochromatic edge with probability
1 - 1/B, find the connected components of the kept edges, and recolor every
component with a uniform color.  Self-loops are monochromatic by definition
(they count toward the monochromatic edge total) but never affect components.
Components are numbered 0, 1, ... in order of their smallest vertex, and
component i takes the i-th fresh color drawn, so a run is deterministic per
seed.  `components` labels them by min-label hooking and pointer jumping,
contracting each level to the trees that still share a kept edge.

The module also carries the disordered/ordered expected monochromatic edge
densities E_u and E_m and the ordered phase vector (all three from one
majority fixpoint per call), the U/M/T configuration classes built from them,
an exact transition kernel for tiny instances, and conductance evaluation for
the phase cut, the states whose dominant color is a given one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import treefix
from .graphs import RegularGraph, all_colorings, brute_gibbs
from .graphs import graph_rng as chain_rng  # chains draw from the same Philox family
from .spinsys import SizeGuardError, build_potts_matrix

EXACT_KERNEL_GUARD = 20000


@dataclass(frozen=True)
class SWState:
    colors: np.ndarray
    mono_edges: int


@dataclass(frozen=True)
class SWTrace:
    """Per-step summary statistics of a Swendsen-Wang run."""

    phase: np.ndarray  # dominant color per recorded step
    freqs: np.ndarray  # color frequency vectors, one row per step
    mono_density: np.ndarray  # monochromatic edges / n
    seed: int
    params: dict


@dataclass(frozen=True)
class GapCheck:
    holds: bool
    ratio: float
    threshold: float


def mono_edge_count(g: RegularGraph, colors) -> int:
    colors = np.asarray(colors)
    u, v, loops = g.loop_split
    return int(np.count_nonzero(colors[u] == colors[v])) + loops


def components(n: int, a, b):
    """Connected components of the graph on vertices 0..n-1 with edges
    (a[i], b[i]): returns (count, label) with components numbered 0, 1, ...
    in order of their smallest member.  Min-label hooking with pointer
    jumping (Shiloach and Vishkin, J. Algorithms 1982), contracted level by
    level: each level hooks every vertex under its smallest neighbour, jumps
    until all point at their tree's root (its smallest vertex) and maps the
    edges onto the roots; the next level runs on the edges that still join
    two trees and the k roots they touch, renumbered 0..k-1 in order."""
    size, levels = n, []
    while True:
        parent = np.arange(n)
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while np.count_nonzero((jumped := parent[parent]) != parent):
            parent = jumped
        a, b = parent[a], parent[b]
        live = a != b
        if not np.count_nonzero(live):
            break
        a, b = a.compress(live), b.compress(live)
        touched = np.zeros(n, dtype=bool)
        touched[a] = touched[b] = True
        roots = touched.nonzero()[0]
        # numbering by scatter: a cumulative sum over n costs several times more
        index = np.empty(n, dtype=np.int64)
        index[roots] = np.arange(roots.size)
        a, b, n = index[a], index[b], roots.size
        levels.append((parent, roots))
    for below, roots in reversed(levels):
        below[roots] = roots[parent]
        parent = below[below]
    roots = (parent == np.arange(size)).nonzero()[0]
    label = np.empty(size, dtype=np.int64)
    label[roots] = np.arange(roots.size)
    return roots.size, label[parent]


def _check_activity(B) -> None:
    """Swendsen-Wang needs a ferromagnetic activity B >= 1 (NaN fails too)."""
    if not B >= 1:
        raise ValueError(f"Swendsen-Wang needs B >= 1, got {B}")


def _step_arrays(mono, u, v, n, q, B, rng):
    """Colors after one step; mono indexes the monochromatic edges (u[i], v[i])."""
    kept = mono.compress(rng.random(mono.size) < (1.0 - 1.0 / B))
    count, comp_of = components(n, u[kept], v[kept])
    return rng.integers(0, q, size=count)[comp_of]


def sw_step(g: RegularGraph, q: int, B: float, state: SWState, rng) -> SWState:
    """One Swendsen-Wang update; requires B >= 1."""
    _check_activity(B)
    u, v, _ = g.loop_split
    colors = np.asarray(state.colors)
    colors = _step_arrays((colors[u] == colors[v]).nonzero()[0], u, v, g.n, q, B, rng)
    return SWState(colors=colors, mono_edges=mono_edge_count(g, colors))


def phase_of(colors, q: int) -> int:
    """Dominant color of a coloring; ties break to the lowest color index."""
    return int(np.argmax(np.bincount(np.asarray(colors), minlength=q)))


def _reference(q: int, delta: int, B: float):
    """(E_u, E_m, vec) from one majority fixpoint: the per-vertex expected
    monochromatic edge counts of the disordered and ordered phases and the
    color-0 ordered phase vector.  E_m and vec are None below the uniqueness
    threshold, where no majority fixpoint exists."""
    E_u = 0.5 * delta * B / (q + B - 1.0)
    fp = treefix.majority_fixpoint(q, delta, B) if B > 1 else None
    if fp is None:
        return E_u, None, None
    x = fp.potts_structure[1]
    E_m = 0.5 * delta * B * (x**2 + q - 1) / ((x + q - 1) ** 2 + (B - 1) * (x**2 + q - 1))
    a = float(np.max(fp.alpha))
    vec = np.full(q, (1.0 - a) / (q - 1.0))
    vec[0] = a
    return E_u, E_m, vec


def expected_mono(q: int, delta: int, B: float):
    """Per-vertex expected monochromatic edge counts (E_u, E_m); E_m is None
    below the uniqueness threshold where no majority fixpoint exists."""
    return _reference(q, delta, B)[:2]


def sw_gap_check(q: int, delta: int) -> GapCheck:
    """At the coexistence activity Bo, whether E_m/E_u exceeds 1/(1 - 1/B);
    guaranteed to hold for q >= 2*delta/log(delta)."""
    if q < 3 or delta < 3:
        raise ValueError("gap check needs q >= 3 and delta >= 3")
    Bo = treefix.potts_thresholds(q, delta).Bo
    E_u, E_m = expected_mono(q, delta, Bo)
    ratio = E_m / E_u
    threshold = Bo / (Bo - 1.0)
    return GapCheck(holds=bool(ratio > threshold), ratio=ratio, threshold=threshold)


def ordered_phase_vector(q: int, delta: int, B: float, color: int = 0) -> np.ndarray:
    """Color-frequency vector of the ordered phase dominated by `color`
    (0 <= color < q), with the majority weight taken from the attractive
    majority fixpoint."""
    if not 0 <= color < q:
        raise ValueError(f"ordered phase color must be in 0..{q - 1}, got {color}")
    vec = _reference(q, delta, B)[2]
    if vec is None:
        raise ValueError("no ordered phase below the uniqueness threshold")
    return np.roll(vec, color)


def _epsilon(q: int, E_u: float, E_m, vec) -> float:
    if E_m is None:
        raise ValueError("epsilon default needs the ordered phase (B >= Bu)")
    return 0.25 * min(float(np.max(np.abs(np.full(q, 1.0 / q) - vec))), abs(E_m - E_u))


def default_epsilon(q: int, delta: int, B: float) -> float:
    """Half of half the separation between the disordered and ordered
    reference statistics."""
    return _epsilon(q, *_reference(q, delta, B))


def classify_UMT(
    colors, g: RegularGraph, q: int, delta: int, B: float, eps: float = None, eps_edge: float = None
) -> str:
    """U / M / T classification by color frequencies and monochromatic edge
    density; one epsilon serves both conditions unless eps_edge is given."""
    E_u, E_m, vec = _reference(q, delta, B)
    if eps is None:
        eps = _epsilon(q, E_u, E_m, vec)
    if eps_edge is None:
        eps_edge = eps
    colors = np.asarray(colors)
    c = np.bincount(colors, minlength=q) / g.n
    density = mono_edge_count(g, colors) / g.n
    if np.max(np.abs(c - 1.0 / q)) <= eps and abs(density - E_u) < eps_edge:
        return "U"
    if E_m is not None:
        for j in range(q):
            if np.max(np.abs(c - np.roll(vec, j))) <= eps and abs(density - E_m) < eps_edge:
                return "M"
    return "T"


def initial_state(g: RegularGraph, q: int, B: float, delta: int, start, rng) -> np.ndarray:
    """Starting coloring: 'disordered' draws iid uniform colors, ('ordered', i)
    with 0 <= i < q draws iid from the ordered phase vector of color i (a bad
    i raises before any draw), and an array is used as given."""
    if isinstance(start, str) and start == "disordered":
        return rng.integers(0, q, size=g.n)
    if isinstance(start, tuple) and start[0] == "ordered":
        vec = ordered_phase_vector(q, delta, B, color=start[1])
        return rng.choice(q, size=g.n, p=vec)
    colors = np.asarray(start, dtype=np.int64)
    if colors.shape != (g.n,):
        raise ValueError("explicit start must assign one color per vertex")
    return colors


def run_chain(
    g: RegularGraph,
    q: int,
    B: float,
    steps: int,
    start="disordered",
    seed: int = 0,
) -> SWTrace:
    """Run Swendsen-Wang and record phase label, color frequencies and
    monochromatic edge density at t = 0..steps.  Deterministic per seed."""
    _check_activity(B)
    rng = chain_rng(seed)
    colors = initial_state(g, q, B, g.delta, start, rng)
    u, v, loops = g.loop_split
    phases = np.zeros(steps + 1, dtype=np.int64)
    freqs = np.zeros((steps + 1, q))
    mono = np.zeros(steps + 1)
    for t in range(steps + 1):
        counts = np.bincount(colors, minlength=q)
        freqs[t] = counts / g.n
        phases[t] = np.argmax(counts)
        alike = (colors[u] == colors[v]).nonzero()[0]
        mono[t] = (alike.size + loops) / g.n
        if t < steps:
            colors = _step_arrays(alike, u, v, g.n, q, B, rng)
    return SWTrace(
        phase=phases,
        freqs=freqs,
        mono_density=mono,
        seed=seed,
        params={"q": q, "B": B, "steps": steps, "start": str(start), "n": g.n},
    )


# ---------------------------------------------------------------------------
# exact kernel and conductance
# ---------------------------------------------------------------------------


def exact_sw_kernel(g: RegularGraph, q: int, B: float) -> np.ndarray:
    """The full transition matrix over q^n states, by summing over all subsets
    of kept monochromatic edges and all component recolorings."""
    _check_activity(B)
    n = g.n
    if q**n > EXACT_KERNEL_GUARD:
        raise SizeGuardError(f"{q}^{n} states exceed the exact-kernel guard")
    states = all_colorings(n, q)
    n_states = len(states)
    u, v, _ = g.loop_split
    powers = q ** np.arange(n)
    keep_p = 1.0 - 1.0 / B
    P = np.zeros((n_states, n_states))
    for s in range(n_states):
        colors = states[s]
        mono = np.nonzero(colors[u] == colors[v])[0]
        m = len(mono)
        # copy r of the graph keeps the edges of subset r; one components
        # call labels all 2^m copies, each numbered from its first vertex
        copy, k = np.nonzero((np.arange(2**m)[:, None] >> np.arange(m)) & 1)
        _, labels = components(2**m * n, u[mono[k]] + copy * n, v[mono[k]] + copy * n)
        labels = labels.reshape(2**m, n)
        labels = labels - labels[:, :1]
        for mask in range(2**m):
            kept = mask.bit_count()
            prob = keep_p**kept * (1.0 - keep_p) ** (m - kept)
            comp_of = labels[mask]
            c = int(comp_of.max(initial=-1)) + 1
            # the first q^c states run through every coloring of c components
            targets = states[: q**c, comp_of] @ powers
            np.add.at(P[s], targets, prob / q**c)
    return P


def gibbs_distribution(g: RegularGraph, q: int, B: float) -> np.ndarray:
    oracle = brute_gibbs(g, build_potts_matrix(q, B))
    return oracle.probabilities()


def conductance(g: RegularGraph, q: int, B: float, S, kernel=None, pi=None) -> float:
    """Phi(S) = sum_{s in S} pi(s) P(s, S^c) / (pi(S) pi(S^c)) for a proper
    nonempty state subset S (indices into the q^n state enumeration)."""
    if kernel is None:
        kernel = exact_sw_kernel(g, q, B)
    if pi is None:
        pi = gibbs_distribution(g, q, B)
    n_states = kernel.shape[0]
    mask = np.zeros(n_states, dtype=bool)
    mask[np.asarray(list(S), dtype=np.int64)] = True
    if not mask.any() or mask.all():
        raise ValueError("conductance needs a proper nonempty subset of states")
    flow = float(pi[mask] @ kernel[np.ix_(mask, ~mask)].sum(axis=1))
    pS = float(pi[mask].sum())
    return flow / (pS * (1.0 - pS))


def phase_cut(g: RegularGraph, q: int, color: int) -> np.ndarray:
    """Indices of the configurations whose phase label (dominant color, ties
    to the lowest index, as in `phase_of`) equals `color`."""
    states = all_colorings(g.n, q)
    counts = np.count_nonzero(states[:, :, None] == np.arange(q), axis=1)
    return np.nonzero(counts.argmax(axis=1) == color)[0]
