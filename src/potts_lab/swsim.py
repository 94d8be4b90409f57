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
majority ratio per call), the U/M/T configuration classes built from them,
an exact transition kernel for tiny instances with its row-blocked error
check, and conductance evaluation for the phase cut, the states whose
dominant color is a given one.  The exact kernel sums subset by subset over
one bitmask per state of its monochromatic edges, with no `components` call,
within EXACT_KERNEL_GUARD states and EXACT_KERNEL_SUBSETS subsets.  The
chains and the kernel reject an activity that is not a finite B >= 1, and the
reference statistics one that is not a finite B > 0, before any work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import treefix
from .graphs import RegularGraph, all_colorings, brute_gibbs
from .graphs import graph_rng as chain_rng  # chains draw from the same Philox family
from .spinsys import SizeGuardError, build_potts_matrix

EXACT_KERNEL_GUARD = 20000
EXACT_KERNEL_SUBSETS = 2**20
KERNEL_CHECK_ROWS = 256  # rows per block of the detailed-balance check


@dataclass(frozen=True)
class SWTrace:
    """Per-step summary statistics of a Swendsen-Wang run."""

    phase: np.ndarray  # dominant color per recorded step
    freqs: np.ndarray  # color frequency vectors, one row per step
    mono_density: np.ndarray  # monochromatic edges / n


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
    if len(a) == 0:
        return n, np.arange(n)
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
    """Swendsen-Wang needs a finite ferromagnetic activity B >= 1 (NaN fails too)."""
    if not B >= 1:
        raise ValueError(f"Swendsen-Wang needs B >= 1, got {B}")
    if B == float("inf"):
        raise ValueError(f"Swendsen-Wang needs a finite B, got {B}")


def _step_arrays(mono, u, v, n, q, B, rng):
    """Colors after one step; mono indexes the monochromatic edges (u[i], v[i])."""
    kept = mono.compress(rng.random(mono.size) < (1.0 - 1.0 / B))
    count, comp_of = components(n, u[kept], v[kept])
    return rng.integers(0, q, size=count)[comp_of]


def sw_step(g: RegularGraph, q: int, B: float, colors, rng) -> np.ndarray:
    """The coloring after one Swendsen-Wang update of `colors`; requires B >= 1."""
    _check_activity(B)
    u, v, _ = g.loop_split
    colors = np.asarray(colors)
    return _step_arrays((colors[u] == colors[v]).nonzero()[0], u, v, g.n, q, B, rng)


def _reference(q: int, delta: int, B: float):
    """(E_u, E_m, vec) from the majority ratio x: the per-vertex expected
    monochromatic edge counts of the disordered and ordered phases and the
    color-0 ordered phase vector.  E_m and vec are None below the uniqueness
    threshold, where no majority fixpoint exists.  Both are written in
    r = 1/x, so no power of x is formed; vec is alpha_from_ratio of the
    majority fixpoint.  Raises for an activity that is not finite and
    positive, before any arithmetic."""
    if not math.isfinite(B):
        raise ValueError(f"activity B must be finite, got {B}")
    if not B > 0:
        raise ValueError(f"activity B must be positive, got {B}")
    E_u = 0.5 * delta * B / (q + B - 1.0)
    x = treefix.majority_ratio(q, delta, B) if B > 1 else None
    if x is None:
        return E_u, None, None
    r = 1.0 / x
    square = 1.0 + (q - 1) * r**2
    E_m = 0.5 * delta * B * square / ((1.0 + (q - 1) * r) ** 2 + (B - 1.0) * square)
    # r^p with p = delta/(delta - 1), as r r^(1/(delta - 1)): rounding p
    # itself would cost |log r| ulps
    rp = r * r ** (1.0 / (delta - 1))
    den = 1.0 + (q - 1) * rp
    vec = np.full(q, rp / den)
    vec[0] = 1.0 / den
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


def initial_state(g: RegularGraph, q: int, B: float, start, rng) -> np.ndarray:
    """Starting coloring: 'disordered' draws iid uniform colors and
    ('ordered', i) with 0 <= i < q draws iid from the ordered phase vector of
    color i on degree g.delta.  Any other start raises before any draw."""
    if isinstance(start, str) and start == "disordered":
        return rng.integers(0, q, size=g.n)
    if isinstance(start, tuple) and len(start) == 2 and start[0] == "ordered":
        vec = ordered_phase_vector(q, g.delta, B, color=start[1])
        return rng.choice(q, size=g.n, p=vec)
    raise ValueError(f"start must be 'disordered' or ('ordered', color), got {start!r}")


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
    if q < 2:
        raise ValueError("need q >= 2 spins")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if g.n == 0:
        raise ValueError("Swendsen-Wang chains need at least one vertex")
    rng = chain_rng(seed)
    colors = initial_state(g, q, B, start, rng)
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
    return SWTrace(phase=phases, freqs=freqs, mono_density=mono)


# ---------------------------------------------------------------------------
# exact kernel and conductance
# ---------------------------------------------------------------------------


def exact_sw_kernel(g: RegularGraph, q: int, B: float) -> np.ndarray:
    """The full transition matrix over q^n states, by the Edwards-Sokal sum
    over kept-edge subsets A: P(s, t) adds p^|A| (1-p)^(m(s)-|A|) / q^c(A)
    for each subset A of the non-loop edges monochromatic in both s and t,
    with p = 1 - 1/B, m(s) the non-loop monochromatic count of s and c(A)
    the component count of A.  Subsets go in increasing bitmask order, and
    the q^c(A) states that keep A are those whose monochromatic-edge bitmask holds A."""
    _check_activity(B)
    n = g.n
    if q**n > EXACT_KERNEL_GUARD:
        raise SizeGuardError(f"{q}^{n} states exceed the exact-kernel guard")
    u, v, _ = g.loop_split
    E = len(u)
    if 2**E > EXACT_KERNEL_SUBSETS:
        raise SizeGuardError(f"2^{E} kept-edge subsets exceed the exact-kernel guard")
    states = all_colorings(n, q)
    alike = states[:, u] == states[:, v]
    m = np.count_nonzero(alike, axis=1)
    mask = alike @ (1 << np.arange(E))  # bit k set when edge k is monochromatic
    keep_p = 1.0 - 1.0 / B
    prob = np.zeros((E + 1, E + 1))
    for mm in range(E + 1):
        prob[mm, : mm + 1] = [keep_p**i * (1.0 - keep_p) ** (mm - i) for i in range(mm + 1)]
    weight = prob[m]  # weight[s, a] = p^a (1-p)^(m(s)-a)
    P = np.zeros((len(states), len(states)))
    for A in range(2**E):
        S = (mask & A == A).nonzero()[0]
        P[S[:, None], S] += (weight[S, A.bit_count()] / S.size)[:, None]
    return P


def gibbs_distribution(g: RegularGraph, q: int, B: float) -> np.ndarray:
    oracle = brute_gibbs(g, build_potts_matrix(q, B))
    return oracle.probabilities()


def kernel_errors(P: np.ndarray, pi: np.ndarray) -> tuple[float, float, float]:
    """(row-sum, detailed-balance, stationarity) errors of the kernel P with
    respect to pi: the largest |sum_j P_ij - 1|, |pi_i P_ij - pi_j P_ji| and
    |(pi P)_j - pi_j|.  The balance error is taken KERNEL_CHECK_ROWS rows at a
    time, so that no temporary is the size of P."""
    k = KERNEL_CHECK_ROWS
    balance = [
        np.max(np.abs(pi[i : i + k, None] * P[i : i + k] - (pi[:, None] * P[:, i : i + k]).T))
        for i in range(0, len(P), k)
    ]
    return (
        float(np.max(np.abs(P.sum(axis=1) - 1.0))),
        float(np.max(balance)),
        float(np.max(np.abs(pi @ P - pi))),
    )


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
    to the lowest index, as `run_chain` labels its steps) equals `color`."""
    states = all_colorings(g.n, q)
    counts = np.count_nonzero(states[:, :, None] == np.arange(q), axis=1)
    return np.nonzero(counts.argmax(axis=1) == color)[0]
