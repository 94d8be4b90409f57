"""
Acceptance suite: desk-scale checks of the package's headline quantities.

Each criterion returns a CriterionResult and prints one pass/fail line when
run through run_suite (the CLI `verify` command).  Criterion 11 is
informational and never gates the exit status.  Criterion 10 asks for
behavior that correct Swendsen-Wang dynamics cannot exhibit and is expected
to fail: the dynamics recolor the giant kept-edge cluster uniformly at every
step, so phase labels cannot be retained, and the two-color phase-cut
conductance is identically 1 by flip symmetry (see the test suite for the
verified mechanism diagnostics).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import graphs, moments, swsim, treefix
from .spinsys import build_potts_matrix, interaction_matrix


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float
    gating: bool = True


def _result(number, name, passed, detail, t0, gating=True) -> CriterionResult:
    return CriterionResult(number, name, bool(passed), detail, time.time() - t0, gating)


def criterion_1() -> CriterionResult:
    t0 = time.time()
    th = treefix.potts_thresholds(3, 3)
    checks = [
        abs(th.Bu - (1 + 2 * math.sqrt(2))) < 1e-9,
        abs(th.Bo - 1 / (2 ** (1 / 3) - 1)) < 1e-12,
        th.Brc == 4.0,
    ]
    orderings = []
    for q in range(3, 11):
        for delta in range(3, 11):
            t = treefix.potts_thresholds(q, delta)
            orderings.append(t.Bu < t.Bo < t.Brc)
    passed = all(checks) and all(orderings)
    detail = (
        f"Bu={th.Bu:.12f} Bo={th.Bo:.12f} Brc={th.Brc}; "
        f"ordering holds on {sum(orderings)}/{len(orderings)} grid points"
    )
    return _result(1, "Potts thresholds", passed, detail, t0)


def criterion_2() -> CriterionResult:
    t0 = time.time()
    ok = True
    worst = 0.0
    for q in (3, 4, 6):
        for delta in (3, 4, 5):
            th = treefix.potts_thresholds(q, delta)
            d0 = moments.dif_value(q, delta, th.Bo)
            worst = max(worst, abs(d0))
            ok &= abs(d0) < 1e-9
            grid = np.linspace(th.Bu, th.Brc, 52)[1:-1]
            difs = [moments.dif_value(q, delta, float(B)) for B in grid]
            ok &= all(b > a for a, b in zip(difs, difs[1:]))
    detail = f"|DIF(Bo)| <= {worst:.2e}; monotone on all 9 grids"
    return _result(2, "phase coexistence at Bo", ok, detail, t0)


def criterion_3() -> CriterionResult:
    t0 = time.time()
    count = 0
    ok = True
    for q in range(3, 11):
        for delta in range(3, 11):
            th = treefix.potts_thresholds(q, delta)
            for B in np.linspace(1.05, 2 * th.Brc, 20):
                for fp in treefix.potts_fixpoints(q, delta, float(B)):
                    ok &= fp.attractive == bool(np.all(fp.hessian_eigen < 0))
                    count += 1
    detail = f"attractive <=> Hessian-negative on {count} fixpoints"
    return _result(3, "Jacobian/Hessian equivalence", ok, detail, t0)


def _bo_value(q: int, delta: int) -> float:
    # q = 2 is the continuum limit of the coexistence formula: Bo = Brc
    if q >= 3:
        return treefix.potts_thresholds(q, delta).Bo
    return delta / (delta - 2.0)


def criterion_4() -> CriterionResult:
    t0 = time.time()
    ok = True
    worst2 = worst_norm = 0.0
    for q in (2, 3, 4):
        for delta in (3, 4):
            for B in (1.5, 2.0, _bo_value(q, delta), 5.0):
                model = build_potts_matrix(q, float(B))
                rep = moments.moment_report(model, delta, compute_psi2=True)
                gap2 = abs(rep.psi2_max - 2 * rep.psi1_max)
                gapn = abs(rep.psi1_max - delta * math.log(rep.norm_value))
                worst2 = max(worst2, gap2)
                worst_norm = max(worst_norm, gapn)
                ok &= gap2 < 1e-7 and gapn < 1e-8
    colorings = interaction_matrix(np.ones((3, 3)) - np.eye(3))
    alpha = np.ones(3) / 3
    p1 = moments.psi1(colorings, 10, alpha)
    p2 = moments.psi2(colorings, 10, alpha)
    ok &= abs(p1 - (5 * math.log(2) - 4 * math.log(3))) < 1e-10
    ok &= p2 > 2 * p1 + 0.1
    detail = (
        f"max|psi2-2psi1|={worst2:.2e}, max|psi1-Delta ln norm|={worst_norm:.2e}; "
        f"colorings psi1={p1:.12f}, psi2={p2:.6f} > 2 psi1 + 0.1"
    )
    return _result(4, "second moment and norm identities", ok, detail, t0)


def criterion_5() -> CriterionResult:
    t0 = time.time()
    ok = True
    worst = 0.0
    checked = 0
    for n in (2, 4):
        edges = np.stack([g.edges for g in graphs.enumerate_pairings(n, 3)])
        n_pairings = len(edges)
        for q in (2, 3):
            states = graphs.all_colorings(n, q)
            counts = np.count_nonzero(states[:, :, None] == np.arange(q), axis=1)
            keys, phase_of_state = np.unique(counts, axis=0, return_inverse=True)
            # mono[p, s]: monochromatic edges of state s on pairing p
            mono = np.count_nonzero(states[:, edges[..., 0]] == states[:, edges[..., 1]], axis=2).T
            rows = np.repeat(np.arange(n_pairings), len(states))
            cols = np.tile(phase_of_state.ravel(), n_pairings)
            for B in (0.5, 1.0, 2.0):
                model = build_potts_matrix(q, B)
                # Z^alpha of each pairing summed in state order, then the
                # pairings summed in enumeration order
                sums = np.zeros((n_pairings, len(keys)))
                np.add.at(sums, (rows, cols), (float(B) ** mono).ravel())
                totals = np.add.accumulate(sums, axis=0)[-1]
                for key, tot in zip(keys, totals):
                    mean = tot / n_pairings
                    alpha = key / n
                    exact = moments.first_moment_exact(n, 3, model, alpha)
                    rel = abs(exact - mean) / max(abs(mean), 1e-300)
                    worst = max(worst, rel)
                    ok &= rel < 1e-12
                    checked += 1
    hand = moments.first_moment_exact(2, 3, build_potts_matrix(2, 2.0), [0.5, 0.5])
    ok &= abs(hand - 28 / 5) < 1e-12 * (28 / 5)
    detail = f"{checked} (n,q,B,alpha) cells, worst rel err {worst:.2e}; E[Z^(1/2,1/2)]={hand}"
    return _result(5, "exact first-moment oracle", ok, detail, t0)


def criterion_6() -> CriterionResult:
    t0 = time.time()
    n_samples, seed = 5000, 2024
    total = np.zeros(4)
    for i in range(n_samples):
        g = graphs.pairing_sample(2000, 3, seed=seed ^ i)
        total += graphs.count_cycles(g, 4)
    means = total / n_samples
    lam = np.array([2.0**i / (2 * i) for i in range(1, 5)])
    rel = np.abs(means - lam) / lam
    ok = bool(np.all(rel < 0.05))
    detail = f"sample means {np.round(means, 4).tolist()} vs lambda {lam.tolist()}; max rel dev {rel.max():.3f}"
    return _result(6, "cycle count Poisson means", ok, detail, t0)


def criterion_7() -> CriterionResult:
    t0 = time.time()
    ok = True
    details = []
    for q, B, value in ((2, 2.0, 3 / math.sqrt(7)), (3, 2.0, None)):
        model = build_potts_matrix(q, B)
        fp = treefix.make_fixpoint(model, 3, np.ones(q), potts_structure=(q, 1.0))
        sg = moments.small_graph_constants(fp)
        gap = abs(sg.truncated_exp - sg.ratio_limit)
        ok &= gap < 1e-10
        if value is not None:
            ok &= abs(sg.ratio_limit - value) < 1e-10
        details.append(f"q={q}: ratio={sg.ratio_limit:.12f} series gap {gap:.1e}")
    return _result(7, "small-subgraph constants", ok, "; ".join(details), t0)


def _sw_test_graphs():
    k2 = graphs.make_graph(2, 1, [(0, 1)], strict=False)
    path3 = graphs.make_graph(3, 2, [(0, 1), (1, 2)], strict=False)
    tri = graphs.make_graph(3, 2, [(0, 1), (1, 2), (0, 2)], strict=False)
    k4_minus = graphs.make_graph(4, 3, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], strict=False)
    return {"K2": k2, "path3": path3, "triangle": tri, "K4-e": k4_minus}


def criterion_8() -> CriterionResult:
    t0 = time.time()
    ok = True
    worst_row = worst_db = worst_pi = 0.0
    for name, g in _sw_test_graphs().items():
        for q in (2, 3):
            for B in (1.0, 2.0, 3.7):
                P = swsim.exact_sw_kernel(g, q, B)
                pi = swsim.gibbs_distribution(g, q, B)
                row, db, st = swsim.kernel_errors(P, pi)
                worst_row, worst_db, worst_pi = (
                    max(worst_row, row),
                    max(worst_db, db),
                    max(worst_pi, st),
                )
                ok &= row < 1e-12 and db < 1e-10 and st < 1e-10
    detail = f"row-sum {worst_row:.1e}, detailed balance {worst_db:.1e}, stationarity {worst_pi:.1e}"
    return _result(8, "exact Swendsen-Wang kernel", ok, detail, t0)


def criterion_9() -> CriterionResult:
    t0 = time.time()
    q_cap = 20
    ok = True
    for delta in range(3, 9):
        q_min = math.ceil(2 * delta / math.log(delta))
        for q in range(q_min, q_cap + 1):
            ok &= swsim.sw_gap_check(q, delta).holds
    g63 = swsim.sw_gap_check(6, 3)
    g33 = swsim.sw_gap_check(3, 3)
    ok &= abs(g63.ratio - 1.5225) < 1e-3 and abs(g63.threshold - 1.2158) < 1e-3
    ok &= abs(g33.ratio - 1.105) < 1e-3 and abs(g33.threshold - 1.3512) < 1e-3
    ok &= g63.holds and not g33.holds
    detail = (
        f"grid holds for delta 3..8, q up to {q_cap}; "
        f"(6,3): {g63.ratio:.4f} vs {g63.threshold:.4f}; (3,3): {g33.ratio:.4f} vs {g33.threshold:.4f}"
    )
    return _result(9, "critical mono-edge gap (Claim 1)", ok, detail, t0)


def criterion_10() -> CriterionResult:
    t0 = time.time()
    steps, n, n_seeds = 10000, 128, 10
    q, delta = 6, 3
    Bo = treefix.potts_thresholds(q, delta).Bo
    E_u, _ = swsim.expected_mono(q, delta, Bo)
    kept_label = 0
    near_eu = 0
    total = 0
    for s in range(n_seeds):
        g = graphs.pairing_sample(n, delta, seed=9000 ^ s)
        tr = swsim.run_chain(g, q, Bo, steps=steps, start=("ordered", 0), seed=2 * s)
        kept_label += int(np.count_nonzero(tr.phase == 0))
        tr2 = swsim.run_chain(g, q, Bo, steps=steps, start="disordered", seed=2 * s + 1)
        near_eu += int(np.count_nonzero(np.abs(tr2.mono_density - E_u) < 0.1))
        total += steps + 1
    frac_label = kept_label / total
    frac_eu = near_eu / total
    part1 = frac_label >= 0.99
    part2 = frac_eu >= 0.95

    tri = graphs.make_graph(3, 2, [(0, 1), (1, 2), (0, 2)], strict=False)
    cut = swsim.phase_cut(tri, 2, 0)
    phis = [swsim.conductance(tri, 2, float(B), cut) for B in (2, 3, 5)]
    part3 = phis[0] > phis[1] > phis[2]

    passed = part1 and part2 and part3
    detail = (
        f"ordered-label fraction {frac_label:.3f} (need >= 0.99); "
        f"disordered near-E_u fraction {frac_eu:.3f} (need >= 0.95); "
        f"conductance over B=2,3,5: {[round(p, 6) for p in phis]} (need strictly decreasing). "
        "Expected to fail: SW recolors the giant kept cluster uniformly each step, so "
        "labels are not retained, and two-color phase cuts have conductance exactly 1 "
        "by flip symmetry."
    )
    return _result(10, "bottleneck evidence (label retention and conductance trend)", passed, detail, t0)


def criterion_11() -> CriterionResult:
    """Annealed-importance estimate of (1/n) ln Z versus max psi1; informational."""
    t0 = time.time()
    seed = 31
    q, delta, B = 3, 3, 2.0
    model = build_potts_matrix(q, B)
    target = moments.moment_report(model, delta, compute_psi2=False).psi1_max
    gaps = []
    for n in (64, 128):
        g = graphs.pairing_sample(n, delta, seed=seed ^ n)
        est = annealed_log_partition(g, q, B, n_chains=32, n_temps=64, seed=seed + n)
        gaps.append(float(abs(est / n - target)))
    ok = all(gap < 0.05 for gap in gaps)
    joined = ", ".join(f"{gp:.4f}" for gp in gaps)
    detail = f"(1/n)ln Z gaps to max psi1: [{joined}] (informational, target < 0.05)"
    return _result(11, "Bethe-prediction trend (informational)", ok, detail, t0, gating=False)


def annealed_log_partition(g, q: int, B: float, n_chains: int, n_temps: int, seed: int) -> float:
    """ln Z estimate by annealed importance sampling along a geometric activity
    ladder, with one Swendsen-Wang update per rung."""
    rng = swsim.chain_rng(seed)
    ladder = np.exp(np.linspace(0.0, math.log(B), n_temps + 1))
    log_w = np.zeros(n_chains)
    for c in range(n_chains):
        colors = rng.integers(0, q, size=g.n)
        for k in range(n_temps):
            log_w[c] += swsim.mono_edge_count(g, colors) * (math.log(ladder[k + 1]) - math.log(ladder[k]))
            colors = swsim.sw_step(g, q, float(ladder[k + 1]), colors, rng)
    m = log_w.max()
    return g.n * math.log(q) + m + math.log(np.mean(np.exp(log_w - m)))


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
}


def run_suite(only=None) -> list[CriterionResult]:
    numbers = sorted(CRITERIA) if only is None else sorted(only)
    if not set(numbers) <= CRITERIA.keys():
        raise ValueError(f"criteria are numbered {min(CRITERIA)}..{max(CRITERIA)}, got {numbers}")
    results = []
    for k in numbers:
        res = CRITERIA[k]()
        results.append(res)
        status = "PASS" if res.passed else ("INFO" if not res.gating else "FAIL")
        print(f"{status} criterion {res.number} ({res.name}) [{res.seconds:.1f}s]: {res.detail}")
    gate = [r for r in results if r.gating]
    print(f"{sum(r.passed for r in gate)}/{len(gate)} gating criteria passed")
    return results
