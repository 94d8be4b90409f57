import json
import math
from pathlib import Path

import numpy as np
import pytest

from potts_lab import treefix
from potts_lab.moments import (
    dif_value,
    first_moment_exact,
    inner_edge_max,
    matrix_norm_p2,
    moment_report,
    phi1,
    potts_phase_diagram,
    psi1,
    psi2,
    second_moment_exact,
    small_graph_constants,
)
from potts_lab.spinsys import SizeGuardError, build_potts_matrix, cholesky_factor, interaction_matrix


def colorings_matrix(q=3):
    return interaction_matrix(np.ones((q, q)) - np.eye(q))


def test_inner_edge_max_product_measure():
    m = interaction_matrix(np.ones((3, 3)))
    for alpha in ([0.2, 0.3, 0.5], [0.6, 0.4, 0.0]):
        ed, g1 = inner_edge_max(m, alpha)
        a = np.array(alpha)
        assert np.max(np.abs(ed.x - np.outer(a, a))) < 1e-10
        assert np.max(np.abs(ed.marginals - a)) < 1e-12


def test_inner_edge_max_potts_uniform():
    q, B = 3, 2.0
    m = build_potts_matrix(q, B)
    ed, g1 = inner_edge_max(m, np.ones(q) / q)
    assert abs(ed.x[0, 0] - B / (q * (q + B - 1))) < 1e-12
    assert abs(ed.x[0, 1] - 1 / (q * (q + B - 1))) < 1e-12


def test_inner_edge_max_forced_support():
    m = interaction_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    ed, g1 = inner_edge_max(m, [0.5, 0.5])
    assert np.allclose(ed.x, [[0.0, 0.5], [0.5, 0.0]], atol=1e-13)
    assert abs(g1 - 0.5 * math.log(2)) < 1e-12
    # zero entries of B are exactly zero in the maximizer
    assert ed.x[0, 0] == 0.0


def test_inner_edge_max_infeasible():
    m = interaction_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    ed, g1 = inner_edge_max(m, [0.3, 0.7])
    assert ed is None and g1 == -np.inf
    assert psi1(m, 3, [0.3, 0.7]) == -np.inf


def test_ipf_first_order_conditions():
    rng = np.random.default_rng(8)
    raw = rng.random((4, 4))
    m = interaction_matrix(raw + raw.T + 0.2)
    alpha = rng.dirichlet(np.ones(4))
    ed, _ = inner_edge_max(m, alpha)
    x, B = ed.x, m.entries
    for i, j, k, l in [(0, 1, 2, 3), (0, 2, 1, 3), (1, 3, 0, 2)]:
        lhs = x[i, j] * x[k, l] * B[i, l] * B[k, j]
        rhs = x[i, l] * x[k, j] * B[i, j] * B[k, l]
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_psi1_closed_forms():
    m = build_potts_matrix(3, 2.0)
    got = psi1(m, 3, np.ones(3) / 3)
    assert abs(got - (1.5 * math.log(12) - 2 * math.log(3))) < 1e-12

    got = psi1(colorings_matrix(), 10, np.ones(3) / 3)
    assert abs(got - (5 * math.log(2) - 4 * math.log(3))) < 1e-12

    m1 = interaction_matrix(np.ones((3, 3)))
    assert abs(psi1(m1, 3, [1.0, 0.0, 0.0])) < 1e-12


def test_phi1_matches_psi1_at_fixpoints():
    for q, delta, B in [(3, 3, 2.0), (3, 3, 3.9), (4, 4, 3.0), (6, 3, 6.0)]:
        m = build_potts_matrix(q, B)
        for fp in treefix.potts_fixpoints(q, delta, B):
            assert abs(phi1(m, delta, fp.R) - psi1(m, delta, fp.alpha)) < 1e-9


def test_matrix_norm_identity():
    val, R = matrix_norm_p2(np.eye(3), 1.5)
    assert abs(val - 1.0) < 1e-12


def test_matrix_norm_is_max_psi1():
    m = build_potts_matrix(3, 2.0)
    val, _ = matrix_norm_p2(cholesky_factor(m), 1.5)
    assert abs(3 * math.log(val) - psi1(m, 3, np.ones(3) / 3)) < 1e-10


def test_matrix_norm_tensor_multiplicativity():
    bh = cholesky_factor(build_potts_matrix(3, 2.0))
    val, _ = matrix_norm_p2(bh, 1.5)
    val2, _ = matrix_norm_p2(np.kron(bh, bh), 1.5)
    assert abs(val2 - val**2) < 1e-8


def test_matrix_norm_rejects_bad_p():
    with pytest.raises(ValueError):
        matrix_norm_p2(np.eye(2), 2.5)


def test_psi2_equals_twice_psi1_ferro():
    m = build_potts_matrix(2, 2.0)
    a = np.array([0.5, 0.5])
    assert abs(psi2(m, 3, a, n_starts=10) - 2 * psi1(m, 3, a)) < 1e-7


def test_psi2_tensor_point_lower_bound():
    m = build_potts_matrix(3, 4.2)
    fp = treefix.majority_fixpoint(3, 3, 4.2)
    a = fp.alpha
    assert psi2(m, 3, a, n_starts=5) >= 2 * psi1(m, 3, a) - 1e-9


def test_psi2_colorings_counterexample():
    m = colorings_matrix()
    a = np.ones(3) / 3
    p1 = psi1(m, 10, a)
    p2 = psi2(m, 10, a, n_starts=8)
    assert p2 >= p1 - 1e-9  # identity coupling is feasible
    assert p2 > 2 * p1 + 0.1


def test_first_moment_hand_values():
    allones = interaction_matrix(np.ones((2, 2)))
    assert abs(first_moment_exact(4, 3, allones, [0.5, 0.5]) - 6.0) < 1e-12 * 6
    ising = build_potts_matrix(2, 2.0)
    assert abs(first_moment_exact(2, 3, ising, [0.5, 0.5]) - 5.6) < 1e-12 * 5.6


def test_first_moment_validation():
    m = build_potts_matrix(2, 2.0)
    with pytest.raises(ValueError):
        first_moment_exact(3, 3, m, [1 / 3, 2 / 3])  # odd delta * n
    with pytest.raises(ValueError):
        first_moment_exact(4, 3, m, [0.4, 0.6])  # non-integer counts
    with pytest.raises(SizeGuardError):
        first_moment_exact(600, 3, build_potts_matrix(6, 2.0), np.ones(6) / 6)


def test_first_moment_converges_to_psi1():
    m = build_potts_matrix(3, 2.0)
    target = psi1(m, 3, np.ones(3) / 3)
    gaps = []
    for n in (48, 102, 198):
        val = first_moment_exact(n, 3, m, np.ones(3) / 3)
        gaps.append(abs(math.log(val) / n - target))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.05


def test_second_moment_hand_values():
    allones = interaction_matrix(np.ones((2, 2)))
    # Z^alpha is deterministic when all weights are 1, so E[(Z)^2] = 36
    assert abs(second_moment_exact(4, 3, allones, [0.5, 0.5]) - 36.0) < 1e-12 * 36
    ising = build_potts_matrix(2, 2.0)
    val = second_moment_exact(2, 3, ising, [0.5, 0.5])
    assert abs(val - 40.0) < 1e-12 * 40  # enumeration over the 15 pairings


def test_second_moment_jensen():
    for B in (0.5, 2.0):
        m = build_potts_matrix(2, B)
        for alpha in ([0.5, 0.5], [0.25, 0.75]):
            first = first_moment_exact(4, 3, m, alpha)
            second = second_moment_exact(4, 3, m, alpha)
            assert second >= first**2 - 1e-10 * first**2


def test_phase_diagram_regimes():
    th = treefix.potts_thresholds(3, 3)
    assert potts_phase_diagram(3, 3, 2.0).regime == "disordered-only"
    pd = potts_phase_diagram(3, 3, th.Bo)
    assert pd.regime == "coexistence"
    assert abs(pd.dif) < 1e-9
    assert len(pd.dominant) == 4  # disordered plus the three ordered phases
    pd = potts_phase_diagram(3, 3, 3.84)
    assert pd.regime == "disordered-dominant" and pd.dif < 0
    pd = potts_phase_diagram(3, 3, 3.9)
    assert pd.regime == "ordered-dominant" and pd.dif > 0
    assert len(pd.dominant) == 3
    pd = potts_phase_diagram(3, 3, 4.5)
    assert pd.regime == "ordered-only"


def test_dif_monotone_sample():
    th = treefix.potts_thresholds(4, 3)
    grid = np.linspace(th.Bu, th.Brc, 20)[1:-1]
    difs = [dif_value(4, 3, float(B)) for B in grid]
    assert all(b > a for a, b in zip(difs, difs[1:]))


def test_dif_matches_direct_phi_difference():
    # independent route: evaluate the ratio functional at both fixpoints
    q, delta, B = 3, 3, 3.9
    m = build_potts_matrix(q, B)
    maj = treefix.majority_fixpoint(q, delta, B)
    direct = phi1(m, delta, maj.R) - phi1(m, delta, np.ones(q))
    assert abs(dif_value(q, delta, B) - direct) < 1e-10


def test_small_graph_constants_ising():
    m = build_potts_matrix(2, 2.0)
    fp = treefix.make_fixpoint(m, 3, np.ones(2))
    sg = small_graph_constants(m, 3, fp, kmax=60)
    assert np.allclose(sg.mu, [1 / 3], atol=1e-12)
    assert np.allclose(sg.lam[:3], [1.0, 1.0, 4.0 / 3.0])
    assert abs(sg.ratio_limit - 3 / math.sqrt(7)) < 1e-12
    assert abs(sg.truncated_exp - sg.ratio_limit) < 1e-10


def test_small_graph_constants_potts():
    m = build_potts_matrix(3, 2.0)
    fp = treefix.make_fixpoint(m, 3, np.ones(3))
    sg = small_graph_constants(m, 3, fp, kmax=60)
    assert abs(sg.ratio_limit - 64.0 / 49.0) < 1e-12  # mu = 1/4 twice
    assert abs(sg.truncated_exp - sg.ratio_limit) < 1e-10


def test_small_graph_rejects_non_dominant():
    m = build_potts_matrix(3, 4.5)  # uniform unstable above Brc
    fp = treefix.make_fixpoint(m, 3, np.ones(3))
    with pytest.raises(ValueError):
        small_graph_constants(m, 3, fp)


def test_moment_report_potts():
    m = build_potts_matrix(3, 2.0)
    rep = moment_report(m, 3, compute_psi2=True)
    closed = 1.5 * math.log(12) - 2 * math.log(3)
    assert abs(rep.psi1_max - closed) < 1e-10
    assert abs(3 * math.log(rep.norm_value) - rep.psi1_max) < 1e-8
    assert abs(rep.psi2_max - 2 * rep.psi1_max) < 1e-7
    assert len(rep.dominant) == 1
    assert rep.small_graph is not None
    assert abs(rep.small_graph.ratio_limit - 64.0 / 49.0) < 1e-10


def test_moment_report_ordered_regime():
    m = build_potts_matrix(3, 4.2)
    rep = moment_report(m, 3, compute_psi2=False)
    maj = treefix.majority_fixpoint(3, 3, 4.2)
    assert abs(rep.psi1_max - phi1(m, 3, maj.R)) < 1e-9
    assert any(ph.dominant and np.max(ph.alpha) > 0.5 for ph in rep.phases)


def test_sinkhorn_raises_when_the_support_cannot_carry_the_marginals():
    from potts_lab.moments import _sinkhorn_project

    G = np.array([[1.0, 1.0], [0.0, 1.0]])
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="did not converge"):
        _sinkhorn_project(G, np.array([0.3, 0.7]), np.array([0.7, 0.3]))
    P = _sinkhorn_project(G, np.array([0.7, 0.3]), np.array([0.3, 0.7]))
    assert np.allclose(P, [[0.3, 0.4], [0.0, 0.3]], atol=1e-12)


def test_criterion_4_cells_match_pinned_values():
    # recorded with one norm ascent per start; stepping the starts as one
    # array may move the norm in its last bits, psi1 and psi2 not at all
    cells = json.loads((Path(__file__).parent / "pinned_moment_cells.json").read_text())
    assert len(cells) == 24
    for cell in cells:
        rep = moment_report(build_potts_matrix(cell["q"], cell["B"]), cell["delta"])
        assert [ph.psi1 for ph in rep.phases] == cell["phase_psi1"]
        assert rep.psi1_max == cell["psi1_max"]
        assert rep.psi2_max == cell["psi2_max"]
        assert abs(rep.norm_value - cell["norm_value"]) <= 1e-14 * cell["norm_value"]
