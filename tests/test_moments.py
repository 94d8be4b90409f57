import hashlib
import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from potts_lab import moments, treefix
from potts_lab.moments import (
    _elimination_entries,
    _orbit,
    _scaling_max,
    dif_value,
    first_moment_exact,
    matrix_norm_p2,
    moment_report,
    phi1,
    potts_phase_diagram,
    psi1,
    psi2,
    second_moment_exact,
    small_graph_constants,
)
from potts_lab.spinsys import Phase, SizeGuardError, build_potts_matrix, cholesky_factor, interaction_matrix


# re-recorded once canonical divided each row by its max and the restricted
# spectrum came from deflating M's Perron eigenvalue; a phase query that
# rebuilds nothing must not move a single output bit
PINNED_PHASE_QUERY_DIGEST = "b21311660995876785630d14a43580182a7a289da214fc9cc257961e6945904c"


def _majority_fixpoint(q, delta, B):
    """The majority (t = 1) fixpoint with maximal ratio x, or None below Bu."""
    x = treefix.majority_ratio(q, delta, B)
    return None if x is None else treefix.two_value_fixpoints(build_potts_matrix(q, B), delta, [(1, x)])[0]


def colorings_matrix(q=3):
    return interaction_matrix(np.ones((q, q)) - np.eye(q))


# the inner edge-distribution maximum is moments._scaling_max
def test_inner_edge_max_product_measure():
    m = interaction_matrix(np.ones((3, 3)))
    for alpha in ([0.2, 0.3, 0.5], [0.6, 0.4, 0.0]):
        a = np.array(alpha)
        x, g1, _ = _scaling_max(m.entries, a)
        assert np.max(np.abs(x - np.outer(a, a))) < 1e-10
        assert np.max(np.abs(x.sum(1) - a)) < 1e-12


def test_inner_edge_max_potts_uniform():
    q, B = 3, 2.0
    m = build_potts_matrix(q, B)
    x, g1, _ = _scaling_max(m.entries, np.ones(q) / q)
    assert abs(x[0, 0] - B / (q * (q + B - 1))) < 1e-12
    assert abs(x[0, 1] - 1 / (q * (q + B - 1))) < 1e-12


def test_inner_edge_max_forced_support():
    m = interaction_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    x, g1, _ = _scaling_max(m.entries, np.array([0.5, 0.5]))
    assert np.allclose(x, [[0.0, 0.5], [0.5, 0.0]], atol=1e-13)
    assert abs(g1 - 0.5 * math.log(2)) < 1e-12
    # zero entries of B are exactly zero in the maximizer
    assert x[0, 0] == 0.0


def test_inner_edge_max_infeasible():
    m = interaction_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert _scaling_max(m.entries, np.array([0.3, 0.7])) is None
    assert psi1(m, 3, [0.3, 0.7]) == -np.inf


def test_ipf_first_order_conditions():
    rng = np.random.default_rng(8)
    raw = rng.random((4, 4))
    m = interaction_matrix(raw + raw.T + 0.2)
    alpha = rng.dirichlet(np.ones(4))
    x, _, _ = _scaling_max(m.entries, alpha)
    B = m.entries
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


def test_psi2_equals_twice_psi1_ferro(monkeypatch):
    monkeypatch.setattr("potts_lab.moments.PSI2_STARTS", 10)
    m = build_potts_matrix(2, 2.0)
    a = np.array([0.5, 0.5])
    assert abs(psi2(m, 3, a) - 2 * psi1(m, 3, a)) < 1e-7


def test_psi2_tensor_point_lower_bound(monkeypatch):
    monkeypatch.setattr("potts_lab.moments.PSI2_STARTS", 5)
    m = build_potts_matrix(3, 4.2)
    fp = _majority_fixpoint(3, 3, 4.2)
    a = fp.alpha
    assert psi2(m, 3, a) >= 2 * psi1(m, 3, a) - 1e-9


def test_psi2_colorings_counterexample(monkeypatch):
    monkeypatch.setattr("potts_lab.moments.PSI2_STARTS", 8)
    m = colorings_matrix()
    a = np.ones(3) / 3
    p1 = psi1(m, 10, a)
    p2 = psi2(m, 10, a)
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


def _enumerated_first_moment(n, delta, B, counts):
    """E[Z^alpha] summed over every symmetric edge-count matrix: the
    off-diagonal counts e_ij run over all values, the loops take the rest.
    Pairings per matrix are counted in exact integers."""
    q = len(counts)
    D = [delta * c for c in counts]
    pairs = list(itertools.combinations(range(q), 2))
    total = 0.0
    for e in itertools.product(*[range(min(D[i], D[j]) + 1) for i, j in pairs]):
        rest = list(D)
        for (i, j), eij in zip(pairs, e):
            rest[i] -= eij
            rest[j] -= eij
        if min(rest) < 0 or any(r % 2 for r in rest):
            continue
        loops = [r // 2 for r in rest]
        ways = math.prod(math.factorial(d) for d in D)
        ways //= math.prod(math.factorial(x) for x in e)
        ways //= math.prod(math.factorial(m) * 2**m for m in loops)
        weight = math.prod(B[i, j] ** x for (i, j), x in zip(pairs, e))
        weight *= math.prod(B[i, i] ** m for i, m in enumerate(loops))
        total += ways * weight
    multinomial = math.factorial(n) // math.prod(math.factorial(c) for c in counts)
    pairings = math.prod(range(n * delta - 1, 0, -2))
    return total * (multinomial / pairings)


@pytest.mark.parametrize(
    "model",
    [
        build_potts_matrix(2, 0.5),
        build_potts_matrix(3, 2.0),
        interaction_matrix(np.array([[3, 1, 0.5], [1, 2, 1], [0.5, 1, 2.5]])),
        colorings_matrix(),
    ],
    ids=["potts2", "potts3", "general", "colorings"],
)
def test_first_moment_matches_edge_count_enumeration(model):
    q = model.q
    for n in (2, 4, 6, 8):
        for head in itertools.product(range(n + 1), repeat=q - 1):
            if sum(head) > n:
                continue
            counts = [*head, n - sum(head)]  # zero entries included
            want = _enumerated_first_moment(n, 3, model.entries, counts)
            got = first_moment_exact(n, 3, model, np.array(counts) / n)
            if want == 0.0:
                assert got == 0.0, counts
            else:
                assert abs(got - want) <= 1e-12 * want, (n, counts)


def test_first_moment_keeps_the_recursion_values():
    # first_moment_exact of the edge-count recursion it replaced
    m = build_potts_matrix(3, 2.0)
    pinned = {48: 1.071561672233924e30, 102: 3.8977511610145167e65, 198: 1.2563364020775629e129}
    for n, want in pinned.items():
        assert abs(first_moment_exact(n, 3, m, np.ones(3) / 3) - want) <= 1e-12 * want


def test_first_moment_guard_boundary(monkeypatch):
    m = build_potts_matrix(3, 2.0)
    # 48.4 M and 50.0 M entries against the 5e7 guard
    assert _elimination_entries([522] * 3) <= moments.EXACT_MOMENT_GUARD < _elimination_entries([528] * 3)
    assert math.isfinite(moments._first_moment_log(522, 3, m, np.ones(3) / 3))
    # the count is printed in full, so one just past the bound reads apart from it
    message = r"^colour elimination touches 50045516 entries, past the guard 50000000$"
    with pytest.raises(SizeGuardError, match=message):
        first_moment_exact(528, 3, m, np.ones(3) / 3)
    # the bound itself is admitted
    monkeypatch.setattr(moments, "EXACT_MOMENT_GUARD", _elimination_entries([6, 6, 6]))
    assert first_moment_exact(6, 3, m, np.ones(3) / 3) > 0
    monkeypatch.setattr(moments, "EXACT_MOMENT_GUARD", _elimination_entries([6, 6, 6]) - 1)
    with pytest.raises(SizeGuardError):
        first_moment_exact(6, 3, m, np.ones(3) / 3)


def test_exact_moments_refuse_counts_past_exact_floats():
    m = build_potts_matrix(2, 2.0)
    for n, delta in [(2**53 + 2, 0), (2**52, 4), (2**62, 3)]:
        with pytest.raises(SizeGuardError, match=rf"^n = {n} at delta = {delta} passes 2\^53 points"):
            first_moment_exact(n, delta, m, [0.5, 0.5])
    with pytest.raises(SizeGuardError, match=r"passes 2\^53 points"):
        second_moment_exact(2**52, 4, m, [0.5, 0.5])


def test_exact_moments_name_the_log_value_that_overflows():
    with pytest.raises(ValueError, match=r"^E\[Z\^alpha\] = exp\(907\.\d+\) overflows a float$"):
        first_moment_exact(700, 3, build_potts_matrix(2, 2.0), [0.5, 0.5])
    huge = build_potts_matrix(2, 1e100)
    assert first_moment_exact(2, 3, huge, [1, 0]) == pytest.approx(1e300, rel=1e-12)
    with pytest.raises(ValueError, match=r"^E\[\(Z\^alpha\)\^2\] = exp\(1381\.\d+\) overflows"):
        second_moment_exact(2, 3, huge, [1, 0])


@pytest.mark.parametrize("n", [0, -2])
def test_exact_moments_need_a_positive_n(n):
    m = build_potts_matrix(2, 2.0)
    for exact in (first_moment_exact, second_moment_exact):
        with pytest.raises(ValueError, match=r"^exact moments need n >= 1 vertices$"):
            exact(n, 3, m, [0.5, 0.5])


@pytest.mark.parametrize(
    "alpha, message",
    [
        ([0.5, 0.6, 0.7], "simplex vector must have unit 1-norm"),
        ([0.5, 0.6, -0.1], "simplex vector must be nonnegative"),
        ([0.5, 0.5], "expected a length-3 vector"),
    ],
)
def test_moments_need_alpha_on_the_simplex(alpha, message):
    m = build_potts_matrix(3, 2.0)
    calls = [
        lambda: psi1(m, 3, alpha),
        lambda: psi2(m, 3, alpha),
        lambda: first_moment_exact(4, 3, m, alpha),
        lambda: second_moment_exact(4, 3, m, alpha),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


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
    maj = _majority_fixpoint(q, delta, B)
    direct = phi1(m, delta, maj.R) - phi1(m, delta, np.ones(q))
    assert abs(dif_value(q, delta, B) - direct) < 1e-10


def test_small_graph_constants_ising():
    m = build_potts_matrix(2, 2.0)
    fp = treefix.make_fixpoint(m, 3, np.ones(2))
    sg = small_graph_constants(fp)
    assert np.allclose(sg.lam[:3], [1.0, 1.0, 4.0 / 3.0])
    assert abs(sg.ratio_limit - 3 / math.sqrt(7)) < 1e-12
    assert abs(sg.truncated_exp - sg.ratio_limit) < 1e-10


def test_small_graph_constants_potts():
    m = build_potts_matrix(3, 2.0)
    fp = treefix.make_fixpoint(m, 3, np.ones(3))
    sg = small_graph_constants(fp)
    assert abs(sg.ratio_limit - 64.0 / 49.0) < 1e-12  # mu = 1/4 twice
    assert abs(sg.truncated_exp - sg.ratio_limit) < 1e-10


def test_small_graph_rejects_non_dominant():
    m = build_potts_matrix(3, 4.5)  # uniform unstable above Brc
    fp = treefix.make_fixpoint(m, 3, np.ones(3))
    with pytest.raises(ValueError):
        small_graph_constants(fp)


def test_moment_report_potts():
    m = build_potts_matrix(3, 2.0)
    rep = moment_report(m, 3, compute_psi2=True)
    closed = 1.5 * math.log(12) - 2 * math.log(3)
    assert abs(rep.psi1_max - closed) < 1e-10
    assert abs(3 * math.log(rep.norm_value) - rep.psi1_max) < 1e-8
    assert abs(rep.psi2_max - 2 * rep.psi1_max) < 1e-7
    assert len(rep.dominant) == 1


def test_moment_report_ordered_regime():
    m = build_potts_matrix(3, 4.2)
    rep = moment_report(m, 3, compute_psi2=False)
    maj = _majority_fixpoint(3, 3, 4.2)
    assert abs(rep.psi1_max - phi1(m, 3, maj.R)) < 1e-9
    assert any(ph.dominant and np.max(ph.alpha) > 0.5 for ph in rep.phases)


def test_sinkhorn_raises_when_the_support_cannot_carry_the_marginals():
    from potts_lab.moments import _sinkhorn_project

    G = np.array([[1.0, 1.0], [0.0, 1.0]])
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="did not converge"):
        _sinkhorn_project(G, np.array([0.3, 0.7]), np.array([0.7, 0.3]))
    P = _sinkhorn_project(G, np.array([0.7, 0.3]), np.array([0.3, 0.7]))
    assert np.allclose(P, [[0.3, 0.4], [0.0, 0.3]], atol=1e-12)


def test_criterion_4_cells_match_pinned_values(criterion_4_run):
    # checked on criterion 4's own moment reports (see conftest.py);
    # recorded with one norm ascent per start and re-recorded once the
    # two-value roots came from the activity curve's minima and once more
    # (one cell) when canonical divided by the max first; stepping the starts as one
    # array may move the norm in its last bits, psi1 and psi2 not at all
    reports = criterion_4_run[1]
    cells = json.loads((Path(__file__).parent / "pinned_moment_cells.json").read_text())
    assert len(cells) == len(reports) == 24
    for (model, delta, rep), cell in zip(reports, cells):
        assert delta == cell["delta"]
        assert np.array_equal(model.entries, build_potts_matrix(cell["q"], cell["B"]).entries)
        assert [ph.psi1 for ph in rep.phases] == cell["phase_psi1"]
        assert rep.psi1_max == cell["psi1_max"]
        assert rep.psi2_max == cell["psi2_max"]
        assert abs(rep.norm_value - cell["norm_value"]) <= 1e-14 * cell["norm_value"]


def _loop_orbit(alpha):
    """Reference: the distinct rolls of alpha, compared with np.allclose."""
    out = []
    for i in range(len(alpha)):
        a = np.roll(alpha, i)
        if not any(np.allclose(a, b) for b in out):
            out.append(a)
    return out


def test_orbit_matches_loop_reference():
    rng = np.random.default_rng(3)
    alphas = [
        np.full(4, 0.25),
        np.array([0.4, 0.1, 0.4, 0.1]),
        np.array([0.7, 0.1, 0.1, 0.1]),
        np.array([0.5, 0.5 - 5e-9, 1e-9, 1e-9]),  # rolls within atol of each other
        np.array([0.3, 0.3 + 2e-6, 0.2, 0.2 - 2e-6]),  # within rtol
        np.array([0.3, 0.3 + 2e-5, 0.2, 0.2 - 2e-5]),  # just outside
        potts_phase_diagram(6, 4, 8.0).local_maxima[-1].alpha,
    ]
    alphas += [a / a.sum() for a in rng.random((20, 5))]
    alphas += [np.tile(rng.random(k), 6 // k) for k in (1, 2, 3)]
    for alpha in alphas:
        got = [ph.alpha for ph in _orbit(Phase(alpha=alpha))]
        want = _loop_orbit(alpha)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def _loop_simplex_grid(q):
    """Reference: the whole lattice covering of the simplex, point by point
    in lexicographic order, at the spacing simplex_interior coarsens to."""
    m = max(1, round(1.0 / moments.SIMPLEX_STEP))
    while math.comb(m + q - 1, q - 1) > moments.SIMPLEX_MAX_POINTS:
        m -= 1
    points = []

    def rec(prefix, rem):
        if len(prefix) == q - 1:
            points.append(prefix + [rem])
            return
        for v in range(rem + 1):
            rec(prefix + [v], rem - v)

    rec([], m)
    return np.array(points, dtype=float) / m


def test_simplex_interior_matches_loop_reference():
    # the reference walks up to 2e5 lattice points per q in Python, so it runs
    # up to q = 11, the first q whose interior is empty
    for q in range(2, 12):
        grid = _loop_simplex_grid(q)
        want = grid[np.all(grid > 0, axis=1)]
        got = moments.simplex_interior(q)
        assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())
    for q in range(12, 33):
        assert moments.simplex_interior(q).shape == (0, q)


@pytest.mark.parametrize("q,delta", [(3, 3), (5, 4), (8, 6)])
def test_phase_diagram_hessians_are_classify_stability_bits(q, delta):
    """The phase diagram's batched stability pass gives each phase the
    Hessian classify_stability gives its fixpoint alone, in every regime."""
    th = treefix.potts_thresholds(q, delta)
    cells = {
        "disordered-only": (1.0 + th.Bu) / 2,
        "disordered-dominant": (th.Bu + th.Bo) / 2,
        "coexistence": th.Bo,
        "ordered-dominant": (th.Bo + th.Brc) / 2,
        "ordered-only": 1.5 * th.Brc,
    }
    for regime, B in cells.items():
        pd = potts_phase_diagram(q, delta, B)
        assert pd.regime == regime
        model = build_potts_matrix(q, B)
        uniform = treefix.make_fixpoint(model, delta, np.ones(q), potts_structure=(q, 1.0))
        want = {True: treefix.classify_stability(model, delta, uniform).hessian_eigen}
        maj = _majority_fixpoint(q, delta, B)
        if maj is not None:
            want[False] = treefix.classify_stability(model, delta, maj).hessian_eigen
        assert len(pd.local_maxima) > 0
        for ph in pd.local_maxima + pd.dominant:
            is_uniform = bool(np.all(ph.alpha == ph.alpha[0]))
            assert np.array(ph.hessian_eigen).tobytes() == want[is_uniform].tobytes()


def _two_row_phase_diagram(q, delta, B):
    """The phase diagram built from its own t = 1 root scan and a batched
    pass over the uniform and majority rows alone: the referee for the
    diagram that reads potts_fixpoints."""
    th = treefix.potts_thresholds(q, delta)
    model = build_potts_matrix(q, B)
    x = treefix.majority_ratio(q, delta, B)
    fps = treefix.two_value_fixpoints(model, delta, [(q, 1.0)] + ([] if x is None else [(1, x)]))
    uniform, *ordered = [moments._phase_from_fixpoint(fp) for fp in fps]
    dif, psi1_max, ordered_orbit = -np.inf, uniform.psi1, []
    if x is not None:
        dif = moments._dif_of_ratio(q, delta, x)
        psi1_max = max(uniform.psi1, ordered[0].psi1)
        ordered_orbit = _orbit(moments._with_dominance(ordered[0], psi1_max))
    uniform = moments._with_dominance(uniform, psi1_max)
    if x is not None and abs(B - th.Bo) <= 1e-9:
        regime, dominant = "coexistence", [uniform] + ordered_orbit
    elif x is None or B < th.Bu:
        regime, dominant = "disordered-only", [uniform]
    elif B < th.Bo:
        regime, dominant = "disordered-dominant", [uniform]
    else:
        regime, dominant = ("ordered-dominant" if B < th.Brc else "ordered-only"), ordered_orbit
    local = ([uniform] if uniform.local_max or regime != "ordered-only" else []) + ordered_orbit
    return moments.PhaseDiagram(regime=regime, dif=dif, thresholds=th, local_maxima=local, dominant=dominant)


def _diagram_bits(pd):
    def phase(ph):
        return (
            ph.alpha.dtype.str, ph.alpha.tobytes(), np.float64(ph.psi1).tobytes(),
            np.array(ph.hessian_eigen).tobytes(), ph.local_max, ph.dominant,
        )

    return (
        pd.regime, np.float64(pd.dif).tobytes(), pd.thresholds,
        [phase(ph) for ph in pd.local_maxima], [phase(ph) for ph in pd.dominant],
    )


@pytest.mark.parametrize("q", [3, 5, 10, 32])
def test_phase_diagram_matches_its_two_row_referee(q):
    for delta in (3, 6):
        th = treefix.potts_thresholds(q, delta)
        for B in (th.Bu - 1e-10, th.Bu + 1e-10, th.Bo, th.Brc, 2 * th.Brc):
            treefix._potts_fixpoints.cache_clear()
            assert _diagram_bits(potts_phase_diagram(q, delta, B)) == _diagram_bits(_two_row_phase_diagram(q, delta, B))


def _phase_query_digest() -> str:
    """SHA-256 over every phase-query output on the q, delta in 3..10 grid at
    the 20 B values np.linspace(1.05, 2 Brc, 20) of each (q, delta)."""
    h = hashlib.sha256()

    def put(*parts):
        for p in parts:
            if isinstance(p, str):
                h.update(p.encode() + b"\0")
            else:
                h.update(np.asarray(p, dtype=np.float64).tobytes())

    for q in range(3, 11):
        for delta in range(3, 11):
            th = treefix.potts_thresholds(q, delta)
            put(th.Bu, th.Bo, th.Brc)
            for B in np.linspace(1.05, 2 * th.Brc, 20):
                B = float(B)
                model = build_potts_matrix(q, B)
                fps = treefix.potts_fixpoints(q, delta, B)
                put(B, len(fps))
                for fp in fps:
                    put(fp.R, fp.jacobian_eigen, fp.stability, fp.residual)
                    put(treefix.classify_stability(model, delta, fp).hessian_eigen)
                pd = potts_phase_diagram(q, delta, B)
                put(pd.regime, pd.dif, len(pd.local_maxima), len(pd.dominant))
                for ph in pd.local_maxima + pd.dominant:
                    put(ph.alpha, ph.psi1, ph.hessian_eigen)
                    # the pinned digest also hashes the Hessian-negative flag
                    # and dominance with it, computed here from the spectrum
                    hess = bool(np.all(np.asarray(ph.hessian_eigen) < 0))
                    put(ph.local_max, hess, ph.dominant, ph.dominant and hess)
                try:
                    put(dif_value(q, delta, B))
                except ValueError:
                    put("below Bu")
    return h.hexdigest()


def test_phase_queries_match_pinned_digest():
    assert _phase_query_digest() == PINNED_PHASE_QUERY_DIGEST


def test_moment_report_says_when_no_fixpoint_is_found():
    zero = interaction_matrix(np.zeros((2, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert treefix.find_fixpoints(zero, 3) == []
        with pytest.raises(ValueError) as info:
            moment_report(zero, 3, compute_psi2=False)
    assert str(info.value) == (
        "no tree fixpoint found for the q = 2 model at delta = 3: "
        f"all {treefix.FIND_FIXPOINT_STARTS} damped-iteration ends failed the residual check"
    )
