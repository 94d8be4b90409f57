import math

import numpy as np
import pytest

from potts_lab.spinsys import build_potts_matrix, interaction_matrix
from potts_lab.treefix import (
    ATTRACTIVE,
    MARGINAL,
    UNSTABLE,
    canonical,
    classify_stability,
    find_fixpoints,
    fixpoint_residual,
    jacobian_matrix,
    majority_fixpoint,
    make_fixpoint,
    ordered_root_marginal,
    potts_fixpoints,
    potts_thresholds,
    tree_step,
    two_value_roots,
)


def test_tree_step_examples():
    m = build_potts_matrix(3, 2.0)
    r = tree_step(m, 3, np.ones(3))
    assert np.allclose(r / r[-1], 1.0)

    r = tree_step(m, 3, [2.0, 1.0, 1.0])
    # (2*2+1+1)^2 : (2+2+1)^2 = 36 : 25
    assert np.allclose(r / r[-1], [1.44, 1.0, 1.0])

    with pytest.raises(ValueError):
        tree_step(m, 3, [1.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        tree_step(m, 2, [1.0, 1.0, 1.0])


def test_iteration_converges_to_uniform_below_Bu():
    m = build_potts_matrix(3, 2.0)
    R = canonical(m, np.array([2.0, 1.0, 1.0]))
    for _ in range(10000):
        nxt = tree_step(m, 3, R)
        if np.max(np.abs(nxt - R)) < 1e-13:
            R = nxt
            break
        R = nxt
    assert fixpoint_residual(m, 3, R) < 1e-12
    assert np.max(R) - np.min(R) < 1e-10


def test_potts_fixpoint_census():
    # B < Bu: uniform only
    fps = potts_fixpoints(3, 3, 2.0)
    assert len(fps) == 1 and fps[0].potts_structure == (3, 1.0)

    # Bu < B < Brc: uniform plus exactly two majority fixpoints
    fps = potts_fixpoints(3, 3, 3.9)
    majors = [fp for fp in fps if fp.potts_structure[0] == 1]
    assert len(majors) == 2
    big = max(majors, key=lambda fp: fp.potts_structure[1])
    small = min(majors, key=lambda fp: fp.potts_structure[1])
    assert big.stability == ATTRACTIVE
    assert small.stability == UNSTABLE

    # B > Brc: exactly one majority fixpoint
    fps = potts_fixpoints(3, 3, 4.5)
    majors = [fp for fp in fps if fp.potts_structure[0] == 1]
    assert len(majors) == 1
    assert majors[0].stability == ATTRACTIVE


def test_fixpoint_residuals_on_grid():
    for q in (3, 5, 8):
        for delta in (3, 6):
            brc = 1 + q / (delta - 2)
            for B in np.linspace(1.05, 2 * brc, 7):
                for fp in potts_fixpoints(q, delta, float(B)):
                    assert fp.residual < 1e-10


def test_jacobian_uniform_spectrum():
    q, B, delta = 3, 3.5, 3
    m = build_potts_matrix(q, B)
    fp = make_fixpoint(m, delta, np.ones(q))
    rep = jacobian_matrix(m, delta, fp)
    assert np.allclose(rep.restricted_spectrum, (B - 1) / (B + q - 1), atol=1e-12)
    # the square-root-of-alpha vector is an exact eigenvector with eigenvalue 1
    e = np.sqrt(fp.alpha)
    assert np.max(np.abs(rep.matrix @ e - e)) < 1e-10


def test_jacobian_two_value_spectrum():
    q, delta, B = 4, 3, 5.2
    m = build_potts_matrix(q, B)
    for fp in potts_fixpoints(q, delta, B):
        t, x = fp.potts_structure
        if not (1 <= t <= q - 1):
            continue
        rep = jacobian_matrix(m, delta, fp)
        R = fp.R
        BR = m.entries @ R
        alpha = R * BR / np.sum(R * BR)
        lam_top = (B - 1) * R[0] ** 2 / alpha[0]
        lam_bot = (B - 1) * R[-1] ** 2 / alpha[-1]
        trace_resid = (
            (B + t - 1) * R[0] ** 2 / alpha[0]
            + (B + q - t - 1) * R[-1] ** 2 / alpha[-1]
            - 1.0
        )
        want = sorted([lam_top] * (t - 1) + [lam_bot] * (q - t - 1) + [trace_resid])
        assert np.allclose(np.sort(rep.restricted_spectrum), want, atol=1e-10)


def test_jacobian_rejects_non_fixpoint():
    m = build_potts_matrix(3, 2.0)
    with pytest.raises(ValueError, match="not a fixpoint"):
        jacobian_matrix(m, 3, np.array([2.0, 1.0, 1.0]))


def test_stability_examples():
    m = build_potts_matrix(3, 3.5)
    fp = make_fixpoint(m, 3, np.ones(3))
    assert fp.stability == ATTRACTIVE  # (delta-2)(B-1) = 2.5 < q = 3

    m = build_potts_matrix(3, 4.5)
    fp = make_fixpoint(m, 3, np.ones(3))
    assert fp.stability == UNSTABLE  # 3.5 > 3

    m = build_potts_matrix(3, 4.0)  # exactly Brc
    fp = make_fixpoint(m, 3, np.ones(3))
    assert fp.stability == MARGINAL


def test_hessian_equivalence_sample():
    for q, delta, B in [(3, 3, 3.9), (4, 4, 3.1), (5, 3, 7.0)]:
        m = build_potts_matrix(q, B)
        for fp in potts_fixpoints(q, delta, B):
            rep = classify_stability(m, delta, fp)
            assert rep.ferro_equivalence
            assert (fp.stability == ATTRACTIVE) == bool(np.all(rep.hessian_eigen < 0))


def test_middle_t_fixpoints_unstable():
    for q, delta in [(4, 3), (5, 3), (6, 4)]:
        brc = 1 + q / (delta - 2)
        for B in np.linspace(brc, 2.5 * brc, 5):
            for fp in potts_fixpoints(q, delta, float(B)):
                t, x = fp.potts_structure
                if 2 <= t <= q - 1:
                    assert fp.stability == UNSTABLE


def test_thresholds_closed_forms():
    th = potts_thresholds(3, 3)
    assert abs(th.Bu - (1 + 2 * math.sqrt(2))) < 1e-12
    assert abs(th.Bo - 1 / (2 ** (1 / 3) - 1)) < 1e-13
    assert th.Brc == 4.0
    with pytest.raises(ValueError):
        potts_thresholds(2, 3)
    with pytest.raises(ValueError):
        potts_thresholds(3, 2)


def test_threshold_root_against_independent_bisection():
    # independent oracle: bisect the quartic y^4 - 2y^3 - y^2 + 4y - 2 directly
    def quartic(y):
        return y**4 - 2 * y**3 - y**2 + 4 * y - 2

    lo, hi = 1.2, 3.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if quartic(lo) * quartic(mid) <= 0:
            hi = mid
        else:
            lo = mid
    rho = 0.5 * (lo + hi)
    assert abs(rho - math.sqrt(2)) < 1e-12
    bu = 1 + (rho - 1) * (rho**2 + 2) / (rho**2 - rho)
    assert abs(potts_thresholds(3, 3).Bu - bu) < 1e-10


def test_threshold_ordering_grid():
    for q in range(3, 9):
        for delta in range(3, 9):
            th = potts_thresholds(q, delta)
            assert th.Bu < th.Bo < th.Brc


def test_uniform_boundary_is_Brc():
    for q in range(3, 9):
        for delta in range(3, 9):
            th = potts_thresholds(q, delta)
            assert abs((delta - 2) * (th.Brc - 1) - q) < 1e-12


def test_ordered_root_marginal():
    th = potts_thresholds(3, 3)
    p = ordered_root_marginal(3, 3, th.Bo)
    x = 2.0 ** (4.0 / 3.0)
    assert abs(p - x / (x + 2)) < 1e-10

    th6 = potts_thresholds(6, 3)
    p6 = ordered_root_marginal(6, 3, th6.Bo)
    x6 = 5.0 ** (4.0 / 3.0)
    assert abs(p6 - x6 / (x6 + 5)) < 1e-10

    # large-B limit: the root marginal approaches 1
    assert ordered_root_marginal(3, 3, 500.0) > 0.999
    with pytest.raises(ValueError):
        ordered_root_marginal(3, 3, 2.0)


def test_majority_ratio_at_Bo_is_closed_form():
    # at Bo the attractive majority ratio is x = (q-1)^(2 d /(d+1))
    for q, delta in [(3, 3), (4, 3), (6, 3), (3, 4)]:
        d = delta - 1
        th = potts_thresholds(q, delta)
        fp = majority_fixpoint(q, delta, th.Bo)
        assert abs(fp.potts_structure[1] - (q - 1) ** (2 * d / (d + 1))) < 1e-8


def test_alpha_at_Bo_majority():
    # alpha_1 = (q-1)/q at the coexistence activity
    for q in (3, 6):
        th = potts_thresholds(q, 3)
        fp = majority_fixpoint(q, 3, th.Bo)
        assert abs(np.max(fp.alpha) - (q - 1) / q) < 1e-9


def test_two_value_roots_double_root_near_Bu():
    th = potts_thresholds(3, 3)
    roots = two_value_roots(3, 3, th.Bu + 1e-10, 1)
    assert len(roots) == 2  # just above Bu the pair exists
    assert abs(roots[0] - roots[1]) < 1e-3


def test_generic_search_finds_two_value_fixpoints():
    m = build_potts_matrix(3, 3.9)
    fps = find_fixpoints(m, 3, n_starts=200, seed=5)
    assert fps, "damped iteration found no fixpoints"
    for fp in fps:
        vals = np.unique(np.round(fp.R / fp.R.max(), 8))
        assert len(vals) <= 2  # Potts fixpoints take at most two values
        assert fp.residual < 1e-10
    found = {round(float(np.max(fp.R) / np.min(fp.R)), 6) for fp in fps}
    closed = {
        round(float(np.max(f.R) / np.min(f.R)), 6)
        for f in potts_fixpoints(3, 3, 3.9)
        if f.stability == ATTRACTIVE
    }
    assert closed <= found


def test_generic_search_non_potts():
    entries = np.array([[3.0, 1.0, 0.5], [1.0, 2.5, 1.0], [0.5, 1.0, 3.5]])
    m = interaction_matrix(entries)
    fps = find_fixpoints(m, 3, n_starts=50, seed=2)
    assert fps
    for fp in fps:
        assert fixpoint_residual(m, 3, fp.R) < 1e-10


def test_generic_search_orders_fixpoints_on_the_dedup_scale():
    # the four majority fixpoints of Potts(4, 6.0) differ only in where the
    # large coordinate sits; ulp-level noise in the small ones must not
    # reorder them
    m = build_potts_matrix(4, 6.0)
    fps = find_fixpoints(m, 3)
    assert [int(np.argmax(fp.R)) for fp in fps] == [3, 2, 1, 0]
    assert all(fp.stability == ATTRACTIVE for fp in fps)
    x = majority_fixpoint(4, 3, 6.0).potts_structure[1]
    for fp in fps:
        assert abs(fp.R.max() / fp.R.min() - x) < 1e-9


def test_damped_iterate_rows_stop_on_their_own():
    from potts_lab.treefix import _damped_iterate

    m = build_potts_matrix(3, 3.9)
    maj = majority_fixpoint(3, 3, 3.9).R
    starts = np.array([maj / maj.sum(), [1.0, 0.0, 0.0], [0.2, 0.3, 0.5]])
    out = _damped_iterate(m.entries, 2, starts)
    # the row started at a fixpoint stops after one step; the others converge
    assert np.max(np.abs(out[0] - starts[0])) < 1e-15
    for R in out:
        assert abs(R.sum() - 1.0) < 1e-14
        assert fixpoint_residual(m, 3, R) < 1e-10
    # a row with B R = 0 is left as it is
    assert np.array_equal(_damped_iterate(np.diag([0.0, 1.0]), 2, [[1.0, 0.0]]), [[1.0, 0.0]])


def _loop_two_value_roots(q, delta, B, t):
    """Point-by-point form of the grid scans in two_value_roots: the
    reference the vectorised scans must match exactly."""
    from potts_lab.treefix import _activity_of_ratio, _bisect, _golden_min

    d = delta - 1

    def g(y):
        return _activity_of_ratio(y, q, d, t) - (B - 1.0)

    ys = np.geomspace(1.0 + 1e-6, 2.0**20, 4001)
    with np.errstate(over="ignore", invalid="ignore"):
        gs = (ys - 1.0) * (t * ys**d + q - t) / (ys**d - ys) - (B - 1.0)
    roots = []
    for i in range(len(ys) - 1):
        if gs[i] == 0.0:
            roots.append(float(ys[i]))
        elif gs[i] * gs[i + 1] < 0:
            roots.append(_bisect(g, float(ys[i]), float(ys[i + 1])))
    for i in range(1, len(ys) - 1):
        if gs[i] > 0 and gs[i] <= gs[i - 1] and gs[i] <= gs[i + 1] and gs[i] < 1e-3:
            ymin = _golden_min(g, float(ys[i - 1]), float(ys[i + 1]))
            gmin = g(ymin)
            if gmin < 0:
                roots.append(_bisect(g, float(ys[i - 1]), ymin))
                roots.append(_bisect(g, ymin, float(ys[i + 1])))
            elif gmin <= 1e-12:
                roots.append(ymin)
    roots.sort()
    dedup = []
    for y in roots:
        if not dedup or abs(y - dedup[-1]) > 1e-9 * max(1.0, y):
            dedup.append(y)
    return dedup


def test_two_value_roots_matches_loop_reference():
    cases = []
    for q, delta in ((3, 3), (4, 5), (6, 3), (10, 10)):
        th = potts_thresholds(q, delta)
        # near-tangent pairs just above Bu, both sides of Bo and Brc
        for B in (th.Bu + 1e-10, th.Bu + 1e-4, th.Bo, th.Brc, 0.5 * (th.Bu + th.Brc), 2 * th.Brc):
            cases.extend((q, delta, B, t) for t in range(1, q))
    for q, delta, B, t in cases:
        assert two_value_roots(q, delta, B, t) == _loop_two_value_roots(q, delta, B, t)
