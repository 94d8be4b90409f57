import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from potts_lab import graphs, moments, swsim, treefix
from potts_lab.spinsys import build_potts_matrix, interaction_matrix
from potts_lab.treefix import (
    ATTRACTIVE,
    MARGINAL,
    UNSTABLE,
    Y_MIN,
    canonical,
    classify_stability,
    find_fixpoints,
    make_fixpoint,
    ordered_root_marginal,
    potts_fixpoints,
    potts_thresholds,
    tree_step,
    two_value_fixpoints,
    two_value_roots,
)


def _majority_fixpoint(q, delta, B):
    """The majority (t = 1) fixpoint with maximal ratio x, or None below Bu."""
    x = treefix.majority_ratio(q, delta, B)
    return None if x is None else two_value_fixpoints(build_potts_matrix(q, B), delta, [(1, x)])[0]


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
    assert np.max(np.abs(tree_step(m, 3, R) - R)) < 1e-12
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
    assert np.allclose(fp.restricted_spectrum, (B - 1) / (B + q - 1), atol=1e-12)
    # the square-root-of-alpha vector is an exact eigenvector with eigenvalue 1
    e = np.sqrt(fp.alpha)
    M = treefix._spectra(m, delta, fp.R[None])[0][0]
    assert np.max(np.abs(M @ e - e)) < 1e-10


def test_jacobian_two_value_spectrum():
    q, delta, B = 4, 3, 5.2
    m = build_potts_matrix(q, B)
    for fp in potts_fixpoints(q, delta, B):
        t, x = fp.potts_structure
        if not (1 <= t <= q - 1):
            continue
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
        assert np.allclose(np.sort(fp.restricted_spectrum), want, atol=1e-10)


def test_jacobian_rejects_non_fixpoint():
    m = build_potts_matrix(3, 2.0)
    # a fixpoint of another activity is not a fixpoint of (model, delta),
    # even one of the same direction
    for other in (_majority_fixpoint(3, 3, 4.5), make_fixpoint(build_potts_matrix(3, 4.5), 3, np.ones(3))):
        with pytest.raises(ValueError, match="not a fixpoint"):
            classify_stability(m, 3, other)
    # the uniform fixpoint is a fixpoint at every degree, but its stored
    # spectrum belongs to the degree it was built at
    with pytest.raises(ValueError, match="not computed at degree delta = 4"):
        classify_stability(m, 4, make_fixpoint(m, 3, np.ones(3)))
    with pytest.raises(ValueError, match="not a fixpoint"):
        make_fixpoint(m, 3, [2.0, 1.0, 1.0])


def _no_tree_step(*args):
    raise AssertionError("classify_stability ran a tree step")


def test_classify_stability_reads_the_record(monkeypatch):
    """classify_stability checks the model and degree a fixpoint records, by
    entries, and runs no tree step."""
    cells = [(3, 3, 3.9), (5, 4, 3.0), (4, 6, 2.5), (10, 10, 2.2)]
    found = {cell: potts_fixpoints(*cell) for cell in cells}
    general = interaction_matrix([[3.0, 1.0, 0.5], [1.0, 2.0, 1.0], [0.5, 1.0, 2.5]])
    found[(3, 3, None)] = find_fixpoints(general, 3)
    monkeypatch.setattr(treefix, "tree_step", _no_tree_step)
    for (q, delta, B), fps in found.items():
        model = general if B is None else build_potts_matrix(q, B)
        # an equal model built anew, by the generic constructor
        equal = interaction_matrix(np.array(model.entries))
        # a same-q model whose entries differ in one ulp of one diagonal entry
        other = np.array(model.entries)
        other[0, 0] = np.nextafter(other[0, 0], np.inf)
        other = interaction_matrix(other)
        assert fps
        for fp in fps:
            assert np.array_equal(fp.model.entries, model.entries) and fp.delta == delta
            assert classify_stability(model, delta, fp) is fp
            assert classify_stability(equal, delta, fp) is fp
            with pytest.raises(ValueError, match="not a fixpoint"):
                classify_stability(other, delta, fp)
            with pytest.raises(ValueError, match=f"not computed at degree delta = {delta + 1}"):
                classify_stability(model, delta + 1, fp)
    with pytest.raises(ValueError, match="not a fixpoint"):
        classify_stability(build_potts_matrix(4, 3.9), 3, found[(3, 3, 3.9)][0])


def test_potts_fixpoints_take_a_0d_array_activity():
    want = potts_fixpoints(3, 3, 4.5)
    treefix._potts_fixpoints.cache_clear()
    got = potts_fixpoints(3, 3, np.array(4.5))
    assert len(got) == len(want) > 1
    for a, b in zip(got, want):
        assert a is not b
        for x, y in [(a.model.entries, b.model.entries), (a.R, b.R), (a.alpha, b.alpha), (a.hessian_eigen, b.hessian_eigen)]:
            assert x.tobytes() == y.tobytes()
        assert (a.delta, a.stability, a.residual, a.potts_structure) == (b.delta, b.stability, b.residual, b.potts_structure)
        assert type(a.potts_structure[1]) is float


@pytest.mark.parametrize("q,delta,B", [(3, 3, 3.9), (5, 4, 3.0), (6, 3, 9.0), (10, 10, 2.2)])
def test_batched_fixpoints_match_one_row_calls(q, delta, B):
    """Each row of a batched pass gets the bits it gets alone, and carries
    the spectrum a one-row pass takes at its stored R: jacobian_eigen is
    (Delta-1) times that restricted spectrum, bit for bit, and hessian_eigen,
    which classify_stability returns, is (1 + x)((Delta-1)x - 1) of it."""
    m = build_potts_matrix(q, B)
    fps = potts_fixpoints(q, delta, B)
    assert len(fps) > 1
    for fp in fps:
        assert fp.jacobian_eigen.tobytes() == ((delta - 1) * fp.restricted_spectrum).tobytes()
        assert treefix._spectra(m, delta, fp.R[None])[1][0].tobytes() == fp.restricted_spectrum.tobytes()
        t, x = fp.potts_structure
        one = make_fixpoint(m, delta, np.concatenate([np.full(t, x), np.ones(q - t)]), (t, x))
        for a, b in [
            (fp.R, one.R),
            (fp.alpha, one.alpha),
            (fp.jacobian_eigen, one.jacobian_eigen),
            (fp.hessian_eigen, one.hessian_eigen),
            (fp.hessian_eigen, classify_stability(m, delta, fp).hessian_eigen),
            (fp.hessian_eigen, (1.0 + fp.restricted_spectrum) * ((delta - 1) * fp.restricted_spectrum - 1.0)),
        ]:
            assert a.tobytes() == b.tobytes()
        assert (fp.stability, fp.residual) == (one.stability, one.residual)


def test_potts_fixpoints_order_is_by_t_then_increasing_x():
    fps = potts_fixpoints(5, 4, 3.0)
    structures = [fp.potts_structure for fp in fps]
    assert structures[0] == (5, 1.0)
    assert structures[1:] == sorted(structures[1:])
    t1 = [x for t, x in structures if t == 1]
    assert len(t1) == 2 and t1[0] < t1[1]
    assert abs(t1[0] - 2.83) < 0.01 and abs(t1[1] - 8.0) < 0.01


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
            assert classify_stability(m, delta, fp) is fp
            assert (fp.stability == ATTRACTIVE) == bool(np.all(fp.hessian_eigen < 0))


def test_middle_t_fixpoints_unstable():
    for q, delta in [(4, 3), (5, 3), (6, 4)]:
        brc = 1 + q / (delta - 2)
        for B in np.linspace(brc, 2.5 * brc, 5):
            for fp in potts_fixpoints(q, delta, float(B)):
                t, x = fp.potts_structure
                if 2 <= t <= q - 1:
                    assert fp.stability == UNSTABLE


def test_thresholds_cache_keeps_values_and_never_caches_a_rejection():
    for _ in range(2):
        with pytest.raises(ValueError, match="q >= 3 and delta >= 3"):
            potts_thresholds(2, 3)
        with pytest.raises(ValueError, match="q >= 3 and delta >= 3"):
            potts_thresholds(3, 2)
    before = potts_thresholds(5, 4)
    assert potts_thresholds(5, 4) is before
    potts_thresholds.cache_clear()
    after = potts_thresholds(5, 4)
    assert after is not before and after == before


def test_thresholds_hold_past_the_old_degree_cap():
    # Bu comes from the majority activity curve, which holds only non-positive
    # powers of y, so no degree overflows it
    assert potts_thresholds(3, 512).Bu > 1
    for q in (3, 10):
        for delta in (513, 600, 2000, 10**6):
            th = potts_thresholds(q, delta)
            assert 1 < th.Bu < th.Bo < th.Brc


def test_thresholds_name_a_curve_minimum_closer_to_1_than_y_min():
    assert 1 < potts_thresholds(3, 1035659).Bu
    # from here the t = 1 curve's minimiser lies below Y_MIN
    message = "the t = 1 activity curve of q = 3 at delta = 1035660 has its minimum closer to 1 than Y_MIN"
    with pytest.raises(ValueError, match=re.escape(message)):
        potts_thresholds(3, 1035660)


def test_nan_residual_is_not_a_fixpoint():
    # x = y^59 is finite but x B x overflows a float: canonical rescales that
    # row by its max first, so the majority fixpoint is stored
    fps = potts_fixpoints(3, 60, 1000.0)
    assert len(fps) == 3
    assert all(fp.residual < 1e-10 for fp in fps)
    assert np.isfinite(fps[-1].R).all() and fps[-1].potts_structure[1] > 1e152
    # a zero row has a zero form, which no rescaling mends
    with pytest.raises(ValueError, match="not a fixpoint: tree-step residual nan"):
        treefix.make_fixpoints(build_potts_matrix(3, 2.0), 3, np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="not a fixpoint"):
        treefix._check_fixpoints(np.array([0.0, np.nan]))


def test_canonical_divides_each_row_by_its_max_first():
    m = build_potts_matrix(3, 1000.0)
    rows = np.array([[2.0, 1.0, 1.0], [1e160, 1.0, 1.0], [0.5, 0.25, 3.0], [1e200, 1.0, 1.0]])
    # no row's quadratic form overflows once it is divided by its max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = canonical(m, rows)
        assert canonical(m, [1e200, 1.0, 1.0]).tobytes() == got[3].tobytes()
    for row, want in zip(rows, got):
        assert want.tobytes() == canonical(m, row).tobytes()
        scaled = row / row.max()
        assert want.tobytes() == (scaled / math.sqrt(scaled @ m.entries @ scaled)).tobytes()
        assert abs(want @ m.entries @ want - 1.0) < 1e-15


def _qr_spectra(model, delta, R):
    """The restricted spectra of the canonical rows of R taken on an
    orthonormal basis of the complement of sqrt(alpha), the QR of [e | I]
    minus its first column: the referee for _spectra's Perron deflation."""
    k, q = R.shape
    M = treefix._spectra(model, delta, R)[0]
    alpha = R * (model.entries @ R[:, :, None])[:, :, 0]
    basis = np.repeat(np.eye(q, q + 1, 1)[None], k, axis=0)
    basis[:, :, 0] = np.sqrt(alpha / alpha.sum(axis=1, keepdims=True))
    Q = np.linalg.qr(basis)[0][:, :, 1:]
    return np.linalg.eigvalsh(Q.transpose(0, 2, 1) @ M @ Q)


def _assert_spectra_match_the_qr_referee(model, delta, fps):
    R = np.array([fp.R for fp in fps])
    assert np.abs(np.array([fp.restricted_spectrum for fp in fps]) - _qr_spectra(model, delta, R)).max() <= 2e-15
    for fp in fps:
        assert fp.residual == treefix._residuals(model, delta, fp.R[None])[0]


def test_perron_deflation_matches_the_qr_complement_on_the_phase_grid():
    count = 0
    for q in range(3, 11):
        for delta in range(3, 11):
            for B in np.linspace(1.05, 2 * potts_thresholds(q, delta).Brc, 20):
                fps = potts_fixpoints(q, delta, float(B))
                _assert_spectra_match_the_qr_referee(build_potts_matrix(q, float(B)), delta, fps)
                count += len(fps)
    assert count == 6051


def test_perron_deflation_matches_the_qr_complement_on_general_models():
    rng = np.random.Generator(np.random.Philox(key=3))
    A = rng.uniform(0.2, 3.0, size=(4, 4))
    indefinite = A + A.T
    assert np.linalg.eigvalsh(indefinite)[0] < 0 < np.linalg.eigvalsh(indefinite)[-1]
    models = {
        "colourings": np.ones((3, 3)) - np.eye(3),
        "identity": np.eye(3),
        "bipartite": np.array([[0.0, 1.0], [1.0, 0.0]]),
        "indefinite": indefinite,
    }
    for name, entries in models.items():
        model = interaction_matrix(entries)
        # not delta = 4: there the bipartite model's damped ends oscillate for
        # every one of DAMPED_MAX_STEPS steps
        for delta in (3, 5):
            fps = [make_fixpoint(model, delta, np.ones(model.q))] if name != "indefinite" else []
            fps += find_fixpoints(model, delta)
            assert fps, (name, delta)
            _assert_spectra_match_the_qr_referee(model, delta, fps)


def test_potts_fixpoints_keeps_its_last_enumeration():
    treefix._potts_fixpoints.cache_clear()
    first = potts_fixpoints(5, 4, 3.0)
    again = potts_fixpoints(5, 4, 3.0)
    # a new list each call, holding the same Fixpoint objects
    assert again is not first and again == first
    assert all(a is b for a, b in zip(first, again))
    for fp in first:
        for a in (fp.R, fp.alpha, fp.jacobian_eigen, fp.restricted_spectrum, fp.hessian_eigen):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
    # a caller's list is its own
    again.append(None)
    assert potts_fixpoints(5, 4, 3.0) == first
    # a call that raises is not kept, and does not evict the last enumeration
    for _ in range(2):
        with pytest.raises(ValueError, match="B x past a float at delta = 3"):
            potts_fixpoints(3, 3, 1e300)
    assert all(a is b for a, b in zip(potts_fixpoints(5, 4, 3.0), first))
    # alternating keys recompute, to the same bits
    other = potts_fixpoints(5, 4, 4.0)
    back = potts_fixpoints(5, 4, 3.0)
    assert back[0] is not first[0] and potts_fixpoints(5, 4, 4.0)[0] is not other[0]
    for a, b in zip(back, first):
        assert (a.R.tobytes(), a.hessian_eigen.tobytes(), a.residual) == (b.R.tobytes(), b.hessian_eigen.tobytes(), b.residual)


def test_phase_query_enumerates_fixpoints_once(monkeypatch):
    """A phase diagram followed by potts_fixpoints at the same activity finds
    the roots of every t once and builds the fixpoints in one batched pass."""
    calls, passes = [], []
    real_roots, real_make = treefix.two_value_roots, treefix.make_fixpoints
    monkeypatch.setattr(treefix, "two_value_roots", lambda *a: calls.append(a) or real_roots(*a))
    monkeypatch.setattr(treefix, "make_fixpoints", lambda *a: passes.append(a) or real_make(*a))
    for q, delta, B in [(3, 3, 4.5), (6, 4, 5.0), (10, 5, 1.5)]:
        calls.clear()
        passes.clear()
        treefix._potts_fixpoints.cache_clear()
        pd = moments.potts_phase_diagram(q, delta, B)
        potts_fixpoints(q, delta, B)
        assert pd.local_maxima
        assert calls == [(q, delta, B, t) for t in range(1, q)] and len(passes) == 1


def test_two_value_roots_reach_activities_past_the_old_grid():
    # the majority root y ~ B - 1 lies past 2^20, where the old grid ended
    for q, delta, B in [(3, 3, 1.05e6), (10, 3, 2e6)]:
        fps = potts_fixpoints(q, delta, B)
        assert all(fp.residual < 1e-10 for fp in fps)
        assert max(two_value_roots(q, delta, B, 1)) > 2.0**20
    assert moments.potts_phase_diagram(3, 3, 1e6).regime == "ordered-only"
    # far out, the computed curve at the bound 1 + (B-1)/t rounds to just
    # below B - 1; that bound is then the root
    assert two_value_roots(4, 4, 9e15, 3) == [1.0 + (9e15 - 1.0) / 3]
    assert all(fp.residual < 1e-10 for fp in potts_fixpoints(4, 4, 9e15))
    # x = y^60 overflows a float at Delta = 61; x = y^2 = 1e300 does not at
    # Delta = 3, but B x does, and the row's canonical form underflows
    for q, delta, B in [(3, 61, 2e5), (3, 3, 1e150), (3, 2000, 2.0)]:
        with pytest.raises(ValueError, match=re.escape(f"activity B = {B} puts a fixpoint ratio x with B x past a float")):
            potts_fixpoints(q, delta, B)


def test_root_scan_rejects_a_non_finite_activity():
    # these test finiteness before the sign of B - 1, so NaN and -inf get the
    # same line as inf
    finiteness_first = [
        treefix.majority_ratio,
            ordered_root_marginal,
        moments.dif_value,
        lambda q, delta, B: two_value_roots(q, delta, B, 1),
        potts_fixpoints,
        moments.potts_phase_diagram,
    ]
    past_a_b_check = [graphs.reduction_constants, swsim.expected_mono, swsim.ordered_phase_vector]
    for B in (math.inf, -math.inf, math.nan):
        for f in finiteness_first + (past_a_b_check if B == math.inf else []):
            with pytest.raises(ValueError, match=f"activity B must be finite, got {B}"):
                f(3, 3, B)


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
        fp = _majority_fixpoint(q, delta, th.Bo)
        assert abs(fp.potts_structure[1] - (q - 1) ** (2 * d / (d + 1))) < 1e-8


def test_alpha_at_Bo_majority():
    # alpha_1 = (q-1)/q at the coexistence activity
    for q in (3, 6):
        th = potts_thresholds(q, 3)
        fp = _majority_fixpoint(q, 3, th.Bo)
        assert abs(np.max(fp.alpha) - (q - 1) / q) < 1e-9


def test_degree_below_three_is_rejected_before_the_root_scan():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="need degree delta >= 3"):
            _majority_fixpoint(3, 2, 3.0)
        with pytest.raises(ValueError, match="need degree delta >= 3"):
            two_value_roots(3, 2, 3.0, 1)


def test_two_value_roots_double_root_near_Bu():
    th = potts_thresholds(3, 3)
    roots = two_value_roots(3, 3, th.Bu + 1e-10, 1)
    assert len(roots) == 2  # just above Bu the pair exists
    assert abs(roots[0] - roots[1]) < 1e-3


def test_generic_search_finds_two_value_fixpoints():
    m = build_potts_matrix(3, 3.9)
    fps = find_fixpoints(m, 3, seed=5)
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


def test_generic_search_non_potts(monkeypatch):
    monkeypatch.setattr(treefix, "FIND_FIXPOINT_STARTS", 50)
    entries = np.array([[3.0, 1.0, 0.5], [1.0, 2.5, 1.0], [0.5, 1.0, 3.5]])
    m = interaction_matrix(entries)
    fps = find_fixpoints(m, 3, seed=2)
    assert fps
    for fp in fps:
        assert np.max(np.abs(tree_step(m, 3, fp.R) - fp.R)) < 1e-10


def test_generic_search_orders_fixpoints_on_the_dedup_scale():
    # the four majority fixpoints of Potts(4, 6.0) differ only in where the
    # large coordinate sits; ulp-level noise in the small ones must not
    # reorder them
    m = build_potts_matrix(4, 6.0)
    fps = find_fixpoints(m, 3)
    assert [int(np.argmax(fp.R)) for fp in fps] == [3, 2, 1, 0]
    assert all(fp.stability == ATTRACTIVE for fp in fps)
    x = _majority_fixpoint(4, 3, 6.0).potts_structure[1]
    for fp in fps:
        assert abs(fp.R.max() / fp.R.min() - x) < 1e-9


def test_damped_iterate_rows_stop_on_their_own():
    from potts_lab.treefix import _damped_iterate

    m = build_potts_matrix(3, 3.9)
    maj = _majority_fixpoint(3, 3, 3.9).R
    starts = np.array([maj / maj.sum(), [1.0, 0.0, 0.0], [0.2, 0.3, 0.5]])
    out = _damped_iterate(m.entries, 2, starts)
    # the row started at a fixpoint stops after one step; the others converge
    assert np.max(np.abs(out[0] - starts[0])) < 1e-15
    for R in out:
        assert abs(R.sum() - 1.0) < 1e-14
        assert make_fixpoint(m, 3, R).residual < 1e-10
    # a row with B R = 0 is left as it is
    assert np.array_equal(_damped_iterate(np.diag([0.0, 1.0]), 2, [[1.0, 0.0]]), [[1.0, 0.0]])


def test_damped_iterate_stops_a_period_2_row(monkeypatch):
    from potts_lab.treefix import _damped_iterate

    # at d = 60 the tree step sends (1/3, 2/3) to a coordinate vector, and the
    # damped recursion swaps (1/3, 2/3) and (2/3, 1/3) exactly
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    start = np.array([[1 / 3, 2 / 3]])
    monkeypatch.setattr(treefix, "DAMPED_MAX_STEPS", 2)
    assert np.array_equal(_damped_iterate(B, 60, start), start)
    # the row stops after its second step, back at its start, instead of
    # running out an odd step budget on the other point of the orbit
    monkeypatch.setattr(treefix, "DAMPED_MAX_STEPS", 5)
    assert np.array_equal(_damped_iterate(B, 60, start), start)
    # proper 3-colourings at delta = 10 oscillate with period 2 from every start
    monkeypatch.undo()
    assert find_fixpoints(interaction_matrix(np.ones((3, 3)) - np.eye(3)), 10) == []


def _exact_poly(q, delta, B, t):
    """r(y) = t y^d + (q - t) - (B - 1)(y + ... + y^(d-1)) and its derivative,
    in exact rational arithmetic at the float B; a_t(y) - (B - 1) has the sign
    of r for y > 1."""
    d = delta - 1
    c = Fraction(B) - 1

    def r(y):
        y = Fraction(y)
        return t * y**d + (q - t) - c * sum(y**k for k in range(1, d))

    def dr(y):
        y = Fraction(y)
        return t * d * y ** (d - 1) - c * sum(k * y ** (k - 1) for k in range(1, d))

    return r, dr


def test_two_value_roots_against_an_exact_referee():
    """Every returned root brackets a sign change of the exact r, and the root
    count is the one fixed by the exact signs of r at Y_MIN, at the curve's
    minimiser y* and at 1 + (B - 1)/t."""
    cells = [(q, 3, 1.05e6) for q in (3, 4, 6, 10)]
    for q in (3, 4, 6, 10):
        for delta in (3, 4, 6, 10):
            th = potts_thresholds(q, delta)
            near_bu = (th.Bu * (1 - 1e-9), th.Bu * (1 + 1e-9), th.Bu + 1e-4)
            for B in (1 + 1e-9, 1.05, *near_bu, th.Bo, th.Brc, 0.5 * (th.Bu + th.Brc), 2 * th.Brc):
                cells.append((q, delta, B))
    tangent = 0
    for q, delta, B in cells:
        for t in range(1, q):
            r, dr = _exact_poly(q, delta, B, t)
            roots = two_value_roots(q, delta, B, t)
            _, ystar, m = treefix._curve_minimum(q, delta, t)
            eps = Fraction(1, 10**12)
            if m == B - 1:
                # the curve's minimum is B - 1: the one root is r's double
                # root, where r' changes sign (q = 10, Delta = 3, B = 9, t = 2)
                assert roots == [ystar] and dr(ystar * (1 - eps)) < 0 < dr(ystar * (1 + eps))
                tangent += 1
                continue
            # next to a tangency |a_t'| at a root shrinks like the square root
            # of the relative gap between B - 1 and the minimum (about 1e-9 at
            # Bu(1 + 1e-9)), and an evaluation error moves the root by that much more
            if abs(m - (B - 1)) <= 1e-6 * (B - 1):
                eps = Fraction(1, 10**11)
            for y in roots:
                assert r(Fraction(y) * (1 - eps)) * r(Fraction(y) * (1 + eps)) < 0
            assert r(1 + (Fraction(B) - 1) / t) > 0
            want = 0 if r(ystar) > 0 else 1 + (ystar > Y_MIN and r(Y_MIN) > 0)
            assert len(roots) == want
    assert tangent == 1


def test_no_two_value_fixpoint_next_to_the_uniform_one_at_Brc():
    # at B = Brc every t's curve passes through B - 1 at y = 1, the uniform
    # fixpoint; a root closer to 1 than Y_MIN is that fixpoint, not another
    for q in range(3, 11):
        for delta in range(3, 11):
            fps = potts_fixpoints(q, delta, potts_thresholds(q, delta).Brc)
            assert fps[0].potts_structure == (q, 1.0)
            assert all(fp.potts_structure[1] >= 1 + 1e-4 for fp in fps[1:])
