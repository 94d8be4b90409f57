"""
Acceptance gate: one test per criterion, each printing its pass/fail line.

Criterion 10 asks for behavior that correct Swendsen-Wang dynamics cannot
exhibit and is expected to fail: the dynamics recolor the giant kept-edge
cluster uniformly at every step (kept in-majority degree > 1 at the
coexistence activity), so ordered-phase labels are not retained; and for
q = 2 on an odd-vertex graph the recoloring is symmetric under the global
color flip, making the phase-cut conductance identically 1 for every B.
Both mechanisms are verified exactly/independently in test_swsim.py.
"""

import math

import pytest

from potts_lab import acceptance, graphs


def _report(res):
    status = "PASS" if res.passed else ("INFO" if not res.gating else "FAIL")
    print(f"{status} criterion {res.number} ({res.name}) [{res.seconds:.1f}s]: {res.detail}")
    return res


def _run(number):
    return _report(acceptance.CRITERIA[number]())


def test_criterion_1_thresholds():
    res = _run(1)
    assert res.passed, res.detail
    assert res.seconds < 1.0


def test_criterion_2_coexistence():
    res = _run(2)
    assert res.passed, res.detail
    assert res.seconds < 5.0


def test_criterion_3_jacobian_hessian_equivalence():
    res = _run(3)
    assert res.passed, res.detail
    assert res.seconds < 30.0


def test_criterion_4_second_moment_and_norms(criterion_4_run):
    res = _report(criterion_4_run[0])
    assert res.passed, res.detail
    assert res.seconds < 120.0


def test_criterion_5_exact_first_moment():
    res = _run(5)
    assert res.passed, res.detail
    assert res.seconds < 60.0


def test_criterion_6_cycle_poisson_means():
    res = _run(6)
    assert res.passed, res.detail
    assert res.seconds < 120.0


def test_criterion_7_small_graph_constants():
    res = _run(7)
    assert res.passed, res.detail
    assert res.seconds < 1.0


def test_criterion_8_exact_sw_kernel():
    res = _run(8)
    assert res.passed, res.detail
    assert res.seconds < 60.0


def test_criterion_9_claim1_grid():
    res = _run(9)
    assert res.passed, res.detail
    assert res.seconds < 1.0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "not satisfiable by correct SW dynamics: giant-cluster recoloring "
        "randomizes the phase label every step, and the q=2 triangle phase-cut "
        "conductance is identically 1 by flip symmetry (constant, not "
        "decreasing, in B)"
    ),
)
def test_criterion_10_bottleneck_as_specified():
    res = _run(10)
    assert res.passed, res.detail


def test_criterion_11_bethe_trend_informational():
    res = _run(11)
    assert not res.gating
    # informational: assert the estimate was produced, report the gaps
    inside = res.detail.split("[")[1].split("]")[0]
    gaps = [float(x) for x in inside.split(",")]
    assert len(gaps) == 2 and all(math.isfinite(g) for g in gaps)


def test_criterion_11_estimates_are_pinned():
    # criterion 11's graphs and chain seeds; the floats pin every bond and
    # recoloring draw of the annealed chains and the order of the log-weight sums
    seed, pinned = 31, {64: 99.80871728195743, 128: 195.93515737054514}
    for n, want in pinned.items():
        g = graphs.pairing_sample(n, 3, seed=seed ^ n)
        assert acceptance.annealed_log_partition(g, 3, 2.0, n_chains=32, n_temps=64, seed=seed + n) == want
