"""Self-tests of the benchmark: the tail-percentile rule, self time with
nested spans, and every output check rejecting a perturbed output.

    python3 -m pytest -q perfbench/test_bench.py
"""

import dataclasses
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import potts_lab as pl  # noqa: E402
from potts_lab import swsim  # noqa: E402

import checks  # noqa: E402
from checks import CheckError  # noqa: E402
from spans import Span, Tracer, layer_stats, self_times, tail_latency  # noqa: E402
from workloads import WORKLOADS, BOUNDARY_ALPHA  # noqa: E402


# -- tail percentile ---------------------------------------------------------


def test_tail_needs_ten_samples_beyond_a_point_above_the_median():
    assert tail_latency(list(range(20))) is None  # p50 is the median itself
    pct, value, beyond = tail_latency(list(range(21)))
    assert (value, beyond) == (10, 10) and pct == pytest.approx(100 * 11 / 21)


def test_tail_of_a_thousand_samples_is_p99():
    lat = list(np.random.default_rng(0).permutation(1000))
    pct, value, beyond = tail_latency(lat)
    assert pct == 99.0 and beyond == 10
    assert sum(x > value for x in lat) == 10


# -- spans -------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 3.0, 6.0, 0, 0),  # overlaps a: the union 1..6 counts once
        Span("c", 9.0, 12.0, 0, 0),  # clipped to the parent's end
    ]
    assert self_times(spans) == [4.0, 2.0, 1.0, 3.0, 3.0]


def test_tracer_nests_spans_and_inherits_the_op_id():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    with tr.span("op", op=7):
        tr.call("graphs.pairing_sample", lambda: None)
        with tr.span("outer"):
            tr.call("graphs.count_cycles", lambda: None)
    names = [(s.name, s.parent, s.op) for s in tr.spans]
    assert names == [("op", None, 7), ("graphs.pairing_sample", 0, 7), ("outer", 0, 7), ("graphs.count_cycles", 2, 7)]
    # op: 0..7, children cover 1..2 and 3..6 -> self 7 - 4 = 3; outer 3..6 minus 4..5 -> 2
    assert self_times(tr.spans) == [3.0, 1.0, 2.0, 1.0]
    stats = layer_stats(tr.spans, ["graphs.count_cycles", "swsim.run_chain"])
    assert stats["graphs.count_cycles"] == {"calls": 1, "self_ms": 1e3, "p50_ms": 1e3}
    assert stats["swsim.run_chain"] == {"calls": 0, "self_ms": 0.0, "p50_ms": 0.0}


# -- output checks -------------------------------------------------------------


@pytest.fixture(scope="module")
def trace():
    g = pl.pairing_sample(16, 3, seed=1)
    return pl.run_chain(g, 6, 3.0, steps=20, start="disordered", seed=2)


def test_sw_trace_check_rejects_perturbed_traces(trace):
    checks.sw_trace(trace, 20, 6, 3)
    freqs = trace.freqs.copy()
    freqs[3, 0] += 1e-9
    bad_phase = trace.phase.copy()
    bad_phase[5] = (bad_phase[5] + 1) % 6
    bad_mono = trace.mono_density.copy()
    bad_mono[0] = 1.5 + 1e-9
    for bad in (
        dataclasses.replace(trace, freqs=freqs),
        dataclasses.replace(trace, phase=bad_phase),
        dataclasses.replace(trace, mono_density=bad_mono),
        dataclasses.replace(trace, phase=trace.phase[:-1]),
    ):
        with pytest.raises(CheckError):
            checks.sw_trace(bad, 20, 6, 3)


@pytest.fixture(scope="module")
def kernel():
    g = pl.pairing_sample(4, 3, seed=3)
    P = pl.exact_sw_kernel(g, 2, 2.0)
    pi = swsim.gibbs_distribution(g, 2, 2.0)
    cut = swsim.phase_cut(g, 2, 0)
    return g, P, pi, cut, pl.conductance(g, 2, 2.0, cut, kernel=P, pi=pi)


def test_exact_kernel_check_rejects_broken_kernels(kernel):
    _, P, pi, _, _ = kernel
    checks.exact_kernel(P, pi)
    unnormalised = P.copy()
    unnormalised[0, 0] += 1e-6
    unbalanced = P.copy()  # row sums kept, detailed balance broken
    unbalanced[0, 1] += 1e-6
    unbalanced[0, 0] -= 1e-6
    for bad in (unnormalised, unbalanced):
        with pytest.raises(CheckError):
            checks.exact_kernel(bad, pi)


def test_phase_cut_and_conductance_checks_reject_perturbations(kernel):
    g, P, pi, cut, phi = kernel
    checks.phase_cut(cut, g.n, 2, 0)
    checks.conductance(phi, P, pi, cut)
    with pytest.raises(CheckError):
        checks.phase_cut(cut[1:], g.n, 2, 0)
    with pytest.raises(CheckError):
        checks.conductance(phi + 1e-6, P, pi, cut)


def test_cycle_count_check_rejects_perturbed_counts():
    g = pl.pairing_sample(200, 3, seed=5)
    X = pl.count_cycles(g, 4)
    checks.cycle_counts(g, X, 4)
    for k, delta in ((0, 1.0), (1, 1.0), (2, 0.5), (3, -X[3] - 1)):
        bad = X.copy()
        bad[k] += delta
        with pytest.raises(CheckError):
            checks.cycle_counts(g, bad, 4)
    k4 = pl.make_graph(4, 3, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)], strict=False)
    checks.cycle_counts(k4, pl.count_cycles(k4, 4), 4)
    short = pl.make_graph(4, 3, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], strict=False)
    with pytest.raises(CheckError):
        checks.cycle_counts(short, np.zeros(4), 4)


def test_moment_cell_check_rejects_a_shifted_psi1():
    psi1 = 0.3
    good = SimpleNamespace(psi1_max=psi1, psi2_max=2 * psi1, norm_value=math.exp(psi1 / 3))
    checks.moment_cell(good, 3)
    for field, value in (("psi1_max", psi1 + 1e-6), ("psi2_max", 2 * psi1 + 1e-6), ("norm_value", math.inf)):
        with pytest.raises(CheckError):
            checks.moment_cell(SimpleNamespace(**{**vars(good), field: value}), 3)


def test_closed_form_psi1_matches_the_solver_away_from_the_boundary():
    colorings = pl.interaction_matrix(np.ones((3, 3)) - np.eye(3))
    alpha = np.array([0.4, 0.35, 0.25])
    checks.boundary_psi1(pl.psi1(colorings, 3, alpha), alpha, 3)
    assert checks.coloring_psi1(np.ones(3) / 3, 10) == pytest.approx(5 * math.log(2) - 4 * math.log(3), abs=1e-14)


def test_boundary_psi1_check_rejects_shifted_and_infinite_values():
    want = checks.coloring_psi1(BOUNDARY_ALPHA, 3)
    assert want == pytest.approx(3.890e-05, rel=1e-3)
    checks.boundary_psi1(want, BOUNDARY_ALPHA, 3)
    for bad in (want + 1e-6, -math.inf):
        with pytest.raises(CheckError):
            checks.boundary_psi1(bad, BOUNDARY_ALPHA, 3)


def test_phase_query_check_rejects_wrong_regime_and_stability():
    q, delta, B = 3, 3, 3.9
    th = pl.potts_thresholds(q, delta)
    diagram = pl.potts_phase_diagram(q, delta, B)
    fps = pl.potts_fixpoints(q, delta, B)
    model = pl.build_potts_matrix(q, B)
    reports = [pl.classify_stability(model, delta, fp) for fp in fps]
    checks.phase_query(B, th, diagram, fps, reports)
    with pytest.raises(CheckError):
        checks.phase_query(B, th, dataclasses.replace(diagram, regime="disordered-dominant"), fps, reports)
    flipped = [dataclasses.replace(reports[0], hessian_eigen=-reports[0].hessian_eigen)] + reports[1:]
    with pytest.raises(CheckError):
        checks.phase_query(B, th, diagram, fps, flipped)
    with pytest.raises(CheckError):
        checks.phase_query(B, dataclasses.replace(th, Bu=th.Brc + 1), diagram, fps, reports)


# -- workloads -----------------------------------------------------------------


def test_op_inputs_and_digests_depend_only_on_the_seed():
    digests = []
    for seed in (4, 4, 5):
        wl = WORKLOADS["cycle-census"](seed)
        wl.setup()
        digests.append(wl.digest(wl.op(0, Tracer())))
    assert digests[0] == digests[1] != digests[2]


def test_phase_grid_passes_cover_the_grid_once():
    wl = WORKLOADS["phase-grid"](9)
    wl.setup()
    points = [wl.point(i) for i in range(wl.pass_ops * wl.n_B)]
    assert len(set(points)) == len(points)
    for p in range(wl.n_B):  # each pass visits every (q, delta) once
        chunk = points[p * wl.pass_ops : (p + 1) * wl.pass_ops]
        assert sorted((q, d) for q, d, _ in chunk) == sorted(wl.pairs)


def test_moment_report_pass_ends_with_the_boundary_psi1():
    wl = WORKLOADS["moment-report"](0)
    wl.setup()
    assert len(wl.cells) + 1 == wl.pass_ops
    assert wl.cells[wl.critical_op] == (2, 3.0)


def test_measure_counts_raising_ops_and_checks_as_failed():
    import run

    class Fake:
        pass_ops = 1
        work_per_op = 1

        def op(self, i, tr):
            if i == 0:
                raise ValueError("boom")
            return i

        def check(self, i, out):
            if i == 1:
                raise CheckError("bad output")
            if i == 2:
                out.freqs  # an int has no freqs: the check itself raises

        def digest(self, out):
            return bytes([out])

    m = run.measure(Fake(), Tracer(), n_ops=4)
    assert [(op, known) for op, _, known in m.failures] == [(0, None), (1, None), (2, None)]
    assert m.ops == 4 and m.work == 1 and len(m.digests) == 4


def test_block_rates_close_blocks_on_whole_passes_and_fold_the_remainder():
    import run

    # passes of two ops; blocks close at >= 1 s, the 0.5 s remainder joins the last
    latencies = [0.25, 0.25, 0.5, 0.5, 1.0, 1.0, 0.25, 0.25]
    done = [1, 1, 1, 0, 2, 2, 1, 1]
    assert run.block_rates(latencies, done, pass_ops=2, block_s=1.0) == [3 / 1.5, 6 / 2.5]
    assert run.block_rates([0.25], [1], pass_ops=1, block_s=1.0) == [4.0]


def test_replay_covers_whole_passes_up_to_the_requested_op_time():
    import run

    m = run.Measured(latencies=[0.5, 0.5, 0.5, 0.5, 0.5, 0.5])
    assert run.replay_ops(m, pass_ops=2, seconds=1.0) == 2
    assert run.replay_ops(m, pass_ops=2, seconds=1.2) == 4
    assert run.replay_ops(m, pass_ops=2, seconds=9.0) == 6
