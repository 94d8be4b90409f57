"""The five potts-lab benchmark workloads.

A workload builds its inputs from the seed in `setup`, runs op i with
`op(i, tr)`, checks each output and hashes it for the determinism digest;
each op that passes its check completes `work_per_op` units of `unit`.
Every call into potts_lab that an op makes, and sw-large's graph build in
setup, goes through `tr.call`, so a traced run times it as
`<module>.<function>` without tracing inside the package.  Ops run in
whole passes; a pass is the smallest op group whose mix of inputs is
balanced.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

import potts_lab as pl
from potts_lab import swsim

import checks
from spans import NullTracer

SW_Q = 6
SW_DELTA = 3


OP, SETUP, ORDER = 0, 1, 2  # seed-stream tags


def op_seeds(seed: int, *key: int, k: int = 1) -> list[int]:
    """k seeds drawn from the stream (seed, *key), a pure function of both."""
    return [int(s) for s in np.random.SeedSequence([seed, *key]).generate_state(k)]


def _hash(*parts) -> bytes:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.digest()


def _trace_digest(trace) -> bytes:
    return _hash(trace.phase, trace.freqs, trace.mono_density)


class SwLarge:
    name = "sw-large"
    unit = "vertex-steps"
    pass_ops = 1
    why = (
        "an ordered and a disordered 10-step SW chain on one 1e5-vertex graph: "
        "the array-bound, large-working-set regime where a components-kernel rewrite shows"
    )
    n = 100_000
    steps = 10
    # an op is one ordered and one disordered chain, so every op costs the same
    work_per_op = 2 * n * steps

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, tr=NullTracer()) -> None:
        self.g = None  # free the previous graph before building the next
        self.B = pl.potts_thresholds(SW_Q, SW_DELTA).Bo
        self.g = tr.call("graphs.pairing_sample", pl.pairing_sample, self.n, SW_DELTA, seed=op_seeds(self.seed, SETUP)[0])
        pl.run_chain(self.g, SW_Q, self.B, steps=1, seed=0)

    def op(self, i, tr):
        s = op_seeds(self.seed, OP, i, k=2)
        return [
            tr.call("swsim.run_chain", pl.run_chain, self.g, SW_Q, self.B, self.steps, start=start, seed=seed)
            for start, seed in ((("ordered", 0), s[0]), ("disordered", s[1]))
        ]

    def check(self, i, out) -> None:
        for trace in out:
            checks.sw_trace(trace, self.steps, SW_Q, SW_DELTA)

    def digest(self, out) -> bytes:
        return _hash(*(_trace_digest(t) for t in out))


class SwSmall:
    name = "sw-small"
    unit = "ops"
    work_per_op = 1
    pass_ops = 1
    why = (
        "criterion 8/10-sized SW calls where fixed per-call cost dominates, so a "
        "kernel that wins at large n but adds overhead shows here"
    )
    n = 128
    steps = 1000
    exact_n, exact_q, exact_B = 6, 3, 2.0

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, tr=NullTracer()) -> None:
        self.B = pl.potts_thresholds(SW_Q, SW_DELTA).Bo
        g = pl.pairing_sample(self.n, SW_DELTA, seed=0)
        pl.run_chain(g, SW_Q, self.B, steps=10, seed=0)
        h = pl.pairing_sample(2, SW_DELTA, seed=0)
        pl.conductance(h, 2, self.exact_B, swsim.phase_cut(h, 2, 0))

    def op(self, i, tr):
        s = op_seeds(self.seed, OP, i, k=4)
        g = tr.call("graphs.pairing_sample", pl.pairing_sample, self.n, SW_DELTA, seed=s[0])
        chains = [
            tr.call("swsim.run_chain", pl.run_chain, g, SW_Q, self.B, self.steps, start=start, seed=seed)
            for start, seed in ((("ordered", 0), s[1]), ("disordered", s[2]))
        ]
        h = tr.call("graphs.pairing_sample", pl.pairing_sample, self.exact_n, SW_DELTA, seed=s[3])
        q, B = self.exact_q, self.exact_B
        P = tr.call("swsim.exact_sw_kernel", pl.exact_sw_kernel, h, q, B)
        pi = tr.call("swsim.gibbs_distribution", swsim.gibbs_distribution, h, q, B)
        cut = tr.call("swsim.phase_cut", swsim.phase_cut, h, q, 0)
        phi = tr.call("swsim.conductance", pl.conductance, h, q, B, cut, kernel=P, pi=pi)
        return chains, P, pi, cut, phi

    def check(self, i, out) -> None:
        chains, P, pi, cut, phi = out
        for trace in chains:
            checks.sw_trace(trace, self.steps, SW_Q, SW_DELTA)
        checks.exact_kernel(P, pi)
        checks.phase_cut(cut, self.exact_n, self.exact_q, 0)
        checks.conductance(phi, P, pi, cut)

    def digest(self, out) -> bytes:
        chains, P, pi, cut, phi = out
        return _hash(*(_trace_digest(t) for t in chains), P, pi, cut, phi)


class CycleCensus:
    name = "cycle-census"
    unit = "graphs"
    work_per_op = 1
    pass_ops = 1
    why = (
        "pairing_sample plus count_cycles at n=2000, where graphs does most of "
        "the work; array-native graph storage shows here"
    )
    n = 2000
    kmax = 4

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, tr=NullTracer()) -> None:
        pl.count_cycles(pl.pairing_sample(self.n, 3, seed=0), self.kmax)

    def op(self, i, tr):
        g = tr.call("graphs.pairing_sample", pl.pairing_sample, self.n, 3, seed=op_seeds(self.seed, OP, i)[0])
        return g, tr.call("graphs.count_cycles", pl.count_cycles, g, self.kmax)

    def check(self, i, out) -> None:
        checks.cycle_counts(*out, self.kmax)

    def digest(self, out) -> bytes:
        return _hash(out[1])


BOUNDARY_ALPHA = (0.499999, 0.25, 0.250001)
KNOWN_DEFECT = (
    "psi1 of proper 3-colourings at the strictly feasible alpha=(0.499999, 0.25, 0.250001) "
    "returns -inf instead of the closed form: the IPF residual stalls above 1e-12 and is "
    "read as infeasible (ROADMAP open item 3)"
)


class MomentReport:
    name = "moment-report"
    unit = "ops"
    work_per_op = 1
    why = (
        "criterion-4 moment cells: the critical q=2 cell is matrix_norm_p2-bound, "
        "typical cells psi2-bound, plus the boundary psi1 defect of ROADMAP item 3"
    )
    delta = 3
    pass_ops = 9  # eight cells, then the boundary psi1
    critical_op = 2  # the q=2, B=Bo=Brc=3 cell, where matrix_norm_p2 dominates

    def __init__(self, seed: int):
        # the cells are fixed; the seed only names the run
        self.seed = seed

    def setup(self, tr=NullTracer()) -> None:
        bo3 = pl.potts_thresholds(3, self.delta).Bo
        # q = 2 has Bo = Brc = delta / (delta - 2), as in criterion 4
        self.cells = [(q, B) for q, bo in ((2, 3.0), (3, bo3)) for B in (1.5, 2.0, bo, 5.0)]
        self.colorings = pl.interaction_matrix(np.ones((3, 3)) - np.eye(3))
        m = pl.build_potts_matrix(3, 2.0)
        pl.psi1(m, self.delta, np.ones(3) / 3)

    def op(self, i, tr):
        k = i % self.pass_ops
        if k == len(self.cells):
            return tr.call("moments.psi1", pl.psi1, self.colorings, self.delta, np.array(BOUNDARY_ALPHA))
        q, B = self.cells[k]
        model = pl.build_potts_matrix(q, B)
        return tr.call("moments.moment_report", pl.moment_report, model, self.delta, compute_psi2=True)

    def attribute(self, i, out, tr) -> None:
        """Traced runs only: time the public building blocks of a cell."""
        k = i % self.pass_ops
        if k == len(self.cells):
            return
        q, B = self.cells[k]
        model = pl.build_potts_matrix(q, B)
        fps = tr.call("treefix.potts_fixpoints", pl.potts_fixpoints, q, self.delta, B)
        for fp in fps:
            tr.call("moments.psi1", pl.psi1, model, self.delta, fp.alpha)
        p = self.delta / (self.delta - 1.0)
        seeds = [fp.R for fp in fps]
        tr.call("moments.matrix_norm_p2", pl.matrix_norm_p2, pl.cholesky_factor(model), p, seeds=seeds)
        for ph in out.dominant:
            tr.call("moments.psi2", pl.psi2, model, self.delta, ph.alpha)

    def check(self, i, out) -> None:
        if i % self.pass_ops == len(self.cells):
            checks.boundary_psi1(out, BOUNDARY_ALPHA, self.delta)
        else:
            checks.moment_cell(out, self.delta)

    def known_defect(self, i, out) -> str | None:
        """The documented reason when op i fails in the known way."""
        if i % self.pass_ops == len(self.cells) and out == -math.inf:
            return KNOWN_DEFECT
        return None

    def digest(self, out) -> bytes:
        if isinstance(out, float):
            return _hash(out)
        return _hash(out.psi1_max, out.psi2_max, out.norm_value, [ph.psi1 for ph in out.phases])


class PhaseGrid:
    name = "phase-grid"
    unit = "queries"
    work_per_op = 1
    why = (
        "criterion-3 phase queries over q, delta in 3..10 and 20 B values, where "
        "treefix root scans dominate"
    )
    qs = range(3, 11)
    deltas = range(3, 11)
    n_B = 20
    pass_ops = len(qs) * len(deltas)

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, tr=NullTracer()) -> None:
        # a pass visits every (q, delta) once, each at its own B index, so
        # every pass has the same q and delta mix; 20 passes cover the grid
        self.pairs = [(q, d) for q in self.qs for d in self.deltas]
        self.offset = op_seeds(self.seed, SETUP)[0] % self.n_B
        self._perm = {}
        self.query(3, 3, 0, NullTracer())

    def _order(self, p: int) -> np.ndarray:
        if p not in self._perm:
            rng = np.random.Generator(np.random.Philox(key=op_seeds(self.seed, ORDER, p)[0]))
            self._perm[p] = rng.permutation(len(self.pairs))
        return self._perm[p]

    def query(self, q, delta, j, tr):
        th = tr.call("treefix.potts_thresholds", pl.potts_thresholds, q, delta)
        B = float(np.linspace(1.05, 2 * th.Brc, self.n_B)[j])
        diagram = tr.call("moments.potts_phase_diagram", pl.potts_phase_diagram, q, delta, B)
        fps = tr.call("treefix.potts_fixpoints", pl.potts_fixpoints, q, delta, B)
        model = pl.build_potts_matrix(q, B)
        reports = [tr.call("treefix.classify_stability", pl.classify_stability, model, delta, fp) for fp in fps]
        return B, th, diagram, fps, reports

    def point(self, i: int) -> tuple[int, int, int]:
        """(q, delta, B index) of query i."""
        p, r = divmod(i, self.pass_ops)
        k = int(self._order(p)[r])
        return (*self.pairs[k], (self.offset + p + k) % self.n_B)

    def op(self, i, tr):
        return self.query(*self.point(i), tr)

    def check(self, i, out) -> None:
        checks.phase_query(*out)

    def digest(self, out) -> bytes:
        B, th, diagram, fps, reports = out
        return _hash(
            B, diagram.regime, diagram.dif,
            *(fp.R for fp in fps), [fp.stability for fp in fps],
            *(rep.hessian_eigen for rep in reports),
        )


WORKLOADS = {w.name: w for w in (SwLarge, SwSmall, CycleCensus, MomentReport, PhaseGrid)}
