"""Output checks for every benchmark op.

Each check raises CheckError naming the first property that fails.  Where a
quantity can be recomputed without potts_lab (cycle counts X1 and X2, vertex
degrees, phase cuts, the closed-form psi1 of proper 3-colourings) the check
recomputes it from the inputs.
"""

from __future__ import annotations

import math

import numpy as np

# criterion 8 tolerances of the acceptance suite
KERNEL_ROW_TOL = 1e-12
KERNEL_BALANCE_TOL = 1e-10
FREQ_SUM_TOL = 1e-12
# criterion 4 tolerances
PSI2_GAP_TOL = 1e-7
NORM_GAP_TOL = 1e-8
CLOSED_FORM_TOL = 1e-9
CONDUCTANCE_TOL = 1e-9


class CheckError(Exception):
    """An op's output failed its check."""


def _require(ok, what: str) -> None:
    if not ok:
        raise CheckError(what)


def sw_trace(trace, steps: int, q: int, delta: int) -> None:
    """A run_chain trace: lengths steps + 1, frequency rows summing to 1,
    phase = argmax of the frequencies, 0 <= mono density <= delta / 2."""
    phase, freqs, mono = trace.phase, trace.freqs, trace.mono_density
    _require(len(phase) == len(mono) == len(freqs) == steps + 1, "trace length is not steps + 1")
    _require(freqs.shape[1] == q, "freqs rows do not have q entries")
    _require(np.all(np.abs(freqs.sum(axis=1) - 1.0) <= FREQ_SUM_TOL), "a freqs row does not sum to 1")
    _require(np.array_equal(phase, np.argmax(freqs, axis=1)), "phase is not argmax of freqs")
    _require(np.all((mono >= 0) & (mono <= delta / 2)), "mono density outside [0, delta/2]")


def exact_kernel(P, pi) -> None:
    """Row sums, detailed balance and stationarity of the exact SW kernel."""
    _require(np.max(np.abs(P.sum(axis=1) - 1.0)) < KERNEL_ROW_TOL, "kernel row sums differ from 1")
    flux = pi[:, None] * P
    _require(np.max(np.abs(flux - flux.T)) < KERNEL_BALANCE_TOL, "kernel breaks detailed balance")
    _require(np.max(np.abs(pi @ P - pi)) < KERNEL_BALANCE_TOL, "Gibbs measure is not stationary")


def colorings(n: int, q: int) -> np.ndarray:
    """All q^n colourings, row index sum_v c_v q^v."""
    index = np.arange(q**n)
    return (index[:, None] // q ** np.arange(n)) % q


def phase_cut(cut, n: int, q: int, color: int) -> None:
    """The cut holds exactly the states whose dominant colour (lowest index
    on ties) is `color`."""
    states = colorings(n, q)
    counts = np.stack([(states == c).sum(axis=1) for c in range(q)], axis=1)
    want = np.nonzero(np.argmax(counts, axis=1) == color)[0]
    _require(np.array_equal(np.sort(np.asarray(cut)), want), "phase cut differs from recount")


def conductance(phi, P, pi, cut) -> None:
    """Phi(S) agrees with the flow out of the complement, which detailed
    balance makes equal to the flow out of S."""
    mask = np.zeros(len(pi), dtype=bool)
    mask[np.asarray(cut)] = True
    pS = float(pi[mask].sum())
    back = float(pi[~mask] @ P[np.ix_(~mask, mask)].sum(axis=1)) / (pS * (1.0 - pS))
    _require(math.isfinite(phi) and phi >= 0, "conductance is not a finite nonnegative number")
    _require(abs(phi - back) <= CONDUCTANCE_TOL * max(1.0, back), "conductance disagrees with the reverse flow")


def cycle_counts(g, X, kmax: int) -> None:
    """X1 and X2 recounted from g.edges, nonnegative integral counts, and
    every vertex of degree delta."""
    edges = np.asarray(g.edges, dtype=np.int64).reshape(-1, 2)
    loops = edges[:, 0] == edges[:, 1]
    deg = np.bincount(edges[:, 0], minlength=g.n) + np.bincount(edges[:, 1], minlength=g.n)
    _require(np.all(deg == g.delta), "a vertex degree differs from delta")
    _require(len(X) == kmax, "wrong number of cycle counts")
    _require(np.all(X >= 0) and np.all(X == np.round(X)), "cycle counts are not nonnegative integers")
    _, mult = np.unique(edges[~loops], axis=0, return_counts=True)
    _require(X[0] == np.count_nonzero(loops), "X1 differs from the self-loop count")
    _require(X[1] == int(np.sum(mult * (mult - 1) // 2)), "X2 differs from the parallel-pair count")


def moment_cell(rep, delta: int) -> None:
    """Criterion 4 identities: max psi2 = 2 max psi1 and
    max psi1 = delta ln ||Bhat||_{p->2}."""
    _require(math.isfinite(rep.psi1_max), "psi1 max is not finite")
    _require(abs(rep.psi2_max - 2 * rep.psi1_max) < PSI2_GAP_TOL, "psi2 max differs from 2 psi1 max")
    _require(
        abs(rep.psi1_max - delta * math.log(rep.norm_value)) < NORM_GAP_TOL,
        "psi1 max differs from delta ln norm",
    )


def coloring_psi1(alpha, delta: int) -> float:
    """Closed-form psi1 of proper 3-colourings: the maximiser has
    x_ij = (alpha_i + alpha_j - alpha_k) / 2 for i != j."""
    a = np.asarray(alpha, dtype=float)
    x = np.array([(a[i] + a[j] - a[k]) / 2 for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0))])
    # each unordered pair appears twice in the symmetric x, so g1 = -sum x ln x
    g1 = -float(np.sum(x * np.log(x)))
    return (delta - 1) * float(np.sum(a * np.log(a))) + delta * g1


def boundary_psi1(value, alpha, delta: int) -> None:
    want = coloring_psi1(alpha, delta)
    _require(abs(value - want) < CLOSED_FORM_TOL, f"psi1 = {value!r}, closed form {want!r}")


def _expected_regime(B: float, th) -> str:
    if abs(B - th.Bo) <= 1e-9:
        return "coexistence"
    if B < th.Bu:
        return "disordered-only"
    if B < th.Bo:
        return "disordered-dominant"
    if B < th.Brc:
        return "ordered-dominant"
    return "ordered-only"


def phase_query(B: float, th, diagram, fixpoints, reports) -> None:
    """Thresholds ordered Bu < Bo < Brc, the regime placed by them, and
    attractive <=> every Hessian eigenvalue negative at each fixpoint."""
    _require(th.Bu < th.Bo < th.Brc, "thresholds are not ordered Bu < Bo < Brc")
    _require(diagram.regime == _expected_regime(B, th), f"regime {diagram.regime} inconsistent with thresholds")
    _require(len(fixpoints) == len(reports) and fixpoints, "missing fixpoints or stability reports")
    for fp, rep in zip(fixpoints, reports):
        _require(fp.attractive == bool(np.all(rep.hessian_eigen < 0)), "attractive <=> Hessian-negative fails")
