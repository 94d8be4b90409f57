"""
First and second moment exponents for q-spin models on random regular graphs.

The per-vertex exponent of E[Z restricted to a phase alpha] is
    psi1(alpha) = (Delta-1) sum_i alpha_i ln alpha_i + Delta * g1(x*),
where x* maximizes the edge entropy g1 over symmetric edge distributions with
marginals alpha.  The inner maximum is a matrix-scaling problem
(x_ij = B_ij l_i l_j) solved by symmetric iterative proportional fitting.
The global maximum of psi1 equals Delta * ln of the p->2 induced norm of the
Cholesky factor (p = Delta/(Delta-1)), and the second-moment exponent psi2 is
a constrained first moment of the paired-spin model with matrix kron(B, B).

Exact finite-n moments over the pairing model come from one coefficient,
E[Z^alpha] = (n! / prod n_i!) [x^D] prod_i D_i! exp(x^T B x / 2) / (Delta n - 1)!!
with D = Delta * n * alpha, taken by eliminating one colour at a time on a
log-domain table (_edge_lattice_logsum).  The second moment sums the same
coefficient of kron(B, B) over integer overlap matrices.  Past
EXACT_MOMENT_GUARD table entries per coefficient they raise SizeGuardError,
and a moment that overflows a float raises ValueError naming its log.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .spinsys import (
    InteractionMatrix,
    Phase,
    Signature,
    SizeGuardError,
    _check_simplex,
    cholesky_factor,
)
from . import treefix
from .graphs import _check_pairing_size
from .treefix import Fixpoint, potts_thresholds

IPF_TOL = 1e-13
IPF_MAX_ITER = 200000
SINKHORN_TOL = 1e-12
SINKHORN_MAX_SWEEPS = 100000
NORM_RANDOM_STARTS = 40
NORM_SEED = 7  # Philox key of the norm ascent's random starts
PSI2_SEED = 11  # Philox key of psi2's random overlap starts
PSI2_STARTS = 50  # random overlap starts per psi2 call
PSI2_MAX_STEPS = 400  # accepted steps per psi2 ascent
EXACT_MOMENT_GUARD = 5e7  # table entries one colour elimination touches (_elimination_entries)
SIMPLEX_STEP = 0.02
SIMPLEX_MAX_POINTS = 200000
SMALL_GRAPH_KMAX = 60
LN2 = math.log(2.0)


@dataclass(frozen=True)
class SmallGraphConstants:
    lam: np.ndarray
    delta_series: np.ndarray
    ratio_limit: float
    truncated_exp: float


@dataclass(frozen=True)
class PhaseDiagram:
    regime: str
    dif: float
    thresholds: treefix.PottsThresholds
    local_maxima: list
    dominant: list


@dataclass(frozen=True)
class MomentReport:
    phases: list
    psi1_max: float
    psi2_max: float | None
    norm_value: float | None
    dominant: list


def _logsumexp(values) -> float:
    values = np.asarray(values, dtype=float)
    values = values[values > -np.inf]
    if len(values) == 0:
        return -np.inf
    m = values.max()
    return float(m + np.log(np.sum(np.exp(values - m))))


# ---------------------------------------------------------------------------
# inner edge-distribution maximization (symmetric IPF)
# ---------------------------------------------------------------------------


def _ipf_scale(B: np.ndarray, alpha: np.ndarray, lam0=None):
    """Scaling vector lam with row sums of B_ij lam_i lam_j equal to alpha.

    Returns (lam, residual); residual above IPF_TOL signals an infeasible
    marginal/support combination (the iteration stagnates).
    """
    lam = np.sqrt(alpha) if lam0 is None else lam0.copy()
    best = np.inf
    for it in range(IPF_MAX_ITER):
        r = lam * (B @ lam)
        res = float(np.max(np.abs(r - alpha)))
        if res < IPF_TOL:
            return lam, res
        if it % 1000 == 999:
            # stagnation check: feasible instances contract geometrically
            if res > 0.999 * best:
                return lam, res
            best = min(best, res)
        lam = lam * np.sqrt(alpha / np.maximum(r, 1e-300))
    return lam, res


def _scaling_max(B: np.ndarray, alpha: np.ndarray, lam0=None):
    """The symmetric scaling x_ij = B_ij lam_i lam_j with row sums alpha that
    maximizes g1(x) = 1/2 sum x ln B - 1/2 sum x ln x.

    Returns (x, g1, lam), or None when the marginals are unreachable on the
    support of B.  Colors with alpha_i = 0 are dropped before scaling
    (0 ln 0 = 0) and get lam_i = 0; entries with B_ij = 0 are exactly zero
    in x.  lam0 warm-starts the scaling.
    """
    active = alpha > 0
    Ba = B[np.ix_(active, active)]
    aa = alpha[active]
    if np.any(Ba.sum(axis=1) == 0):
        return None
    lam_a, res = _ipf_scale(Ba, aa, lam0=None if lam0 is None else lam0[active])
    if res >= 1e-12:
        return None
    xa = Ba * np.outer(lam_a, lam_a)
    supp = xa > 0
    g1 = 0.5 * float(np.sum(xa[supp] * (np.log(Ba[supp]) - np.log(xa[supp]))))
    x = np.zeros_like(B)
    x[np.ix_(active, active)] = xa
    lam = np.zeros(len(alpha))
    lam[active] = lam_a
    return x, g1, lam


def _psi1_of_g1(delta: int, alpha: np.ndarray, g1: float) -> float:
    a = alpha[alpha > 0]
    return (delta - 1) * float(np.sum(a * np.log(a))) + delta * g1


def psi1(model: InteractionMatrix, delta: int, alpha) -> float:
    """First-moment exponent at phase alpha, in nats per vertex."""
    alpha = _check_simplex(alpha, model.q)
    sol = _scaling_max(model.entries, alpha)
    return -np.inf if sol is None else _psi1_of_g1(delta, alpha, sol[1])


def phi1(model: InteractionMatrix, delta: int, R) -> float:
    """Free-energy functional on ratio vectors; agrees with psi1 at fixpoints."""
    R = np.asarray(R, dtype=float)
    B = model.entries
    p = delta / (delta - 1.0)
    return 0.5 * delta * math.log(float(R @ B @ R)) - (delta - 1) * math.log(
        float(np.sum(R**p))
    )


# ---------------------------------------------------------------------------
# induced matrix norm  ||Bhat||_{p -> 2}
# ---------------------------------------------------------------------------


def matrix_norm_p2(Bhat: np.ndarray, p: float, seeds=None):
    """Maximize ||Bhat R||_2 / ||R||_p over R >= 0 for p in (1, 2].

    Critical points of the ratio are exactly the tree-recursion fixpoints of
    B = Bhat^T Bhat at degree delta = p/(p-1) + 1, so the ascent iterates the
    damped recursion from the uniform vector, the coordinate vectors, the
    supplied seeds and NORM_RANDOM_STARTS random starts, all stepped together
    as one batch.
    Returns (norm value, maximizer).
    """
    Bhat = np.asarray(Bhat, dtype=float)
    if not (1.0 < p <= 2.0):
        raise ValueError("induced norm implemented for p in (1, 2]")
    d = round(1.0 / (p - 1.0))
    B = np.maximum(Bhat.T @ Bhat, 0.0)
    q = B.shape[0]
    rng = np.random.Generator(np.random.Philox(key=NORM_SEED))

    starts = [np.full(q, 1.0 / q)]
    starts.extend(np.eye(q))
    if seeds is not None:
        starts.extend(np.asarray(s, dtype=float) for s in seeds)
    starts = np.vstack([starts, rng.dirichlet(np.ones(q), size=NORM_RANDOM_STARTS)])
    ends = treefix._damped_iterate(B, d, starts)
    starts = starts / starts.sum(axis=1, keepdims=True)

    # every start scores before and after its ascent; the first candidate within
    # 1e-12 of the maximum wins, so maximizers tied up to rounding cannot swap
    candidates = [R for pair in zip(starts, ends) for R in pair]
    vals = [float(np.linalg.norm(Bhat @ R)) / float(np.linalg.norm(R, ord=p)) for R in candidates]
    top = max(vals)
    k = next(i for i, v in enumerate(vals) if v >= top - 1e-12 * top)
    return top, candidates[k].copy()


# ---------------------------------------------------------------------------
# second moment exponent
# ---------------------------------------------------------------------------


def _sinkhorn_project(G: np.ndarray, row: np.ndarray, col: np.ndarray):
    """Scale a positive matrix to the given row/column marginals.

    Raises RuntimeError when the marginals are not reached within
    SINKHORN_TOL, as on a support that cannot carry them (the scalings then
    diverge).
    """
    u = np.ones(len(row))
    v = np.ones(len(col))
    for sweep in range(1, SINKHORN_MAX_SWEEPS + 1):
        u = row / (G @ v)
        v = col / (G.T @ u)
        P = G * np.outer(u, v)
        err = max(np.max(np.abs(P.sum(axis=1) - row)), np.max(np.abs(P.sum(axis=0) - col)))
        if err < SINKHORN_TOL:
            return P
        if not np.isfinite(err):
            break
    raise RuntimeError(
        f"Sinkhorn projection did not converge: marginal error {err:.3e} after {sweep} sweeps"
    )


def _paired_model(model: InteractionMatrix) -> np.ndarray:
    return np.kron(model.entries, model.entries)


def psi2(model: InteractionMatrix, delta: int, alpha) -> float:
    """Second-moment exponent at phase alpha: the paired-spin first moment
    maximized over overlap matrices gamma with both marginals alpha.

    Runs exponentiated-gradient ascent (with Sinkhorn reprojection) from the
    tensor point alpha alpha^T, the identity coupling diag(alpha), and
    PSI2_STARTS random feasible starts.  For ferromagnetic models at dominant
    alpha the maximum is attained at the tensor point with value 2 psi1(alpha).
    """
    alpha = _check_simplex(alpha, model.q)
    q = model.q
    K = _paired_model(model)
    rng = np.random.Generator(np.random.Philox(key=PSI2_SEED))

    starts = [np.outer(alpha, alpha), np.diag(alpha)]
    pos = alpha > 0
    for _ in range(PSI2_STARTS):
        G = rng.random((int(pos.sum()), int(pos.sum()))) + 0.1
        P = _sinkhorn_project(G, alpha[pos], alpha[pos])
        full = np.zeros((q, q))
        full[np.ix_(pos, pos)] = P
        starts.append(full)
    return max(_ascend_gamma(K, delta, alpha, gamma0) for gamma0 in starts)


def _ascend_gamma(K, delta, alpha, gamma0):
    gamma = np.maximum(gamma0, 0.0)
    q = gamma.shape[0]
    pos = alpha > 0
    block = np.ix_(pos, pos)
    sol = _scaling_max(K, gamma.reshape(-1))
    if sol is None:
        return -np.inf
    val, lam = _psi1_of_g1(delta, gamma.reshape(-1), sol[1]), sol[2]
    eta = 0.1
    for _ in range(PSI2_MAX_STEPS):
        gflat = gamma.reshape(-1)
        active = gflat > 0
        grad = np.zeros(q * q)
        # effective gradient of psi1 wrt gamma; constants and row/column
        # components vanish along feasible (zero row/col sum) directions
        grad[active] = (delta - 1) * np.log(gflat[active]) - delta * np.log(
            np.maximum(lam[active], 1e-300)
        )
        while eta > 1e-12:
            trial = gamma * np.exp(eta * (grad - grad[active].mean()).reshape(q, q))
            if not ((trial.sum(axis=1) > 0) == pos).all():
                eta *= 0.5
                continue
            cand = np.zeros_like(gamma)
            cand[block] = _sinkhorn_project(trial[block], alpha[pos], alpha[pos])
            sol = _scaling_max(K, cand.reshape(-1), lam0=lam)
            cand_val = -np.inf if sol is None else _psi1_of_g1(delta, cand.reshape(-1), sol[1])
            if cand_val > val:
                gamma, val, lam = cand, cand_val, sol[2]
                eta = min(eta * 1.5, 1.0)
                break
            eta *= 0.5
        else:  # no step size improves the value
            break
    return val


# ---------------------------------------------------------------------------
# exact finite-n pairing-model moments
# ---------------------------------------------------------------------------


def _log_pairings(m: int) -> float:
    # number of perfect matchings of m points, m even
    return math.lgamma(m + 1) - math.lgamma(m // 2 + 1) - (m // 2) * LN2


def _integer_counts(alpha, n: int, delta: int) -> np.ndarray:
    if n < 1:
        raise ValueError("exact moments need n >= 1 vertices")
    if max(n, delta * n) > 2**53:  # checked before any float count or int64 cast
        raise SizeGuardError(f"n = {n} at delta = {delta} passes 2^53 points, where float counts stop being exact")
    counts = np.asarray(alpha, dtype=float) * n
    rounded = np.round(counts)
    if np.max(np.abs(counts - rounded)) > 1e-9:
        raise ValueError("n * alpha must be a vector of integers")
    return rounded.astype(int)


def _elimination_entries(D) -> float:
    """Table entries _edge_lattice_logsum touches for point counts D: the
    colour-0 table, then for each later colour i and each j > i one copy of
    the table of colours i..k-1 and the (D_i+1-e)(D_j+1-e) overlap of each
    shift e = 1..min(D_i, D_j) times the other axes, and one contraction."""
    k = len(D)
    size = [math.prod(D[j] + 1.0 for j in range(i, k)) for i in range(k)]

    def passes(a, b):  # 1 + sum of (a - e)(b - e) over e = 1..c - 1, c = min(a, b), per a * b entries
        c = min(a, b)
        return 1 + c * (c - 1) * ((2 * c - 1) / 6 + abs(a - b) / 2) / (a * b)

    return size[1] + sum(
        size[i] * (1 + sum(passes(D[i] + 1, D[j] + 1) for j in range(i + 1, k))) for i in range(1, k)
    )


def _edge_lattice_logsum(D: np.ndarray, logB: np.ndarray) -> float:
    """log of [x^D] prod_i D_i! exp(x^T B x / 2), the summed pairing weight of
    every symmetric edge-count matrix whose rows use the point counts D.

    e edges between colours i < j weigh c_ij(e) = B_ij^e / e!, and r points
    of colour i left to loops weigh L_i(r) = B_ii^(r/2) / ((r/2)! 2^(r/2)) for
    even r (0 for odd r).  Colours are eliminated one at a time on a log-domain
    table whose axis for colour j counts the points of j used so far.  Colour 0
    fills it as sum_j ln c_0j(u_j) + ln L_0(D_0 - sum_j u_j).  Each later
    colour i shifts the table along the diagonal of axes (i, j) by c_ij for
    every j > i, then contracts axis i against L_i(D_i - u).  Raises
    SizeGuardError, before any allocation, when the entries touched exceed
    EXACT_MOMENT_GUARD.  Needs k >= 2 colours (the model constructors reject
    q < 2).
    """
    D = [int(d) for d in D]
    k = len(D)
    entries = _elimination_entries(D)
    if entries > EXACT_MOMENT_GUARD:
        raise SizeGuardError(
            f"colour elimination touches {entries:.10g} entries, past the guard {EXACT_MOMENT_GUARD:.10g}"
        )
    logfact = np.zeros(max(D) + 1)
    logfact[1:] = np.cumsum(np.log(np.arange(1.0, max(D) + 1.0)))

    def log_series(log_coef, top):  # ln(a^e / e!) for e = 0..top
        out = -logfact[: top + 1]
        out[1:] += np.arange(1, top + 1) * log_coef
        return out

    def log_loops(i):  # ln L_i(r) for r = 0..D_i
        out = np.full(D[i] + 1, -np.inf)
        out[::2] = log_series(logB[i, i] - LN2, D[i] // 2)
        return out

    used = np.ix_(*[np.arange(d + 1) for d in D[1:]])
    rest = D[0] - sum(used)
    F = np.where(rest >= 0, log_loops(0)[np.maximum(rest, 0)], -np.inf)
    F = F + sum(log_series(logB[0, j], D[j])[used[j - 1]] for j in range(1, k))
    for i in range(1, k):  # F's axis 0 is colour i, axis j - i colour j
        for j in range(i + 1, k):
            if min(D[i], D[j]) == 0 or logB[i, j] == -np.inf:
                continue  # no i-j edge possible: the shift is the identity
            c = log_series(logB[i, j], min(D[i], D[j]))
            G = F.copy()
            # views with the axes of colours i and j first
            Fij, Gij = np.moveaxis(F, j - i, 1), np.moveaxis(G, j - i, 1)
            for e in range(1, len(c)):
                np.logaddexp(Gij[e:, e:], Fij[:-e, :-e] + c[e], out=Gij[e:, e:])
            F = G
        T = F + log_loops(i)[::-1].reshape((-1,) + (1,) * (F.ndim - 1))
        top = T.max(axis=0)
        top = np.where(top > -np.inf, top, 0.0)
        with np.errstate(divide="ignore"):
            F = top + np.log(np.exp(T - top).sum(axis=0))
    return float(F) + float(logfact[D].sum())


def _exp_or_raise(name: str, log_value: float) -> float:
    try:
        return math.exp(log_value)
    except OverflowError:
        raise ValueError(f"{name} = exp({log_value!r}) overflows a float") from None


def _log_moment(n: int, delta: int, logB: np.ndarray, counts: np.ndarray) -> float:
    """ln E[Z^alpha] over the pairing model at colour counts n * alpha."""
    log_multinomial = math.lgamma(n + 1) - float(
        np.sum([math.lgamma(c + 1) for c in counts])
    )
    return log_multinomial + _edge_lattice_logsum(delta * counts, logB) - _log_pairings(n * delta)


def _first_moment_log(n: int, delta: int, model: InteractionMatrix, alpha) -> float:
    """ln E[Z^alpha] over the pairing model (-inf when Z^alpha is 0)."""
    counts = _integer_counts(_check_simplex(alpha, model.q), n, delta)
    _check_pairing_size(n, delta)
    with np.errstate(divide="ignore"):
        logB = np.log(model.entries)
    return _log_moment(n, delta, logB, counts)


def first_moment_exact(n: int, delta: int, model: InteractionMatrix, alpha) -> float:
    """E[Z^alpha] over the pairing model, exactly (log-domain internally).
    Raises ValueError when the value overflows a float."""
    return _exp_or_raise("E[Z^alpha]", _first_moment_log(n, delta, model, alpha))


def _overlap_matrices(counts: np.ndarray):
    """All nonnegative integer matrices with both row and column sums counts."""
    q = len(counts)

    def rows(i, colrem):
        if i == q:
            if np.all(colrem == 0):
                yield []
            return
        target = counts[i]

        def fill(j, rem, row):
            if j == q - 1:
                if 0 <= rem <= colrem[q - 1]:
                    yield row + [rem]
                return
            for v in range(min(rem, colrem[j]) + 1):
                yield from fill(j + 1, rem - v, row + [v])

        for row in fill(0, target, []):
            r = np.array(row)
            yield from ([r] + rest for rest in rows(i + 1, colrem - r))

    for mat in rows(0, counts.copy()):
        yield np.array(mat)


def second_moment_exact(n: int, delta: int, model: InteractionMatrix, alpha) -> float:
    """E[(Z^alpha)^2] over the pairing model: an exact paired-spin first
    moment summed over integer overlap matrices.  Tiny instances only.
    Raises ValueError when the value overflows a float."""
    counts = _integer_counts(_check_simplex(alpha, model.q), n, delta)
    _check_pairing_size(n, delta)
    with np.errstate(divide="ignore"):
        logK = np.log(_paired_model(model))
    terms = [_log_moment(n, delta, logK, gamma.reshape(-1)) for gamma in _overlap_matrices(counts)]
    return _exp_or_raise("E[(Z^alpha)^2]", _logsumexp(terms))


# ---------------------------------------------------------------------------
# Potts phase diagram
# ---------------------------------------------------------------------------


def dif_value(q: int, delta: int, B: float) -> float:
    """Free-energy gap between the ordered and disordered phases, i.e. the
    ratio functional at the attractive majority fixpoint minus its value at
    the uniform one.

    Evaluated in the exact y-parametrization (substituting the fixpoint
    relation into both functionals and simplifying); zero exactly at the
    coexistence activity Bo and strictly increasing in B.
    """
    x = treefix.majority_ratio(q, delta, B)
    if x is None:
        raise ValueError("no majority fixpoint below the uniqueness threshold")
    return _dif_of_ratio(q, delta, x)


def _dif_of_ratio(q: int, delta: int, x: float) -> float:
    """dif_value at the majority fixpoint with ratio x = R_1/R_q."""
    d = delta - 1
    y = x ** (1.0 / d)
    return 0.5 * (
        (d + 1) * math.log(y**d + q - 1)
        - (d - 1) * math.log(y ** (d + 1) + q - 1)
        + (d - 1) * math.log(q)
        - (d + 1) * math.log(q + y - 1)
    )


def _phase_from_fixpoint(fp: Fixpoint, psi1_value=None) -> Phase:
    """The phase at fp, with the stability and Hessian stored on it."""
    val = phi1(fp.model, fp.delta, fp.R) if psi1_value is None else psi1_value
    return Phase(
        alpha=fp.alpha,
        psi1=val,
        hessian_eigen=tuple(fp.hessian_eigen),
        local_max=fp.attractive,
    )


def _with_dominance(ph: Phase, psi1_max: float) -> Phase:
    return dataclasses.replace(ph, dominant=ph.psi1 >= psi1_max - 1e-9)


def _orbit(ph: Phase) -> list[Phase]:
    """The q color permutations of an ordered phase (distinct rolls)."""
    q = len(ph.alpha)
    rolls = ph.alpha[(np.arange(q) - np.arange(q)[:, None]) % q]  # row i: np.roll(alpha, i)
    # close[k] is np.allclose(rolls[0], rolls[k]): |a - b| <= 1e-8 + 1e-5 |b|.
    # Rolling both by i compares the same pairs of numbers, so
    # np.allclose(rolls[i], rolls[k]) is close[(k - i) % q]
    close = np.all(np.abs(rolls[0] - rolls) <= 1e-8 + 1e-5 * np.abs(rolls), axis=1).tolist()
    kept: list[int] = []
    for i in range(q):
        if not any(close[(k - i) % q] for k in kept):
            kept.append(i)
    return [dataclasses.replace(ph, alpha=rolls[i]) for i in kept]


def potts_phase_diagram(q: int, delta: int, B: float) -> PhaseDiagram:
    """Classify the activity B against the thresholds and report the local
    maxima and dominant phases of the first-moment exponent."""
    if not math.isfinite(B):
        raise ValueError(f"activity B must be finite, got {B}")
    if not B > 1:
        raise ValueError("phase diagram covers the ferromagnetic regime B > 1")
    th = potts_thresholds(q, delta)
    # the uniform fixpoint comes first and the majority one (above Bu) is the
    # t = 1 fixpoint of largest x, which potts_fixpoints lists last of its t
    fps = treefix.potts_fixpoints(q, delta, B)
    majority = [fp for fp in fps if fp.potts_structure[0] == 1][-1:]
    uniform, *ordered = [_phase_from_fixpoint(fp) for fp in fps[:1] + majority]
    x = majority[0].potts_structure[1] if majority else None
    dif, psi1_max, ordered_orbit = -np.inf, uniform.psi1, []
    if x is not None:
        dif = _dif_of_ratio(q, delta, x)
        psi1_max = max(uniform.psi1, ordered[0].psi1)
        ordered_orbit = _orbit(_with_dominance(ordered[0], psi1_max))
    uniform = _with_dominance(uniform, psi1_max)

    if x is not None and abs(B - th.Bo) <= 1e-9:
        regime = "coexistence"
        dominant = [uniform] + ordered_orbit
    elif x is None or B < th.Bu:
        regime = "disordered-only"
        dominant = [uniform]
    elif B < th.Bo:
        regime = "disordered-dominant"
        dominant = [uniform]
    elif B < th.Brc:
        regime = "ordered-dominant"
        dominant = ordered_orbit
    else:
        regime = "ordered-only"
        dominant = ordered_orbit

    local = ([uniform] if uniform.local_max or regime != "ordered-only" else []) + ordered_orbit
    return PhaseDiagram(
        regime=regime, dif=dif, thresholds=th, local_maxima=local, dominant=dominant
    )


# ---------------------------------------------------------------------------
# small-subgraph-conditioning constants
# ---------------------------------------------------------------------------


def small_graph_constants(fp: Fixpoint) -> SmallGraphConstants:
    """Cycle-count constants for the variance analysis at an attractive fixpoint,
    at the degree delta it was built at.

    mu are the non-unit eigenvalues of the fixpoint matrix M, lam_i is the
    limiting Poisson mean (Delta-1)^i / (2i) of i-cycles, delta_i = sum_j mu_j^i,
    and the second-to-first-squared moment ratio converges to
    prod_ij (1 - (Delta-1) mu_i mu_j)^(-1/2) = exp(sum_i lam_i delta_i^2).
    """
    mu, delta = fp.restricted_spectrum, fp.delta
    if np.max(np.abs(mu)) >= 1.0 / (delta - 1) - 1e-12:
        raise ValueError("small-graph constants need a Hessian-dominant fixpoint")
    i = np.arange(1, SMALL_GRAPH_KMAX + 1)
    lam = (delta - 1.0) ** i / (2.0 * i)
    delta_series = np.array([np.sum(mu**k) for k in i])
    ratio = float(np.prod((1.0 - (delta - 1.0) * np.outer(mu, mu)) ** -0.5))
    truncated = float(np.exp(np.sum(lam * delta_series**2)))
    return SmallGraphConstants(lam=lam, delta_series=delta_series, ratio_limit=ratio, truncated_exp=truncated)


# ---------------------------------------------------------------------------
# full moment report
# ---------------------------------------------------------------------------


def _as_potts(model: InteractionMatrix):
    B = model.entries
    q = model.q
    off = B[~np.eye(q, dtype=bool)]
    diag = np.diag(B)
    if np.allclose(off, 1.0, atol=1e-12) and np.allclose(diag, diag[0], atol=1e-12):
        return q, float(diag[0])
    return None


def simplex_interior(q: int) -> np.ndarray:
    """The interior points of the lattice covering of the simplex with spacing
    1/m, in lexicographic order.  m starts at 1/SIMPLEX_STEP and is coarsened
    until the whole lattice stays under SIMPLEX_MAX_POINTS; from q = 11 on
    m < q and the interior is empty."""
    m = max(1, round(1.0 / SIMPLEX_STEP))
    while math.comb(m + q - 1, q - 1) > SIMPLEX_MAX_POINTS:
        m -= 1
    if m < q:
        return np.empty((0, q))
    # the compositions of m - q into q parts, one part at a time: a row with
    # r left to place becomes r + 1 rows, whose next part runs 0..r
    parts = np.zeros((1, 0), dtype=np.int64)
    rest = np.array([m - q])
    for _ in range(q - 1):
        rows = np.repeat(np.arange(len(rest)), rest + 1)
        part = np.arange(len(rows)) - np.repeat(np.cumsum(rest + 1) - (rest + 1), rest + 1)
        parts = np.column_stack([parts[rows], part])
        rest = rest[rows] - part
    return (np.column_stack([parts, rest]) + 1) / m


def all_fixpoints(model: InteractionMatrix, delta: int, seed: int = 0) -> list[Fixpoint]:
    """Potts closed forms when the matrix has Potts structure, otherwise
    damped multi-start iteration."""
    pot = _as_potts(model)
    if pot is not None and pot[1] > 1:
        return treefix.potts_fixpoints(pot[0], delta, pot[1])
    return treefix.find_fixpoints(model, delta, seed=seed)


def moment_report(
    model: InteractionMatrix,
    delta: int,
    compute_psi2: bool = True,
    seed: int = 0,
) -> MomentReport:
    """Phases from the tree fixpoints with their psi1 values, the first/second
    moment maxima and the induced-norm cross-check."""
    fps = all_fixpoints(model, delta, seed=seed)
    if not fps:
        raise ValueError(
            f"no tree fixpoint found for the q = {model.q} model at delta = {delta}: all "
            f"{treefix.FIND_FIXPOINT_STARTS} damped-iteration ends failed the residual check"
        )
    psi1s = [psi1(model, delta, fp.alpha) for fp in fps]

    # safety net: a coarse scan of the ratio functional must not beat the
    # enumerated fixpoints
    pos = simplex_interior(model.q)
    if len(pos):
        B = model.entries
        p = delta / (delta - 1.0)
        quad = np.einsum("ki,ij,kj->k", pos, B, pos)
        vals = 0.5 * delta * np.log(quad) - (delta - 1) * np.log(np.sum(pos**p, axis=1))
        k = int(np.argmax(vals))
        if vals[k] > max(psi1s) + 1e-9:
            R = treefix._damped_iterate(B, delta - 1, pos[k])[0]
            fps.append(treefix.make_fixpoint(model, delta, R))
            psi1s.append(psi1(model, delta, fps[-1].alpha))

    psi1_max = max(psi1s)
    phases = [_with_dominance(_phase_from_fixpoint(fp, psi1_value=v), psi1_max) for fp, v in zip(fps, psi1s)]
    dominant = [ph for ph in phases if ph.dominant]

    norm_value = None
    if model.signature is Signature.FERROMAGNETIC:
        Bhat = cholesky_factor(model)
        norm_value, _ = matrix_norm_p2(Bhat, delta / (delta - 1.0), seeds=[fp.R for fp in fps])

    psi2_max = None
    if compute_psi2:
        psi2_max = max(psi2(model, delta, ph.alpha) for ph in dominant)

    return MomentReport(
        phases=phases,
        psi1_max=psi1_max,
        psi2_max=psi2_max,
        norm_value=norm_value,
        dominant=dominant,
    )
