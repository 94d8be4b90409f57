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

Exact finite-n moments over the pairing model are evaluated by summing the
closed-form expression over all integer-feasible edge-count vectors in the
log domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .spinsys import (
    InteractionMatrix,
    Phase,
    Signature,
    SizeGuardError,
    build_potts_matrix,
    cholesky_factor,
)
from . import treefix
from .treefix import Fixpoint, potts_thresholds

IPF_TOL = 1e-13
SINKHORN_MAX_SWEEPS = 100000
LN2 = math.log(2.0)


@dataclass(frozen=True)
class EdgeDistribution:
    """Symmetric matrix of half-edge pair fractions with fixed marginals."""

    x: np.ndarray
    marginals: np.ndarray


@dataclass(frozen=True)
class SmallGraphConstants:
    mu: np.ndarray
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
    small_graph: SmallGraphConstants | None


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


def _ipf_scale(B: np.ndarray, alpha: np.ndarray, lam0=None, tol=IPF_TOL, max_iter=200000):
    """Scaling vector lam with row sums of B_ij lam_i lam_j equal to alpha.

    Returns (lam, residual); residual above tol signals an infeasible
    marginal/support combination (the iteration stagnates).
    """
    lam = np.sqrt(alpha) if lam0 is None else lam0.copy()
    best = np.inf
    for it in range(max_iter):
        r = lam * (B @ lam)
        res = float(np.max(np.abs(r - alpha)))
        if res < tol:
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


def inner_edge_max(model: InteractionMatrix, alpha, lam0=None):
    """Maximize g1(x) = 1/2 sum x ln B - 1/2 sum x ln x over symmetric x with
    row sums alpha.  Returns (EdgeDistribution, g1), or (None, -inf) when the
    marginals are unreachable on the support of B.

    Colors with alpha_i = 0 are dropped before scaling (0 ln 0 = 0), and
    entries with B_ij = 0 are exactly zero in the maximizer.
    """
    B = model.entries if isinstance(model, InteractionMatrix) else np.asarray(model, float)
    sol = _scaling_max(B, np.asarray(alpha, dtype=float), lam0)
    if sol is None:
        return None, -np.inf
    x, g1, _ = sol
    return EdgeDistribution(x=x, marginals=x.sum(axis=1)), g1


def psi1(model: InteractionMatrix, delta: int, alpha) -> float:
    """First-moment exponent at phase alpha, in nats per vertex."""
    alpha = np.asarray(alpha, dtype=float)
    sol = _scaling_max(model.entries, alpha)
    return -np.inf if sol is None else _psi1_of_g1(delta, alpha, sol[1])


def phi1(model: InteractionMatrix, delta: int, R) -> float:
    """Free-energy functional on ratio vectors; agrees with psi1 at fixpoints."""
    R = np.asarray(R, dtype=float)
    B = model.entries if isinstance(model, InteractionMatrix) else np.asarray(model, float)
    p = delta / (delta - 1.0)
    return 0.5 * delta * math.log(float(R @ B @ R)) - (delta - 1) * math.log(
        float(np.sum(R**p))
    )


# ---------------------------------------------------------------------------
# induced matrix norm  ||Bhat||_{p -> 2}
# ---------------------------------------------------------------------------


def matrix_norm_p2(Bhat: np.ndarray, p: float, seeds=None, n_starts: int = 40, seed: int = 7):
    """Maximize ||Bhat R||_2 / ||R||_p over R >= 0 for p in (1, 2].

    Critical points of the ratio are exactly the tree-recursion fixpoints of
    B = Bhat^T Bhat at degree delta = p/(p-1) + 1, so the ascent iterates the
    damped recursion from the uniform vector, the coordinate vectors, the
    supplied seeds and random starts, all stepped together as one batch.
    Returns (norm value, maximizer).
    """
    Bhat = np.asarray(Bhat, dtype=float)
    if not (1.0 < p <= 2.0):
        raise ValueError("induced norm implemented for p in (1, 2]")
    d = round(1.0 / (p - 1.0))
    B = np.maximum(Bhat.T @ Bhat, 0.0)
    q = B.shape[0]
    rng = np.random.Generator(np.random.Philox(key=seed))

    starts = [np.full(q, 1.0 / q)]
    starts.extend(np.eye(q))
    if seeds is not None:
        starts.extend(np.asarray(s, dtype=float) for s in seeds)
    starts = np.vstack([starts, rng.dirichlet(np.ones(q), size=n_starts)])
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


def _sinkhorn_project(G: np.ndarray, row: np.ndarray, col: np.ndarray, tol=1e-12):
    """Scale a positive matrix to the given row/column marginals.

    Raises RuntimeError when the marginals are not reached within tol, as on
    a support that cannot carry them (the scalings then diverge).
    """
    u = np.ones(len(row))
    v = np.ones(len(col))
    for sweep in range(1, SINKHORN_MAX_SWEEPS + 1):
        u = row / (G @ v)
        v = col / (G.T @ u)
        P = G * np.outer(u, v)
        err = max(np.max(np.abs(P.sum(axis=1) - row)), np.max(np.abs(P.sum(axis=0) - col)))
        if err < tol:
            return P
        if not np.isfinite(err):
            break
    raise RuntimeError(
        f"Sinkhorn projection did not converge: marginal error {err:.3e} after {sweep} sweeps"
    )


def _paired_model(model: InteractionMatrix) -> np.ndarray:
    return np.kron(model.entries, model.entries)


def psi2(model: InteractionMatrix, delta: int, alpha, n_starts: int = 50, seed: int = 11) -> float:
    """Second-moment exponent at phase alpha: the paired-spin first moment
    maximized over overlap matrices gamma with both marginals alpha.

    Runs exponentiated-gradient ascent (with Sinkhorn reprojection) from the
    tensor point alpha alpha^T, the identity coupling diag(alpha), and random
    feasible starts.  For ferromagnetic models at dominant alpha the maximum
    is attained at the tensor point with value 2 psi1(alpha).
    """
    alpha = np.asarray(alpha, dtype=float)
    q = model.q
    K = _paired_model(model)
    rng = np.random.Generator(np.random.Philox(key=seed))

    starts = [np.outer(alpha, alpha), np.diag(alpha)]
    pos = alpha > 0
    for _ in range(n_starts):
        G = rng.random((int(pos.sum()), int(pos.sum()))) + 0.1
        P = _sinkhorn_project(G, alpha[pos], alpha[pos])
        full = np.zeros((q, q))
        full[np.ix_(pos, pos)] = P
        starts.append(full)
    return max(_ascend_gamma(K, delta, alpha, gamma0) for gamma0 in starts)


def _ascend_gamma(K, delta, alpha, gamma0, max_iter=400):
    gamma = np.maximum(gamma0, 0.0)
    q = gamma.shape[0]
    pos = alpha > 0
    block = np.ix_(pos, pos)
    sol = _scaling_max(K, gamma.reshape(-1))
    if sol is None:
        return -np.inf
    val, lam = _psi1_of_g1(delta, gamma.reshape(-1), sol[1]), sol[2]
    eta = 0.1
    for _ in range(max_iter):
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


def _integer_counts(alpha, n: int) -> np.ndarray:
    counts = np.asarray(alpha, dtype=float) * n
    rounded = np.round(counts)
    if np.max(np.abs(counts - rounded)) > 1e-9:
        raise ValueError("n * alpha must be a vector of integers")
    return rounded.astype(int)


def _edge_lattice_logsum(D: np.ndarray, logB: np.ndarray, max_terms: float) -> float:
    """log sum over symmetric integer edge-count matrices with point capacities D.

    Each term carries
      sum_i lgamma(D_i+1) - sum_{i<j} lgamma(e_ij+1)
      - sum_i (lgamma(m_ii+1) + m_ii ln 2 - m_ii ln B_ii) + sum_{i<j} e_ij ln B_ij,
    with the diagonal loop counts m_ii forced by the leftover (even) capacities.
    The off-diagonal variables are enumerated recursively except the final two,
    which couple only through one shared color and therefore reduce to a
    convolution of two one-dimensional profiles.  Needs k >= 2 colors (the
    model constructors reject q < 2), so there is at least one pair.
    """
    k = len(D)
    D = D.astype(int)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    head = pairs[:-2]
    nodes = 1.0
    for i, j in head:
        nodes *= min(D[i], D[j]) + 1
    if nodes > max_terms:
        raise SizeGuardError(
            f"edge lattice recursion bound {nodes:.3g} exceeds the configured limit {max_terms:.3g}"
        )
    total = int(D.sum())
    logfact = np.zeros(total + 1)
    if total:
        logfact[1:] = np.cumsum(np.log(np.arange(1.0, total + 1.0)))
    diag_logB = np.diag(logB)
    base = float(logfact[D].sum())
    chunks: list[float] = []
    neg_inf = -np.inf

    def loop_profile(color, caps):
        """log weight of the forced loops for one color, per leftover capacity."""
        caps = np.asarray(caps)
        m, rem = np.divmod(caps, 2)
        out = np.where(rem == 0, -logfact[np.abs(m)] - m * LN2, neg_inf)
        if np.isneginf(diag_logB[color]):
            out = np.where(m > 0, neg_inf, out)
        else:
            out = out + m * diag_logB[color]
        return np.where(caps < 0, neg_inf, out)

    def edge_profile(i, j, top):
        e = np.arange(top + 1)
        out = -logfact[e]
        if np.isneginf(logB[i, j]):
            out = np.where(e > 0, neg_inf, out)
        else:
            out = out + e * logB[i, j]
        return e, out

    def leaf(cap, used_log):
        if len(pairs) == 1:
            (i, j) = pairs[0]
            e, prof = edge_profile(i, j, min(cap[i], cap[j]))
            rest = 0.0
            for c in range(k):
                if c not in (i, j):
                    rest += float(loop_profile(c, [cap[c]])[0])
            vals = used_log + rest + prof + loop_profile(i, cap[i] - e) + loop_profile(j, cap[j] - e)
            v = _logsumexp(vals)
            if v > neg_inf:
                chunks.append(base + v)
            return
        # final two pairs (a, w) and (b, w) share only the color w
        (a, w1), (b, w2) = pairs[-2], pairs[-1]
        assert w1 == w2
        w = w1
        rest = 0.0
        for c in range(k):
            if c not in (a, b, w):
                rest += float(loop_profile(c, [cap[c]])[0])
        if rest == neg_inf:
            return
        ea, fa = edge_profile(a, w, min(cap[a], cap[w]))
        eb, fb = edge_profile(b, w, min(cap[b], cap[w]))
        f = fa + loop_profile(a, cap[a] - ea)
        g = fb + loop_profile(b, cap[b] - eb)
        if np.all(np.isneginf(f)) or np.all(np.isneginf(g)):
            return
        fmax, gmax = f.max(), g.max()
        conv = np.convolve(np.exp(f - fmax), np.exp(g - gmax))
        s = np.arange(len(conv))
        with np.errstate(divide="ignore"):
            h = np.where(conv > 0, np.log(conv), neg_inf) + loop_profile(w, cap[w] - s)
        v = _logsumexp(h)
        if v > neg_inf:
            chunks.append(base + used_log + rest + fmax + gmax + v)

    def recurse(idx, cap, used_log):
        if idx == len(head):
            leaf(cap, used_log)
            return
        i, j = pairs[idx]
        if np.isneginf(logB[i, j]):
            recurse(idx + 1, cap, used_log)
            return
        for ev in range(min(cap[i], cap[j]) + 1):
            cap[i] -= ev
            cap[j] -= ev
            recurse(idx + 1, cap, used_log - float(logfact[ev]) + ev * logB[i, j])
            cap[i] += ev
            cap[j] += ev

    recurse(0, D.copy(), 0.0)
    return _logsumexp(chunks)


def first_moment_exact(
    n: int, delta: int, model: InteractionMatrix, alpha, max_terms: float = 5e6
) -> float:
    """E[Z^alpha] over the pairing model, exactly (log-domain internally)."""
    if (n * delta) % 2 != 0:
        raise ValueError("delta * n must be even")
    counts = _integer_counts(alpha, n)
    B = model.entries
    with np.errstate(divide="ignore"):
        logB = np.log(B)
    D = delta * counts
    log_multinomial = math.lgamma(n + 1) - float(
        np.sum([math.lgamma(c + 1) for c in counts])
    )
    inner = _edge_lattice_logsum(D, logB, max_terms)
    if inner == -np.inf:
        return 0.0
    return math.exp(log_multinomial + inner - _log_pairings(n * delta))


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


def second_moment_exact(
    n: int, delta: int, model: InteractionMatrix, alpha, max_terms: float = 1e6
) -> float:
    """E[(Z^alpha)^2] over the pairing model: an exact paired-spin first
    moment summed over integer overlap matrices.  Tiny instances only."""
    if (n * delta) % 2 != 0:
        raise ValueError("delta * n must be even")
    counts = _integer_counts(alpha, n)
    K = _paired_model(model)
    with np.errstate(divide="ignore"):
        logK = np.log(K)
    total_pairings = _log_pairings(n * delta)
    terms = []
    for gamma in _overlap_matrices(counts):
        gflat = gamma.reshape(-1)
        log_multinomial = math.lgamma(n + 1) - float(
            np.sum([math.lgamma(g + 1) for g in gflat])
        )
        inner = _edge_lattice_logsum(delta * gflat, logK, max_terms)
        if inner > -np.inf:
            terms.append(log_multinomial + inner - total_pairings)
    out = _logsumexp(terms)
    return 0.0 if out == -np.inf else math.exp(out)


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
    fp = treefix.majority_fixpoint(q, delta, B)
    if fp is None:
        raise ValueError("no majority fixpoint below the uniqueness threshold")
    return _dif_of_ratio(q, delta, fp.potts_structure[1])


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


def _phase_from_fixpoint(model, delta, fp, psi1_value=None) -> Phase:
    rep = treefix.classify_stability(model, delta, fp)
    val = phi1(model, delta, fp.R) if psi1_value is None else psi1_value
    hess_neg = bool(np.all(rep.hessian_eigen < 0))
    return Phase(
        alpha=fp.alpha,
        psi1=val,
        hessian_eigen=tuple(rep.hessian_eigen),
        local_max=fp.stability == treefix.ATTRACTIVE,
        hessian_local_max=hess_neg,
    )


def _with_dominance(ph: Phase, psi1_max: float) -> Phase:
    dom = ph.psi1 >= psi1_max - 1e-9
    return replace(ph, dominant=dom, hessian_dominant=dom and ph.hessian_local_max)


def _orbit(ph: Phase) -> list[Phase]:
    """The q color permutations of an ordered phase (distinct rolls)."""
    q = len(ph.alpha)
    rolls = ph.alpha[(np.arange(q) - np.arange(q)[:, None]) % q]  # row i: np.roll(alpha, i)
    # close[i, k] is np.allclose(rolls[i], rolls[k]): |a - b| <= 1e-8 + 1e-5 |b|
    close = np.all(np.abs(rolls[:, None] - rolls[None]) <= 1e-8 + 1e-5 * np.abs(rolls[None]), axis=2)
    kept: list[int] = []
    for i in range(q):
        if not close[i, kept].any():
            kept.append(i)
    return [replace(ph, alpha=rolls[i]) for i in kept]


def potts_phase_diagram(q: int, delta: int, B: float) -> PhaseDiagram:
    """Classify the activity B against the thresholds and report the local
    maxima and dominant phases of the first-moment exponent."""
    if not B > 1:
        raise ValueError("phase diagram covers the ferromagnetic regime B > 1")
    th = potts_thresholds(q, delta)
    model = build_potts_matrix(q, B)
    uniform_fp = treefix.make_fixpoint(model, delta, np.ones(q), potts_structure=(q, 1.0))
    uniform = _phase_from_fixpoint(model, delta, uniform_fp)
    maj = treefix.majority_fixpoint(q, delta, B)
    dif, psi1_max, ordered_orbit = -np.inf, uniform.psi1, []
    if maj is not None:
        ordered = _phase_from_fixpoint(model, delta, maj)
        dif = _dif_of_ratio(q, delta, maj.potts_structure[1])
        psi1_max = max(uniform.psi1, ordered.psi1)
        ordered_orbit = _orbit(_with_dominance(ordered, psi1_max))
    uniform = _with_dominance(uniform, psi1_max)

    if maj is not None and abs(B - th.Bo) <= 1e-9:
        regime = "coexistence"
        dominant = [uniform] + ordered_orbit
    elif maj is None or B < th.Bu:
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


def small_graph_constants(
    model: InteractionMatrix, delta: int, fp: Fixpoint, kmax: int = 60
) -> SmallGraphConstants:
    """Cycle-count constants for the variance analysis at an attractive fixpoint.

    mu are the non-unit eigenvalues of the fixpoint matrix M, lam_i is the
    limiting Poisson mean (Delta-1)^i / (2i) of i-cycles, delta_i = sum_j mu_j^i,
    and the second-to-first-squared moment ratio converges to
    prod_ij (1 - (Delta-1) mu_i mu_j)^(-1/2) = exp(sum_i lam_i delta_i^2).
    """
    rep = treefix.jacobian_matrix(model, delta, fp)
    mu = rep.restricted_spectrum
    if np.max(np.abs(mu)) >= 1.0 / (delta - 1) - 1e-12:
        raise ValueError("small-graph constants need a Hessian-dominant fixpoint")
    i = np.arange(1, kmax + 1)
    lam = (delta - 1.0) ** i / (2.0 * i)
    delta_series = np.array([np.sum(mu**k) for k in i])
    ratio = float(np.prod((1.0 - (delta - 1.0) * np.outer(mu, mu)) ** -0.5))
    truncated = float(np.exp(np.sum(lam * delta_series**2)))
    return SmallGraphConstants(
        mu=mu, lam=lam, delta_series=delta_series, ratio_limit=ratio, truncated_exp=truncated
    )


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


def simplex_grid(q: int, step: float = 0.02, max_points: int = 200000) -> np.ndarray:
    """Lattice covering of the simplex, coarsened to stay under max_points."""
    m = max(1, round(1.0 / step))
    while math.comb(m + q - 1, q - 1) > max_points:
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
    kmax: int = 60,
    seed: int = 0,
) -> MomentReport:
    """Phases from the tree fixpoints with their psi1 values, the first/second
    moment maxima, the induced-norm cross-check and (at the dominant attractive
    fixpoint) the small-subgraph constants."""
    fps = all_fixpoints(model, delta, seed=seed)
    psi1s = [psi1(model, delta, fp.alpha) for fp in fps]

    # safety net: a coarse scan of the ratio functional must not beat the
    # enumerated fixpoints
    grid = simplex_grid(model.q)
    pos = grid[np.all(grid > 0, axis=1)]
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
    phases = [
        (_with_dominance(_phase_from_fixpoint(model, delta, fp, psi1_value=v), psi1_max), fp)
        for fp, v in zip(fps, psi1s)
    ]
    dominant = [ph for ph, _ in phases if ph.dominant]

    norm_value = None
    if model.signature is Signature.FERROMAGNETIC:
        Bhat = cholesky_factor(model)
        seeds = [fp.R for _, fp in phases]
        norm_value, _ = matrix_norm_p2(Bhat, delta / (delta - 1.0), seeds=seeds)

    psi2_max = None
    if compute_psi2:
        psi2_max = max(psi2(model, delta, ph.alpha) for ph in dominant)

    small = None
    for ph, fp in phases:
        if ph.dominant and fp.stability == treefix.ATTRACTIVE:
            small = small_graph_constants(model, delta, fp, kmax=kmax)
            break

    return MomentReport(
        phases=[ph for ph, _ in phases],
        psi1_max=psi1_max,
        psi2_max=psi2_max,
        norm_value=norm_value,
        dominant=dominant,
        small_graph=small,
    )
