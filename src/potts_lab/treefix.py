"""
Tree-recursion fixpoints and their stability.

The depth-one recursion maps a positive ratio vector R to
Rhat_i ~ (sum_j B_ij R_j)^(Delta-1).  Fixpoints are stored with the canonical
normalization sum_ij B_ij R_i R_j = 1, under which the matrix
M_ij = B_ij R_i R_j / sqrt(alpha_i alpha_j) has (sqrt(alpha_1), ...) as an
exact eigenvector with eigenvalue 1.  The recursion's Jacobian is (Delta-1) M
restricted to the orthogonal complement of that direction, and each restricted
eigenvalue x contributes a free-energy Hessian eigenvalue (1+x)((Delta-1)x - 1).

For the Potts model every fixpoint takes at most two distinct values, which
reduces the fixpoint equations to one-dimensional root finding and yields the
closed-form activity thresholds Bu < Bo < Brc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spinsys import InteractionMatrix, Signature, build_potts_matrix

FIXPOINT_RESIDUAL_TOL = 1e-10
MARGINAL_BAND = 1e-9
BISECT_TOL = 1e-13
DAMPED_STEP_TOL = 1e-15
DAMPED_MAX_STEPS = 20000

ATTRACTIVE = "attractive"
UNSTABLE = "unstable"
MARGINAL = "marginal"


@dataclass(frozen=True)
class Fixpoint:
    R: np.ndarray
    alpha: np.ndarray
    jacobian_eigen: np.ndarray
    stability: str
    residual: float
    potts_structure: tuple | None = None  # (t, x) with x = R_1/R_q

    @property
    def attractive(self) -> bool:
        return self.stability == ATTRACTIVE


@dataclass(frozen=True)
class JacobianReport:
    matrix: np.ndarray
    full_spectrum: np.ndarray
    restricted_spectrum: np.ndarray
    jacobian_eigen: np.ndarray


@dataclass(frozen=True)
class StabilityReport:
    stability: str
    hessian_eigen: np.ndarray
    # Jacobian-attractive <-> Hessian-negative-definite is only guaranteed
    # for ferromagnetic interactions
    ferro_equivalence: bool


@dataclass(frozen=True)
class PottsThresholds:
    Bu: float
    Bo: float
    Brc: float


def canonical(model: InteractionMatrix, R) -> np.ndarray:
    """Rescale R so that sum_ij B_ij R_i R_j = 1."""
    R = np.asarray(R, dtype=float)
    return R / math.sqrt(float(R @ model.entries @ R))


def tree_step(model: InteractionMatrix, delta: int, R) -> np.ndarray:
    """One application of the depth-one recursion, canonically normalized."""
    if delta < 3:
        raise ValueError("need degree delta >= 3")
    R = np.asarray(R, dtype=float)
    if np.any(R <= 0):
        raise ValueError("ratio vector must be strictly positive")
    out = (model.entries @ R) ** (delta - 1)
    # guard against under/overflow from the power before normalizing
    out = out / out.max()
    return canonical(model, out)


def fixpoint_residual(model: InteractionMatrix, delta: int, R) -> float:
    R = canonical(model, np.asarray(R, dtype=float))
    return float(np.max(np.abs(tree_step(model, delta, R) - R)))


def alpha_from_ratio(delta: int, R) -> np.ndarray:
    """Phase induced by a ratio vector: alpha_i ~ R_i^(Delta/(Delta-1))."""
    R = np.asarray(R, dtype=float)
    a = (R / R.max()) ** (delta / (delta - 1))
    return a / a.sum()


def _complement_basis(e: np.ndarray) -> np.ndarray:
    q = len(e)
    full, _ = np.linalg.qr(np.column_stack([e, np.eye(q)]))
    return full[:, 1:q]


def jacobian_matrix(model: InteractionMatrix, delta: int, fp) -> JacobianReport:
    """The symmetric map M at a fixpoint, with full and restricted spectra.

    The restricted spectrum lives on the subspace sum_i sqrt(alpha_i) r_i = 0;
    Jacobian eigenvalues are (Delta-1) times the restricted eigenvalues.
    """
    R = fp.R if isinstance(fp, Fixpoint) else canonical(model, fp)
    res = fixpoint_residual(model, delta, R)
    if res >= FIXPOINT_RESIDUAL_TOL:
        raise ValueError(f"not a fixpoint: tree-step residual {res:.3e}")
    BR = model.entries @ R
    alpha = R * BR
    alpha = alpha / alpha.sum()
    e = np.sqrt(alpha)
    M = model.entries * np.outer(R, R) / np.outer(e, e)
    full = np.linalg.eigvalsh(M)
    Q = _complement_basis(e)
    restricted = np.linalg.eigvalsh(Q.T @ M @ Q)
    return JacobianReport(
        matrix=M,
        full_spectrum=full,
        restricted_spectrum=restricted,
        jacobian_eigen=(delta - 1) * restricted,
    )


def _stability_from(rep: JacobianReport, delta: int, model: InteractionMatrix) -> StabilityReport:
    rho = float(np.max(np.abs(rep.jacobian_eigen))) if len(rep.jacobian_eigen) else 0.0
    if abs(rho - 1.0) <= MARGINAL_BAND:
        stability = MARGINAL
    elif rho < 1.0:
        stability = ATTRACTIVE
    else:
        stability = UNSTABLE
    x = rep.restricted_spectrum
    hessian = (1.0 + x) * ((delta - 1) * x - 1.0)
    return StabilityReport(
        stability=stability,
        hessian_eigen=hessian,
        ferro_equivalence=model.signature is Signature.FERROMAGNETIC,
    )


def classify_stability(model: InteractionMatrix, delta: int, fp) -> StabilityReport:
    """Stability from the restricted spectrum plus the induced Hessian eigenvalues."""
    return _stability_from(jacobian_matrix(model, delta, fp), delta, model)


def make_fixpoint(model: InteractionMatrix, delta: int, R, potts_structure=None) -> Fixpoint:
    R = canonical(model, np.asarray(R, dtype=float))
    R.flags.writeable = False
    jac = jacobian_matrix(model, delta, R)
    rep = _stability_from(jac, delta, model)
    return Fixpoint(
        R=R,
        alpha=alpha_from_ratio(delta, R),
        jacobian_eigen=jac.jacobian_eigen,
        stability=rep.stability,
        residual=fixpoint_residual(model, delta, R),
        potts_structure=potts_structure,
    )


def _bisect(f, lo: float, hi: float, tol: float = BISECT_TOL) -> float:
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError("bisection bracket does not straddle a root")
    while hi - lo > tol * max(1.0, abs(lo)):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _golden_min(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol * max(1.0, abs(a)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _activity_of_ratio(y: float, q: int, d: int, t: int) -> float:
    """B - 1 as a function of the two-value ratio y = (R_1/R_q)^(1/d)."""
    return (y - 1.0) * (t * y**d + q - t) / (y**d - y)


def two_value_roots(q: int, delta: int, B: float, t: int) -> list[float]:
    """All y > 1 with activity B for fixpoints having t large coordinates.

    Scans a geometric grid on (1, 2^20) for sign changes of the fixpoint
    equation and refines by bisection; grid local minima are polished by
    golden section so that near-tangent root pairs are not missed.
    """
    d = delta - 1
    target = B - 1.0

    def g(y):
        return _activity_of_ratio(y, q, d, t) - target

    ys = np.geomspace(1.0 + 1e-6, 2.0**20, 4001)
    with np.errstate(over="ignore", invalid="ignore"):
        gs = (ys - 1.0) * (t * ys**d + q - t) / (ys**d - ys) - target
        crossing = gs[:-1] * gs[1:] < 0
    roots = [float(y) for y in ys[:-1][gs[:-1] == 0.0]]
    for i in np.nonzero(crossing)[0]:
        roots.append(_bisect(g, float(ys[i]), float(ys[i + 1])))
    # near-tangency: a positive local grid minimum may hide a root pair
    mid = gs[1:-1]
    tangent = (mid > 0) & (mid <= gs[:-2]) & (mid <= gs[2:]) & (mid < 1e-3)
    for i in np.nonzero(tangent)[0] + 1:
        ymin = _golden_min(g, float(ys[i - 1]), float(ys[i + 1]))
        gmin = g(ymin)
        if gmin < 0:
            roots.append(_bisect(g, float(ys[i - 1]), ymin))
            roots.append(_bisect(g, ymin, float(ys[i + 1])))
        elif gmin <= 1e-12:
            roots.append(ymin)
    roots.sort()
    dedup: list[float] = []
    for y in roots:
        if not dedup or abs(y - dedup[-1]) > 1e-9 * max(1.0, y):
            dedup.append(y)
    return dedup


def potts_fixpoints(q: int, delta: int, B: float) -> list[Fixpoint]:
    """All tree fixpoints of Potts(q, B) up to color permutation.

    Returns the uniform fixpoint first, then one representative per orbit of
    two-value fixpoints (t large coordinates with ratio x > 1), ordered by t
    and decreasing x.
    """
    if not B > 1:
        raise ValueError("Potts fixpoint enumeration expects the ferromagnetic regime B > 1")
    model = build_potts_matrix(q, B)
    d = delta - 1
    fps = [make_fixpoint(model, delta, np.ones(q), potts_structure=(q, 1.0))]
    for t in range(1, q):
        for y in two_value_roots(q, delta, B, t):
            x = y**d
            R = np.concatenate([np.full(t, x), np.ones(q - t)])
            fps.append(make_fixpoint(model, delta, R, potts_structure=(t, x)))
    return fps


def majority_fixpoint(q: int, delta: int, B: float) -> Fixpoint | None:
    """The majority (t = 1) fixpoint with maximal ratio x, or None below Bu."""
    roots = two_value_roots(q, delta, B, 1)
    if not roots:
        return None
    x = max(roots) ** (delta - 1)
    model = build_potts_matrix(q, B)
    R = np.concatenate([[x], np.ones(q - 1)])
    return make_fixpoint(model, delta, R, potts_structure=(1, x))


def uniqueness_polynomial(y: float, q: int, d: int) -> float:
    """Polynomial whose root above 1 marks the uniqueness threshold Bu."""
    return (
        y ** (2 * d)
        - d * y ** (d + 1)
        - (d - 1) * (q - 2) * y**d
        + d * (q - 1) * y ** (d - 1)
        - (q - 1)
    )


def potts_thresholds(q: int, delta: int) -> PottsThresholds:
    """The activity thresholds Bu (tree uniqueness), Bo (phase coexistence)
    and Brc (random-cluster) for the q-state Potts model on degree delta."""
    if q < 3 or delta < 3:
        raise ValueError("thresholds need q >= 3 and delta >= 3")
    d = delta - 1
    Brc = 1.0 + q / (delta - 2)
    Bo = (q - 2) / ((q - 1) ** (1.0 - 2.0 / delta) - 1.0)

    def p(y):
        return uniqueness_polynomial(y, q, d)

    # p has a double root at 1 and dips negative just above it
    hi = 2.0
    while p(hi) <= 0:
        hi *= 2.0
        if hi > 2.0**40:
            raise RuntimeError("failed to bracket the uniqueness root")
    rho = _bisect(p, 1.0 + 1e-6, hi)
    Bu = 1.0 + (rho - 1.0) * (rho**d + q - 1.0) / (rho**d - rho)
    return PottsThresholds(Bu=Bu, Bo=Bo, Brc=Brc)


def ordered_root_marginal(q: int, delta: int, B: float) -> float:
    """Probability of the dominant color at a degree-(delta-1) root in the
    ordered phase: p = x / (x + q - 1) with x the attractive majority ratio."""
    fp = majority_fixpoint(q, delta, B)
    if fp is None:
        raise ValueError("no majority fixpoint: activity below the uniqueness threshold")
    x = fp.potts_structure[1]
    return x / (x + q - 1.0)


def _damped_iterate(B: np.ndarray, d: int, R0) -> np.ndarray:
    """Iterate the damped recursion R <- R/2 + T(R)/2 from each row of R0.

    T(R) = (B R)^d / sum (B R)^d with d = Delta - 1, so the fixed points are
    the tree fixpoints normalized to sum 1; this form keeps zero coordinates
    (coordinate-vector starts) well defined, and leaves rows with B R = 0 as
    they are.  All rows step together; each stops on its own once a step
    moves it by less than DAMPED_STEP_TOL, or after DAMPED_MAX_STEPS steps.
    """
    R = np.array(R0, dtype=float, ndmin=2)
    R = R / R.sum(axis=1, keepdims=True)
    live = np.arange(len(R))
    for _ in range(DAMPED_MAX_STEPS):
        cur = R[live]
        out = cur @ B.T
        m = out.max(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (out / m) ** d
            out = out / out.sum(axis=1, keepdims=True)
        nxt = 0.5 * cur + 0.5 * np.where(m > 0, out, cur)
        R[live] = nxt
        live = live[np.max(np.abs(nxt - cur), axis=1) >= DAMPED_STEP_TOL]
        if not len(live):
            break
    return R


def find_fixpoints(
    model: InteractionMatrix, delta: int, n_starts: int = 200, seed: int = 0
) -> list[Fixpoint]:
    """Attractive fixpoints of a general model by damped iteration.

    Runs the damped recursion from Dirichlet(1) starts, deduplicates at 1e-6
    and orders results on that same scale, so that ulp-level differences
    between runs cannot reorder them.  Unstable fixpoints are generally not
    reachable this way; for Potts models use potts_fixpoints instead.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    starts = rng.dirichlet(np.ones(model.q), size=n_starts) + 1e-9
    ends = [canonical(model, R) for R in _damped_iterate(model.entries, delta - 1, starts)]
    found = [R for R in ends if fixpoint_residual(model, delta, R) < FIXPOINT_RESIDUAL_TOL]
    found.sort(key=lambda r: tuple(np.round(r, 6)))
    dedup: list[np.ndarray] = []
    for R in found:
        if not any(np.max(np.abs(R - S)) < 1e-6 for S in dedup):
            dedup.append(R)
    return [make_fixpoint(model, delta, R) for R in dedup]
