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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .spinsys import InteractionMatrix, build_potts_matrix

FIXPOINT_RESIDUAL_TOL = 1e-10
MARGINAL_BAND = 1e-9
BISECT_TOL = 1e-13
DAMPED_STEP_TOL = 1e-15
DAMPED_MAX_STEPS = 20000
FIND_FIXPOINT_STARTS = 200
# floating-point states of canonicalising a zero row
_UNSCALABLE = dict(divide="ignore", over="ignore", invalid="ignore")
# a two-value root y = x^(1/(Delta-1)) closer to 1 than this is the uniform fixpoint
Y_MIN = 1.0 + 1e-6

ATTRACTIVE = "attractive"
UNSTABLE = "unstable"
MARGINAL = "marginal"


@dataclass(frozen=True)
class Fixpoint:
    model: InteractionMatrix  # the model and degree the fixpoint was built at
    delta: int
    R: np.ndarray
    alpha: np.ndarray
    jacobian_eigen: np.ndarray
    restricted_spectrum: np.ndarray  # jacobian_eigen is (Delta-1) times it
    hessian_eigen: np.ndarray  # (1 + x)((Delta-1)x - 1) for each restricted eigenvalue x
    stability: str
    residual: float
    potts_structure: tuple | None = None  # (t, x) with x = R_1/R_q

    @property
    def attractive(self) -> bool:
        return self.stability == ATTRACTIVE


@dataclass(frozen=True)
class PottsThresholds:
    Bu: float
    Bo: float
    Brc: float


def canonical(model: InteractionMatrix, R) -> np.ndarray:
    """Rescale R (or each row of a stack of them) so that sum_ij B_ij R_i R_j = 1:
    each row is divided by its max, so that its quadratic form cannot
    overflow, then by the square root of that form."""
    R = np.asarray(R, dtype=float)
    R = R / R.max(axis=-1, keepdims=True)
    form = (R[..., None, :] @ model.entries @ R[..., :, None])[..., 0]
    return R / np.sqrt(form)


def tree_step(model: InteractionMatrix, delta: int, R) -> np.ndarray:
    """One application of the depth-one recursion (to each row of a stack),
    canonically normalized."""
    if delta < 3:
        raise ValueError("need degree delta >= 3")
    R = np.asarray(R, dtype=float)
    if (R <= 0).any():
        raise ValueError("ratio vector must be strictly positive")
    return canonical(model, (model.entries @ R[..., :, None])[..., 0] ** (delta - 1))


def _residuals(model: InteractionMatrix, delta: int, R) -> np.ndarray:
    """The tree-step residual of each canonical row of R, taken as given."""
    return np.abs(tree_step(model, delta, R) - R).max(axis=-1)


def _check_fixpoints(res: np.ndarray) -> None:
    # written as "not < tol" so that a NaN residual is rejected too
    if not (res < FIXPOINT_RESIDUAL_TOL).all():
        raise ValueError(f"not a fixpoint: tree-step residual {res.max():.3e}")


def alpha_from_ratio(delta: int, R) -> np.ndarray:
    """Phase induced by a ratio vector (or each row of a stack):
    alpha_i ~ R_i^(Delta/(Delta-1))."""
    R = np.asarray(R, dtype=float)
    a = (R / R.max(axis=-1, keepdims=True)) ** (delta / (delta - 1))
    return a / a.sum(axis=-1, keepdims=True)


def _spectra(model: InteractionMatrix, delta: int, R: np.ndarray) -> tuple[np.ndarray, ...]:
    """The symmetric maps M, their restricted spectra and the tree-step
    residuals at the k canonical ratio rows of R, shape (k, q); raises unless
    every row is a fixpoint.

    Every product is a batched mat-vec or a stack of small matrix products,
    which run one BLAS call per row exactly as a single row would, so each
    row's bits do not depend on the rows stacked with it.  One matrix product
    over all rows (R @ B.T) would round differently.
    """
    res = _residuals(model, delta, R)
    _check_fixpoints(res)
    alpha = R * (model.entries @ R[:, :, None])[:, :, 0]
    alpha = alpha / alpha.sum(axis=1, keepdims=True)
    e = np.sqrt(alpha)
    M = model.entries * (R[:, :, None] * R[:, None, :]) / (e[:, :, None] * e[:, None, :])
    # M is nonnegative with the positive eigenvector e at eigenvalue 1, which
    # is therefore its largest (Perron-Frobenius); the rest is the spectrum
    # on the complement of e
    return M, np.linalg.eigvalsh(M)[:, :-1], res


def _stabilities(jacobian_eigen: np.ndarray) -> list[str]:
    """The stability label of each row of Jacobian eigenvalues, by spectral radius."""
    return [
        MARGINAL if abs(rho - 1.0) <= MARGINAL_BAND else ATTRACTIVE if rho < 1.0 else UNSTABLE
        for rho in np.abs(jacobian_eigen).max(axis=1, initial=0.0).tolist()
    ]


def classify_stability(model: InteractionMatrix, delta: int, fp: Fixpoint) -> Fixpoint:
    """fp itself, once its record says it was built at (model, delta); its
    stability and hessian_eigen are the record.  Models are compared by
    their entries, so an equal model built anew passes; a fixpoint built at
    another activity, or at another degree (the uniform fixpoint is a
    fixpoint at every degree), raises."""
    if not np.array_equal(fp.model.entries, model.entries):
        raise ValueError(f"not a fixpoint: it was built at other entries than this q = {model.q} model")
    if fp.delta != delta:
        raise ValueError(f"fixpoint spectrum was not computed at degree delta = {delta}, but at {fp.delta}")
    return fp


def make_fixpoints(model: InteractionMatrix, delta: int, R, structures=None) -> list[Fixpoint]:
    """Fixpoints at the k ratio rows of R, shape (k, q), built in one batched
    pass; structures gives each row's potts_structure."""
    # a zero row canonicalises to NaNs and gets a NaN residual, which _spectra
    # rejects before it solves anything
    with np.errstate(**_UNSCALABLE):
        R = canonical(model, R)
        _, restricted, residual = _spectra(model, delta, R)
    jac = (delta - 1) * restricted
    hessian = (1.0 + restricted) * (jac - 1.0)
    alpha = alpha_from_ratio(delta, R)
    # a Fixpoint may be shared (potts_fixpoints keeps its last enumeration),
    # so no caller can write to its arrays
    for a in (R, alpha, jac, restricted, hessian):
        a.flags.writeable = False
    if structures is None:
        structures = [None] * len(R)
    # each zipped row lists a Fixpoint's fields after model and delta, in declaration order
    fields = zip(R, alpha, jac, restricted, hessian, _stabilities(jac), residual.tolist(), structures)
    return [Fixpoint(model, delta, *row) for row in fields]


def make_fixpoint(model: InteractionMatrix, delta: int, R, potts_structure=None) -> Fixpoint:
    return make_fixpoints(model, delta, np.asarray(R, dtype=float)[None], [potts_structure])[0]


def two_value_fixpoints(model: InteractionMatrix, delta: int, structures) -> list[Fixpoint]:
    """Potts fixpoints with t coordinates at ratio x and the rest at 1, one per
    (t, x) in structures, built in one batched pass."""
    R = np.ones((len(structures), model.q))
    for row, (t, x) in zip(R, structures):
        row[:t] = x
    return make_fixpoints(model, delta, R, structures)


def _bisect(f, lo: float, hi: float) -> float:
    """A root of f in [lo, hi], to BISECT_TOL relative to lo.  Every caller's
    bracket lies in [Y_MIN, inf), so lo >= 1 is its own scale."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError("bisection bracket does not straddle a root")
    while hi - lo > BISECT_TOL * lo:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


@functools.cache
def _curve_minimum(q: int, delta: int, t: int) -> tuple:
    """The activity curve a_t of fixpoints with t coordinates at ratio x and
    the rest at 1, its minimiser y* on [Y_MIN, inf) and its minimum a_t(y*).

    With d = delta - 1, s = q - t and u = log y, a fixpoint at
    y = x^(1/d) > 1 has activity B = 1 + a_t(y), where
      a_t(y) = (y - 1)(t + s e^(-d u)) / -expm1(-(d - 1) u),
    which has no cancellation near y = 1 and overflows at no d or y.  a_t
    falls, then rises (a_t(y) = B - 1 has at most two roots above 1, by
    Descartes' rule), and its slope has the sign of
      P_t(y) = t - t d y^(1-d) + (d-1)(t-s) y^(-d) + s d y^(-d-1) - s y^(-2d).
    P_t(1) = P_t'(1) = 0 and P_t''(1) = d(d-1)(t-s), so a_t dips just above
    1 only when 2t < q, and otherwise rises from Y_MIN on.  Raises when the
    dip's minimiser lies closer to 1 than Y_MIN (P_t(Y_MIN) > 0), which
    first happens near delta = 10^6.  Cached: a pure function of
    (q, delta, t)."""
    d = delta - 1
    s = q - t

    def a(y: float) -> float:
        u = math.log1p(y - 1.0)
        return (y - 1.0) * (t + s * math.exp(-d * u)) / -math.expm1(-(d - 1) * u)

    def p(y: float) -> float:
        return t - t * d * y ** (1 - d) + (d - 1) * (t - s) * y**-d + s * d * y ** (-d - 1) - s * y ** (-2 * d)

    y = Y_MIN
    if 2 * t < q:
        if p(Y_MIN) > 0:
            raise ValueError(
                f"the t = {t} activity curve of q = {q} at delta = {delta} has its minimum "
                "closer to 1 than Y_MIN = 1 + 1e-6"
            )
        hi = 2.0
        while p(hi) <= 0:  # P_t tends to t > 0
            hi *= 2.0
        y = _bisect(p, Y_MIN, hi)
    return a, y, a(y)


def two_value_roots(q: int, delta: int, B: float, t: int) -> list[float]:
    """All y >= Y_MIN, in increasing order, at which fixpoints with t large
    coordinates at ratio x = y^(delta-1) have activity B.

    With c = B - 1 and the minimum m of a_t at y* (_curve_minimum): no root
    when m > c, the one root y* when m = c, and otherwise one root on a_t's
    rising side and one on its falling side when a_t(Y_MIN) > c.  A root
    closer to 1 than Y_MIN is the uniform fixpoint.  Raises for a degree
    below 3 or a non-finite B."""
    if delta < 3:
        raise ValueError("need degree delta >= 3")
    if not math.isfinite(B):
        raise ValueError(f"activity B must be finite, got {B}")
    c = B - 1.0
    a, ystar, m = _curve_minimum(q, delta, t)
    if m > c:
        return []
    if m == c:
        return [ystar]

    def g(y: float) -> float:
        return a(y) - c

    roots = []
    if ystar > Y_MIN and g(Y_MIN) > 0:
        roots.append(_bisect(g, Y_MIN, ystar))
    # g has the sign of r(y) = t y^d + (q - t) - c (y + ... + y^(d-1)) with
    # d = delta - 1, and y + ... + y^(d-1) < y^d / (y - 1), so r > 0 for
    # every y >= 1 + c/t; a g(hi) that is not positive is a rounding of a
    # root at hi itself
    hi = 1.0 + c / t
    roots.append(_bisect(g, ystar, hi) if g(hi) > 0 else hi)
    return roots


def _two_value_ratio(B: float, delta: int, y: float) -> float:
    """x = y^(delta-1) at a two-value root y.  Raises unless B x, the largest
    entry of B R at the row R = (x, .., x, 1, .., 1), is a finite float: past
    that bound the phase diagram's gap overflows at t = 1."""
    try:
        x = y ** (delta - 1)
    except OverflowError:
        x = math.inf
    if not math.isfinite(B * x):
        raise ValueError(f"activity B = {B} puts a fixpoint ratio x with B x past a float at delta = {delta}")
    return x


def potts_fixpoints(q: int, delta: int, B: float) -> list[Fixpoint]:
    """All tree fixpoints of Potts(q, B) up to color permutation.

    Returns the uniform fixpoint first, then one representative per orbit of
    two-value fixpoints (t large coordinates with ratio x > 1), ordered by t
    and, within each t, by increasing x.  All are built in one batched pass.

    The last enumeration is kept: a second call at the same (q, delta, B),
    such as the phase diagram's followed by a caller's own, returns a new
    list of the same read-only Fixpoint objects.  A call that raises is not
    kept.  B is taken as a float, so a 0-d array activity is one too.
    """
    return list(_potts_fixpoints(q, delta, float(B)))


@functools.lru_cache(maxsize=1)
def _potts_fixpoints(q: int, delta: int, B: float) -> tuple[Fixpoint, ...]:
    if not math.isfinite(B):
        raise ValueError(f"activity B must be finite, got {B}")
    if not B > 1:
        raise ValueError("Potts fixpoint enumeration expects the ferromagnetic regime B > 1")
    structures = [(q, 1.0)] + [
        (t, _two_value_ratio(B, delta, y)) for t in range(1, q) for y in two_value_roots(q, delta, B, t)
    ]
    return tuple(two_value_fixpoints(build_potts_matrix(q, B), delta, structures))


def majority_ratio(q: int, delta: int, B: float) -> float | None:
    """The largest ratio x = R_1/R_q of a majority (t = 1) fixpoint, or None below Bu."""
    roots = two_value_roots(q, delta, B, 1)
    return _two_value_ratio(B, delta, max(roots)) if roots else None


@functools.cache
def potts_thresholds(q: int, delta: int) -> PottsThresholds:
    """The activity thresholds Bu (tree uniqueness), Bo (phase coexistence)
    and Brc (random-cluster) for the q-state Potts model on degree delta.
    Bu is 1 plus the minimum of the majority (t = 1) activity curve.

    Cached: the result is a frozen record of floats, a pure function of q and
    delta.  A call that raises is not cached."""
    if q < 3 or delta < 3:
        raise ValueError("thresholds need q >= 3 and delta >= 3")
    Brc = 1.0 + q / (delta - 2)
    Bo = (q - 2) / ((q - 1) ** (1.0 - 2.0 / delta) - 1.0)
    return PottsThresholds(Bu=1.0 + _curve_minimum(q, delta, 1)[2], Bo=Bo, Brc=Brc)


def ordered_root_marginal(q: int, delta: int, B: float) -> float:
    """Probability of the dominant color at a degree-(delta-1) root in the
    ordered phase: p = x / (x + q - 1) with x the attractive majority ratio."""
    x = majority_ratio(q, delta, B)
    if x is None:
        raise ValueError("no majority fixpoint: activity below the uniqueness threshold")
    return x / (x + q - 1.0)


def _damped_iterate(B: np.ndarray, d: int, R0) -> np.ndarray:
    """Iterate the damped recursion R <- R/2 + T(R)/2 from each row of R0.

    T(R) = (B R)^d / sum (B R)^d with d = Delta - 1, so the fixed points are
    the tree fixpoints normalized to sum 1; this form keeps zero coordinates
    (coordinate-vector starts) well defined, and leaves rows with B R = 0 as
    they are.  All rows step together; each stops on its own once a step
    moves it by less than DAMPED_STEP_TOL, once a step that did not shrink
    brings it back within DAMPED_STEP_TOL of where it was two steps earlier
    (a period-2 orbit, which never converges), or after DAMPED_MAX_STEPS
    steps.
    """
    R = np.array(R0, dtype=float, ndmin=2)
    R = R / R.sum(axis=1, keepdims=True)
    before = np.full_like(R, np.nan)  # each row one step back
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
        prev = before[live]
        before[live] = cur
        step = np.max(np.abs(nxt - cur), axis=1)
        # a period-2 orbit: back where it was two steps earlier by a step that
        # did not shrink (a converging oscillation shrinks; NaN compares False)
        cycled = (np.max(np.abs(nxt - prev), axis=1) < DAMPED_STEP_TOL) & (
            step >= np.max(np.abs(cur - prev), axis=1)
        )
        live = live[(step >= DAMPED_STEP_TOL) & ~cycled]
        if not len(live):
            break
    return R


def find_fixpoints(model: InteractionMatrix, delta: int, seed: int = 0) -> list[Fixpoint]:
    """Attractive fixpoints of a general model by damped iteration.

    Runs the damped recursion from FIND_FIXPOINT_STARTS Dirichlet(1) starts,
    keeps the ends that are fixpoints (one batched residual pass), deduplicates
    them at 1e-6 and orders results on that same scale, so that ulp-level
    differences between runs cannot reorder them.  Unstable fixpoints are
    generally not reachable this way; for Potts models use potts_fixpoints
    instead.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    starts = rng.dirichlet(np.ones(model.q), size=FIND_FIXPOINT_STARTS) + 1e-9
    ends = _damped_iterate(model.entries, delta - 1, starts)
    # an end that cannot be canonicalised fails the residual check
    with np.errstate(**_UNSCALABLE):
        ends = canonical(model, ends)
        found = list(ends[_residuals(model, delta, ends) < FIXPOINT_RESIDUAL_TOL])
    found.sort(key=lambda r: tuple(np.round(r, 6)))
    dedup: list[np.ndarray] = []
    for R in found:
        if not any(np.max(np.abs(R - S)) < 1e-6 for S in dedup):
            dedup.append(R)
    return make_fixpoints(model, delta, np.array(dedup).reshape(-1, model.q))
