"""
Model specification for q-spin systems.

A model is a symmetric nonnegative q x q interaction matrix with its
signature (ferromagnetic / antiferromagnetic / indefinite), read off the
eigenvalues.  Ferromagnetic matrices have a Cholesky factor, which the
matrix-norm machinery uses.  This module also owns the simplex/phase
vocabulary shared by the rest of the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

MAX_Q = 32

# eigenvalues below this magnitude count as zero -> indefinite
ZERO_EIGENVALUE_TOL = 1e-10


class SizeGuardError(RuntimeError):
    """Raised when an exact computation would exceed its instance-size guard."""


class Signature(str, Enum):
    FERROMAGNETIC = "ferromagnetic"
    ANTIFERROMAGNETIC = "antiferromagnetic"
    INDEFINITE = "indefinite"


@dataclass(frozen=True)
class InteractionMatrix:
    """Symmetric nonnegative q x q interaction matrix with its signature."""

    q: int
    entries: np.ndarray
    signature: Signature


@dataclass(frozen=True)
class Phase:
    """A point of the (q-1)-simplex together with its exponent, its Hessian
    eigenvalues and its local-maximum and dominance flags."""

    alpha: np.ndarray
    psi1: float = float("nan")
    hessian_eigen: tuple = ()
    local_max: bool = False
    dominant: bool = False


def _signature_of(w: np.ndarray) -> Signature:
    """Signature from the ascending eigenvalues w of an interaction matrix."""
    if np.any(np.abs(w) < ZERO_EIGENVALUE_TOL):
        return Signature.INDEFINITE
    if np.all(w > 0):
        return Signature.FERROMAGNETIC
    # Perron-Frobenius: the top eigenvalue of a nonnegative matrix is >= 0
    if w[-1] > 0 and np.all(w[:-1] < 0):
        return Signature.ANTIFERROMAGNETIC
    return Signature.INDEFINITE


def interaction_matrix(entries) -> InteractionMatrix:
    """Validate a raw matrix and wrap it with its signature."""
    entries = np.array(entries, dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError("interaction matrix must be square")
    q = entries.shape[0]
    if q < 2:
        raise ValueError("need q >= 2 spins")
    if q > MAX_Q:
        raise ValueError(f"q = {q} exceeds the supported maximum {MAX_Q}")
    if not np.isfinite(entries).all():
        raise ValueError("interaction matrix entries must be finite")
    if not np.allclose(entries, entries.T, rtol=0.0, atol=1e-12):
        raise ValueError("interaction matrix must be symmetric")
    if np.any(entries < 0):
        raise ValueError("interaction matrix entries must be nonnegative")
    entries = (entries + entries.T) / 2.0
    entries.flags.writeable = False
    return InteractionMatrix(
        q=q,
        entries=entries,
        signature=_signature_of(np.linalg.eigvalsh(entries)),
    )


def build_potts_matrix(q: int, B: float) -> InteractionMatrix:
    """Potts interaction: B on the diagonal, 1 off the diagonal.

    Eigenvalues are B-1 (multiplicity q-1) and B+q-1, so the model is
    ferromagnetic exactly when B > 1.  Its entries are read-only, since the
    fixpoints built at a model share it.
    """
    if q < 2:
        raise ValueError("need q >= 2 spins")
    if not math.isfinite(B):
        raise ValueError("Potts activity B must be finite")
    if not B > 0:
        raise ValueError("Potts activity B must be positive")
    if q > MAX_Q:
        raise ValueError(f"q = {q} exceeds the supported maximum {MAX_Q}")
    entries = np.ones((q, q)) + (B - 1.0) * np.eye(q)
    entries.flags.writeable = False
    w = np.array([B - 1.0] * (q - 1) + [B + q - 1.0])  # the spectrum, ascending
    return InteractionMatrix(q, entries, _signature_of(w))


def cholesky_factor(model: InteractionMatrix) -> np.ndarray:
    """Upper-triangular Bhat with Bhat^T Bhat equal to the interaction matrix."""
    if model.signature is not Signature.FERROMAGNETIC:
        raise ValueError("Cholesky factor requires a positive definite (ferromagnetic) matrix")
    # numpy returns the lower factor L with L L^T = B; its transpose is the
    # canonical upper-triangular Bhat
    return np.linalg.cholesky(model.entries).T


def _check_simplex(z, q: int) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape != (q,):
        raise ValueError(f"expected a length-{q} vector")
    if not np.isfinite(z).all():
        raise ValueError("simplex vector must be finite")
    if np.any(z < 0):
        raise ValueError("simplex vector must be nonnegative")
    if abs(z.sum() - 1.0) > 1e-9:
        raise ValueError("simplex vector must have unit 1-norm")
    return z


def _json_number(spec: dict, key: str, where: str, integral: bool = False):
    """spec[key] as a float, or as an int when integral, or a ValueError that
    names the key."""
    if key not in spec:
        raise ValueError(f"{where} needs {key!r}")
    try:
        number = float(spec[key])
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{key!r} of {where} must be a number, got {spec[key]!r}") from None
    if not integral:
        return number
    if not number.is_integer():
        raise ValueError(f"{key!r} of {where} must be an integer, got {spec[key]!r}")
    return int(number)


def model_from_json(obj) -> InteractionMatrix:
    """Build a model from {"q", "entries"} or the {"potts": {"q", "B"}} shorthand.
    A missing or malformed part raises a ValueError that names it."""
    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise ValueError(f"a model file must hold a JSON object, got {type(obj).__name__}")
    if "potts" in obj:
        spec = obj["potts"]
        where = "the 'potts' shorthand"
        if not isinstance(spec, dict):
            raise ValueError(f"{where} must be an object with 'q' and 'B'")
        return build_potts_matrix(_json_number(spec, "q", where, integral=True), _json_number(spec, "B", where))
    if "entries" not in obj:
        raise ValueError("a model needs 'entries' or the 'potts' shorthand")
    try:
        entries = np.array(obj["entries"], dtype=float)
    except (TypeError, ValueError):
        raise ValueError("model 'entries' must be a square array of numbers") from None
    if "q" in obj and entries.shape[:1] != (_json_number(obj, "q", "the model", integral=True),):
        raise ValueError("declared q does not match the entries shape")
    return interaction_matrix(entries)


def load_model(path) -> InteractionMatrix:
    with open(path) as fh:
        return model_from_json(json.load(fh))
