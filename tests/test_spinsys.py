import json

import numpy as np
import pytest

from potts_lab.spinsys import (
    Signature,
    build_potts_matrix,
    _check_simplex,
    cholesky_factor,
    interaction_matrix,
    model_from_json,
)
from potts_lab.moments import psi1


def test_potts_eigenvalues_and_signature():
    m = build_potts_matrix(3, 2.0)
    w = np.sort(np.linalg.eigvalsh(m.entries))
    assert np.allclose(w, [1, 1, 4])
    assert m.signature is Signature.FERROMAGNETIC

    m = build_potts_matrix(3, 0.5)
    w = np.sort(np.linalg.eigvalsh(m.entries))
    assert np.allclose(w, [-0.5, -0.5, 2.5])
    assert m.signature is Signature.ANTIFERROMAGNETIC

    # B = 1 gives the rank-1 all-ones matrix: a zero eigenvalue, so indefinite
    m = build_potts_matrix(2, 1.0)
    assert m.signature is Signature.INDEFINITE


def test_potts_validation():
    with pytest.raises(ValueError):
        build_potts_matrix(3, 0.0)
    with pytest.raises(ValueError):
        build_potts_matrix(3, -1.0)
    with pytest.raises(ValueError):
        build_potts_matrix(1, 2.0)
    with pytest.raises(ValueError):
        build_potts_matrix(40, 2.0)
    for B in (float("inf"), float("nan"), -float("inf")):
        with pytest.raises(ValueError, match="^Potts activity B must be finite$"):
            build_potts_matrix(3, B)


def test_potts_matrix_takes_a_0d_array_activity():
    m, want = build_potts_matrix(3, np.array(2.0)), build_potts_matrix(3, 2.0)
    assert m.entries.tobytes() == want.entries.tobytes() and m.entries.dtype == want.entries.dtype
    assert (m.q, m.signature) == (want.q, want.signature)
    assert not m.entries.flags.writeable


def test_potts_matrix_matches_the_generic_constructor():
    # build_potts_matrix takes its signature from the known spectrum; the
    # generic path computes it and checks symmetry
    for q in range(2, 13):
        for B in (0.01, 0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 1.5, 3.9, 40.0):
            m = build_potts_matrix(q, B)
            ref = interaction_matrix(np.ones((q, q)) + (B - 1.0) * np.eye(q))
            assert m.q == ref.q
            assert np.array_equal(m.entries, ref.entries)
            assert m.signature is ref.signature
            assert not m.entries.flags.writeable


def test_classify_examples():
    ferro = build_potts_matrix(4, 3.0)
    assert ferro.signature is Signature.FERROMAGNETIC
    colorings = interaction_matrix(np.ones((3, 3)) - np.eye(3))
    assert colorings.signature is Signature.ANTIFERROMAGNETIC


def test_classify_random_indefinite():
    # random symmetric ergodic nonnegative matrices with mixed eigenvalue
    # signs, verified against an independent eigensolver call in this test
    rng = np.random.default_rng(3)
    found = 0
    while found < 5:
        a = rng.random((3, 3))
        entries = (a + a.T) / 2
        w = np.linalg.eigvalsh(entries)
        if np.all(np.abs(w) > 1e-8) and np.any(w[:-1] > 0) and np.any(w < 0):
            m = interaction_matrix(entries)
            assert m.signature is Signature.INDEFINITE
            found += 1


def test_classify_rejects_bad_input():
    with pytest.raises(ValueError):
        interaction_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        interaction_matrix(np.array([[1.0, -0.1], [-0.1, 1.0]]))
    # asymmetric too, but the non-finite entry is what gets reported
    for bad in (float("inf"), float("nan"), -float("inf")):
        with pytest.raises(ValueError, match=r"^interaction matrix entries must be finite$"):
            interaction_matrix([[1.0, bad], [2.0, 1.0]])


def test_cholesky_examples():
    # identity is positive definite even though not ergodic
    m = interaction_matrix(np.eye(2))
    assert np.array_equal(cholesky_factor(m), np.eye(2))

    m = build_potts_matrix(2, 2.0)
    bh = cholesky_factor(m)
    expected = np.array([[np.sqrt(2), 1 / np.sqrt(2)], [0.0, np.sqrt(1.5)]])
    assert np.allclose(bh, expected, atol=1e-14)
    assert bh[1, 0] == 0.0

    m = build_potts_matrix(3, 2.0)
    bh = cholesky_factor(m)
    assert np.max(np.abs(bh.T @ bh - m.entries)) < 1e-14

    with pytest.raises(ValueError):
        cholesky_factor(build_potts_matrix(3, 0.5))


def test_ferro_iff_B_above_one():
    for q in range(2, 11):
        for B in [0.2, 0.5, 0.9, 1.1, 1.5, 2.0, 5.0, 20.0]:
            m = build_potts_matrix(q, B)
            assert (m.signature is Signature.FERROMAGNETIC) == (B > 1)


def test_cholesky_roundtrip_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        q = int(rng.integers(2, 7))
        x = rng.random((q, q))
        entries = x.T @ x + 0.1 * np.eye(q)  # positive definite, nonnegative
        m = interaction_matrix(entries)
        assert m.signature is Signature.FERROMAGNETIC
        bh = cholesky_factor(m)
        assert np.max(np.abs(bh.T @ bh - m.entries)) < 1e-12


def _random_simplex(rng, q):
    return rng.dirichlet(np.ones(q))


def _aligned(B, z1, z2):
    """Whether (z1' B z1)(z2' B z2) >= (z1' B z2)^2, up to rounding: the
    alignment that characterizes ferromagnetic interactions."""
    lhs = float(z1 @ B @ z1) * float(z2 @ B @ z2)
    rhs = float(z1 @ B @ z2) ** 2
    return lhs - rhs >= -1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_alignment_equality_and_strict_cases():
    m = build_potts_matrix(3, 2.0)
    u = np.ones(3) / 3
    B = m.entries
    assert _aligned(B, u, u)
    assert abs(float(u @ B @ u) ** 2 - float(u @ B @ u) * float(u @ B @ u)) < 1e-12

    z1 = np.array([1.0, 0.0, 0.0])
    z2 = np.array([0.0, 1.0, 0.0])
    # (z1' B z1)(z2' B z2) = 4 against (z1' B z2)^2 = 1
    assert float(z1 @ B @ z1) * float(z2 @ B @ z2) == 4.0
    assert float(z1 @ B @ z2) ** 2 == 1.0
    assert _aligned(B, z1, z2)


def test_alignment_property_by_class():
    rng = np.random.default_rng(23)
    ferro = build_potts_matrix(3, 2.0)
    anti = build_potts_matrix(3, 0.5)
    for _ in range(1000):
        z1 = _random_simplex(rng, 3)
        z2 = _random_simplex(rng, 3)
        assert _aligned(ferro.entries, z1, z2)
        # antiferromagnetic interactions reverse the inequality
        B = anti.entries
        lhs = float(z1 @ B @ z1) * float(z2 @ B @ z2)
        rhs = float(z1 @ B @ z2) ** 2
        assert lhs <= rhs + 1e-12


def test_alignment_rejects_non_simplex():
    for z, message in (
        ([0.5, 0.6], "simplex vector must have unit 1-norm"),
        ([-0.1, 1.1], "simplex vector must be nonnegative"),
        ([float("nan"), 0.5], "simplex vector must be finite"),
        ([float("inf"), 0.5], "simplex vector must be finite"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            _check_simplex(z, 2)
    # NaN fails neither the sign nor the sum test, so it needs its own check
    with pytest.raises(ValueError, match="^simplex vector must be finite$"):
        psi1(build_potts_matrix(3, 2.0), 3, [float("nan"), 0.5, 0.5])


def test_model_json_roundtrip():
    m = build_potts_matrix(3, 2.0)
    again = model_from_json(json.dumps({"q": m.q, "entries": m.entries.tolist()}))
    assert np.array_equal(again.entries, m.entries)
    short = model_from_json({"potts": {"q": 4, "B": 2.5}})
    assert short.q == 4 and short.entries[0, 0] == 2.5
    # an integral q may be written as a float or a string
    for q in (4.0, "4"):
        assert np.array_equal(model_from_json({"potts": {"q": q, "B": 2.5}}).entries, short.entries)
    assert model_from_json({"q": 3.0, "entries": m.entries.tolist()}).q == 3
    with pytest.raises(ValueError):
        model_from_json({"q": 3, "entries": [[1.0, 2.0], [2.0, 1.0]]})


@pytest.mark.parametrize(
    "obj, message",
    [
        ([1, 2], "a model file must hold a JSON object, got list"),
        ({"q": 3}, "a model needs 'entries' or the 'potts' shorthand"),
        ({"potts": {"q": 3}}, "the 'potts' shorthand needs 'B'"),
        ({"potts": {"B": 2}}, "the 'potts' shorthand needs 'q'"),
        ({"potts": [3, 2]}, "the 'potts' shorthand must be an object with 'q' and 'B'"),
        ({"potts": {"q": None, "B": 2}}, "'q' of the 'potts' shorthand must be a number, got None"),
        ({"q": "three", "entries": [[1, 1], [1, 1]]}, "'q' of the model must be a number, got 'three'"),
        ({"q": 3, "entries": 3}, "declared q does not match the entries shape"),
        ({"entries": [[1, 2], [3]]}, "model 'entries' must be a square array of numbers"),
        ({"entries": [[1, {}], [1, 1]]}, "model 'entries' must be a square array of numbers"),
        ({"entries": [[1, float("inf")], [float("inf"), 1]]}, "interaction matrix entries must be finite"),
        ({"entries": [[1, float("nan")], [float("nan"), 1]]}, "interaction matrix entries must be finite"),
        ("[[1, 0], [0, 1]]", "a model file must hold a JSON object, got list"),
        ({"potts": {"q": 3.7, "B": 2}}, "'q' of the 'potts' shorthand must be an integer, got 3.7"),
        ({"potts": {"q": float("inf"), "B": 2}}, "'q' of the 'potts' shorthand must be an integer, got inf"),
        pytest.param(
            {"potts": {"q": 3, "B": 10**400}},
            f"'B' of the 'potts' shorthand must be a number, got {10**400}",
            id="huge-B",
        ),
        ({"q": 2.9, "entries": [[2, 1], [1, 2]]}, "'q' of the model must be an integer, got 2.9"),
    ],
)
def test_model_json_names_the_bad_part(obj, message):
    with pytest.raises(ValueError) as info:
        model_from_json(obj)
    assert str(info.value) == message


def test_q_guard():
    with pytest.raises(ValueError):
        interaction_matrix(np.eye(40) + 1)
