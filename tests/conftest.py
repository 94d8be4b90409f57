import math

import numpy as np
import pytest

from potts_lab import acceptance, moments


@pytest.fixture(scope="session")
def criterion_4_run():
    """Run criterion 4 once, recording each (model, delta, report) it computes.

    The acceptance gate and the pinned-cell check both read this one run, so
    the 24 moment reports are computed once per session.
    """
    reports = []
    real = moments.moment_report

    def recording(model, delta, **kwargs):
        rep = real(model, delta, **kwargs)
        reports.append((model, delta, rep))
        return rep

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moments, "moment_report", recording)
        res = acceptance.CRITERIA[4]()
    return res, reports


@pytest.fixture(scope="session")
def phi1():
    """The ratio functional on a ratio vector R,
    0.5 Delta ln(R.B R) - (Delta-1) ln sum_i R_i^(Delta/(Delta-1)), which
    equals psi1 at a fixpoint's phase: the general referee for the Potts
    closed forms."""

    def value(model, delta, R):
        R = np.asarray(R, dtype=float)
        p = delta / (delta - 1.0)
        return 0.5 * delta * math.log(float(R @ model.entries @ R)) - (delta - 1) * math.log(float(np.sum(R**p)))

    return value
