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
