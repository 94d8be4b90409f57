"""Run the pinned-bit tests under each BLAS-kernel and SIMD-dispatch setting.

    python tools/dispatch_matrix.py

Each setting is applied only to the environment of one child pytest process,
which runs every pinned test; the settings are numpy's bundled OpenBLAS
forced to its Haswell kernel, numpy's AVX512 dispatch switched off, and
both.  Prints one row per test and setting (PASS, FAIL, or ERROR when the
test reported no outcome) and exits 1 unless every row passes.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PINNED_TESTS = [
    "tests/test_moments.py::test_phase_queries_match_pinned_digest",
    "tests/test_moments.py::test_criterion_4_cells_match_pinned_values",
    "tests/test_swsim.py::test_pinned_digests",
    "tests/test_swsim.py::test_reference_statistics_match_pinned_digest",
    "tests/test_graphs.py::test_gadget_and_reduction_match_pinned_digests",
    "tests/test_acceptance.py::test_criterion_11_estimates_are_pinned",
]

HASWELL = {"OPENBLAS_CORETYPE": "Haswell"}
NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR"}
SETTINGS = {"none": {}, "haswell-blas": HASWELL, "no-avx512": NO_AVX512, "both": HASWELL | NO_AVX512}


def _outcomes(report: str, tests: list[str]) -> dict[str, str]:
    """Each test's PASS or FAIL from the short summary of `pytest -rA`, or
    ERROR when the summary has no line for it."""
    found = {}
    for line in report.splitlines():
        word, _, rest = line.partition(" ")
        test = rest.split(" - ")[0]
        if word in ("PASSED", "FAILED") and test in tests:
            found[test] = "PASS" if word == "PASSED" else "FAIL"
    return {test: found.get(test, "ERROR") for test in tests}


def _run(setting: dict[str, str]) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in HASWELL | NO_AVX512}
    env.update(setting)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *PINNED_TESTS]
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    return _outcomes(done.stdout, PINNED_TESTS)


def main() -> int:
    width = max(map(len, PINNED_TESTS))
    print(f"{'test':<{width}}  " + "  ".join(f"{name:<12}" for name in SETTINGS))
    columns = [_run(setting) for setting in SETTINGS.values()]
    for test in PINNED_TESTS:
        print(f"{test:<{width}}  " + "  ".join(f"{column[test]:<12}" for column in columns))
    return 0 if all(result == "PASS" for column in columns for result in column.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
