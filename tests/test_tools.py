import importlib.util
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_records_what_moves_the_bits(monkeypatch):
    tool = _load_tool()
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
    monkeypatch.delenv("NPY_DISABLE_CPU_FEATURES", raising=False)
    host = tool._host_state()
    assert host["numpy"] == np.__version__
    assert host["env"] == {"OPENBLAS_CORETYPE": "Haswell", "NPY_DISABLE_CPU_FEATURES": None}
    simd = host["numpy_simd"]
    assert set(simd) == {"baseline", "found"}
    assert all(isinstance(f, str) for f in simd["baseline"] + simd["found"])


def test_bench_pairs_reference_rate_is_a_positive_finite_rate():
    rate = _load_tool()._reference_rate()
    assert isinstance(rate, float) and 0 < rate < float("inf")
