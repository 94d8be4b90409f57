import ast
import importlib.util
import json
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
    assert host["openblas_core"] is None or isinstance(host["openblas_core"], str)


def test_bench_pairs_reference_rate_is_a_positive_finite_rate():
    rate = _load_tool()._reference_rate()
    assert isinstance(rate, float) and 0 < rate < float("inf")


def test_bench_pairs_measures_peak_rss_at_an_equal_op_count():
    root = TOOL.parents[1]
    probe = _load_tool()._rss_at_ops(root, "phase-grid", 100, 64)
    assert (probe["ops"], probe["failed"]) == (64, 0)
    assert isinstance(probe["peak_rss_mb"], float) and 0 < probe["peak_rss_mb"] < 1024


def test_bench_pairs_probes_both_sides_at_the_fewest_attempted_ops(tmp_path, monkeypatch):
    tool = _load_tool()
    (tmp_path / "BENCHMARK.json").write_text((TOOL.parents[1] / "BENCHMARK.json").read_text())
    attempted = iter([70, 64, 81, 66])
    metrics = {name: {"value": 1.0} for name in ("setup_s", "work_per_s", "op_p50_ms", "peak_rss_mb")}
    monkeypatch.setattr(tool, "_reference_rate", lambda: 1.0)
    monkeypatch.setattr(tool, "_run", lambda *a: {"attempted": next(attempted), "failed": 0, "metrics": metrics})
    probes = []

    def probe(checkout, workload, seed, n_ops):
        probes.append((checkout, workload, seed, n_ops))
        return {"ops": n_ops, "failed": 0, "peak_rss_mb": 40.0 + len(probes)}

    monkeypatch.setattr(tool, "_rss_at_ops", probe)
    parent = tmp_path / "parent"
    parent.mkdir()
    args = ["--parent", str(parent), "--change", str(tmp_path), "--label", "t", "--workload", "phase-grid:2", "--seed", "7"]
    assert tool.main(args) == 0
    assert probes == [(parent, "phase-grid", 7, 64), (tmp_path, "phase-grid", 7, 64)]
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["workloads"]["phase-grid"]["peak_rss_at_equal_ops"] == {
        "ops": 64,
        "seed": 7,
        "parent": {"ops": 64, "failed": 0, "peak_rss_mb": 41.0},
        "change": {"ops": 64, "failed": 0, "peak_rss_mb": 42.0},
    }


def test_dispatch_matrix_reads_each_pinned_test_outcome():
    spec = importlib.util.spec_from_file_location("dispatch_matrix", TOOL.parent / "dispatch_matrix.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert list(tool.SETTINGS) == ["none", "haswell-blas", "no-avx512", "both"]
    assert tool.SETTINGS["both"] == tool.HASWELL | tool.NO_AVX512
    tests = ["tests/a.py::test_x", "tests/a.py::test_y", "tests/b.py::test_z"]
    report = "PASSED tests/a.py::test_x\nFAILED tests/a.py::test_y - assert 'a' == 'b'\nPASSED tests/a.py::test_xy\n"
    assert tool._outcomes(report, tests) == {tests[0]: "PASS", tests[1]: "FAIL", tests[2]: "ERROR"}


# public names with no caller yet, kept for the callers that open ROADMAP items will give them
WAITING_FOR_A_CALLER = {
    "classify_UMT",  # item 7: SW bottleneck on the U/M/T classes
    "default_epsilon",  # item 7
    "reduction_constants",  # item 8: simulation referee for the gadget's root marginal
    "second_moment_exact",  # item 10: finite-n referee for the second-moment ratio
}


def test_every_public_name_has_a_caller():
    root = TOOL.parents[1]
    files = [p for p in sorted((root / "src" / "potts_lab").glob("*.py")) if p.name != "__init__.py"]
    files += [p for p in sorted((root / "perfbench").glob("*.py")) if p.name != "test_bench.py"]
    files += sorted((root / "tools").glob("*.py"))
    defined, used = {}, set()
    for path in files:
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = path.relative_to(root).as_posix()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    # a waiting name that gains a caller (or goes) leaves the list as well
    uncalled = {name: path for name, path in defined.items() if name not in used}
    assert sorted(uncalled) == sorted(WAITING_FOR_A_CALLER), uncalled
