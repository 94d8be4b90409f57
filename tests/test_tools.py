import ast
import importlib.util
import json
from collections import Counter
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


def _caller_files():
    root = TOOL.parents[1]
    files = [p for p in sorted((root / "src" / "potts_lab").glob("*.py")) if p.name != "__init__.py"]
    files += [p for p in sorted((root / "perfbench").glob("*.py")) if p.name != "test_bench.py"]
    return files + sorted((root / "tools").glob("*.py"))


def test_every_public_name_has_a_caller():
    root = TOOL.parents[1]
    defined, used = {}, set()
    for path in _caller_files():
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


# dataclass members with no reader yet, kept for the open ROADMAP items that will read them
WAITING_FOR_A_READER = {
    "SmallGraphConstants.lam",  # item 6: per-graph referee for the Bethe prediction
    "SmallGraphConstants.delta_series",  # item 6
    "ReductionConstants.A",  # item 8: simulation referee for the gadget's root marginal
    "ReductionConstants.Bstar",  # item 8
    "ReductionConstants.p",  # item 8
    "ReductionConstants.C_H",  # item 8
}


def _attribute_loads(node) -> Counter:
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def _is_dataclass(node) -> bool:
    if not isinstance(node, ast.ClassDef):
        return False
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)


def test_every_dataclass_member_has_a_reader():
    # Each field, property and public method of a dataclass in src/potts_lab
    # must be read as an attribute outside its class body, or inside it by a
    # member that is read itself or waits for a reader (probabilities reads
    # GibbsOracle.weights).  Reads are matched by name alone: any x.q counts
    # for every member named q, so a dead member whose name collides with a
    # live one passes unseen.
    trees = {path: ast.parse(path.read_text()) for path in _caller_files()}
    loads = sum((_attribute_loads(tree) for tree in trees.values()), Counter())
    unread = set()
    for path, tree in trees.items():
        if path.parent.name != "potts_lab":
            continue
        for cls in filter(_is_dataclass, tree.body):
            members = {}  # member name -> the attribute loads in its own body
            for node in cls.body:
                if isinstance(node, ast.AnnAssign):
                    members[node.target.id] = Counter()
                elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    members[node.name] = _attribute_loads(node)
            inside = _attribute_loads(cls)
            read = {m for m in members if loads[m] > inside[m]}
            waiting = {m for m in members if f"{cls.name}.{m}" in WAITING_FOR_A_READER}
            while grown := {m for r in read | waiting for m in members[r] if m in members} - read:
                read |= grown
            unread |= {f"{cls.name}.{m}" for m in members if m not in read}
    # a waiting member that gains a reader (or goes) leaves the list as well
    assert sorted(unread) == sorted(WAITING_FOR_A_READER)
