import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from potts_lab.cli import run_command


def run_to_file(tmp_path, name, argv):
    path = tmp_path / name
    rc = run_command(argv + ["--out" if not name.endswith(".csv") else "--csv", str(path)])
    return rc, path


def test_thresholds_json(tmp_path, capsys):
    rc = run_command(["thresholds", "--q", "3", "--delta", "3"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["Bu"] - (1 + 2 * math.sqrt(2))) < 1e-9
    assert abs(payload["Bo"] - 1 / (2 ** (1 / 3) - 1)) < 1e-12
    assert payload["Brc"] == 4.0
    assert payload["config"] == {"q": 3, "delta": 3}


def test_fixpoints_json(capsys):
    rc = run_command(["fixpoints", "--q", "3", "--delta", "3", "--B", "3.9"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    stabilities = sorted(fp["stability"] for fp in payload["fixpoints"])
    assert stabilities == ["attractive", "attractive", "unstable"]


def test_phase_diagram_regimes(capsys):
    rc = run_command(["phase-diagram", "--q", "3", "--delta", "3", "--B", "3.9"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["regime"] == "ordered-dominant"
    assert payload["dif"] > 0
    assert len(payload["dominant"]) == 3


def test_moments_csv_row(capsys):
    rc = run_command(
        [
            "moments", "--model", "potts", "--q", "3", "--B", "2", "--delta", "3",
            "--alpha", "0.3333333333333333,0.3333333333333333,0.3333333333333334",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    row = lines[1].split(",")
    psi1 = float(row[header.index("psi1")])
    assert abs(psi1 - (1.5 * math.log(12) - 2 * math.log(3))) < 1e-9
    assert row[header.index("dominant")] == "1"


def test_moments_exact_n_column(capsys):
    rc = run_command(
        [
            "moments", "--model", "potts", "--q", "2", "--B", "2", "--delta", "3",
            "--alpha", "0.5,0.5", "--exact-n", "2",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    row = lines[1].split(",")
    got = float(row[header.index("exact_log_mean_n2")])
    assert abs(got - math.log(5.6) / 2) < 1e-12


def test_moments_exact_n_needs_alpha(tmp_path, capsys):
    out = tmp_path / "m.csv"
    argv = ["moments", "--model", "potts", "--q", "2", "--B", "2", "--delta", "3", "--exact-n", "2"]
    assert run_command(argv + ["--csv", str(out)]) == 1
    assert capsys.readouterr().err == "error: --exact-n needs --alpha\n"
    assert not out.exists()


@pytest.mark.parametrize("n", ["0", "-2"])
def test_moments_exact_n_must_be_positive(tmp_path, capsys, n):
    out = tmp_path / "m.csv"
    argv = ["moments", "--model", "potts", "--q", "2", "--B", "2", "--delta", "3", "--alpha", "0.5,0.5"]
    assert run_command(argv + ["--no-psi2", "--exact-n", n, "--csv", str(out)]) == 1
    assert capsys.readouterr().err == "error: exact moments need n >= 1 vertices\n"
    assert not out.exists()


def test_moments_exact_n_past_a_float_keeps_its_log_column(tmp_path):
    # E[Z^alpha] = exp(907.3) is no float, but its log per vertex is
    from potts_lab import moments
    from potts_lab.spinsys import build_potts_matrix

    out = tmp_path / "m.csv"
    argv = ["moments", "--model", "potts", "--q", "2", "--B", "2", "--delta", "3", "--alpha", "0.5,0.5"]
    assert run_command(argv + ["--no-psi2", "--exact-n", "700", "--csv", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    got = float(lines[1].split(",")[lines[0].split(",").index("exact_log_mean_n700")])
    want = moments._first_moment_log(700, 3, build_potts_matrix(2, 2.0), [0.5, 0.5]) / 700
    assert math.isfinite(got) and got == want


def test_moments_exact_n_past_the_guard_exits_2(tmp_path, capsys):
    out = tmp_path / "m.csv"
    third = "0.3333333333333333"
    argv = ["moments", "--model", "potts", "--q", "3", "--B", "2", "--delta", "3"]
    argv += ["--alpha", f"{third},{third},0.3333333333333334", "--no-psi2", "--exact-n", "600"]
    assert run_command(argv + ["--csv", str(out)]) == 2
    assert capsys.readouterr().err == (
        "guard violation: colour elimination touches 73264304 entries, past the guard 50000000\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "delta, n",
    [("3", "1000000000000000000000000000000"), ("3", "9223372036854775806"), ("4", "4611686018427387904")],
)
def test_moments_exact_n_past_exact_float_counts_exits_2(tmp_path, capsys, delta, n):
    # n * alpha and delta * n would wrap in int64; the guard fires before any cast
    out = tmp_path / "m.csv"
    argv = ["moments", "--model", "potts", "--q", "2", "--B", "2", "--delta", delta, "--alpha", "0.5,0.5"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_command(argv + ["--no-psi2", "--exact-n", n, "--csv", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"guard violation: n = {n} at delta = {delta} passes 2^53 points, where float counts stop being exact\n"
    )
    assert not out.exists()


def test_moments_no_psi2_is_recorded(capsys):
    argv = ["moments", "--model", "potts", "--q", "3", "--B", "2", "--delta", "3"]
    assert run_command(argv + ["--no-psi2"]) == 0
    assert _config_of(capsys.readouterr().out)["no_psi2"] is True
    assert run_command(argv + ["--alpha", "0.2,0.3,0.5"]) == 0
    assert "no_psi2" not in _config_of(capsys.readouterr().out)


def test_moments_seed_reaches_the_fixpoint_search(tmp_path, monkeypatch):
    from potts_lab import treefix

    model = tmp_path / "model.json"
    model.write_text('{"q": 3, "entries": [[3, 1, 0.5], [1, 2.5, 1], [0.5, 1, 3.5]]}')
    seen = []
    real = treefix.find_fixpoints

    def recording(*args, **kwargs):
        seen.append(kwargs.get("seed"))
        return real(*args, **kwargs)

    monkeypatch.setattr(treefix, "find_fixpoints", recording)
    base = ["moments", "--model", str(model), "--delta", "3", "--no-psi2", "--seed", "5"]
    assert run_command(base + ["--csv", str(tmp_path / "a.csv")]) == 0
    assert run_command(base + ["--alpha", "0.4,0.3,0.3", "--csv", str(tmp_path / "b.csv")]) == 0
    assert seen == [5, 5]


def test_norm_command(capsys):
    rc = run_command(["norm", "--model", "potts", "--q", "3", "--B", "2", "--delta", "3"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["delta_ln_norm"] - (1.5 * math.log(12) - 2 * math.log(3))) < 1e-8


@pytest.mark.parametrize("delta", ["1", "0"])
def test_norm_rejects_delta_below_two(tmp_path, capsys, delta):
    out = tmp_path / "norm.json"
    argv = ["norm", "--model", "potts", "--q", "3", "--B", "2", "--delta", delta, "--out", str(out)]
    assert run_command(argv) == 1
    assert capsys.readouterr().err == f"error: --delta must be >= 2, got {delta}\n"
    assert not out.exists()


def test_norm_argmax_at_coexistence_is_the_first_maximizer(capsys):
    # at Bo(4, 4) the uniform and the ordered vectors both attain the norm;
    # the uniform start comes first and must win whatever the last bits say
    argv = ["norm", "--model", "potts", "--q", "4", "--B", "2.7320508075688776", "--delta", "4"]
    assert run_command(argv) == 0
    assert json.loads(capsys.readouterr().out)["argmax"] == [0.25, 0.25, 0.25, 0.25]


def test_graph_sample_reproducible(tmp_path):
    a = tmp_path / "a.graph"
    b = tmp_path / "b.graph"
    assert run_command(["graph", "sample", "--n", "8", "--delta", "3", "--seed", "5", "--out", str(a)]) == 0
    assert run_command(["graph", "sample", "--n", "8", "--delta", "3", "--seed", "5", "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()
    assert "# config" in a.read_text()


@pytest.mark.parametrize("command", ["sample", "enumerate"])
@pytest.mark.parametrize(
    "n, delta, message",
    [
        ("-2", "3", "a pairing needs n >= 0 and delta >= 0, got n=-2, delta=3"),
        ("2", "-3", "a pairing needs n >= 0 and delta >= 0, got n=2, delta=-3"),
        ("3", "3", "delta * n must be even"),
    ],
)
def test_graph_pairings_reject_impossible_sizes(tmp_path, capsys, command, n, delta, message):
    out = tmp_path / "g.txt"
    assert run_command(["graph", command, "--n", n, "--delta", delta, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_sw_run_reproducible(tmp_path):
    g = tmp_path / "g.graph"
    run_command(["graph", "sample", "--n", "8", "--delta", "3", "--seed", "5", "--out", str(g)])
    t1 = tmp_path / "t1.csv"
    t2 = tmp_path / "t2.csv"
    base = ["sw", "run", "--graph", str(g), "--q", "3", "--B", "2", "--steps", "10", "--seed", "4"]
    assert run_command(base + ["--csv", str(t1)]) == 0
    assert run_command(base + ["--csv", str(t2)]) == 0
    assert t1.read_text() == t2.read_text()
    header_line = [l for l in t1.read_text().splitlines() if l.startswith("t,")][0]
    assert header_line == "t,phase,c_0,c_1,c_2,mono_density"


def test_sw_exact_command(tmp_path, capsys):
    g = tmp_path / "tri.graph"
    g.write_text("3 2\n0 1\n1 2\n0 2\n")
    rc = run_command(["sw", "exact", "--graph", str(g), "--q", "2", "--B", "2", "--cut", "phase:0"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["row_sum_error"] < 1e-12
    assert payload["detailed_balance_error"] < 1e-10
    assert payload["stationarity_error"] < 1e-10
    assert abs(payload["conductance"] - 1.0) < 1e-12


@pytest.mark.parametrize("B", ["0.5", "0", "nan"])
def test_sw_commands_reject_activity_below_one(tmp_path, capsys, B):
    g = tmp_path / "tri.graph"
    g.write_text("3 2\n0 1\n1 2\n0 2\n")
    out = tmp_path / "out"
    base = ["--graph", str(g), "--q", "2", "--B", B]
    assert run_command(["sw", "run", *base, "--steps", "5", "--csv", str(out)]) == 1
    assert run_command(["sw", "exact", *base, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: Swendsen-Wang needs B >= 1, got {float(B)}"] * 2
    assert not out.exists()


def test_sw_commands_reject_infinite_activity(tmp_path, capsys):
    g = tmp_path / "tri.graph"
    g.write_text("3 2\n0 1\n1 2\n0 2\n")
    out = tmp_path / "out"
    base = ["--graph", str(g), "--q", "2", "--B", "inf"]
    assert run_command(["sw", "run", *base, "--steps", "5", "--csv", str(out)]) == 1
    assert run_command(["sw", "exact", *base, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: Swendsen-Wang needs a finite B, got inf"] * 2
    assert not out.exists()


def test_sw_exact_guards_the_subset_count(tmp_path, capsys):
    g = tmp_path / "parallel.graph"
    g.write_text("2 40\n" + "0 1\n" * 40)
    out = tmp_path / "kernel.json"
    assert run_command(["sw", "exact", "--graph", str(g), "--q", "2", "--B", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "guard violation: 2^40 kept-edge subsets exceed the exact-kernel guard\n"
    assert not out.exists()


def test_sw_on_zero_vertices(tmp_path, capsys):
    g = tmp_path / "empty.graph"
    g.write_text("0 3\n")
    out = tmp_path / "out"
    base = ["sw", "run", "--graph", str(g), "--q", "3", "--B", "2", "--steps", "2"]
    assert run_command(base + ["--csv", str(out)]) == 1
    assert capsys.readouterr().err == "error: Swendsen-Wang chains need at least one vertex\n"
    assert not out.exists()
    assert run_command(["sw", "exact", "--graph", str(g), "--q", "3", "--B", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["states"] == 1


def test_graph_file_rejects_role_vertex_outside_range(tmp_path, capsys):
    g = tmp_path / "c4.graph"
    g.write_text("4 2\n# role 99 rootPlus\n0 1\n1 2\n2 3\n0 3\n")
    out = tmp_path / "cycles.json"
    assert run_command(["graph", "cycles", "--graph", str(g), "--kmax", "4", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: role vertex 99 outside vertex range\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "text, k, message",
    [
        ("3\n0 1\n", 1, "a header 'n delta' of two integers, got '3'"),
        ("3 2\n0 1 2\n", 2, "an edge 'u v' of two integers, got '0 1 2'"),
        ("3 2\n0 1\n0 x\n", 3, "an edge 'u v' of two integers, got '0 x'"),
        ("3 2\n\n0 1.5\n", 3, "an edge 'u v' of two integers, got '0 1.5'"),
        ("3 2\n# role x rootPlus\n0 1\n", 2, "a role line '# role v name' with an integer v, got '# role x rootPlus'"),
    ],
    ids=["header", "edge-fields", "edge-vertex", "edge-float", "role"],
)
def test_graph_file_names_the_line_it_cannot_parse(tmp_path, capsys, text, k, message):
    g = tmp_path / "bad.graph"
    g.write_text(text)
    for argv in (["graph", "cycles", "--kmax", "2"], ["sw", "exact", "--q", "3", "--B", "2"]):
        out = tmp_path / "out.json"
        assert run_command(argv + ["--graph", str(g), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {g}, line {k}: expected {message}\n"
        assert not out.exists()


@pytest.mark.parametrize("header, edge", [("10000000000 3", "9999999999 0\n"), ("-1 3", "")], ids=["huge", "negative"])
def test_graph_file_rejects_vertex_count_outside_the_edge_key(tmp_path, capsys, header, edge):
    g = tmp_path / "bad.graph"
    g.write_text(f"{header}\n{edge}")
    n = header.split()[0]
    message = f"error: n = {n} is outside 0..3037000499, the vertex counts whose edge keys fit in int64\n"
    for argv in (["graph", "cycles", "--kmax", "2"], ["sw", "exact", "--q", "3", "--B", "2"]):
        out = tmp_path / "out.json"
        assert run_command(argv + ["--graph", str(g), "--out", str(out)]) == 1
        assert capsys.readouterr().err == message
        assert not out.exists()


@pytest.mark.parametrize("color", ["9", "-1"])
def test_sw_run_rejects_ordered_color_out_of_range(tmp_path, capsys, color):
    g = tmp_path / "g.graph"
    run_command(["graph", "sample", "--n", "40", "--delta", "3", "--seed", "7", "--out", str(g)])
    out = tmp_path / "trace.csv"
    argv = ["sw", "run", "--graph", str(g), "--q", "6", "--B", "5.7", "--steps", "5"]
    assert run_command(argv + ["--start", f"ordered:{color}", "--csv", str(out)]) == 1
    assert capsys.readouterr().err == f"error: ordered phase color must be in 0..5, got {color}\n"
    assert not out.exists()


def test_gadget_and_reduce_cli(tmp_path):
    gad = tmp_path / "gadget.graph"
    rc = run_command(
        ["gadget", "--delta", "3", "--trees", "2", "--depth", "2", "--ncore", "16",
         "--seed", "3", "--out", str(gad)]
    )
    assert rc == 0
    h = tmp_path / "h.graph"
    h.write_text("3 2\n0 1\n1 2\n0 2\n")
    red = tmp_path / "hg.graph"
    rc = run_command(
        ["reduce", "--h", str(h), "--delta", "3", "--trees", "2", "--depth", "1",
         "--ncore", "4", "--seed", "3", "--out", str(red)]
    )
    assert rc == 0
    from potts_lab.graphs import read_graph

    hg = read_graph(red)
    assert int(np.max(hg.degrees())) == 3


def test_gadget_and_reduce_are_top_level_commands_only(capsys):
    for cmd in ("gadget", "reduce"):
        assert run_command(["graph", cmd, "--help"]) == 1
        assert "invalid choice" in capsys.readouterr().err


def test_sweep_dif_crosses_zero_at_bo(tmp_path):
    out = tmp_path / "dif.csv"
    rc = run_command(
        ["sweep", "dif", "--q", "3", "--delta", "3", "--points", "20", "--csv", str(out)]
    )
    assert rc == 0
    rows = [l.split(",") for l in out.read_text().splitlines() if l and not l.startswith("#")]
    header, data = rows[0], rows[1:]
    bs = [float(r[header.index("B")]) for r in data]
    difs = [float(r[header.index("dif")]) for r in data]
    assert all(b > a for a, b in zip(difs, difs[1:]))
    bo = 1 / (2 ** (1 / 3) - 1)
    crossings = [
        (bs[i], bs[i + 1]) for i in range(len(difs) - 1) if difs[i] < 0 <= difs[i + 1]
    ]
    assert len(crossings) == 1
    lo, hi = crossings[0]
    assert lo < bo <= hi


def test_sweep_records_partial_failures(tmp_path, monkeypatch):
    from potts_lab import moments as mm

    original = mm.potts_phase_diagram
    calls = {"n": 0}

    def flaky(q, delta, B):
        calls["n"] += 1
        if calls["n"] == 2:
            raise ValueError("synthetic failure")
        return original(q, delta, B)

    monkeypatch.setattr("potts_lab.cli.moments.potts_phase_diagram", flaky)
    out = tmp_path / "dif.csv"
    rc = run_command(
        ["sweep", "dif", "--q", "3", "--delta", "3", "--points", "4", "--csv", str(out)]
    )
    assert rc == 1
    rows = [l.split(",") for l in out.read_text().splitlines() if l and not l.startswith("#")]
    header, data = rows[0], rows[1:]
    errors = [r[header.index("error")] for r in data]
    assert sum(1 for e in errors if e) == 1
    assert len(data) == 4  # failed row still present, in grid order


def test_sweep_dif_rejects_points_below_one(tmp_path, capsys):
    out = tmp_path / "dif.csv"
    for points in ("0", "-3"):
        rc = run_command(["sweep", "dif", "--q", "3", "--delta", "3", "--points", points, "--csv", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: --points must be >= 1, got {points}\n"
        assert not out.exists()


def test_sweep_thresholds_table(tmp_path):
    out = tmp_path / "th.csv"
    rc = run_command(["sweep", "thresholds", "--csv", str(out)])
    assert rc == 0
    rows = [l.split(",") for l in out.read_text().splitlines() if l and not l.startswith("#")]
    header, data = rows[0], rows[1:]
    assert len(data) == 36  # q, delta in 3..8
    assert all(r[header.index("ordering")] == "ok" for r in data)


def test_exit_codes(tmp_path, capsys):
    assert run_command(["thresholds", "--q", "3", "--delta", "3", "--nope"]) == 1
    assert run_command(["graph", "enumerate", "--n", "10", "--delta", "3", "--count-only"]) == 2
    assert run_command(["thresholds", "--q", "2", "--delta", "3"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("module", ["potts_lab", "potts_lab.cli"])
def test_python_dash_m_runs_the_cli(module, capsys):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["thresholds", "--q", "3", "--delta", "3"]

    def run(*extra):
        cmd = [sys.executable, "-m", module, *argv, *extra]
        return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)

    done = run()
    assert run_command(argv) == 0
    assert (done.returncode, done.stdout) == (0, capsys.readouterr().out)
    bad = run("--nope")
    assert bad.returncode == 1
    assert "unrecognized arguments: --nope" in bad.stderr


def test_config_file_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"q": 4}))
    rc = run_command(["--config", str(cfg), "thresholds", "--q", "3", "--delta", "3"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["q"] == 4
    assert abs(payload["Brc"] - 5.0) < 1e-12


def _config_run(tmp_path, overrides, argv):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(overrides))
    return run_command(["--config", str(cfg)] + argv)


def test_config_rejects_keys_that_are_not_options_of_the_subcommand(tmp_path, capsys):
    argv = ["thresholds", "--q", "3", "--delta", "3"]
    assert _config_run(tmp_path, {"func": 1}, argv) == 1
    assert capsys.readouterr().err.startswith("error: --config: 'func' is not an option")
    assert _config_run(tmp_path, {"bogus": 3}, argv) == 1
    assert capsys.readouterr().err.startswith("error: --config: 'bogus' is not an option")
    # an option of another subcommand is not an option of this one
    assert _config_run(tmp_path, {"B": 2.0}, argv) == 1
    assert "is not an option of 'potts-lab thresholds'" in capsys.readouterr().err


def test_config_values_go_through_the_option_type(tmp_path, capsys):
    argv = ["thresholds", "--q", "3", "--delta", "3"]
    assert _config_run(tmp_path, {"q": "three"}, argv) == 1
    assert capsys.readouterr().err.startswith("error: --config: invalid value for 'q'")
    assert _config_run(tmp_path, {"q": 3.5}, argv) == 1
    capsys.readouterr()
    enumerate_argv = ["graph", "enumerate", "--n", "2", "--delta", "3"]
    assert _config_run(tmp_path, {"count_only": "yes"}, enumerate_argv) == 1
    assert capsys.readouterr().err.startswith("error: --config: 'count_only' takes true or false")
    # a JSON string holding an integer is coerced like a command-line value
    assert _config_run(tmp_path, {"q": "4"}, argv) == 0
    assert json.loads(capsys.readouterr().out)["config"]["q"] == 4
    argv = ["graph", "sample", "--n", "8", "--delta", "3", "--seed", "5"]
    assert _config_run(tmp_path, {"seed": 6}, argv) == 0
    assert capsys.readouterr().out.startswith('# config: {"delta": 3, "n": 8, "seed": 6}')


def test_config_can_supply_required_options(tmp_path, capsys):
    assert _config_run(tmp_path, {"q": 3}, ["thresholds", "--delta", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"] == {"q": 3, "delta": 3}
    assert payload["Brc"] == 4.0
    # a required option given in neither place is still a usage error
    assert _config_run(tmp_path, {"q": 3}, ["fixpoints", "--delta", "3"]) == 1
    assert "the following arguments are required: --B" in capsys.readouterr().err
    assert run_command(["thresholds", "--delta", "3"]) == 1
    assert "the following arguments are required: --q" in capsys.readouterr().err
    # help still shows them as required
    with pytest.raises(SystemExit):
        run_command(["thresholds", "-h"])
    assert "usage: potts-lab thresholds [-h] --q Q --delta DELTA" in capsys.readouterr().out


def test_env_seed_default(tmp_path, monkeypatch):
    monkeypatch.setenv("POTTSLAB_SEED", "77")
    a = tmp_path / "a.graph"
    assert run_command(["graph", "sample", "--n", "8", "--delta", "3", "--out", str(a)]) == 0
    b = tmp_path / "b.graph"
    assert run_command(["graph", "sample", "--n", "8", "--delta", "3", "--seed", "77", "--out", str(b)]) == 0
    assert a.read_text().splitlines()[1:] == b.read_text().splitlines()[1:]


def test_bad_env_seed_is_a_validation_error(monkeypatch, capsys):
    monkeypatch.setenv("POTTSLAB_SEED", "abc")
    assert run_command(["thresholds", "--q", "3", "--delta", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: POTTSLAB_SEED must be an integer")


def test_graph_artifact_is_config_line_plus_graph_file(tmp_path):
    from potts_lab.graphs import graph_text, pairing_sample

    out = tmp_path / "g.graph"
    assert run_command(["graph", "sample", "--n", "8", "--delta", "3", "--seed", "5", "--out", str(out)]) == 0
    config, rest = out.read_text().split("\n", 1)
    assert config == '# config: {"delta": 3, "n": 8, "seed": 5}'
    assert rest == graph_text(pairing_sample(8, 3, seed=5))


def test_verify_only_fast_criteria(capsys):
    rc = run_command(["verify", "--only", "1,9"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS criterion 1" in out
    assert "PASS criterion 9" in out


@pytest.mark.parametrize(
    "only, message",
    [
        ("99", "criteria are numbered 1..11, got [99]"),
        ("0", "criteria are numbered 1..11, got [0]"),
        ("1,99", "criteria are numbered 1..11, got [1, 99]"),
        ("1,x", "--only takes comma-separated criterion numbers, got '1,x'"),
    ],
)
def test_verify_rejects_unknown_criteria_before_running_any(monkeypatch, capsys, only, message):
    from potts_lab import acceptance

    ran = []
    criteria = {k: (lambda k=k: ran.append(k)) for k in acceptance.CRITERIA}
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    assert run_command(["verify", "--only", only]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert ran == []


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["thresholds", "--q", "3", "--delta", "3", "--json"], "--json"),
        (["fixpoints", "--q", "3", "--delta", "3", "--B", "3.9", "--json"], "--json"),
        (["sweep", "dif", "--q", "3", "--delta", "3", "--points", "2", "--threads", "1"], "--threads"),
        (["verify", "--suite", "primary", "--only", "1"], "--suite"),
    ],
    ids=["thresholds", "fixpoints", "sweep-dif", "verify"],
)
def test_removed_flags_are_usage_errors(capsys, argv, flag):
    assert run_command(argv) == 1
    assert "unrecognized arguments: " + flag in capsys.readouterr().err


def _config_of(text: str) -> dict:
    """The config an artifact records: a JSON payload's "config", or the
    '# config: ' line of a CSV or graph file."""
    if text.startswith("{"):
        return json.loads(text)["config"]
    line = next(l for l in text.splitlines() if l.startswith("# config: "))
    return json.loads(line.removeprefix("# config: "))


def test_config_records_every_given_option_but_the_output_path(tmp_path):
    from potts_lab.cli import _parsers, build_parser

    g = tmp_path / "g.graph"
    assert run_command(["graph", "sample", "--n", "8", "--delta", "3", "--seed", "5", "--out", str(g)]) == 0
    tri = tmp_path / "tri.graph"
    tri.write_text("3 2\n0 1\n1 2\n0 2\n")
    commands = [
        ["thresholds", "--q", "3", "--delta", "3"],
        ["fixpoints", "--q", "3", "--delta", "3", "--B", "3.9"],
        ["phase-diagram", "--q", "3", "--delta", "3", "--B", "3.9"],
        ["moments", "--model", "potts", "--q", "2", "--B", "2", "--delta", "3", "--alpha", "0.5,0.5",
         "--exact-n", "2", "--no-psi2", "--seed", "4"],
        ["norm", "--model", "potts", "--q", "3", "--B", "2", "--delta", "3"],
        ["graph", "sample", "--n", "8", "--delta", "3", "--seed", "5"],
        ["graph", "cycles", "--graph", str(g), "--kmax", "3"],
        ["gadget", "--delta", "3", "--trees", "2", "--depth", "2", "--ncore", "16", "--seed", "3"],
        ["reduce", "--h", str(tri), "--delta", "3", "--trees", "2", "--depth", "1", "--ncore", "4", "--seed", "3"],
        ["sw", "run", "--graph", str(g), "--q", "3", "--B", "2", "--steps", "3", "--start", "disordered", "--seed", "4"],
        ["sw", "exact", "--graph", str(tri), "--q", "2", "--B", "2", "--cut", "phase:0"],
        ["sweep", "dif", "--q", "3", "--delta", "3", "--points", "2"],
        ["sweep", "thresholds", "--q-min", "3", "--q-max", "4", "--delta-min", "3", "--delta-max", "4"],
    ]
    # every subcommand with an output path, except graph enumerate, which
    # writes no config line
    writers = {
        p.prog.removeprefix("potts-lab "): {a.dest for a in p._actions}
        for p in _parsers(build_parser())
        if {"out", "csv"} & {a.dest for a in p._actions}
    }
    assert {" ".join(itertools.takewhile(lambda w: w[0] != "-", argv)) for argv in commands} == (
        set(writers) - {"graph enumerate"}
    )
    out = tmp_path / "artifact"
    for argv in commands:
        name = " ".join(itertools.takewhile(lambda w: w[0] != "-", argv))
        out_flag = "--csv" if "csv" in writers[name] else "--out"
        assert run_command(argv + [out_flag, str(out)]) == 0, argv
        given = {w[2:].replace("-", "_") for w in argv if w.startswith("--")}
        assert set(_config_of(out.read_text())) == given, argv


# format_usage() of every parser at 80 columns, in _parsers order
PINNED_USAGE = [
    "usage: potts-lab [-h] [--config CONFIG]\n"
    "                 {thresholds,fixpoints,phase-diagram,moments,norm,graph,gadget,reduce,sw,sweep,verify}\n"
    "                 ...\n",
    "usage: potts-lab thresholds [-h] --q Q --delta DELTA [--out OUT]\n",
    "usage: potts-lab fixpoints [-h] --q Q --delta DELTA --B B [--out OUT]\n",
    "usage: potts-lab phase-diagram [-h] --q Q --delta DELTA --B B [--out OUT]\n",
    "usage: potts-lab moments [-h] --model MODEL [--q Q] [--B B] --delta DELTA\n"
    "                         [--alpha ALPHA] [--exact-n EXACT_N] [--no-psi2]\n"
    "                         [--seed SEED] [--csv CSV]\n",
    "usage: potts-lab norm [-h] --model MODEL [--q Q] [--B B] --delta DELTA\n"
    "                      [--out OUT]\n",
    "usage: potts-lab graph [-h] {sample,enumerate,cycles} ...\n",
    "usage: potts-lab graph sample [-h] --n N --delta DELTA [--seed SEED]\n"
    "                              [--out OUT]\n",
    "usage: potts-lab graph enumerate [-h] --n N --delta DELTA [--count-only]\n"
    "                                 [--out OUT]\n",
    "usage: potts-lab graph cycles [-h] --graph GRAPH [--kmax KMAX] [--out OUT]\n",
    "usage: potts-lab gadget [-h] --delta DELTA --trees TREES --depth DEPTH --ncore\n"
    "                        NCORE [--seed SEED] [--out OUT]\n",
    "usage: potts-lab reduce [-h] --h H --delta DELTA --trees TREES --depth DEPTH\n"
    "                        --ncore NCORE [--seed SEED] [--out OUT]\n",
    "usage: potts-lab sw [-h] {run,exact} ...\n",
    "usage: potts-lab sw run [-h] --graph GRAPH --q Q --B B --steps STEPS\n"
    "                        [--start START] [--seed SEED] [--csv CSV]\n",
    "usage: potts-lab sw exact [-h] --graph GRAPH --q Q --B B [--cut CUT]\n"
    "                          [--out OUT]\n",
    "usage: potts-lab sweep [-h] {dif,thresholds} ...\n",
    "usage: potts-lab sweep dif [-h] --q Q --delta DELTA [--points POINTS]\n"
    "                           [--csv CSV]\n",
    "usage: potts-lab sweep thresholds [-h] [--q-min Q_MIN] [--q-max Q_MAX]\n"
    "                                  [--delta-min DELTA_MIN]\n"
    "                                  [--delta-max DELTA_MAX] [--csv CSV]\n",
    "usage: potts-lab verify [-h] [--only ONLY]\n",
]


def test_usage_of_every_parser_is_pinned(monkeypatch):
    from potts_lab.cli import _parsers, build_parser

    monkeypatch.setenv("COLUMNS", "80")
    assert [p.format_usage() for p in _parsers(build_parser())] == PINNED_USAGE


def test_every_option_in_the_table_is_used():
    from potts_lab.cli import _COMMANDS, _OPTIONS

    used = {flag.rstrip("?") for _, _, flags in _COMMANDS for flag in flags.split()}
    assert used == set(_OPTIONS)


@pytest.mark.parametrize(
    "alpha, message",
    [
        ("0.5,0.6,0.7", "simplex vector must have unit 1-norm"),
        ("0.5,0.6,-0.1", "simplex vector must be nonnegative"),
        ("nan,0.5,0.5", "simplex vector must be finite"),
    ],
)
def test_moments_alpha_must_be_a_distribution(tmp_path, capsys, alpha, message):
    out = tmp_path / "m.csv"
    argv = ["moments", "--model", "potts", "--q", "3", "--B", "2", "--delta", "3", "--alpha", alpha]
    assert run_command(argv + ["--csv", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_moments_checks_exact_n_before_any_psi_work(monkeypatch, capsys):
    from potts_lab import moments as mm

    calls = []
    for name in ("moment_report", "psi1", "psi2"):
        monkeypatch.setattr(mm, name, lambda *a, name=name, **k: calls.append(name))
    argv = ["moments", "--model", "potts", "--q", "2", "--B", "2", "--delta", "3", "--alpha", "0.5,0.5"]
    assert run_command(argv + ["--exact-n", "0"]) == 1
    assert capsys.readouterr().err == "error: exact moments need n >= 1 vertices\n"
    assert calls == []


def test_graph_cycles_guards_the_walk_count(tmp_path, capsys, monkeypatch):
    from potts_lab import graphs

    g = tmp_path / "g.graph"
    assert run_command(["graph", "sample", "--n", "8", "--delta", "3", "--seed", "5", "--out", str(g)]) == 0
    monkeypatch.setattr(graphs, "CYCLE_WALK_GUARD", 8 * 3 * 2**3)
    out = tmp_path / "c.json"
    assert run_command(["graph", "cycles", "--graph", str(g), "--kmax", "4", "--out", str(out)]) == 0
    out.unlink()
    assert run_command(["graph", "cycles", "--graph", str(g), "--kmax", "5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "guard violation: 384 walks of length 5 exceed the cycle-walk guard\n"
    assert not out.exists()


def test_moments_model_files_fail_with_one_error_line(tmp_path, capsys):
    cases = [
        ("[1, 2]", "a model file must hold a JSON object, got list"),
        ('{"q": 3}', "a model needs 'entries' or the 'potts' shorthand"),
        ('{"potts": {"q": 3}}', "the 'potts' shorthand needs 'B'"),
        ('{"entries": [[1, Infinity], [Infinity, 1]]}', "interaction matrix entries must be finite"),
        ('{"entries": [[1, NaN], [NaN, 1]]}', "interaction matrix entries must be finite"),
        ('{"entries": [[1, 2], [3]]}', "model 'entries' must be a square array of numbers"),
        ('{"potts": {"q": 3.7, "B": 2}}', "'q' of the 'potts' shorthand must be an integer, got 3.7"),
        ('{"q": 2.9, "entries": [[2, 1], [1, 2]]}', "'q' of the model must be an integer, got 2.9"),
        (
            '{"q": 2, "entries": [[0, 0], [0, 0]]}',
            "no tree fixpoint found for the q = 2 model at delta = 3: "
            "all 200 damped-iteration ends failed the residual check",
        ),
    ]
    for i, (text, message) in enumerate(cases):
        model = tmp_path / f"model{i}.json"
        model.write_text(text)
        out = tmp_path / f"out{i}.csv"
        argv = ["moments", "--model", str(model), "--delta", "3", "--no-psi2", "--csv", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_command(argv) == 1, text
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize("kmax", ["0", "-1"])
def test_graph_cycles_rejects_kmax_below_one(tmp_path, capsys, kmax):
    g = tmp_path / "g.graph"
    assert run_command(["graph", "sample", "--n", "8", "--delta", "3", "--seed", "5", "--out", str(g)]) == 0
    out = tmp_path / "c.json"
    assert run_command(["graph", "cycles", "--graph", str(g), "--kmax", kmax, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: cycle counting supported for 1 <= kmax <= 12\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--q", "3", "--steps", "-1"], "steps must be >= 0, got -1"),
        (["--q", "1", "--steps", "3"], "need q >= 2 spins"),
        (["--q", "0", "--steps", "3"], "need q >= 2 spins"),
    ],
)
def test_sw_run_rejects_bad_q_and_steps(tmp_path, capsys, flags, message):
    g = tmp_path / "g.graph"
    assert run_command(["graph", "sample", "--n", "8", "--delta", "3", "--seed", "5", "--out", str(g)]) == 0
    out = tmp_path / "trace.csv"
    assert run_command(["sw", "run", "--graph", str(g), "--B", "2", *flags, "--csv", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_gadget_rejects_negative_depth(tmp_path, capsys):
    out = tmp_path / "gadget.graph"
    argv = ["gadget", "--delta", "3", "--trees", "1", "--depth", "-1", "--ncore", "10", "--out", str(out)]
    assert run_command(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: a gadget needs delta >= 2 and nonnegative trees per side and tree depth\n"
    assert not out.exists()


def test_degree_below_three_is_one_error_line(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_command(["fixpoints", "--q", "3", "--delta", "2", "--B", "3"]) == 1
        g = tmp_path / "cycle.graph"
        g.write_text("4 2\n0 1\n1 2\n2 3\n0 3\n")
        out = tmp_path / "trace.csv"
        argv = ["sw", "run", "--graph", str(g), "--q", "3", "--B", "3", "--steps", "2", "--start", "ordered:0"]
        assert run_command(argv + ["--csv", str(out)]) == 1
    assert capsys.readouterr().err == "error: need degree delta >= 3\n" * 2
    assert not out.exists()


@pytest.mark.parametrize("cut", ["phase:3", "phase:7", "phase:-1", "phase", "phase:", "phase:x", "color:0", ""])
def test_sw_exact_checks_cut_before_the_kernel(tmp_path, monkeypatch, capsys, cut):
    from potts_lab import swsim

    monkeypatch.setattr(swsim, "exact_sw_kernel", lambda *a, **k: pytest.fail("kernel called"))
    g = tmp_path / "g.graph"
    g.write_text("8 3\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n4 5\n4 6\n4 7\n5 6\n5 7\n6 7\n")
    out = tmp_path / "exact.json"
    argv = ["sw", "exact", "--graph", str(g), "--q", "3", "--B", "2", "--cut", cut, "--out", str(out)]
    assert run_command(argv) == 1
    assert capsys.readouterr().err == f"error: --cut must be 'phase:<c>' with 0 <= c < 3, got {cut!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("start", ["ordered:", "ordered:x", "ordered", "ordered:1:2", "random"])
def test_sw_run_checks_start_before_any_work(tmp_path, monkeypatch, capsys, start):
    from potts_lab import graphs, swsim

    monkeypatch.setattr(graphs, "read_graph", lambda *a, **k: pytest.fail("graph read"))
    monkeypatch.setattr(swsim, "run_chain", lambda *a, **k: pytest.fail("chain run"))
    out = tmp_path / "trace.csv"
    argv = ["sw", "run", "--graph", "unread.graph", "--q", "3", "--B", "2", "--steps", "2", "--start", start]
    assert run_command(argv + ["--csv", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --start must be 'disordered' or 'ordered:<color>', got {start!r}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        ("fixpoints --q 3 --delta 61 --B 2e5", "activity B = 200000.0 puts a fixpoint ratio x with B x past a float at delta = 61"),
        ("fixpoints --q 3 --delta 3 --B inf", "activity B must be finite, got inf"),
        ("fixpoints --q 3 --delta 3 --B nan", "activity B must be finite, got nan"),
        ("phase-diagram --q 3 --delta 3 --B inf", "activity B must be finite, got inf"),
        ("phase-diagram --q 3 --delta 3 --B nan", "activity B must be finite, got nan"),
        ("fixpoints --q 3 --delta 3 --B 1e300", "activity B = 1e+300 puts a fixpoint ratio x with B x past a float at delta = 3"),
        ("fixpoints --q 3 --delta 2000 --B 2", "activity B = 2.0 puts a fixpoint ratio x with B x past a float at delta = 2000"),
        ("phase-diagram --q 3 --delta 61 --B 2e5", "activity B = 200000.0 puts a fixpoint ratio x with B x past a float at delta = 61"),
        ("phase-diagram --q 3 --delta 3 --B 1e150", "activity B = 1e+150 puts a fixpoint ratio x with B x past a float at delta = 3"),
    ],
)
def test_out_of_range_inputs_are_one_error_line(tmp_path, capsys, argv, message):
    out = tmp_path / "artifact"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flag = "--csv" if argv.startswith("sweep") else "--out"
        assert run_command(argv.split() + [flag, str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


def test_fixpoints_store_a_majority_row_whose_quadratic_form_overflows(tmp_path):
    # x = y^59 ~ 1e177 at Delta = 60, so x B x overflows a float; canonical
    # rescales that row by its max first and the enumeration is complete
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, path = run_to_file(tmp_path, "fp.json", ["fixpoints", "--q", "3", "--delta", "60", "--B", "1000"])
    assert rc == 0
    fps = json.loads(path.read_text())["fixpoints"]
    assert [fp["t"] for fp in fps] == [3, 1, 2]
    assert all(fp["residual"] < 1e-10 for fp in fps)
    assert fps[1]["x"] > 1e170 and fps[1]["stability"] == "attractive"


def test_sw_run_starts_ordered_where_the_majority_ratio_squared_overflows(tmp_path):
    # the majority ratio at delta = 60, B = 1000 is about 1e177
    g = tmp_path / "g.graph"
    assert run_command(["graph", "sample", "--n", "64", "--delta", "60", "--seed", "1", "--out", str(g)]) == 0
    argv = ["sw", "run", "--graph", str(g), "--q", "3", "--B", "1000", "--steps", "2", "--start", "ordered:0"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, path = run_to_file(tmp_path, "trace.csv", argv)
    assert rc == 0 and path.read_text().splitlines()[-1].startswith("2,")


def test_thresholds_past_the_resolvable_degree_are_one_error_line(capsys):
    assert run_command(["thresholds", "--q", "3", "--delta", "2000000"]) == 1
    message = "the t = 1 activity curve of q = 3 at delta = 2000000 has its minimum closer to 1 than Y_MIN = 1 + 1e-6"
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        "fixpoints --q 3 --delta 3 --B 1.05e6",
        "phase-diagram --q 3 --delta 3 --B 1.05e6",
        "thresholds --q 3 --delta 513",
        "phase-diagram --q 3 --delta 600 --B 2",
        "sweep dif --q 3 --delta 513",
    ],
)
def test_inputs_past_the_old_caps_exit_0(tmp_path, argv):
    # the old root grid ended at y = 2^20 and the old uniqueness polynomial
    # overflowed at delta = 513
    name = "out.csv" if argv.startswith("sweep") else "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, path = run_to_file(tmp_path, name, argv.split())
    assert rc == 0
    if argv.startswith("sweep"):
        rows = [line.split(",") for line in path.read_text().splitlines() if not line.startswith("#")][1:]
        assert len(rows) == 50 and all(row[3] == "" for row in rows)
        assert [row[2] for row in rows[:1] + rows[-1:]] == ["disordered-dominant", "ordered-dominant"]
        return
    payload = json.loads(path.read_text())
    if argv.startswith("fixpoints"):
        assert len(payload["fixpoints"]) == 3 and all(fp["residual"] < 1e-10 for fp in payload["fixpoints"])
    else:
        assert 1 < payload["Bu"] < payload["Bo"] < payload["Brc"]


def test_sweep_thresholds_records_a_failing_row(tmp_path):
    argv = ["sweep", "thresholds", "--q-min", "2", "--q-max", "3", "--delta-min", "512", "--delta-max", "513"]
    rc, path = run_to_file(tmp_path, "th.csv", argv)
    assert rc == 1
    rows = path.read_text().splitlines()[-4:]
    assert rows[0] == "2,512,nan,nan,nan,,thresholds need q >= 3 and delta >= 3"
    assert rows[2].startswith("3,512,1.00538") and rows[2].endswith(",ok,")
    assert rows[3].startswith("3,513,1.00537") and rows[3].endswith(",ok,")
