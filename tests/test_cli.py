import json
import math

import numpy as np
import pytest

from potts_lab.cli import run_command


def run_to_file(tmp_path, name, argv):
    path = tmp_path / name
    rc = run_command(argv + ["--out" if not name.endswith(".csv") else "--csv", str(path)])
    return rc, path


def test_thresholds_json(tmp_path, capsys):
    rc = run_command(["thresholds", "--q", "3", "--delta", "3", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["Bu"] - (1 + 2 * math.sqrt(2))) < 1e-9
    assert abs(payload["Bo"] - 1 / (2 ** (1 / 3) - 1)) < 1e-12
    assert payload["Brc"] == 4.0
    assert payload["config"] == {"q": 3, "delta": 3}


def test_fixpoints_json(capsys):
    rc = run_command(["fixpoints", "--q", "3", "--delta", "3", "--B", "3.9", "--json"])
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
        ["sweep", "dif", "--q", "3", "--delta", "3", "--points", "20", "--threads", "1",
         "--csv", str(out)]
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
        ["sweep", "dif", "--q", "3", "--delta", "3", "--points", "4", "--threads", "1",
         "--csv", str(out)]
    )
    assert rc == 1
    rows = [l.split(",") for l in out.read_text().splitlines() if l and not l.startswith("#")]
    header, data = rows[0], rows[1:]
    errors = [r[header.index("error")] for r in data]
    assert sum(1 for e in errors if e) == 1
    assert len(data) == 4  # failed row still present, in grid order


def test_sweep_dif_empty_grid(tmp_path):
    out = tmp_path / "empty.csv"
    rc = run_command(
        ["sweep", "dif", "--q", "3", "--delta", "3", "--points", "0", "--threads", "1",
         "--csv", str(out)]
    )
    assert rc == 0
    rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert rows == ["B,dif,regime,error"]


def test_sweep_dif_ignores_threads(tmp_path):
    texts = []
    for threads in ("1", "3"):
        out = tmp_path / f"dif{threads}.csv"
        argv = ["sweep", "dif", "--q", "3", "--delta", "3", "--points", "3", "--threads", threads]
        assert run_command(argv + ["--csv", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    assert "threads" not in texts[0]


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
    assert _config_run(tmp_path, {"json": "yes"}, argv) == 1
    capsys.readouterr()
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
    rc = run_command(["verify", "--suite", "primary", "--only", "1,9"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS criterion 1" in out
    assert "PASS criterion 9" in out
