import json
import subprocess
import sys

import numpy as np
import pytest

from contagion.cli import dispatch, read_csv_table, write_csv
from contagion.errors import InvalidParameter


def run_cli(*argv):
    return dispatch(list(argv))


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("graphs") / "g.json"
    code = run_cli("netgen", "--nodes", "120", "--attach", "2", "--embed-dim", "6",
                   "--seed", "5", "--out", str(path))
    assert code == 0
    return path


def test_netgen_writes_valid_graph(graph_file):
    doc = json.loads(graph_file.read_text())
    assert doc["n"] == 120
    assert len(doc["edges"]) == 3 + 2 * 117
    manifest = json.loads((graph_file.parent / "manifest.json").read_text())
    assert manifest["command"] == "netgen"
    assert manifest["outputs"] == [str(graph_file)]


@pytest.mark.parametrize("nodes, solver", [(60, "dense"), (1001, "sparse")])
def test_netgen_manifest_reports_embedding(tmp_path, nodes, solver):
    path = tmp_path / "g.json"
    assert run_cli("netgen", "--nodes", str(nodes), "--embed-dim", "6", "--seed", "2",
                   "--out", str(path)) == 0
    metrics = json.loads((tmp_path / "manifest.json").read_text())["metrics"]
    assert metrics["solver"] == solver
    assert 0.0 <= metrics["max_residual"] <= 1e-8
    assert metrics["warnings"] == []


def test_netgen_rejects_bad_sizes(tmp_path, capsys):
    code = run_cli("netgen", "--nodes", "2", "--attach", "2",
                   "--out", str(tmp_path / "g.json"))
    assert code != 0
    assert "nodes" in capsys.readouterr().err


def test_unknown_flag_nonzero():
    assert run_cli("netgen", "--wat", "1") != 0


def test_unknown_subcommand_nonzero():
    assert run_cli("frobnicate") != 0


def test_simulate_and_analyze(graph_file, tmp_path):
    runs = tmp_path / "runs.jsonl"
    code = run_cli("simulate", "--graph", str(graph_file), "--seeds", "0,3",
                   "--prop", "self", "--runs", "8", "--seed", "9",
                   "--epsilon", "4", "--out", str(runs))
    assert code == 0
    records = [json.loads(line) for line in runs.read_text().splitlines()]
    assert len(records) == 8
    for rec in records:
        assert rec["final_spread"] >= 2
        assert rec["model"] == "up"
        assert sum(rec["new_per_step"]) == rec["final_spread"]

    report = tmp_path / "report.json"
    code = run_cli("analyze", "--runs", str(runs), "--graph", str(graph_file),
                   "--report", str(report))
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["n_runs"] == 8
    assert 0.0 <= doc["virality_frequency"] <= 1.0
    assert sum(doc["spread_histogram"]["counts"]) == 8


def test_simulate_affinity_and_vector_file(graph_file, tmp_path):
    out = tmp_path / "runs_aff.jsonl"
    code = run_cli("simulate", "--graph", str(graph_file), "--seeds", "0",
                   "--prop", "affinity:0.5", "--runs", "2", "--seed", "3",
                   "--epsilon", "2", "--out", str(out))
    assert code == 0
    vec_file = tmp_path / "vec.json"
    vec_file.write_text(json.dumps({"vector": [1.0, 0, 0, 0, 0, 0]}))
    code = run_cli("simulate", "--graph", str(graph_file), "--seeds", "1",
                   "--prop", str(vec_file), "--runs", "2", "--seed", "3",
                   "--epsilon", "2", "--out", str(out))
    assert code == 0
    rec = json.loads(out.read_text().splitlines()[0])
    assert rec["propagation"][0] == pytest.approx(1.0)


def test_simulate_rejects_zero_vector_file(graph_file, tmp_path):
    vec_file = tmp_path / "zero.json"
    vec_file.write_text(json.dumps({"vector": [0.0] * 6}))
    out = tmp_path / "zero.jsonl"
    code = run_cli("simulate", "--graph", str(graph_file), "--seeds", "1",
                   "--prop", str(vec_file), "--runs", "2", "--out", str(out))
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("content", [
    '{"vec": [1, 0, 0, 0, 0, 0]}',
    '[1, 0, 0, 0, 0, 0]',
    '{"vector": "north"}',
    '{"vector": [1, 0,',
])
def test_simulate_rejects_bad_vector_file(graph_file, tmp_path, capsys, content):
    vec_file = tmp_path / "vec.json"
    vec_file.write_text(content)
    out = tmp_path / "bad.jsonl"
    code = run_cli("simulate", "--graph", str(graph_file), "--seeds", "1",
                   "--prop", str(vec_file), "--runs", "2", "--out", str(out))
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, key, value", [
    ("simulate", "runs", "ten"),
    ("simulate", "gamma", "high"),
    ("simulate", "max-steps", [50]),
    ("simulate", "jobs", "two"),
    ("netgen", "nodes", "many"),
    ("baseline", "p", "half"),
    ("optimize", "sims", "lots"),
    ("plot", "bins", "some"),
])
def test_config_non_numeric_value_exits_2(graph_file, tmp_path, capsys, command, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": str(graph_file), "table": str(graph_file),
                               "model": "ic", key: value}))
    out = tmp_path / "out.json"
    assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 2
    assert f"error: {key}:" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_config_max_steps_string(graph_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": str(graph_file), "max-steps": "50"}))
    out = tmp_path / "capped.jsonl"
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 0
    rec = json.loads(out.read_text().splitlines()[0])
    assert rec["params"]["max_steps"] == 50


def test_simulate_with_drift(graph_file, tmp_path):
    out = tmp_path / "drift.jsonl"
    code = run_cli("simulate", "--graph", str(graph_file), "--seeds", "0",
                   "--prop", "self", "--runs", "3", "--seed", "5",
                   "--lambda", "0.4", "--epsilon", "3", "--out", str(out))
    assert code == 0
    rec = json.loads(out.read_text().splitlines()[0])
    assert rec["params"]["lambda"] == 0.4
    assert rec["final_spread"] >= 1


def test_simulate_config_merge(graph_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": str(graph_file), "runs": 3, "seeds": "2",
                               "epsilon": 3, "seed": 1}))
    out = tmp_path / "merged.jsonl"
    # flag overrides config runs=3 with runs=1
    code = run_cli("simulate", "--config", str(cfg), "--runs", "1", "--out", str(out))
    assert code == 0
    assert len(out.read_text().splitlines()) == 1


def test_simulate_jobs_independent_output(graph_file, tmp_path):
    out1 = tmp_path / "j1.jsonl"
    out2 = tmp_path / "j2.jsonl"
    common = ["simulate", "--graph", str(graph_file), "--seeds", "0", "--prop", "self",
              "--runs", "6", "--seed", "11", "--epsilon", "3"]
    assert run_cli(*common, "--jobs", "1", "--out", str(out1)) == 0
    assert run_cli(*common, "--jobs", "2", "--out", str(out2)) == 0
    assert out1.read_text() == out2.read_text()


def test_baseline_cli(graph_file, tmp_path):
    out = tmp_path / "ic.jsonl"
    code = run_cli("baseline", "--model", "ic", "--graph", str(graph_file),
                   "--p", "0.4", "--seeds", "0", "--runs", "5", "--seed", "2",
                   "--out", str(out))
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert all(r["model"] == "ic" for r in records)

    out2 = tmp_path / "kc.jsonl"
    code = run_cli("baseline", "--model", "kcomplex", "--graph", str(graph_file),
                   "--k", "2", "--seeds", "0", "--runs", "1", "--out", str(out2))
    assert code == 0
    rec = json.loads(out2.read_text().splitlines()[0])
    assert rec["final_spread"] == 1  # k=2 cannot leave a single seed


def test_experiment_cli_rq1(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "graph": {"n": 80, "r": 2, "embed_dim": 5, "seed": 3},
        "params": {"epsilon": 3},
        "runs_per_node": 2,
        "node_selection": "sample:6",
        "master_seed": 4,
    }))
    out_dir = tmp_path / "results"
    code = run_cli("experiment", "--rq", "1", "--config", str(cfg),
                   "--out-dir", str(out_dir))
    assert code == 0
    assert (out_dir / "rq1_runs.csv").exists()
    assert (out_dir / "rq1_spread_hist.svg").exists()
    assert (out_dir / "manifest.json").exists()
    header, rows = read_csv_table(out_dir / "rq1_summary.csv")
    assert "spearman_degree_mean_spread" in header
    assert len(rows) == 1


def test_experiment_rq4_needs_axis(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"graph": {"n": 60, "r": 2, "embed_dim": 4, "seed": 1},
                               "params": {"epsilon": 2}, "runs_per_node": 1,
                               "node_selection": "sample:3", "master_seed": 1,
                               "sweep_values": [0.3, 0.6]}))
    code = run_cli("experiment", "--rq", "4", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "r4"))
    assert code != 0
    assert "sweep_axis" in capsys.readouterr().err
    code = run_cli("experiment", "--rq", "4", "--axis", "alpha", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "r4"))
    assert code == 0


def test_learn_and_eval_cli(tmp_path):
    trust = tmp_path / "trust.tsv"
    ratings = tmp_path / "ratings.tsv"
    lines = []
    rng = np.random.default_rng(0)
    users = [f"u{i}" for i in range(12)]
    for i, u in enumerate(users):
        for j in range(1, 4):
            lines.append(f"{u}\t{users[(i + j) % len(users)]}")
    trust.write_text("\n".join(lines) + "\n")
    rlines = []
    for p in range(6):
        raters = rng.choice(users, size=5, replace=False)
        for t, u in enumerate(raters):
            rlines.append(f"{u}\tp{p}\t{t}")
    ratings.write_text("\n".join(rlines) + "\n")

    model = tmp_path / "model.json"
    code = run_cli("learn", "--trust", str(trust), "--ratings", str(ratings),
                   "--form", "mean", "--steps", "30", "--lr", "0.05",
                   "--seed", "1", "--out", str(model))
    assert code == 0
    doc = json.loads(model.read_text())
    assert doc["aggregation"] == "mean"
    assert doc["I"] and doc["b"]

    report = tmp_path / "eval.json"
    code = run_cli("learn-eval", "--model", str(model), "--trust", str(trust),
                   "--ratings", str(ratings), "--test-fraction", "0.3",
                   "--split-seed", "2", "--out", str(report))
    assert code == 0
    rep = json.loads(report.read_text())
    assert "train" in rep and "test" in rep


def test_optimize_cli(graph_file, tmp_path):
    out = tmp_path / "best.json"
    code = run_cli("optimize", "--graph", str(graph_file), "--seed-node", "50",
                   "--khop", "1", "--beam", "2", "--rounds", "1", "--perturb", "0.1",
                   "--sims", "5", "--top-deg", "2", "--core-targets", "1",
                   "--epsilon", "2", "--seed", "4", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["vector"]) == 6
    assert len(doc["trace"]) == 2
    assert doc["trace"][1] >= doc["trace"][0]


def test_plot_cli_line_hist_and_errors(tmp_path, capsys):
    table = tmp_path / "t.csv"
    write_csv(table, [{"x": 0, "y": 1.0}, {"x": 1, "y": 3.0}], ["x", "y"])
    out = tmp_path / "p.svg"
    assert run_cli("plot", "--table", str(table), "--kind", "line", "--out", str(out)) == 0
    first = out.read_bytes()
    assert run_cli("plot", "--table", str(table), "--kind", "line", "--out", str(out)) == 0
    assert out.read_bytes() == first  # byte-identical re-render

    hist_table = tmp_path / "h.csv"
    hist_table.write_text("v\n1\n1\n2\n")
    hout = tmp_path / "h.svg"
    assert run_cli("plot", "--table", str(hist_table), "--kind", "hist",
                   "--bins", "2", "--out", str(hout)) == 0

    empty = tmp_path / "e.csv"
    empty.write_text("x,y\n")
    eout = tmp_path / "e.svg"
    assert run_cli("plot", "--table", str(empty), "--kind", "line", "--out", str(eout)) == 0
    assert b"<svg" in eout.read_bytes()

    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n3\n")
    code = run_cli("plot", "--table", str(bad), "--kind", "line",
                   "--out", str(tmp_path / "b.svg"))
    assert code != 0
    assert "line 3" in capsys.readouterr().err


def test_read_csv_table_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,zzz\n")
    with pytest.raises(InvalidParameter):
        read_csv_table(path)


def test_console_entry_point_smoke(tmp_path):
    out = tmp_path / "g.json"
    proc = subprocess.run(
        [sys.executable, "-m", "contagion", "netgen", "--nodes", "10", "--attach", "2",
         "--embed-dim", "3", "--seed", "1", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_missing_file_is_clean_error(tmp_path, capsys):
    code = run_cli("simulate", "--graph", str(tmp_path / "nope.json"),
                   "--seeds", "0", "--runs", "1", "--out", str(tmp_path / "o.jsonl"))
    assert code != 0
    assert "nope.json" in capsys.readouterr().err
