import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from contagion import cli, learner
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
    assert metrics["min_eigengap"] > 1e-8
    assert metrics["warnings"] == []


def test_netgen_manifest_warns_on_repeated_eigenvalue(tmp_path):
    # the 4-node graph is K4 minus an edge, spectrum {0, 2, 4, 4}
    assert run_cli("netgen", "--nodes", "4", "--attach", "2", "--embed-dim", "4",
                   "--out", str(tmp_path / "g.json")) == 0
    metrics = json.loads((tmp_path / "manifest.json").read_text())["metrics"]
    assert metrics["solver"] == "dense"
    assert 0.0 <= metrics["min_eigengap"] < 1e-8
    assert len(metrics["warnings"]) == 1 and "gap" in metrics["warnings"][0]


def test_outputs_replace_hard_linked_files(tmp_path):
    # an output path that is a hard link gets a new file; the other name
    # keeps its bytes, for the graph and for the manifest alike
    keep = {name: tmp_path / f"keep_{name}" for name in ("graph.json", "manifest.json")}
    for name, other in keep.items():
        other.write_text(f"keep {name}\n")
        os.link(other, tmp_path / name)
    assert run_cli("netgen", "--nodes", "30", "--embed-dim", "3",
                   "--out", str(tmp_path / "graph.json")) == 0
    for name, other in keep.items():
        assert other.read_text() == f"keep {name}\n"
        assert os.stat(tmp_path / name).st_nlink == 1
    assert json.loads((tmp_path / "graph.json").read_text())["n"] == 30
    assert json.loads((tmp_path / "manifest.json").read_text())["command"] == "netgen"


def test_write_csv_replaces_hard_linked_file(tmp_path):
    # the other name of a hard-linked table path keeps its bytes
    path, other = tmp_path / "t.csv", tmp_path / "keep.csv"
    other.write_text("keep\n")
    os.link(other, path)
    write_csv(path, [{"x": 0, "y": 1.5}], ["x", "y"])
    assert other.read_text() == "keep\n" and os.stat(path).st_nlink == 1
    assert path.read_text() == "x,y\n0,1.5\n"


# (command, key) pairs whose --config value null ended in a TypeError
# traceback (exit 1) instead of exit 2
NULL_KEYS = (
    [("netgen", key) for key in ("nodes", "attach", "embed-dim", "seed")]
    + [(command, key) for command in ("simulate", "optimize")
       for key in ("seed", "alpha", "beta", "gamma", "lambda", "viral-fraction")]
    + [("optimize", key) for key in ("khop", "perturb", "top-deg")]
    + [("baseline", "seed")]
)


def _small_run(command, graph, out_dir):
    """Flags for a small run of ``command``, none of them a NULL_KEYS key."""
    return [str(arg) for arg in {
        "netgen": ["--out", out_dir / "g.json"],
        "simulate": ["--graph", graph, "--runs", "2", "--out", out_dir / "runs.jsonl"],
        "optimize": ["--graph", graph, "--sims", "2", "--rounds", "1", "--beam", "1",
                     "--out", out_dir / "best.json"],
        "baseline": ["--model", "ic", "--graph", graph, "--p", "0.3", "--runs", "2",
                     "--out", out_dir / "runs.jsonl"],
    }[command]]


# values SimParams refuses; the error names the flag, not the field
@pytest.mark.parametrize("key, value", [("viral-fraction", "2"), ("max-steps", "0")])
@pytest.mark.parametrize("command", ["simulate", "optimize"])
def test_sim_param_errors_name_the_flag(tmp_path, capsys, graph_file, command, key, value):
    argv = _small_run(command, graph_file, tmp_path)
    assert run_cli(command, *argv, f"--{key}", value) == 2
    assert f"error: {key}: " in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, key", NULL_KEYS)
def test_null_config_value_exits_2(tmp_path, capsys, graph_file, command, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: None}))
    assert run_cli(command, "--config", str(cfg), *_small_run(command, graph_file, tmp_path)) == 2
    assert f"error: {key}: " in capsys.readouterr().err


@pytest.mark.parametrize("where", ["flag", "config"])
def test_netgen_negative_seed_exits_2(tmp_path, capsys, where):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1}))
    given = ["--seed", "-1"] if where == "flag" else ["--config", str(cfg)]
    assert run_cli("netgen", "--nodes", "20", *given, "--out", str(tmp_path / "g.json")) == 2
    assert "error: seed: " in capsys.readouterr().err
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize("where", ["flag", "config"])
def test_netgen_oversized_node_count_exits_2(tmp_path, capsys, where):
    # node counts whose block of attach * (nodes - attach - 1) uniforms numpy
    # cannot size; nothing is allocated
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nodes": 1e308}))
    given = ["--nodes", "100000000000000000000"] if where == "flag" else ["--config", str(cfg)]
    assert run_cli("netgen", *given, "--out", str(tmp_path / "g.json")) == 2
    assert "error: nodes: " in capsys.readouterr().err
    assert not (tmp_path / "g.json").exists()


def test_chain_twice_into_one_directory(tmp_path):
    graph, runs, report = (tmp_path / name for name in ("graph.json", "runs.jsonl", "report.json"))
    chain = [["netgen", "--nodes", "60", "--embed-dim", "4", "--seed", "3", "--out", graph],
             ["simulate", "--graph", graph, "--seeds", "0", "--runs", "4", "--epsilon", "3",
              "--lambda", "0.2", "--out", runs],
             ["analyze", "--runs", runs, "--graph", graph, "--report", report]]
    written = []
    for _ in range(2):
        for argv in chain:
            assert run_cli(*map(str, argv)) == 0
        written.append([p.read_bytes() for p in (graph, runs, report)])
    assert written[0] == written[1]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "analyze" and manifest["outputs"] == [str(report)]


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


@pytest.mark.parametrize("command, key, value", [
    ("simulate", "epsilon", 2.5),
    ("simulate", "max-steps", True),
    ("simulate", "runs", 2.7),
    ("simulate", "runs", False),
    ("netgen", "nodes", 60.5),
    ("optimize", "sims", True),
])
def test_config_integer_key_rejects_fraction_and_boolean(graph_file, tmp_path, capsys, command,
                                                         key, value):
    # an integer key takes an integer, an integral float or a numeral; it
    # must not truncate 2.5 to 2 or read true as 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": str(graph_file), key: value}))
    out = tmp_path / "out.json"
    assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 2
    assert f"error: {key}:" in capsys.readouterr().err
    assert not out.exists()


def test_config_integer_key_takes_integral_float(graph_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": str(graph_file), "runs": 2.0, "epsilon": 3.0}))
    out = tmp_path / "runs.jsonl"
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 and json.loads(lines[0])["params"]["epsilon"] == 3


@pytest.mark.parametrize("value, contact", [
    ("false", True), ("true", False), ("TRUE", False), (0, True), (1, False),
    (False, True), (True, False), ("0", True),
])
def test_config_boolean_parses_strictly(graph_file, tmp_path, value, contact):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": str(graph_file), "spontaneous": value}))
    out = tmp_path / "runs.jsonl"
    assert run_cli("simulate", "--config", str(cfg), "--epsilon", "2", "--out", str(out)) == 0
    assert json.loads(out.read_text().splitlines()[0])["params"]["require_contact"] is contact


@pytest.mark.parametrize("value", ["maybe", "yes", 2, 0.5, [True]])
def test_config_bad_boolean_exits_2(graph_file, tmp_path, capsys, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": str(graph_file), "spontaneous": value}))
    out = tmp_path / "runs.jsonl"
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 2
    assert "error: spontaneous:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seeds", ["", ",", "999", "-1", "0,0"])
def test_simulate_rejects_bad_seed_list(graph_file, tmp_path, capsys, seeds):
    out = tmp_path / "runs.jsonl"
    code = run_cli("simulate", "--graph", str(graph_file), "--seeds", seeds, "--runs", "2",
                   "--out", str(out))
    assert code == 2
    assert "error: seeds:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_simulate_manifest_counts_runs(graph_file, tmp_path, jobs):
    out = tmp_path / "runs.jsonl"
    assert run_cli("simulate", "--graph", str(graph_file), "--seeds", "0", "--runs", "6",
                   "--seed", "4", "--max-steps", "12", "--jobs", jobs, "--out", str(out)) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    metrics = json.loads((tmp_path / "manifest.json").read_text())["metrics"]
    assert set(metrics) == {"cascades", "steps", "draws", "hit_cap_runs"}
    assert metrics["cascades"] == 6
    assert metrics["steps"] == sum(r["converged_at"] for r in records)
    assert metrics["hit_cap_runs"] == sum(r["hit_cap"] for r in records)
    # runs this short never saturate, so every step draws at least once
    assert metrics["draws"] >= metrics["steps"]
    assert "draws" not in records[0]


def test_experiment_manifest_counts_runs(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "graph": {"n": 80, "r": 2, "embed_dim": 5, "seed": 3},
        "params": {"epsilon": 3, "max_steps": 20},
        "runs_per_node": 2,
        "node_selection": "sample:6",
        "master_seed": 4,
    }))
    out_dir = tmp_path / "results"
    assert run_cli("experiment", "--rq", "1", "--config", str(cfg), "--out-dir", str(out_dir)) == 0
    metrics = json.loads((out_dir / "manifest.json").read_text())["metrics"]
    assert metrics["cascades"] == 12
    assert metrics["steps"] >= 12 and metrics["draws"] >= metrics["steps"]
    assert 0 <= metrics["hit_cap_runs"] <= 12
    header, _ = read_csv_table(out_dir / "rq1_summary.csv")
    assert not set(metrics) & set(header)


def test_netgen_manifest_reports_blas_threads(tmp_path):
    path = tmp_path / "g.json"
    assert run_cli("netgen", "--nodes", "60", "--embed-dim", "4", "--out", str(path)) == 0
    metrics = json.loads((tmp_path / "manifest.json").read_text())["metrics"]
    threads, cores = metrics["blas_threads"], metrics["blas_cores"]
    assert isinstance(threads, dict)
    assert all(isinstance(v, int) and v >= 1 for v in threads.values())
    assert isinstance(cores, dict) and set(cores) <= set(threads)
    assert all(isinstance(v, str) and v for v in cores.values())


def test_blas_threads_skips_libraries_it_cannot_open(monkeypatch, tmp_path):
    # a library replaced on disk is mapped as "<path> (deleted)"; a missing
    # path or a truncated one must be left out, not raise
    maps = tmp_path / "maps"
    maps.write_text(
        "7f00-7f01 r-xp 0 08:01 1 /usr/lib/libopenblas.so.0 (deleted)\n"
        f"7f01-7f02 r-xp 0 08:01 2 {tmp_path}/gone/libopenblas.so.0\n"
    )
    real_open = open
    monkeypatch.setattr(cli, "open",
                        lambda path, *a, **k: real_open(maps if path == "/proc/self/maps" else path,
                                                        *a, **k),
                        raising=False)
    assert cli.blas_threads() == {}
    assert cli.blas_cores() == {}


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


def test_experiment_rq4_undefined_tau_is_an_empty_cell(tmp_path):
    # gamma 0: every run dies at its seed, so each grid value's virality
    # frequency is 0 and no time to virality exists
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"graph": {"n": 40, "r": 2, "embed_dim": 3, "seed": 1},
                               "params": {"gamma": 0.0, "epsilon": 1}, "runs_per_node": 1,
                               "node_selection": "sample:2", "sweep_values": [0.2, 0.5, 0.8]}))
    code = run_cli("experiment", "--rq", "4", "--axis", "beta", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "r4"))
    assert code == 0
    assert (tmp_path / "r4" / "rq4_summary.csv").read_text().splitlines() == [
        "axis,kendall_tau_frequency,kendall_tau_time", "beta,,"]


def _learner_logs(tmp_path):
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
    return trust, ratings


@pytest.mark.parametrize("value, code, augment", [("false", 0, False), ("1", 0, True),
                                                  ("maybe", 2, None)])
def test_learn_config_augment_parses_strictly(tmp_path, value, code, augment):
    trust, ratings = _learner_logs(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"augment": value, "steps": 2}))
    model = tmp_path / "model.json"
    assert run_cli("learn", "--config", str(cfg), "--trust", str(trust), "--ratings",
                   str(ratings), "--out", str(model)) == code
    if code == 0:
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["augment"] is augment


def test_learn_and_eval_cli(tmp_path):
    trust, ratings = _learner_logs(tmp_path)

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


def test_learn_eval_compiles_each_split_once(tmp_path, monkeypatch):
    trust, ratings = _learner_logs(tmp_path)
    model = tmp_path / "model.json"
    assert run_cli("learn", "--trust", str(trust), "--ratings", str(ratings), "--steps", "3",
                   "--out", str(model)) == 0
    compiled = []
    compile_traces = learner._compile

    def counting(traces, *args, **kwargs):
        compiled.append(len(traces))
        return compile_traces(traces, *args, **kwargs)

    monkeypatch.setattr(learner, "_compile", counting)
    report = tmp_path / "eval.json"
    assert run_cli("learn-eval", "--model", str(model), "--trust", str(trust), "--ratings",
                   str(ratings), "--test-fraction", "0.3", "--out", str(report)) == 0
    assert compiled == [4, 2]
    # the bytes the separate evaluate and activation_state_accuracy calls give
    pairs, rated = learner.load_trust_tsv(trust), learner.load_ratings_tsv(ratings)
    host = learner.InfluenceGraph.from_trust_edges(pairs)
    train, test = learner.split_traces(learner.reconstruct_traces(pairs, rated), 0.3)
    params = learner.load_model(model)
    want = learner.evaluate(train, test, host, params)
    accuracy, majority, counts = learner.activation_state_accuracy(test, host, params)
    want["test_pooled"] = {"accuracy": accuracy, "majority_baseline": majority, **counts}
    assert report.read_text() == json.dumps(want, indent=2) + "\n"


@pytest.mark.parametrize("arg, field", [("--lr=nan", "lr"), ("--lr=inf", "lr"),
                                        ("--lr=-inf", "lr"), ("--steps=-5", "steps")])
def test_learn_rejects_non_finite_lr_and_negative_steps(tmp_path, capsys, arg, field):
    trust, ratings = _learner_logs(tmp_path)
    model = tmp_path / "model.json"
    assert run_cli("learn", "--trust", str(trust), "--ratings", str(ratings), arg,
                   "--out", str(model)) == 2
    assert f"error: {field}: " in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("value", ["-0.3", "1.5", "nan"])
def test_learn_eval_rejects_test_fraction_outside_unit_interval(tmp_path, capsys, value):
    trust, ratings = _learner_logs(tmp_path)
    model = tmp_path / "model.json"
    assert run_cli("learn", "--trust", str(trust), "--ratings", str(ratings), "--steps", "2",
                   "--out", str(model)) == 0
    report = tmp_path / "eval.json"
    assert run_cli("learn-eval", "--model", str(model), "--trust", str(trust), "--ratings",
                   str(ratings), f"--test-fraction={value}", "--out", str(report)) == 2
    assert "error: test-fraction: " in capsys.readouterr().err
    assert not report.exists()


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


# every float key of these commands; each value must be refused before
# anything is written, even where the command would not use the key
FLOAT_KEYS = (
    [("simulate", key) for key in ("alpha", "beta", "gamma", "lambda", "viral-fraction")]
    + [("optimize", "perturb"), ("baseline", "p"), ("baseline", "theta")]
)


@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, key", FLOAT_KEYS)
def test_non_finite_float_exits_2(graph_file, tmp_path, capsys, command, key, value, where):
    # an LT baseline ignores --p, and zero rounds never perturb
    argv = {
        "simulate": _small_run(command, graph_file, tmp_path),
        "optimize": _small_run(command, graph_file, tmp_path) + ["--rounds", "0"],
        "baseline": ["--model", "lt", "--graph", str(graph_file), "--runs", "2",
                     "--out", str(tmp_path / "runs.jsonl")],
    }[command]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: float(value)}))
    given = [f"--{key}={value}"] if where == "flag" else ["--config", str(cfg)]
    assert run_cli(command, *argv, *given) == 2
    assert f"error: {key}: " in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("bins", ["0", "-1"])
@pytest.mark.parametrize("content", ["v\n1\n1\n2\n", "v\n"])
def test_plot_hist_bins_below_one_exits_2(tmp_path, capsys, bins, content):
    table = tmp_path / "h.csv"
    table.write_text(content)
    out = tmp_path / "h.svg"
    assert run_cli("plot", "--table", str(table), "--kind", "hist", "--bins", bins,
                   "--out", str(out)) == 2
    assert "error: bins: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["core-targets", "top-deg"])
def test_optimize_negative_pool_size_exits_2(graph_file, tmp_path, capsys, key):
    # -1 once sliced away the farthest core target, or read as 0
    out = tmp_path / "best.json"
    assert run_cli("optimize", "--graph", str(graph_file), "--seed-node", "50", "--beam", "1",
                   "--rounds", "0", "--sims", "2", f"--{key}=-1", "--out", str(out)) == 2
    assert f"error: {key}: " in capsys.readouterr().err
    assert not out.exists()


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


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def cli_inputs(graph_file, tmp_path_factory):
    """One input file of each kind the commands read."""
    d = tmp_path_factory.mktemp("inputs")
    trust, ratings = _learner_logs(d)
    files = {"graph": graph_file, "trust": trust, "ratings": ratings,
             "runs": d / "runs.jsonl", "model": d / "model.json", "table": d / "t.csv",
             "vec": d / "vec.json"}
    files["vec"].write_text(json.dumps({"vector": [1.0, 0, 0, 0, 0, 0]}))
    write_csv(files["table"], [{"x": 0, "y": 1.0}, {"x": 1, "y": 3.0}], ["x", "y"])
    assert run_cli("simulate", "--graph", str(graph_file), "--runs", "3", "--epsilon", "3",
                   "--out", str(files["runs"])) == 0
    assert run_cli("learn", "--trust", str(trust), "--ratings", str(ratings), "--steps", "3",
                   "--out", str(files["model"])) == 0
    return files


SIM_KEYS = {"alpha", "beta", "gamma", "epsilon", "lambda", "max-steps", "viral-fraction",
            "spontaneous"}

# command -> (flags, --config document or None, inputs read, keys resolved,
# resolved values to check); "{graph}" etc. name a cli_inputs file
MANIFEST_CASES = {
    "netgen": (["--nodes", "40", "--embed-dim", "4", "--out", "{out}/g.json"], {"attach": 3},
               [], {"nodes", "attach", "embed-dim", "seed", "out"},
               {"nodes": 40, "attach": 3, "seed": 0}),
    "simulate": (["--graph", "{graph}", "--prop", "{vec}", "--seeds", "1", "--runs", "2",
                  "--out", "{out}/runs.jsonl"], {"epsilon": 3},
                 ["graph", "vec"],
                 {"graph", "out", "seeds", "prop", "runs", "seed", "jobs"} | SIM_KEYS,
                 {"epsilon": 3, "runs": 2, "gamma": 0.05, "jobs": 1}),
    "baseline": (["--model", "lt", "--graph", "{graph}", "--theta", "0.4", "--runs", "2",
                  "--out", "{out}/lt.jsonl"], None,
                 ["graph"], {"graph", "model", "out", "seeds", "runs", "seed", "p", "theta", "k"},
                 {"model": "lt", "theta": 0.4, "p": None}),
    "analyze": (["--runs", "{runs}", "--graph", "{graph}", "--report", "{out}/report.json"], None,
                ["runs", "graph"], {"runs", "graph", "report"}, {}),
    "experiment": (["--rq", "1", "--out-dir", "{out}"],
                   {"graph": {"n": 40, "r": 2, "embed_dim": 4, "seed": 1}, "runs_per_node": 1,
                    "node_selection": "sample:3", "params": {"epsilon": 2}},
                   [], {"rq", "axis", "out-dir", "graph", "params", "runs_per_node",
                        "node_selection", "master_seed", "jobs"},
                   {"rq": 1, "runs_per_node": 1, "master_seed": 0}),
    "learn": (["--trust", "{trust}", "--ratings", "{ratings}", "--steps", "2",
               "--out", "{out}/model.json"], None,
              ["trust", "ratings"], {"trust", "ratings", "graph", "form", "steps", "lr", "seed",
                                     "augment", "out"},
              {"steps": 2, "form": "sum", "augment": False, "graph": None}),
    "learn-eval": (["--model", "{model}", "--trust", "{trust}", "--ratings", "{ratings}",
                    "--out", "{out}/eval.json"], None,
                   ["model", "trust", "ratings"],
                   {"model", "trust", "ratings", "graph", "test-fraction", "split-seed", "out"},
                   {"test-fraction": 0.2, "split-seed": 0}),
    "optimize": (["--graph", "{graph}", "--seed-node", "50", "--khop", "1", "--beam", "2",
                  "--rounds", "1", "--sims", "4", "--top-deg", "2", "--gamma", "0.2",
                  "--out", "{out}/best.json"], {"max-steps": 30},
                 ["graph"], {"graph", "seed-node", "khop", "beam", "rounds", "perturb", "sims",
                             "top-deg", "core-targets", "seed", "out"} | SIM_KEYS,
                 {"gamma": 0.2, "max-steps": 30, "alpha": 1.0 / 3.0}),
    "plot": (["--table", "{table}", "--out", "{out}/t.svg"], {"kind": "hist", "bins": 3},
             ["table"], {"table", "kind", "out", "bins"}, {"kind": "hist", "bins": 3}),
}


@pytest.mark.parametrize("command", sorted(MANIFEST_CASES))
def test_manifest_records_config_inputs_outputs(cli_inputs, tmp_path, command):
    flags, config, read, keys, values = MANIFEST_CASES[command]
    out_dir = tmp_path / "out"
    names = {k: str(v) for k, v in cli_inputs.items()}
    argv = [command] + [f.format(out=out_dir, **names) for f in flags]
    inputs = [cli_inputs[k] for k in read]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
        inputs.append(cfg)
    assert run_cli(*argv) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == command
    written = [p for p in out_dir.iterdir() if p.name != "manifest.json"]
    assert written and sorted(manifest["outputs"]) == sorted(str(p) for p in written)
    assert isinstance(manifest["duration_s"], float) and manifest["duration_s"] >= 0
    assert manifest["inputs"] == {str(p): _sha256(p) for p in inputs}
    assert keys <= set(manifest["config"])
    assert {k: manifest["config"][k] for k in values} == values


def test_netgen_creates_output_directory(tmp_path):
    out = tmp_path / "new" / "deeper" / "graph.json"
    assert run_cli("netgen", "--nodes", "30", "--embed-dim", "3", "--out", str(out)) == 0
    assert json.loads(out.read_text())["n"] == 30
    assert (out.parent / "manifest.json").exists()


def test_optimize_manifest_counts_evaluations(graph_file, tmp_path):
    out = tmp_path / "best.json"
    assert run_cli("optimize", "--graph", str(graph_file), "--seed-node", "50", "--khop", "1",
                   "--beam", "2", "--rounds", "1", "--sims", "4", "--top-deg", "2",
                   "--epsilon", "3", "--out", str(out)) == 0
    best = json.loads(out.read_text())
    assert json.loads((tmp_path / "manifest.json").read_text())["metrics"] == {
        "evaluations": best["evaluations"], "pool_size": best["pool_size"]}


def test_optimize_takes_simulation_flags(graph_file, tmp_path):
    out = tmp_path / "best.json"
    assert run_cli("optimize", "--graph", str(graph_file), "--seed-node", "50", "--khop", "0",
                   "--beam", "1", "--rounds", "0", "--sims", "2", "--top-deg", "0",
                   "--core-targets", "0", "--max-steps", "30", "--lambda", "0.1",
                   "--viral-fraction", "0.4", "--spontaneous", "--out", str(out)) == 0
    config = json.loads((tmp_path / "manifest.json").read_text())["config"]
    assert (config["max-steps"], config["lambda"], config["viral-fraction"],
            config["spontaneous"]) == (30, 0.1, 0.4, True)


@pytest.mark.parametrize("model", ["ic", "lt", "kcomplex"])
def test_baseline_manifest_counts_runs(graph_file, tmp_path, model):
    out = tmp_path / "runs.jsonl"
    assert run_cli("baseline", "--model", model, "--graph", str(graph_file), "--seeds", "0,1",
                   "--runs", "4", "--seed", "3", "--out", str(out)) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert json.loads((tmp_path / "manifest.json").read_text())["metrics"] == {
        "cascades": 4,
        "steps": sum(r["converged_at"] for r in records),
        "hit_cap_runs": sum(r["hit_cap"] for r in records),
    }


@pytest.mark.parametrize("argv", [["simulate", "--runs", "0"],
                                  ["baseline", "--model", "ic", "--runs", "-3"]])
def test_run_count_below_one_exits_2(graph_file, tmp_path, capsys, argv):
    out = tmp_path / "runs.jsonl"
    assert run_cli(*argv, "--graph", str(graph_file), "--out", str(out)) == 2
    assert "error: runs:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, given, key", [
    ("simulate", ["--jobs", "-2", "--seed", "-4"], "seed"),
    ("simulate", ["--jobs", "-2"], "jobs"),
    ("simulate", ["--jobs", "0"], "jobs"),
    ("simulate", ["--config", {"jobs": 0}], "jobs"),
    ("simulate", ["--config", {"seed": -1}], "seed"),
    ("baseline", ["--seed", "-4"], "seed"),
    ("optimize", ["--seed", "-3"], "seed"),
], ids=["simulate-both", "simulate-jobs", "simulate-no-jobs", "simulate-config-jobs",
        "simulate-config-seed", "baseline-seed", "optimize-seed"])
def test_worker_count_and_master_seed_below_domain_exit_2(graph_file, tmp_path, capsys, command,
                                                         given, key):
    if given[0] == "--config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(given[1]))
        given = ["--config", str(cfg)]
    argv = _small_run(command, graph_file, tmp_path / "out")
    assert run_cli(command, *argv, *given) == 2
    assert f"error: {key}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["0", "-1"])
def test_jobs_from_environment_below_one_exits_2(graph_file, tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("CONTAGION_JOBS", value)
    argv = _small_run("simulate", graph_file, tmp_path / "out")
    assert run_cli("simulate", *argv) == 2
    assert "error: jobs: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, key", [("learn", "seed"), ("learn-eval", "split-seed")])
def test_learner_negative_seed_exits_2(tmp_path, capsys, command, key):
    trust, ratings = _learner_logs(tmp_path)
    model = tmp_path / "model.json"
    assert run_cli("learn", "--trust", str(trust), "--ratings", str(ratings), "--steps", "2",
                   "--out", str(model)) == 0
    given = ["--model", str(model)] if command == "learn-eval" else []
    out = tmp_path / "out" / "result.json"
    assert run_cli(command, *given, "--trust", str(trust), "--ratings", str(ratings),
                   f"--{key}", "-1", "--out", str(out)) == 2
    assert f"error: {key}: " in capsys.readouterr().err
    assert not out.parent.exists()


@pytest.fixture(scope="module")
def runs_60(tmp_path_factory):
    """Runs simulated on a 60-node graph, with that graph and an 80-node one."""
    d = tmp_path_factory.mktemp("runs60")
    for n in (60, 80):
        assert run_cli("netgen", "--nodes", str(n), "--embed-dim", "4", "--seed", "1",
                       "--out", str(d / f"g{n}.json")) == 0
    assert run_cli("simulate", "--graph", str(d / "g60.json"), "--runs", "3", "--epsilon", "3",
                   "--out", str(d / "runs.jsonl")) == 0
    return d


@pytest.mark.parametrize("graph, edit, says", [
    pytest.param("g60", lambda line: line[:40], "not valid JSON", id="truncated-line"),
    pytest.param("g60", lambda line: json.dumps({k: v for k, v in json.loads(line).items()
                                                 if k != "final_spread"}),
                 "missing final_spread", id="no-final-spread"),
    pytest.param("g60", lambda line: json.dumps({**json.loads(line), "seed_set": [999]}),
                 "seed_set [999]", id="seed-outside-graph"),
    pytest.param("g80", lambda line: line, "80-node graph", id="other-graph"),
    # final_spread, new_per_step and activation_time must count the same run
    pytest.param("g60", lambda line: json.dumps({**json.loads(line), "final_spread": 500}),
                 "final_spread 500", id="spread-beyond-graph"),
    pytest.param("g60", lambda line: json.dumps(
        {**json.loads(line), "new_per_step": json.loads(line)["new_per_step"] + [1]}),
        "do not agree", id="extra-wave"),
    pytest.param("g60", lambda line: json.dumps(
        {**json.loads(line), "activation_time": [None] * 60}),
        "0 activation times", id="no-activation-times"),
])
def test_analyze_rejects_runs_it_cannot_read(runs_60, tmp_path, capsys, graph, edit, says):
    lines = (runs_60 / "runs.jsonl").read_text().splitlines()
    lines[1] = edit(lines[1])
    runs = tmp_path / "runs.jsonl"
    runs.write_text("\n".join(lines) + "\n")
    report = tmp_path / "report.json"
    assert run_cli("analyze", "--runs", str(runs), "--graph", str(runs_60 / f"{graph}.json"),
                   "--report", str(report)) == 2
    err = capsys.readouterr().err
    assert f"error: runs: {runs}: line {1 if graph == 'g80' else 2}:" in err
    assert says in err
    assert not report.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--seeds", "0,3", "--lambda", "0.3"],
    ["simulate", "--spontaneous", "--gamma", "0.02", "--max-steps", "6"],
    ["baseline", "--model", "ic", "--seeds", "0,3"],
    ["baseline", "--model", "lt"],
    ["baseline", "--model", "kcomplex", "--seeds", "0,1,2"],
], ids=["up-drift", "up-spontaneous", "ic", "lt", "kcomplex"])
def test_analyze_reads_simulate_and_baseline_output(graph_file, tmp_path, argv):
    # every record the simulators write passes analyze's consistency check
    runs = tmp_path / "runs.jsonl"
    assert run_cli(*argv, "--graph", str(graph_file), "--runs", "4", "--seed", "2",
                   "--out", str(runs)) == 0
    report = tmp_path / "report.json"
    assert run_cli("analyze", "--runs", str(runs), "--graph", str(graph_file),
                   "--report", str(report)) == 0
    assert sum(json.loads(report.read_text())["spread_histogram"]["counts"]) == 4


@pytest.mark.parametrize("doc, key", [({"graph": {"n": "60"}}, "graph: n"),
                                      ({"jobs": "x"}, "jobs"),
                                      ({"runs_per_node": 1.5}, "runs_per_node")])
def test_experiment_config_integer_fields_exit_2(tmp_path, capsys, doc, key):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli("experiment", "--rq", "1", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "r")) == 2
    assert f"error: {key}: expected an integer" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("doc, says", [
    ({"sweep_values": 5}, "sweep_values: expected a list of finite numbers"),
    ({"sweep_values": ["a"]}, "sweep_values: expected a list of finite numbers"),
    ({"node_selection": 3}, "node_selection: expected a string"),
    ({"params": {"epsilon": 2.5}}, "epsilon: cooling period must be an integer"),
    ({"params": {"max_steps": True}}, "max_steps: must be an integer"),
], ids=["sweep-not-list", "sweep-not-numbers", "selection-not-string", "epsilon-fraction",
        "max-steps-bool"])
def test_experiment_config_mistyped_fields_exit_2(tmp_path, capsys, doc, says):
    cfg = tmp_path / "exp.json"
    small = {"graph": {"n": 60, "r": 2, "embed_dim": 4, "seed": 1}, "runs_per_node": 1,
             "node_selection": "sample:2"}
    cfg.write_text(json.dumps({**small, **doc}))
    assert run_cli("experiment", "--rq", "4", "--axis", "alpha", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "r")) == 2
    assert f"error: {says}" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("rq, doc, says", [
    (3, {"graph_seeds": 0}, "graph_seeds must be >= 1"),
    (3, {"seeds_per_graph": 0}, "seeds_per_graph must be >= 1"),
    (2, {"segment_samples": -1}, "segment_samples must be >= 1"),
    (3, {"sweep_values": [60.7, 80]}, "sweep_values: network sizes must be whole numbers"),
    (1, {"jobs": -3, "master_seed": -5}, "jobs must be >= 1"),
    (1, {"jobs": 0}, "jobs must be >= 1"),
    (1, {"master_seed": -5}, "master_seed must be >= 0"),
], ids=["no-graph-seeds", "no-seeds-per-graph", "negative-segment-samples", "fractional-size",
        "negative-jobs-and-master-seed", "no-jobs", "negative-master-seed"])
def test_experiment_counts_exit_2(tmp_path, capsys, rq, doc, says):
    cfg = tmp_path / "exp.json"
    small = {"graph": {"n": 60, "r": 2, "embed_dim": 4, "seed": 1}, "runs_per_node": 1,
             "seeds_per_graph": 2, "graph_seeds": 1}
    cfg.write_text(json.dumps({**small, **doc}))
    assert run_cli("experiment", "--rq", str(rq), "--config", str(cfg),
                   "--out-dir", str(tmp_path / "r")) == 2
    assert f"error: {says}" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("kind, content, cell", [
    ("line", "x,y\n0,1\n1,nan\n", "nan"),
    ("line", "x,y\n0,1\ninf,2\n", "inf"),
    ("hist", "v\n1\n-inf\n", "-inf"),
    ("hist", "v\n1\nNaN\n", "NaN"),
], ids=["line-nan", "line-inf", "hist-minus-inf", "hist-NaN"])
def test_plot_refuses_non_finite_cells(tmp_path, capsys, kind, content, cell):
    table = tmp_path / "t.csv"
    table.write_text(content)
    out = tmp_path / "t.svg"
    assert run_cli("plot", "--table", str(table), "--kind", kind, "--out", str(out)) == 2
    assert f"error: table: {table}: line 3: non-finite cell {cell!r}" in capsys.readouterr().err
    assert not out.exists()


def test_optimize_perturbation_overflowing_a_child_exits_2(graph_file, tmp_path, capsys):
    # the scale is finite, but a child's squared norm overflows
    out = tmp_path / "best.json"
    assert run_cli("optimize", "--graph", str(graph_file), "--seed-node", "50", "--beam", "1",
                   "--rounds", "1", "--sims", "2", "--perturb", "1e200", "--out", str(out)) == 2
    assert "error: perturb: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("doc", [
    {"I": 5},
    [1],
    {"aggregation": "sum", "I": [["u0", 0.5]], "b": []},
    {"aggregation": "bogus", "I": [], "b": []},
], ids=["no-aggregation", "not-an-object", "two-field-I", "unknown-aggregation"])
def test_learn_eval_rejects_bad_model_file(tmp_path, capsys, doc):
    trust, ratings = _learner_logs(tmp_path)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "eval.json"
    assert run_cli("learn-eval", "--model", str(model), "--trust", str(trust),
                   "--ratings", str(ratings), "--out", str(out)) == 2
    assert f"error: model: {model}: " in capsys.readouterr().err
    assert not out.exists()
