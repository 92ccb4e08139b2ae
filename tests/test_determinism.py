"""Pinned-seed outputs that must stay byte-identical across refactors.

Each digest is a SHA-256 over a deterministic serialization of model output:
cascade records as JSON, graph arrays as raw bytes. A change here means the
RNG streams or the floating-point sums moved, which the determinism contract
forbids unless a change says so explicitly.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from contagion.baselines import BaselineConfig, run_ic, run_kcomplex, run_lt
from contagion.cli import dispatch
from contagion.netgen import build_graph, load_graph, save_graph
from contagion.optimizer import DpConfig, default_codebook, dp_policy
from contagion.updyn import SimParams, run_cascade, self_propagation

RUN_SEEDS = (3, 17, 2024)
SEED_NODES = (0, 57, 199)

UP_PATHS = {
    "contact": SimParams(gamma=0.15),
    "spontaneous": SimParams(gamma=0.05, require_contact=False),
    "drift": SimParams(gamma=0.15, drift=0.3),
    "hit_cap": SimParams(gamma=0.6, max_steps=5),
}

EXPECTED = {
    "up.contact":
        "520d06cb5a277c448fd2f3429e0eff04e21c40cf22199b939c9cd82977a8e856",
    "up.spontaneous":
        "0fdb6997a8140dfc2003804d84e6f1db9bb5bc2919cd7ca9f9c47b289fc87a02",
    "up.drift":
        "0c226d9d3de5b0349c01f15d0d4849b0bf1998cd0f5f8043827148e4a3c20e54",
    "up.hit_cap":
        "9c2fff13a27e187be0b9c882bda53a0e52b332c072a014df8bb76ce85e814dec",
    "baseline.ic":
        "c9717c3f9a265ad2752f51801fa5e98b8e974c8d6276017c7cbf1ff252430936",
    "baseline.lt":
        "51011fca4e432369e9f1a1b6664ec61111fabcef076bc56df1444b5184cd8772",
    "baseline.kcomplex":
        "b6e0f2af00d4ae8a16a69af2f7c0ff44011123821ee86c2db897b8c7e8254e85",
    "optimizer.dp_policy":
        "f83be7b7553b8cde62a84332e908c787717c407005fe9b7d8573c15509b8d81d",
    "optimizer.dp_policy.drift":
        "a23575096c0da93d3b54515b9ade2301340449cffe152b3dfabd950f53d6584b",
    "optimizer.dp_policy.one_entry":
        "baf50cf296bf5c672f3ac4fe025a16cd880f2a3c6c9736227e6fef8425dc5c33",
    "graph.edges":
        "c142d68c4081d10458d57f4261854ca434271f8a2009224630362ffc0729c803",
    "graph.edge_weights":
        "d4c29ca227e25aa74e5658537494a6ec1de2c7f74fc15176a4cc7ea6b86232b1",
    "graph.weighted_degree":
        "81ac08ae292443a4781bbc2fbf0e0f0049271f909686feac4730b641a3bbb592",
    "roundtrip.file":
        "f5f4fc4e213cb80f54f5068b320757b15b12f6d13906ac4d65961c5246ee213d",
    "roundtrip.arrays":
        "a040c7316ae7a34fb1a6eb8dfd5c56f0168088fb167b41c2fb5a0565f059cc8f",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _records_digest(records) -> str:
    return _sha(json.dumps([r.to_dict() for r in records], sort_keys=True).encode())


def _arrays_digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("path", sorted(UP_PATHS))
def test_up_cascade_records(pa_graph_small, path):
    g = pa_graph_small
    params = UP_PATHS[path]
    records = [
        run_cascade(g, self_propagation(g, v), [v], params, rng_seed=s)
        for v in SEED_NODES
        for s in RUN_SEEDS
    ]
    assert max(r.final_spread for r in records) > 1
    if path == "hit_cap":
        assert all(r.hit_cap for r in records)
    assert _records_digest(records) == EXPECTED[f"up.{path}"]


def test_baseline_records(pa_graph_small):
    g = pa_graph_small
    hub = int(np.argmax(g.raw.degree))
    ic = [run_ic(g, [v], 0.3, s) for v in SEED_NODES for s in RUN_SEEDS]
    lt_cfg = BaselineConfig(model="lt")
    lt = [run_lt(g, [hub, v], lt_cfg, s) for v in SEED_NODES if v != hub for s in RUN_SEEDS]
    kc = [run_kcomplex(g, seeds, k) for seeds in ([0, 1, 2], [57, 120, 199]) for k in (1, 2, 3)]
    for name, records in (("ic", ic), ("lt", lt), ("kcomplex", kc)):
        assert max(r.final_spread for r in records) > 3
        assert _records_digest(records) == EXPECTED[f"baseline.{name}"], name


def _dp_digest(g, entries, horizon, params):
    cfg = DpConfig(codebook=default_codebook(g, 57, 5)[entries], horizon=horizon,
                   sims_per_estimate=3)
    res = dp_policy(g, 57, cfg, params, 5)
    return _arrays_digest(res.values, res.immediate_reward, res.transitions, res.observed)


def test_dp_policy_tables(pa_graph_small):
    # the one-step probes replay activation histories through the state
    digest = _dp_digest(pa_graph_small, slice(None), 3, SimParams(gamma=0.15, max_steps=30))
    assert digest == EXPECTED["optimizer.dp_policy"]


# (codebook entries, horizon, params); the drift case looks eight steps deep
# because its cascades only part from the undrifted ones after step five
DP_PROBE_CASES = {
    "drift": (slice(None), 8, SimParams(gamma=0.15, max_steps=30, drift=0.4)),
    "one_entry": (slice(1), 3, SimParams(gamma=0.15, max_steps=30)),
}


@pytest.mark.parametrize("case", sorted(DP_PROBE_CASES))
def test_dp_policy_probe_tables(pa_graph_small, case):
    # under drift the cascades drift while the probes rebuild each visited
    # state on the undrifted graph; one entry makes every probe a single row
    digest = _dp_digest(pa_graph_small, *DP_PROBE_CASES[case])
    assert digest == EXPECTED[f"optimizer.dp_policy.{case}"]


def test_graph_build_bytes():
    g = build_graph(200, 2, 8, 11)
    assert _arrays_digest(g.raw.edges) == EXPECTED["graph.edges"]
    assert _arrays_digest(g.edge_weights) == EXPECTED["graph.edge_weights"]
    assert _arrays_digest(g.weighted_degree) == EXPECTED["graph.weighted_degree"]


def test_save_load_roundtrip_bytes(tmp_path, pa_graph_small):
    path = tmp_path / "g.json"
    save_graph(pa_graph_small, path)
    assert _sha(path.read_bytes()) == EXPECTED["roundtrip.file"]
    g = load_graph(path)
    digest = _arrays_digest(
        g.raw.edges, g.edge_weights, g.weighted_degree, g.features.rows, g.segments
    )
    assert digest == EXPECTED["roundtrip.arrays"]


# Every non-manifest file the CLI writes for one small pipeline (n = 80):
# netgen -> simulate -> analyze, an IC baseline, optimize, experiment --rq 1
# and a plot of its histogram table. Keys are paths under the work directory.
CLI_OUTPUTS = {
    "an/report.json":
        "b7cef98b1c3311d2539cf3797ee16db4e4ff3ad7950b0d24017b6ec63b0e665f",
    "exp/rq1_degree_vs_spread.svg":
        "a02fd6024c5fa399a61ee5a7d0456bdd2db5bc41b48285b9125939f942103518",
    "exp/rq1_histogram.csv":
        "21eec8369a219fa653895cad87fadbd75e9abde1efe319b9da9ffed83e2bbe0b",
    "exp/rq1_per_node.csv":
        "d3e59715175a0badb4240fcc3c56c3f840d1039169911795ae755727e8eddccd",
    "exp/rq1_runs.csv":
        "736e384901ba998b9de480aa63a152f527a5604e59996bc89620c2a08ee7c1eb",
    "exp/rq1_spread_hist.svg":
        "a9e56e668397fe9ecfbab822e37f0f3289d44dd4f0d85263e2b2b2d304beb62e",
    "exp/rq1_summary.csv":
        "9043cd721803608a0ace4511c4e8dd62f8146156c39718774b55429611186582",
    "ic/runs.jsonl":
        "daaef15d8359d9d3cc0d6b94d585b1e1bf6020331dd08efbfc7a4dc53ea785d2",
    "net/graph.json":
        "4ddfb757a33f635973cc1f6289b91093507195f078ed62f62275a99aa6a8cca3",
    "opt/best.json":
        "a40165c7fd11366e3984a89c4d0159c88c30789881c1ed177ea16db3c66686a4",
    "plot/hist.svg":
        "2e5113365e69138219e30be25319ca6d7c400965d1b3fb6b445b44d19f0cd30e",
    "sim/runs.jsonl":
        "f444133a1d30a457e60ae1720a241c415ee21e9eb8341294c14be8729dbdad1d",
}


def _cli_pipeline(root):
    graph = root / "net" / "graph.json"
    runs = root / "sim" / "runs.jsonl"
    exp_cfg = root / "exp.json"
    exp_cfg.write_text(json.dumps({
        "graph": {"n": 80, "r": 2, "embed_dim": 5, "seed": 3},
        "params": {"gamma": 0.2, "epsilon": 3},
        "runs_per_node": 2,
        "node_selection": "sample:6",
        "master_seed": 4,
    }))
    commands = [
        ["netgen", "--nodes", "80", "--attach", "2", "--embed-dim", "5", "--seed", "7",
         "--out", graph],
        ["simulate", "--graph", graph, "--seeds", "0,4", "--prop", "self", "--runs", "12",
         "--seed", "3", "--gamma", "0.08", "--epsilon", "4", "--lambda", "0.2", "--out", runs],
        ["analyze", "--runs", runs, "--graph", graph, "--report", root / "an" / "report.json"],
        ["baseline", "--model", "ic", "--graph", graph, "--p", "0.3", "--seeds", "0",
         "--runs", "6", "--seed", "5", "--out", root / "ic" / "runs.jsonl"],
        ["optimize", "--graph", graph, "--seed-node", "60", "--khop", "1", "--beam", "2",
         "--rounds", "1", "--sims", "8", "--top-deg", "3", "--core-targets", "1",
         "--gamma", "0.2", "--epsilon", "3", "--seed", "2", "--out", root / "opt" / "best.json"],
        ["experiment", "--rq", "1", "--config", exp_cfg, "--out-dir", root / "exp"],
        ["plot", "--table", root / "exp" / "rq1_histogram.csv", "--kind", "line",
         "--out", root / "plot" / "hist.svg"],
    ]
    graph.parent.mkdir()
    for argv in commands:
        assert dispatch([str(a) for a in argv]) == 0, argv[0]
    return {
        str(p.relative_to(root)): _sha(p.read_bytes())
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "manifest.json" and p != exp_cfg
    }


def test_cli_output_bytes(tmp_path):
    assert _cli_pipeline(tmp_path) == CLI_OUTPUTS
