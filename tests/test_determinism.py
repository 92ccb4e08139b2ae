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
from contagion.optimizer import (
    BeamConfig,
    DpConfig,
    beam_search,
    build_candidate_pool,
    default_codebook,
    dp_policy,
)
from contagion.updyn import (
    Propagation,
    SimParams,
    init_state,
    run_cascade,
    run_cascades,
    self_propagation,
    step,
)

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
    "up.drift_step.contact":
        "f0dacfb3376c0f9307f8f266df2781c1e97e9088f353d3eb6d4f8ddb71fddd1b",
    "up.drift_step.spontaneous":
        "74832947d7ffd80a08dff7f4cc8d8552ef9817d5ece14944910d2f41492a498d",
    "up.drift_batch.contact":
        "443b148338908d13cc177d319836119afd48900fe571749eff09e316349db5af",
    "up.drift_batch.spontaneous":
        "e02a213039035f3805f5af8a4026ae145f369db64e0bb7d1ddfcd3e386596da4",
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
    "optimizer.dp_policy.spontaneous":
        "ea4096d52fc36d98f7f7f71f8fe615b186ed0964ce0e8f4beffdafdd27465afa",
    "optimizer.dp_policy.gamma_above_1":
        "49234864c2b66c17a72c2a1d230e3dfe4c4cb47fb510ad1a96368f4f0fc717b9",
    "optimizer.beam_search.default":
        "142180d8017701614cc0929034f9a18c858216f498c178f9a319245d05b50551",
    "optimizer.beam_search.eps_zero":
        "69efea8a94850b286bbd87cc72dfb8d901e1a12d4cd36aa8a71139e94f39e675",
    "optimizer.beam_search.spontaneous":
        "9df0b94257777effb3e744cb8d59b40ae4150fa6ecafc9e1968999f76fd03ca9",
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


# one run stepped 60 times under drift: (params, seed node); without the
# contact rule many adjacent nodes activate, and drift, in the same step
DRIFT_STEP_CASES = {
    "contact": (SimParams(gamma=0.3, drift=0.3), 0),
    "spontaneous": (SimParams(gamma=1.0, drift=0.4, require_contact=False), 57),
}


@pytest.mark.parametrize("case", sorted(DRIFT_STEP_CASES))
def test_drift_step_live_arrays(pa_graph_small, case):
    g = pa_graph_small
    params, seed = DRIFT_STEP_CASES[case]
    c = Propagation.from_vector(np.random.default_rng(seed).standard_normal(g.features.k))
    state = init_state(g, c, [seed], params)
    rng = np.random.default_rng(11)
    waves = [step(state, c, g, params, rng) for _ in range(60)]
    assert max(waves) > 1
    digest = _arrays_digest(state.activation_time, state.live_degree, state.live_features,
                            state.live_weights, state.active_wsum)
    assert digest == EXPECTED[f"up.drift_step.{case}"]


DRIFT_BATCH_CASES = {
    "contact": SimParams(gamma=0.3, drift=0.4),
    "spontaneous": SimParams(gamma=1.0, drift=0.5, require_contact=False, epsilon=3),
}


@pytest.mark.parametrize("case", sorted(DRIFT_BATCH_CASES))
def test_drift_batch_records(pa_graph_small, case):
    # every run is a row of one lockstep batch, drifting side by side
    g = pa_graph_small
    runs = [(self_propagation(g, v), [v], s) for v in SEED_NODES for s in RUN_SEEDS]
    records = run_cascades(g, runs, DRIFT_BATCH_CASES[case])
    assert max(r.final_spread for r in records) > 1
    assert _records_digest(records) == EXPECTED[f"up.drift_batch.{case}"]


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
    "spontaneous": (slice(None), 3, SimParams(gamma=0.05, max_steps=30, require_contact=False)),
    "gamma_above_1": (slice(None), 3, SimParams(gamma=1.6, max_steps=30)),
}


@pytest.mark.parametrize("case", sorted(DP_PROBE_CASES))
def test_dp_policy_probe_tables(pa_graph_small, case):
    # under drift the cascades drift while the probes rebuild each visited
    # state on the undrifted graph; one entry makes every probe a single row;
    # without the contact rule every inactive node draws in a probe, and
    # above gamma 1 the probes' probabilities are clipped
    digest = _dp_digest(pa_graph_small, *DP_PROBE_CASES[case])
    assert digest == EXPECTED[f"optimizer.dp_policy.{case}"]


# (beam config, params) from periphery seed 199; the default case keeps
# BeamConfig's width, rounds, spawn and perturbation with fewer sims; at
# eps_perturb = 0 every child repeats its parent, so each round is served
# from the score cache
BEAM_CASES = {
    "default": (BeamConfig(sims=12), SimParams(gamma=0.15, max_steps=30)),
    "eps_zero": (BeamConfig(width=3, rounds=2, eps_perturb=0.0, sims=12, spawn=3),
                 SimParams(gamma=0.15, max_steps=30)),
    "spontaneous": (BeamConfig(width=3, rounds=2, sims=12, spawn=4),
                    SimParams(gamma=0.05, max_steps=30, require_contact=False)),
}


@pytest.mark.parametrize("case", sorted(BEAM_CASES))
def test_beam_search_results(pa_graph_small, case):
    g = pa_graph_small
    cfg, params = BEAM_CASES[case]
    pool = build_candidate_pool(g, 199, K=1, top_deg=3, core_targets=2)
    res = beam_search(g, 199, pool, cfg, params, 8)
    digest = _arrays_digest(res.best_vec, np.array([res.best_score, res.best_stderr]),
                            np.array(res.round_best), np.array([res.evaluations]))
    assert digest == EXPECTED[f"optimizer.beam_search.{case}"]


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


# model.json and eval.json of ``learn`` / ``learn-eval`` on fixed logs. The
# string logs hold duplicate ratings, time ties, self-trust, single-rater
# products and raters absent from the trust file; the graph logs name the
# nodes of a netgen graph by their integers (the ``--graph`` path).
LEARNER_OUTPUTS = {
    "int/mean/eval.json":
        "462733103523d24ee9efd97721bd85d6d3522d734cf2d77d9dc0b91a5248fa85",
    "int/mean/model.json":
        "82546ffc1a04b73d1dbc006bae8aade7026175b93cd80e4dd9759df3d6e95d54",
    "int/sum/eval.json":
        "51d468d282671fc196ea261b59aa12852176fe4ec1c7868658293516e8689e77",
    "int/sum/model.json":
        "3cd473cc7751db137892573ff3087cce3f6de5fa5378a192c6349fab58625b93",
    "str/mean/eval.json":
        "51e44c1e7f10ed42a7753b2dfa2ad79a38c4412294ebfe917a7df8ac78b21d2d",
    "str/mean/model.json":
        "730f2826ab64d1edfcd28feb8faeaa4de2957961ec4e076087f76c522ae8dc7c",
    "str/sum/eval.json":
        "bb7ab84b6ae012d233d091f2497a5fed5bc2b63c7c71a47aa10a1bfdda611e0b",
    "str/sum/model.json":
        "0806b2afee94e74e80d33b41b1c7d340fb569fc79e468025117acd4c8f8a3460",
}


def _learner_log_files(root):
    rng = np.random.default_rng(2024)
    users = [f"u{i}" for i in range(30)]
    trust = [(a, b) for a in users[:26] for b in users if rng.random() < 0.12]
    trust += [("u3", "u3"), ("u4", "u7"), ("u4", "u7")]
    ratings = []
    for p in range(14):
        raters = rng.choice(users, size=int(rng.integers(1, 14)), replace=False)
        ratings += [(u, f"p{p}", int(rng.integers(0, 6))) for u in raters]
    ratings += [ratings[3][:2] + (ratings[3][2] + 4,), ratings[10][:2] + (0,)]
    g = build_graph(60, 2, 4, 5)
    graph = root / "g.json"
    save_graph(g, graph)
    g_trust = [(int(a), int(b)) for a, b in g.raw.edges] + [(int(b), int(a)) for a, b in g.raw.edges]
    g_ratings = [(int(v), f"q{p}", int(rng.integers(0, 8)))
                 for p in range(10) for v in rng.choice(60, size=int(rng.integers(2, 20)), replace=False)]
    files = {}
    for name, pairs, rated in (("str", trust, ratings), ("int", g_trust, g_ratings)):
        files[name] = (root / f"{name}_trust.tsv", root / f"{name}_ratings.tsv")
        files[name][0].write_text("".join(f"{a}\t{b}\n" for a, b in pairs))
        files[name][1].write_text("".join(f"{u}\t{p}\t{t}\n" for u, p, t in rated))
    return files, graph


def _learner_runs(root):
    files, graph = _learner_log_files(root)
    runs = {"str": [], "int": ["--graph", graph]}
    out = {}
    for name, extra in runs.items():
        trust, ratings = files[name]
        logs = ["--trust", trust, "--ratings", ratings, *extra]
        for form, more in (("sum", []), ("mean", ["--augment", "--lr", "0.05"])):
            model = root / name / form / "model.json"
            report = model.parent / "eval.json"
            assert dispatch([str(a) for a in ["learn", *logs, "--form", form, "--steps", "25",
                                              "--seed", "3", *more, "--out", model]]) == 0
            assert dispatch([str(a) for a in ["learn-eval", "--model", model, *logs,
                                              "--test-fraction", "0.3", "--split-seed", "1",
                                              "--out", report]]) == 0
            for path in (model, report):
                out[str(path.relative_to(root))] = _sha(path.read_bytes())
    return out


def test_learner_output_bytes(tmp_path):
    assert _learner_runs(tmp_path) == LEARNER_OUTPUTS


# Every table and plot of ``experiment --rq 2..5`` on tiny configs (n <= 80).
# Keys are paths under the work directory.
EXPERIMENT_OUTPUTS = {
    "rq2/rq2_growth.svg":
        "6a35dc7e87ddcbac3cbd9b8417baad186920c12593cb3fc6a16abedc15e335ad",
    "rq2/rq2_series.csv":
        "fd8acb5557c99319744b882ae488264e07e6c1edde0a9cf2e817fe43e299122b",
    "rq2/rq2_summary.csv":
        "39409b125af788c07be9f1cf4f88b85db42201e32e00c7959b308346461deaf6",
    "rq2/rq2_tipping.csv":
        "5a0e8c47e4714331996d18f025c56f790c98f292862fc6a5d650f4fbfc923e09",
    "rq3/rq3_graphs.csv":
        "3706d65662b3d1dfd6ea9edcc9d914765b8019a7688e37ef0a7d810cf4486b6e",
    "rq3/rq3_per_size.csv":
        "a0ec7b16427ff1ec5607a10e40f2731ba34e09065bfb96da2690cc2c356ffac5",
    "rq3/rq3_scaling.svg":
        "d43760787dbe95b862739de76c9ccdd4a8bf5d0d45e816d56b1550e75edd0361",
    "rq3/rq3_summary.csv":
        "78b068d311fe558b558d9f70b2bb3b251a8010f4a0963892fc643c52f5e13a2c",
    "rq4/rq4_grid.csv":
        "dc13558eb4b9d41fe97096654a6676cac2e39a87d90706f0763111379d713e99",
    "rq4/rq4_summary.csv":
        "bfb5b57bfca9c43d88b37f76f0db468d554a33c495866100de1b239950e17a2e",
    "rq4/rq4_sweep.svg":
        "f6c35dee1bcbad9c3d98711677885bd9de2b8a96b2d0b2403206bec77213997a",
    "rq5/rq5_grid.csv":
        "902c60ab21d73688f6fe78db8600d688f1183a290aff6de3d4fc475dbaf702fd",
    "rq5/rq5_summary.csv":
        "51527f001c0599cce2739e812d2df91b74f7cdbcc2f42843d5cb1855702877b4",
    "rq5/rq5_sweep.svg":
        "3f3e2cc24739d5d7c99202c5014766e0a5950a76a93c1a8686fcbdaee8cd95e4",
}

EXPERIMENT_BASE = {
    "graph": {"n": 80, "r": 2, "embed_dim": 5, "seed": 3},
    "params": {"gamma": 0.3, "epsilon": 3},
    "runs_per_node": 2,
    "node_selection": "sample:5",
    "master_seed": 4,
}
EXPERIMENT_CONFIGS = {
    2: {"segment_samples": 2},
    3: {"sweep_values": [40, 60, 80], "graph_seeds": 2, "seeds_per_graph": 2},
    4: {"sweep_axis": "alpha", "sweep_values": [0.2, 0.5, 0.8]},
    5: {"sweep_values": [-0.6, 0.0, 0.6]},
}


def _experiment_runs(root):
    out = {}
    for rq, extra in EXPERIMENT_CONFIGS.items():
        cfg = root / f"rq{rq}.json"
        cfg.write_text(json.dumps({**EXPERIMENT_BASE, **extra}))
        out_dir = root / f"rq{rq}"
        assert dispatch(["experiment", "--rq", str(rq), "--config", str(cfg),
                         "--out-dir", str(out_dir)]) == 0
        for p in sorted(out_dir.iterdir()):
            if p.name != "manifest.json":
                out[str(p.relative_to(root))] = _sha(p.read_bytes())
    return out


def test_experiment_output_bytes(tmp_path):
    assert _experiment_runs(tmp_path) == EXPERIMENT_OUTPUTS
