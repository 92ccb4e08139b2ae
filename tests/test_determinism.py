"""Pinned-seed outputs that must stay byte-identical across refactors.

Each digest is a SHA-256 over a deterministic serialization of model output:
cascade records as JSON, graph arrays as raw bytes. A change here means the
RNG streams or the floating-point sums moved, which the determinism contract
forbids unless a change says so explicitly.
"""

import hashlib
import json

import numpy as np
import pytest

from contagion.baselines import BaselineConfig, run_ic, run_kcomplex, run_lt
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


def test_dp_policy_tables(pa_graph_small):
    # the one-step probes replay activation histories through the state
    g = pa_graph_small
    cfg = DpConfig(codebook=default_codebook(g, 57, 5), horizon=3, sims_per_estimate=3)
    res = dp_policy(g, 57, cfg, SimParams(gamma=0.15, max_steps=30), 5)
    digest = _arrays_digest(res.values, res.immediate_reward, res.transitions, res.observed)
    assert digest == EXPECTED["optimizer.dp_policy"]


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
