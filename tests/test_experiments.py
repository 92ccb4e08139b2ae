import numpy as np
import pytest

from contagion import experiments
from contagion.errors import ConfigError
from contagion.experiments import (
    ExperimentConfig,
    GraphSpec,
    misaligned_vector,
    rq1_spread_distribution,
    rq2_growth_curves,
    rq3_size_scaling,
    rq4_param_sweep,
    rq5_affinity_sweep,
    run_batch,
    select_nodes,
    sweep_weights,
)
from contagion.updyn import Propagation, RunTally, SimParams, run_cascade, self_propagation
from tests.oracles import rq5_grid_per_cosine


def small_cfg(**overrides):
    base = dict(
        graph=GraphSpec(n=200, r=2, embed_dim=8, seed=11),
        params=SimParams(epsilon=5),
        runs_per_node=3,
        node_selection="sample:12",
        master_seed=77,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_roundtrip_and_errors():
    cfg = small_cfg()
    doc = cfg.to_dict()
    assert ExperimentConfig.from_dict(doc) == cfg
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({**doc, "node_selection": "bogus"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({**doc, "runs_per_node": 0})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({**doc, "unknown_field": 3})


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("key", ["graph_seeds", "seeds_per_graph", "segment_samples"])
def test_config_counts_below_one(key, value):
    with pytest.raises(ConfigError, match=f"{key} must be >= 1"):
        ExperimentConfig.from_dict({**small_cfg().to_dict(), key: value})


def test_rq3_refuses_fractional_sizes():
    with pytest.raises(ConfigError, match="sweep_values: network sizes must be whole numbers"):
        rq3_size_scaling(small_cfg(sweep_values=(60.7, 80), graph_seeds=1, seeds_per_graph=1))


def test_select_nodes_modes(pa_graph_small):
    g = pa_graph_small
    cfg = small_cfg(node_selection="all")
    assert len(select_nodes(cfg, g)) == g.n
    cfg = small_cfg(node_selection="core")
    nodes = select_nodes(cfg, g)
    assert all(g.segments[v] == "core" for v in nodes)
    cfg = small_cfg(node_selection="sample:5")
    sampled = select_nodes(cfg, g)
    assert len(sampled) == 5
    assert np.array_equal(sampled, select_nodes(cfg, g))  # deterministic


def test_rq1_gamma_zero_all_singletons(pa_graph_small):
    cfg = small_cfg(params=SimParams(gamma=0.0, epsilon=2))
    out = rq1_spread_distribution(cfg, pa_graph_small)
    assert all(row["spread"] == 1 for row in out["runs"])
    hist = out["histogram"]
    assert sum(r["count"] for r in hist) == len(out["runs"])
    assert sum(1 for r in hist if r["count"] > 0) == 1  # single occupied bin


def test_rq1_tables_consistent(pa_graph_small):
    cfg = small_cfg()
    out = rq1_spread_distribution(cfg, pa_graph_small)
    assert len(out["runs"]) == 12 * 3
    assert len(out["per_node"]) == 12
    summary = out["summary"][0]
    assert summary["n_runs"] == 36
    # per-node means agree with the raw runs
    for row in out["per_node"]:
        spreads = [r["spread"] for r in out["runs"] if r["node"] == row["node"]]
        assert row["mean_spread"] == pytest.approx(np.mean(spreads))


def test_rq1_reproducible(pa_graph_small):
    cfg = small_cfg()
    a = rq1_spread_distribution(cfg, pa_graph_small)
    b = rq1_spread_distribution(cfg, pa_graph_small)
    assert a == b


def test_rq2_series_shapes(pa_graph_small):
    cfg = small_cfg(runs_per_node=4, segment_samples=3)
    out = rq2_growth_curves(cfg, pa_graph_small)
    if out["series"]:
        by_run = {}
        for row in out["series"]:
            by_run.setdefault((row["node"], row["run_index"]), []).append(row)
        for rows in by_run.values():
            cums = [r["cumulative"] for r in rows]
            assert cums == sorted(cums)  # non-decreasing
            assert cums[-1] == sum(r["new"] for r in rows)
        for row in out["tipping"]:
            assert row["spread"] >= 0.5 * pa_graph_small.n


def test_rq2_no_viral_warns(pa_graph_small, caplog):
    cfg = small_cfg(params=SimParams(gamma=0.0, epsilon=2), segment_samples=2,
                    runs_per_node=2)
    with caplog.at_level("WARNING"):
        out = rq2_growth_curves(cfg, pa_graph_small)
    assert out["series"] == []
    assert any("no viral" in r.message for r in caplog.records)


def test_rq3_single_size_one_row():
    cfg = small_cfg(sweep_values=(120,), graph_seeds=2, seeds_per_graph=3,
                    runs_per_node=2, params=SimParams(epsilon=5))
    out = rq3_size_scaling(cfg)
    assert len(out["graphs"]) == 2
    assert len(out["per_size"]) == 1
    assert all(row["diameter"] >= 1 for row in out["graphs"])


def test_sweep_weights_coupling():
    assert sweep_weights("alpha", 0.5) == (0.5, 0.25)
    assert sweep_weights("beta", 0.3) == (0.35, 0.3)
    a, b = sweep_weights("global", 0.4)
    assert a == b == pytest.approx(0.3)
    with pytest.raises(ConfigError):
        sweep_weights("temperature", 0.1)


def test_rq4_axis_from_config(pa_graph_small):
    cfg = small_cfg(sweep_values=(0.2, 0.6), runs_per_node=1,
                    node_selection="sample:4", sweep_axis="beta")
    out = rq4_param_sweep(cfg, g=pa_graph_small)
    assert [r["beta"] for r in out["grid"]] == [0.2, 0.6]
    with pytest.raises(ConfigError):
        rq4_param_sweep(small_cfg(sweep_values=(0.2,)), g=pa_graph_small)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({**small_cfg().to_dict(), "sweep_axis": "bogus"})


def test_rq4_rows_and_validation(pa_graph_small):
    cfg = small_cfg(sweep_values=(0.2, 0.5, 0.8), runs_per_node=2,
                    node_selection="sample:8")
    out = rq4_param_sweep(cfg, "alpha", pa_graph_small)
    assert [r["value"] for r in out["grid"]] == [0.2, 0.5, 0.8]
    for row in out["grid"]:
        assert row["n_runs"] == 16
        assert 0.0 <= row["virality_frequency"] <= 1.0
        assert row["alpha"] + row["beta"] + row["global_weight"] == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        rq4_param_sweep(small_cfg(sweep_values=(1.2,)), "alpha", pa_graph_small)


def test_misaligned_vector_construction():
    rng = np.random.default_rng(3)
    x = np.zeros(8)
    x[0] = 1.0
    for c in (-1.0, -0.5, 0.0, 0.7, 1.0):
        vec = misaligned_vector(x, c, rng)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)
        assert float(vec @ x) == pytest.approx(c, abs=1e-9)
    assert np.array_equal(misaligned_vector(x, 1.0, rng), x)


def test_rq5_cosine_one_matches_self_propagation(pa_graph_small):
    g = pa_graph_small
    cfg = small_cfg(sweep_values=(1.0,), runs_per_node=2, node_selection="sample:4")
    out = rq5_affinity_sweep(cfg, g)
    row = out["grid"][0]
    assert row["max_cosine_error"] <= 1e-9
    # rebuild one of the runs by hand: identical record to self-propagation
    from contagion.rng import derive_seed

    nodes = select_nodes(cfg, g)
    node = int(nodes[0])
    seed = derive_seed(cfg.master_seed, "rq5", node, 0)
    rec_self = run_cascade(g, Propagation(vec=g.features.rows[node].copy()),
                           [node], cfg.params, seed)
    dir_rng = np.random.default_rng(derive_seed(cfg.master_seed, "rq5-dir", node, 0))
    vec = misaligned_vector(g.features.rows[node], 1.0, dir_rng)
    rec_sweep = run_cascade(g, Propagation(vec=vec), [node], cfg.params, seed)
    assert np.array_equal(rec_self.activation_time, rec_sweep.activation_time)


@pytest.mark.parametrize("jobs", [1, 2])
def test_rq5_one_batch_matches_a_batch_per_cosine(pa_graph_small, jobs):
    # the whole grid runs as one batch; each cosine's row and the tally must
    # be those of one run_batch call per cosine
    cfg = small_cfg(sweep_values=(-0.6, 0.0, 0.9), params=SimParams(gamma=0.1, epsilon=5),
                    node_selection="sample:8", jobs=jobs)
    tally, expected_tally = RunTally(), RunTally()
    out = rq5_affinity_sweep(cfg, pa_graph_small, tally=tally)
    expected = rq5_grid_per_cosine(cfg, pa_graph_small, expected_tally)
    assert len({row["n_viral"] for row in expected}) == 3
    assert out["grid"] == expected
    assert tally == expected_tally


def test_rq5_grid_validation(pa_graph_small):
    with pytest.raises(ConfigError):
        rq5_affinity_sweep(small_cfg(sweep_values=(1.5,)), pa_graph_small)


def test_run_batch_parallel_matches_serial(pa_graph_small):
    g = pa_graph_small
    params = SimParams(epsilon=3)
    runs = [
        (self_propagation(g, v), [v], 1000 + 10 * v + i)
        for v in (0, 5, 9)
        for i in range(3)
    ]
    serial = run_batch(g, runs, params, jobs=1)
    parallel = run_batch(g, runs, params, jobs=2)
    assert serial == parallel


def test_pool_map_starts_no_more_workers_than_slices_or_cores(pa_graph_small, monkeypatch):
    # the pool is faked: it records its worker count and runs the slices here
    started = []

    class InlinePool:
        def __init__(self, max_workers, initializer, initargs):
            started.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work):
            return [fn(item) for item in work]

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(experiments, "_WORKER", {})
    g = pa_graph_small
    params = SimParams(epsilon=3, max_steps=20)
    runs = [(self_propagation(g, v), [v], 100 + v) for v in range(8)]
    serial = run_batch(g, runs, params, jobs=1)
    for cores, jobs, workers in [(64, 5000, 8), (64, 3, 3), (2, 5000, 2), (None, 5000, 1)]:
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cores)
        assert run_batch(g, runs, params, jobs=jobs) == serial
        assert started.pop() == workers
