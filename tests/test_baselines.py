import numpy as np
import pytest

from contagion.baselines import (
    CONSTANT,
    LT,
    BaselineConfig,
    run_ic,
    run_kcomplex,
    run_lt,
)
from contagion.errors import InvalidParameter
from contagion.netgen import assign_edge_weights, make_unit_features
from tests.conftest import raw_from_edges, uniform_feature_graph


def star_graph(n_leaves=5):
    return uniform_feature_graph(n_leaves + 1, [(0, i) for i in range(1, n_leaves + 1)])


def triangle_graph():
    return uniform_feature_graph(3, [(0, 1), (0, 2), (1, 2)])


def test_config_validation():
    with pytest.raises(InvalidParameter):
        BaselineConfig(model="sir")
    with pytest.raises(InvalidParameter):
        BaselineConfig(model="ic", ic_p=1.5)
    with pytest.raises(InvalidParameter):
        BaselineConfig(model="lt", lt_dist=CONSTANT)
    with pytest.raises(InvalidParameter):
        BaselineConfig(model="kcomplex", k=0)


def test_ic_p_zero_and_one(pa_graph_small):
    g = pa_graph_small
    rec0 = run_ic(g, [5], 0.0, rng_seed=1)
    assert rec0.final_spread == 1
    rec1 = run_ic(g, [5], 1.0, rng_seed=1)
    assert rec1.final_spread == g.n  # PA graphs are connected


def test_ic_two_node_expected_spread():
    # single edge, one seed: spread is 1 + Bernoulli(p), expectation 1.5 at p = 0.5
    g = uniform_feature_graph(2, [(0, 1)])
    spreads = [run_ic(g, [0], 0.5, rng_seed=i).final_spread for i in range(20_000)]
    assert np.mean(spreads) == pytest.approx(1.5, abs=3 * 0.5 / np.sqrt(20_000))


def test_ic_single_attempt_per_edge():
    # with p = 0 nothing activates even over many rounds; with one chance per
    # active node, a failed attempt is never retried: on a 2-node graph the
    # run always ends by round 2
    g = uniform_feature_graph(2, [(0, 1)])
    for seed in range(50):
        rec = run_ic(g, [0], 0.3, rng_seed=seed)
        assert rec.converged_at <= 2


def test_ic_monotone_in_p(pa_graph_small):
    g = pa_graph_small
    means = []
    for p in [0.1, 0.3, 0.5, 0.7, 0.9]:
        spreads = [run_ic(g, [0], p, rng_seed=s).final_spread for s in range(600)]
        means.append(np.mean(spreads))
    diffs = np.diff(means)
    assert np.sum(diffs < 0) <= 1  # allow one inversion from noise


def test_lt_theta_zero_fills_component(pa_graph_small):
    g = pa_graph_small
    cfg = BaselineConfig(model=LT, lt_dist=CONSTANT, lt_theta=0.0)
    rec = run_lt(g, [3], cfg, rng_seed=0)
    assert rec.final_spread == g.n


def test_lt_theta_above_one_stalls(pa_graph_small):
    g = pa_graph_small
    cfg = BaselineConfig(model=LT, lt_dist=CONSTANT, lt_theta=1.1)
    rec = run_lt(g, [3, 4], cfg, rng_seed=0)
    assert rec.final_spread == 2


@pytest.mark.filterwarnings("error")
def test_lt_node_without_tie_mass_feels_no_influence():
    # path 0-1-2 where node 2 is antipodal to node 1: its only weight is 0,
    # so its influence is 0 (not 0/0), which theta = 0 still reaches
    rows = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    g = assign_edge_weights(raw_from_edges(3, [(0, 1), (1, 2)]), make_unit_features(rows))
    assert g.weighted_degree[2] == 0.0
    cfg = BaselineConfig(model=LT, lt_dist=CONSTANT, lt_theta=0.0)
    rec = run_lt(g, [0], cfg, 0)
    assert list(rec.activation_time) == [0, 1, 1]
    cfg = BaselineConfig(model=LT, lt_dist=CONSTANT, lt_theta=0.5)
    assert list(run_lt(g, [0], cfg, 0).activation_time) == [0, 1, -1]


def test_lt_star_hub_seed():
    g = star_graph(6)
    cfg = BaselineConfig(model=LT, lt_dist=CONSTANT, lt_theta=0.5)
    rec = run_lt(g, [0], cfg, rng_seed=0)
    # every leaf's sole neighbor is the hub: influence 1 >= 0.5 at round 1
    assert rec.final_spread == 7
    assert np.all(rec.activation_time[1:] == 1)


def test_lt_uniform_thresholds_reproducible(pa_graph_small):
    g = pa_graph_small
    cfg = BaselineConfig(model=LT, lt_dist="uniform")
    a = run_lt(g, [0], cfg, rng_seed=7)
    b = run_lt(g, [0], cfg, rng_seed=7)
    assert np.array_equal(a.activation_time, b.activation_time)


def test_kcomplex_single_seed_stalls(pa_graph_small):
    rec = run_kcomplex(pa_graph_small, [0], k=2)
    assert rec.final_spread == 1


def test_kcomplex_k1_is_simple_contagion(pa_graph_small):
    rec = run_kcomplex(pa_graph_small, [0], k=1)
    assert rec.final_spread == pa_graph_small.n


def test_kcomplex_triangle_closure():
    rec = run_kcomplex(triangle_graph(), [0, 1], k=2)
    assert rec.final_spread == 3
    assert rec.activation_time[2] == 1


def test_kcomplex_deterministic_no_rng():
    g = triangle_graph()
    a = run_kcomplex(g, [0, 1], k=2)
    b = run_kcomplex(g, [0, 1], k=2)
    assert a.rng_seed is None
    assert np.array_equal(a.activation_time, b.activation_time)


def test_all_models_monotone_and_bounded(pa_graph_small):
    g = pa_graph_small
    cfg = BaselineConfig(model=LT, lt_dist="uniform")
    recs = [
        run_ic(g, [1], 0.4, rng_seed=3),
        run_lt(g, [1], cfg, rng_seed=3),
        run_kcomplex(g, [1, 2, 3], k=2),
    ]
    for rec in recs:
        assert rec.converged_at <= g.n + 1
        assert rec.new_per_step.sum() == rec.final_spread
        times = rec.activation_time[rec.activation_time >= 0]
        assert times.max() <= rec.converged_at
